import random

import pytest

from bridgesim import dispute
from bridgesim.dispute import (DisputeGame, ExecutionTrace, Outcome, Phase,
                              Reason, challenge, leaf_check, open_game,
                              resolve_no_challenge, reveal_trace, run_search,
                              search_round, settle_counter_proof, step)
from bridgesim.errors import (DifficultyNotHigher, MalformedInput,
                             TimeoutExpired, WindowOpen, WrongPhase)

from test_lightclient import build_instance
from bridgesim.lightclient import AltChainInput


def new_game(trace_len=16, corrupt_at=None, arity=4, threshold=1000):
    honest = ExecutionTrace.honest("prog", trace_len)
    prover_trace = honest if corrupt_at is None else honest.corrupted_at(corrupt_at)
    return open_game("p", "v", None, prover_trace, honest, arity=arity,
                     watch_threshold=threshold)


def _rounds(length, arity):
    """Smallest r with arity**r >= max(2, length), in integers."""
    r = 0
    while arity ** r < max(2, length):
        r += 1
    return r


def max_rounds(trace_length, read_steps, arity):
    """Upper bound on on-chain search rounds, main plus read search: a
    reference the run code does not call."""
    return _rounds(trace_length, arity) + _rounds(read_steps, arity)


def test_main_search_rounds_log4_of_16():
    g = new_game(16, corrupt_at=9)
    challenge(g)
    rounds = 0
    while g.phase == Phase.MAIN_SEARCH:
        search_round(g)
        rounds += 1
    assert rounds == 2
    assert g.isolated_step == 9


@pytest.mark.parametrize("pos", range(1, 17))
def test_search_isolates_divergence_any_position(pos):
    g = new_game(16, corrupt_at=pos)
    challenge(g)
    while g.phase == Phase.MAIN_SEARCH:
        search_round(g)
    # brute-force oracle: first index where traces differ
    expected = next(i for i in range(17)
                    if g.prover_trace.digest(i) != g.verifier_trace.digest(i))
    assert g.isolated_step == expected == pos


def test_dishonest_prover_loses_leaf():
    g = new_game(16, corrupt_at=5)
    challenge(g)
    out = run_search(g)
    assert out.loser == "p"
    assert out.reason == Reason.CONFLICTING_COMMIT
    i = g.isolated_step
    assert step(g.prover_trace.state(i - 1)) != g.prover_trace.state(i)


def test_honest_prover_beats_griefing_verifier():
    g = new_game(16, corrupt_at=None)
    challenge(g)
    out = run_search(g, verifier_honest=False)
    assert out.winner == "p" and out.loser == "v"


def test_turn_alternation():
    g = new_game(16, corrupt_at=3)
    challenge(g)
    run_search(g)
    parties = [p for _, p, _ in g.publications]
    assert all(a != b for a, b in zip(parties, parties[1:]))


def test_round_bound():
    cases = [(n, arity) for n in (4, 16, 64) for arity in (2, 4)]
    for n, arity in cases + [(125, 5)]:
        g = new_game(n, corrupt_at=n // 2 or 1, arity=arity)
        challenge(g)
        run_search(g)
        assert g.rounds <= max_rounds(n, g.read_steps, arity)
    # 5**3 == 125 exactly: three main rounds plus one read round
    assert max_rounds(125, 2, 5) == 4


def test_silent_responder_times_out():
    g = new_game(16, corrupt_at=5, threshold=10)
    challenge(g)
    with pytest.raises(TimeoutExpired):
        search_round(g, prover_delay=100)
    assert g.outcome.loser == "p"
    assert g.outcome.reason == Reason.TIMEOUT


def test_expire_without_response():
    g = new_game(16, corrupt_at=5)
    challenge(g)
    out = g.expire("p")
    assert out == Outcome("v", "p", Reason.TIMEOUT)


def test_no_challenge_resolution():
    g = new_game(16)
    out = resolve_no_challenge(g, elapsed=101, window=100)
    assert out.winner == "p" and out.reason == Reason.NO_CHALLENGE
    with pytest.raises(WrongPhase):
        resolve_no_challenge(g, 200, 100)


def test_no_challenge_window_still_open():
    g = new_game(16)
    with pytest.raises(WindowOpen):
        resolve_no_challenge(g, elapsed=99, window=100)


def make_alt(valid=True, d2=None):
    inp, sec = build_instance()
    h1 = inp.headers[0]
    f1 = sec.mine_block(h1.id, [], difficulty=4)
    f2 = sec.mine_block(f1.id, [], difficulty=4)
    headers = (h1, f1, f2) if valid else inp.headers
    d = d2 if d2 is not None else sum(h.difficulty for h in headers)
    return inp, AltChainInput(headers, inp.pegin_proof, inp.pegin_header,
                              inp.headers[1].id, d)


def test_alt_chain_rejected_when_not_heavier():
    g = new_game(16)
    inp, alt = make_alt(valid=True, d2=5)
    with pytest.raises(DifficultyNotHigher):
        challenge(g, "AltChain", alt_input=alt,
                  main_difficulty=inp.claimed_difficulty)


def test_valid_counter_proof_defeats_prover():
    g = new_game(16)
    inp, alt = make_alt(valid=True)
    challenge(g, "AltChain", alt_input=alt,
              main_difficulty=inp.claimed_difficulty,
              main_anchor_id=inp.headers[0].id)
    assert g.phase == Phase.COUNTER_PROOF
    inner = g.nested
    challenge(inner)
    inner_out = run_search(inner)
    assert inner_out.winner == "v"  # alt submitter proves their chain
    settle_counter_proof(g)
    assert g.outcome == Outcome("v", "p", Reason.COUNTER_PROOF_UPHELD)


def test_bogus_counter_proof_loses_inner_and_outer_resumes():
    g = new_game(16)
    inp, alt = make_alt(valid=False, d2=999)
    challenge(g, "AltChain", alt_input=alt,
              main_difficulty=inp.claimed_difficulty)
    inner = g.nested
    challenge(inner)
    inner_out = run_search(inner)
    assert inner_out.loser == "v"  # alt submitter fails to prove
    settle_counter_proof(g)
    assert g.phase == Phase.AWAIT_CHALLENGE
    assert g.alt_defeated
    with pytest.raises(WrongPhase):
        challenge(g, "AltChain", alt_input=alt,
                  main_difficulty=inp.claimed_difficulty)
    out = resolve_no_challenge(g, elapsed=200, window=100)
    assert out == Outcome("p", "v", Reason.COUNTER_PROOF_DEFEATED)


def test_execution_challenge_after_defeated_counter_proof():
    # the outer game resumes awaiting an execution challenge, and a corrupted
    # prover still loses it at the first wrong transition
    pos = 11
    g = new_game(16, corrupt_at=pos)
    inp, alt = make_alt(valid=False, d2=999)
    challenge(g, "AltChain", alt_input=alt,
              main_difficulty=inp.claimed_difficulty)
    challenge(g.nested)
    run_search(g.nested)
    settle_counter_proof(g)
    assert g.watches["p"].intervals[-1] == 0
    challenge(g, "Execution")
    out = run_search(g)
    assert out == Outcome("v", "p", Reason.CONFLICTING_COMMIT)
    assert g.isolated_step == pos


def test_nesting_depth_at_most_one():
    g = new_game(16)
    inp, alt = make_alt(valid=True)
    challenge(g, "AltChain", alt_input=alt,
              main_difficulty=inp.claimed_difficulty)
    assert g.nested is not None
    assert g.nested.nested is None


def test_watch_equals_wall_clock_waits():
    g = new_game(16, corrupt_at=7)
    challenge(g, delay=2)
    run_search(g, prover_delay=3, verifier_delay=2)
    # oracle: waiting time per party from the publication log
    waits = {"p": 0, "v": 0}
    prev_t = 0
    for t, party, _ in g.publications[1:]:
        waits[party] += t - prev_t
        prev_t = t
    assert g.watches["p"].accumulated(g.clock) == waits["p"]
    assert g.watches["v"].accumulated(g.clock) == waits["v"]


@pytest.mark.parametrize("length,arity,read_rounds",
                         [(64, 2, 4), (64, 4, 2), (27, 3, 3)])
def test_search_publication_pattern(length, arity, read_rounds):
    # main and read search share one search_round; pin the actions each
    # phase publishes, at every corruption position and for a griefer (the
    # digest only covers arity 4 over 16 steps)
    for pos in list(range(1, length + 1)) + [None]:
        g = new_game(length, corrupt_at=pos, arity=arity)
        challenge(g)
        out = run_search(g)
        actions = [a for _, _, a in g.publications]
        k = actions.count("publish-hashes")
        r = actions.count("publish-read-hashes")
        assert actions == (["commit-proof", "challenge"]
                           + ["publish-hashes", "publish-choice"] * k
                           + ["publish-full-trace", "read-challenge"]
                           + ["publish-read-hashes", "publish-read-choice"] * r
                           + ["execute-leaf"]), pos
        assert r == read_rounds and k + r == g.rounds, pos
        if pos is None:
            assert out.loser == "v"
        else:
            assert g.isolated_step == pos and out.loser == "p"


def test_zero_length_trace_refuses_challenge():
    g = new_game(0)
    with pytest.raises(MalformedInput):
        challenge(g)
    # nothing past the prover's commitment was published, and the game
    # still awaits a challenge
    assert g.phase == Phase.AWAIT_CHALLENGE
    assert [a for _, _, a in g.publications] == ["commit-proof"]
    assert g.clock == 0 and g.rounds == 0 and g.outcome is None


@pytest.mark.parametrize("arity", [2, 4])
def test_paper_depth_game(arity):
    # 2**32 steps: every state is computed on demand, so a full game costs
    # only its rounds
    n = 2 ** 32
    for pos in (1, 2 ** 31, n, None):
        g = new_game(n, corrupt_at=pos, arity=arity)
        challenge(g)
        out = run_search(g)
        assert g.rounds == max_rounds(n, g.read_steps, arity)
        if pos is None:
            assert out.loser == "v"
        else:
            assert out.loser == "p" and g.isolated_step == pos
    assert max_rounds(n, 16, arity) == {2: 36, 4: 18}[arity]


def test_corrupting_twice_keeps_the_first_wrong_transition():
    honest = ExecutionTrace.honest("prog", 16)
    assert honest.corrupted_at(5).corrupted_at(9) == honest.corrupted_at(5)
    assert honest.corrupted_at(9).corrupted_at(5) == honest.corrupted_at(5)
    with pytest.raises(ValueError):
        honest.corrupted_at(17)


# -- the search compares committed states --------------------------------------

def digest_narrow(lo, hi, arity, prover, verifier):
    """Reference: the narrowing round that compares the two traces'
    commitments ``digest(b)`` at each boundary."""
    bounds = dispute._boundaries(lo, hi, arity)
    prev = lo
    for b in bounds:
        if prover.digest(b) != verifier.digest(b):
            return prev, b
        prev = b
    return lo, bounds[0]


def narrowing_pairs(length):
    """(prover, verifier) trace pairs of one length: every corruption
    position on either side, equal traces, and two different programs
    (whose commitments disagree at every boundary)."""
    honest = ExecutionTrace.honest("prog", length)
    pairs = [(honest, honest),
             (honest, ExecutionTrace.honest("other", length)),
             (honest.corrupted_at(1), ExecutionTrace.honest("other", length))]
    for pos in range(1, length + 1):
        pairs += [(honest.corrupted_at(pos), honest),
                  (honest, honest.corrupted_at(pos))]
    return pairs


def read_pairs(length, read_steps=16):
    """The read traces ``reads(i, read_steps)`` of every isolated step i,
    for every corruption position and for equal traces."""
    honest = ExecutionTrace.honest("prog", length)
    pairs = set()
    for pos in [None] + list(range(1, length + 1)):
        prover = honest if pos is None else honest.corrupted_at(pos)
        for i in range(1, length + 1):
            pairs.add((prover.reads(i, read_steps),
                       honest.reads(i, read_steps)))
    # reads of different steps belong to different programs
    pairs.add((honest.reads(1, read_steps), honest.reads(2, read_steps)))
    return sorted(pairs, key=repr)


def assert_narrow_matches_digest(pairs, his, arity):
    for prover, verifier in pairs:
        for hi in his:
            for lo in range(hi):
                assert (dispute._narrow(lo, hi, arity, prover, verifier)
                        == digest_narrow(lo, hi, arity, prover, verifier)), \
                    (prover, verifier, lo, hi)


@pytest.mark.parametrize("arity", [2, 3, 4, 5])
def test_narrow_matches_digest_reference(arity):
    # a round reads states lo+1..hi only, and a trace's states do not depend
    # on its length; so segment lo..hi of a longer trace is segment lo..hi
    # of the trace of length hi with the same corruption, or of the honest
    # one when the corruption starts past hi.  Segments ending at each
    # length cover every segment of every trace of length 1-40.
    for length in range(1, 41):
        assert_narrow_matches_digest(narrowing_pairs(length), [length], arity)


@pytest.mark.parametrize("arity", [2, 3, 4, 5])
def test_read_narrow_matches_digest_reference(arity):
    pairs = read_pairs(16)
    assert {p.corrupt_from for p, _ in pairs} == {0, 1}
    assert_narrow_matches_digest(pairs, range(1, 17), arity)


def play(monkeypatch, narrow, length, arity, pos, delays):
    with monkeypatch.context() as m:
        m.setattr(dispute, "_narrow", narrow)
        g = new_game(length, corrupt_at=pos, arity=arity,
                     threshold=delays[2])
        challenge(g)
        try:
            run_search(g, prover_delay=delays[0], verifier_delay=delays[1],
                       leaf_delay=delays[0])
        except TimeoutExpired:
            pass
    return g.rounds, g.publications, g.isolated_step, g.outcome


@pytest.mark.parametrize("arity", [2, 4])
def test_full_games_match_digest_reference(monkeypatch, arity):
    n = 4 ** 8
    rng = random.Random(arity)
    positions = [None, 1, 2, n // 2, n - 1, n] + rng.sample(range(1, n + 1), 40)
    # unit delays, slow parties, and a staller who runs out their budget
    delays = [(1, 1, 10 ** 6), (3, 2, 10 ** 6), (40, 1, 100), (1, 40, 100)]
    for pos in positions:
        for d in delays:
            ours = play(monkeypatch, dispute._narrow, n, arity, pos, d)
            ref = play(monkeypatch, digest_narrow, n, arity, pos, d)
            assert ours == ref, (pos, d)
            assert ours[3] is not None


# -- caller input --------------------------------------------------------------

@pytest.mark.parametrize("arity", [1, 0, -2])
def test_game_rejects_arity_below_two(arity):
    # arity 1 never narrows the segment, and arity 0 divides by zero
    with pytest.raises(ValueError):
        new_game(16, corrupt_at=5, arity=arity)
    honest = ExecutionTrace.honest("prog", 16)
    with pytest.raises(ValueError):
        DisputeGame("p", "v", honest, honest, arity=arity)


def test_game_rejects_same_prover_and_verifier():
    # one party would hold the game's only stop watch
    honest = ExecutionTrace.honest("prog", 16)
    with pytest.raises(ValueError):
        open_game("p", "p", None, honest.corrupted_at(5), honest)
    with pytest.raises(ValueError):
        DisputeGame("p", "p", honest, honest)


@pytest.mark.parametrize("missing", ["alt_input", "main_difficulty"])
def test_alt_chain_challenge_without_input_rejected(missing):
    g = new_game(16)
    inp, alt = make_alt(valid=True)
    kwargs = dict(alt_input=alt, main_difficulty=inp.claimed_difficulty)
    del kwargs[missing]
    with pytest.raises(MalformedInput):
        challenge(g, "AltChain", **kwargs)
    # nothing was published and the game still awaits a challenge
    assert g.phase == Phase.AWAIT_CHALLENGE and g.nested is None
    assert [a for _, _, a in g.publications] == ["commit-proof"]
