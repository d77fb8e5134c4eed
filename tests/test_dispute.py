import random

import pytest

from bridgesim import dispute
from bridgesim.chain import _digest
from bridgesim.dispute import (DisputeGame, ExecutionTrace, Outcome, Phase,
                              Reason, challenge, leaf_check, open_game,
                              resolve_no_challenge, reveal_trace, run_search,
                              search_round, settle_counter_proof, step)
from bridgesim.errors import (DifficultyNotHigher, MalformedInput,
                             TimeoutExpired, WrongPhase, WrongTurn)
from bridgesim.stopwatch import StopWatch

import pins
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


def test_publication_out_of_turn_refused_before_the_clock_moves():
    # the commit-proof stops the prover's watch and starts the verifier's:
    # a publication by the prover now is out of turn, refused with the
    # clock, the publications and both watches as they were
    g = new_game(16, corrupt_at=3)

    def state():
        return (g.clock, list(g.publications),
                {p: (w.total, w.running_since) for p, w in g.watches.items()})

    before = state()
    assert g.watches["p"].running_since is None
    with pytest.raises(WrongTurn):
        g._publish("p", "publish-hashes", 3)
    assert state() == before
    g._publish("v", "challenge", 3)
    assert g.clock == 3 and g.watches["p"].running_since == 3


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
    out = resolve_no_challenge(g)
    assert out.winner == "p" and out.reason == Reason.NO_CHALLENGE
    with pytest.raises(WrongPhase):
        resolve_no_challenge(g)


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
                  main_difficulty=inp.claimed_difficulty,
                  main_anchor_id=inp.headers[0].id)


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
              main_difficulty=inp.claimed_difficulty,
              main_anchor_id=inp.headers[0].id)
    inner = g.nested
    challenge(inner)
    inner_out = run_search(inner)
    assert inner_out.loser == "v"  # alt submitter fails to prove
    settle_counter_proof(g)
    assert g.phase == Phase.AWAIT_CHALLENGE
    assert g.alt_defeated
    with pytest.raises(WrongPhase):
        challenge(g, "AltChain", alt_input=alt,
                  main_difficulty=inp.claimed_difficulty,
                  main_anchor_id=inp.headers[0].id)
    out = resolve_no_challenge(g)
    assert out == Outcome("p", "v", Reason.COUNTER_PROOF_DEFEATED)


def test_execution_challenge_after_defeated_counter_proof():
    # the outer game resumes awaiting an execution challenge, and a corrupted
    # prover still loses it at the first wrong transition
    pos = 11
    g = new_game(16, corrupt_at=pos)
    inp, alt = make_alt(valid=False, d2=999)
    challenge(g, "AltChain", alt_input=alt,
              main_difficulty=inp.claimed_difficulty,
              main_anchor_id=inp.headers[0].id)
    challenge(g.nested)
    run_search(g.nested)
    watch = g.watches["p"]
    total = watch.total
    settle_counter_proof(g)
    # the prover's watch stops where the counter-proof started it
    assert (watch.total, watch.running_since) == (total, None)
    challenge(g, "Execution")
    out = run_search(g)
    assert out == Outcome("v", "p", Reason.CONFLICTING_COMMIT)
    assert g.isolated_step == pos


def test_nesting_depth_at_most_one():
    g = new_game(16)
    inp, alt = make_alt(valid=True)
    challenge(g, "AltChain", alt_input=alt,
              main_difficulty=inp.claimed_difficulty,
              main_anchor_id=inp.headers[0].id)
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


@pytest.mark.parametrize("length,arity", [(64, 2), (64, 4), (27, 3)])
def test_watch_total_is_the_sum_of_its_intervals(monkeypatch, length, arity):
    # the games of test_search_publication_pattern, checked after every
    # publication against the intervals each watch's stop committed; then
    # one whose prover stalls into a timeout
    checked, sums = [], {}
    publish, stop = DisputeGame._publish, StopWatch.stop

    def summing_stop(watch, now):
        since = watch.running_since
        total = stop(watch, now)
        sums[watch.party] = sums.get(watch.party, 0) + now - since
        return total

    def checked_publish(game, party, action, delay):
        try:
            publish(game, party, action, delay)
        finally:
            for watch in game.watches.values():
                assert watch.total == sums.get(watch.party, 0), (action, watch)
            checked.append(action)

    monkeypatch.setattr(StopWatch, "stop", summing_stop)
    monkeypatch.setattr(DisputeGame, "_publish", checked_publish)
    for pos in list(range(1, length + 1)) + [None]:
        checked.clear()
        sums.clear()
        g = new_game(length, corrupt_at=pos, arity=arity)
        challenge(g)
        run_search(g)
        assert checked == [a for _, _, a in g.publications[1:]], pos
    sums.clear()
    g = new_game(length, corrupt_at=1, arity=arity, threshold=10)
    challenge(g)
    with pytest.raises(TimeoutExpired):
        run_search(g, prover_delay=4)
    assert g.watches["p"].total == 12 > g.watches["p"].threshold


def test_negative_delay_refused_before_the_clock_moves():
    # a negative delay would wind the game clock back and keep the
    # responder's watch below its threshold forever; either party's is
    # refused before the round's first publication, so the game is left
    # as it was and can go on
    g = new_game(16, corrupt_at=5, threshold=10)

    def state():
        return (g.clock, list(g.publications), g.phase, g.rounds, g.lo,
                g.hi, g.divergence, {p: (w.total, w.running_since)
                                     for p, w in g.watches.items()})

    def refused(move, *delays, **kwargs):
        before = state()
        with pytest.raises(MalformedInput):
            move(g, *delays, **kwargs)
        assert state() == before, (move, delays, kwargs)

    refused(challenge, delay=-3)
    challenge(g)
    refused(run_search, prover_delay=-100)
    for delays in ((-1, 1), (1, -1), (-2, -2)):
        refused(search_round, *delays)
    # zero stays legal
    search_round(g, prover_delay=0, verifier_delay=0)
    assert g.publications[-2:] == [(1, "p", "publish-hashes"),
                                   (1, "v", "publish-choice")]
    search_round(g)
    assert g.phase == Phase.TRACE_REVEAL
    for delays in ((-1, 1), (1, -1)):
        refused(reveal_trace, *delays)
    reveal_trace(g)
    for delays in ((-1, 1), (1, -1)):
        refused(search_round, *delays)
    while g.phase == Phase.READ_SEARCH:
        search_round(g)
    refused(leaf_check, -1)
    assert leaf_check(g) == Outcome("v", "p", Reason.CONFLICTING_COMMIT)


def _game_state(g):
    """What a refused move must leave as it was."""
    return (g.phase, g.clock, list(g.publications), g.rounds, g.lo, g.hi,
            g.nested, g.alt_defeated, g.outcome,
            {p: (w.total, w.running_since) for p, w in g.watches.items()})


def _challenged():
    g = new_game(16, corrupt_at=5)
    challenge(g)
    return g


def _countered():
    """A game whose counter-proof's nested game is open."""
    g = new_game(16)
    inp, alt = make_alt()
    challenge(g, "AltChain", alt_input=alt,
              main_difficulty=inp.claimed_difficulty,
              main_anchor_id=inp.headers[0].id)
    return g


def _upheld():
    g = _countered()
    challenge(g.nested)
    run_search(g.nested)
    settle_counter_proof(g)
    return g


def _alt_challenge(anchor=None, **changes):
    """An alt-chain challenge with ``changes`` to its input, anchored at
    ``anchor`` if given."""
    def move(g):
        inp, alt = make_alt()
        challenge(g, "AltChain", alt_input=alt._replace(**changes),
                  main_difficulty=inp.claimed_difficulty,
                  main_anchor_id=anchor or inp.headers[0].id)
    return move


# each move refused before any change: the game it is made in, the move,
# and the error with its message
REFUSED_MOVES = {
    "challenge-in-main-search": (
        _challenged, challenge, WrongPhase, "^MainSearch$"),
    "challenge-of-unknown-kind": (
        new_game, lambda g: challenge(g, "Bogus"), ValueError, "^Bogus$"),
    "alt-chain-not-anchored": (
        new_game, _alt_challenge(anchor="elsewhere"), MalformedInput,
        "^alt chain not anchored at the peg-in block$"),
    "search-awaiting-challenge": (
        new_game, search_round, WrongPhase, "^AwaitChallenge$"),
    "reveal-in-main-search": (
        _challenged, reveal_trace, WrongPhase, "^MainSearch$"),
    "leaf-check-in-main-search": (
        _challenged, leaf_check, WrongPhase, "^MainSearch$"),
    "settle-an-upheld-counter-proof-again": (
        _upheld, settle_counter_proof, WrongPhase, "^Terminal$"),
    "settle-before-the-nested-game-ends": (
        _countered, settle_counter_proof, WrongPhase,
        "^nested game not terminal$"),
}


@pytest.mark.parametrize("case", list(REFUSED_MOVES))
def test_refused_move_changes_nothing(case):
    make, move, error, message = REFUSED_MOVES[case]
    g = make()
    before = _game_state(g)
    with pytest.raises(error, match=message):
        move(g)
    assert _game_state(g) == before


def test_alt_chain_with_no_headers_is_a_defeated_counter_proof():
    # nothing to anchor or check: check_alt_chain finds the input
    # malformed, so the submitter's claim is false and it loses the nested
    # game it opened
    g = new_game(16)
    _alt_challenge(headers=())(g)
    assert g.phase == Phase.COUNTER_PROOF
    challenge(g.nested)
    assert run_search(g.nested).loser == "v"
    settle_counter_proof(g)
    assert g.phase == Phase.AWAIT_CHALLENGE and g.alt_defeated
    assert resolve_no_challenge(g) == Outcome(
        "p", "v", Reason.COUNTER_PROOF_DEFEATED)


def test_zero_length_trace_refuses_challenge():
    g = new_game(0)
    with pytest.raises(MalformedInput):
        challenge(g)
    # nothing past the prover's commitment was published, and the game
    # still awaits a challenge
    assert g.phase == Phase.AWAIT_CHALLENGE
    assert [a for _, _, a in g.publications] == ["commit-proof"]
    assert g.clock == 0 and g.rounds == 0 and g.outcome is None


@pytest.mark.parametrize("corrupt_at,winner", [(1, "v"), (None, "p")])
def test_one_step_trace_game_plays_to_its_end(corrupt_at, winner):
    # the shortest trace with a transition: one search round isolates it
    g = new_game(1, corrupt_at=corrupt_at)
    challenge(g)
    assert (g.phase, g.lo, g.hi) == (Phase.MAIN_SEARCH, 0, 1)
    out = run_search(g)
    assert g.phase == Phase.TERMINAL and g.isolated_step == 1
    assert out.winner == winner and out.reason == Reason.CONFLICTING_COMMIT
    assert [a for _, _, a in g.publications][:4] == [
        "commit-proof", "challenge", "publish-hashes", "publish-choice"]


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


def game_state(g):
    """Everything a game exposes once played, nested game included."""
    return (g.publications, g.rounds, g.lo, g.hi, g.isolated_step,
            g.phase.value, g.outcome and (g.outcome.winner, g.outcome.loser,
                                          g.outcome.reason.value),
            g.clock, [(p, w.total, w.running_since)
                      for p, w in g.watches.items()],
            g.nested and game_state(g.nested))


def paper_depth_games(arity):
    """Games on 4**8-step traces: corrupt at one position per eighth of the
    trace plus 1 and the last step, a griefer, stalls by either party, and
    alt-chain counter-proofs refused, upheld and defeated."""
    n = 4 ** 8
    for pos in [1] + [s * n // 8 + 1 for s in range(1, 8)] + [n]:
        g = new_game(n, corrupt_at=pos, arity=arity)
        challenge(g)
        run_search(g)
        yield g
    g = new_game(n, arity=arity)
    challenge(g)
    run_search(g, verifier_honest=False)
    yield g
    for threshold in (16, 64, 100, 256):
        for stall_at in (1, 3, 6):
            delay = threshold // stall_at + 1
            for p_delay, v_delay, leaf in ((delay, 1, delay), (1, delay, 1),
                                           (1, 1, threshold + 1)):
                g = new_game(n, corrupt_at=n // 3, arity=arity,
                             threshold=threshold)
                challenge(g)
                with pytest.raises(TimeoutExpired):
                    run_search(g, prover_delay=p_delay,
                               verifier_delay=v_delay, leaf_delay=leaf)
                yield g
    for valid, d2, corrupt_at in ((True, 5, None), (True, None, None),
                                  (True, None, n // 5), (False, 999, None),
                                  (False, 999, n // 5)):
        g = new_game(n, corrupt_at=corrupt_at, arity=arity)
        inp, alt = make_alt(valid=valid, d2=d2)
        try:
            challenge(g, "AltChain", alt_input=alt,
                      main_difficulty=inp.claimed_difficulty,
                      main_anchor_id=inp.headers[0].id)
        except DifficultyNotHigher:
            yield g
            continue
        challenge(g.nested)
        run_search(g.nested)
        settle_counter_proof(g)
        if g.phase == Phase.AWAIT_CHALLENGE:
            if corrupt_at is None:
                resolve_no_challenge(g)
            else:
                challenge(g)
                run_search(g)
        yield g


def test_paper_depth_games_match_reference():
    games = [g for arity in (2, 4) for g in paper_depth_games(arity)]
    assert {g.outcome and g.outcome.reason for g in games} == \
        set(Reason) - {Reason.NO_CHALLENGE} | {None}
    assert pins.digest([repr(game_state(g))] for g in games) == \
        pins.PAPER_DEPTH_GAMES


def test_corrupting_twice_keeps_the_first_wrong_transition():
    honest = ExecutionTrace.honest("prog", 16)
    assert honest.corrupted_at(5).corrupted_at(9) == honest.corrupted_at(5)
    assert honest.corrupted_at(9).corrupted_at(5) == honest.corrupted_at(5)
    with pytest.raises(ValueError):
        honest.corrupted_at(17)


# -- the search compares committed states --------------------------------------

def boundaries(lo, hi, arity):
    """The segment ends of one round: lo + seg, lo + 2 seg, ... below hi,
    then hi, with seg = ceil((hi - lo) / arity)."""
    seg = -(-(hi - lo) // arity)
    bounds, b = [], lo + seg
    while b < hi:
        bounds.append(b)
        b += seg
    bounds.append(hi)
    return bounds


def digest_narrow(lo, hi, arity, prover, verifier):
    """Reference: the narrowing round that compares the two traces'
    commitments ``digest(b)`` at each boundary."""
    bounds = boundaries(lo, hi, arity)
    prev = lo
    for b in bounds:
        if prover.digest(b) != verifier.digest(b):
            return prev, b
        prev = b
    return lo, bounds[0]


def narrowing_pairs(length):
    """(prover, verifier) trace pairs of one length: every corruption
    position on either side, equal traces, two different programs (whose
    commitments disagree at every boundary), and both sides corrupted at
    different positions: each position against its mirror image and its
    neighbours, and every pair of positions up to length 16."""
    honest = ExecutionTrace.honest("prog", length)
    pairs = [(honest, honest),
             (honest, ExecutionTrace.honest("other", length)),
             (honest.corrupted_at(1), ExecutionTrace.honest("other", length))]
    for pos in range(1, length + 1):
        pairs += [(honest.corrupted_at(pos), honest),
                  (honest, honest.corrupted_at(pos))]
    both = {(a, b) for a in range(1, length + 1)
            for b in (length + 1 - a, a - 1, a + 1)
            if 1 <= b <= length and b != a}
    if length <= 16:
        both |= {(a, b) for a in range(1, length + 1)
                 for b in range(1, length + 1) if a != b}
    pairs += [(honest.corrupted_at(a), honest.corrupted_at(b))
              for a, b in sorted(both)]
    return pairs


def reads(trace, i, read_steps):
    """Reference: the read values step i of a trace consumes, as a trace of
    their own: wrong from the first read on when step i is a wrong
    transition."""
    wrong = step(trace.state(i - 1)) != trace.state(i)
    return ExecutionTrace(_digest("read", trace.program_id, i), read_steps,
                          1 if wrong else 0)


def read_pairs(length, read_steps=16):
    """The read traces ``reads(t, i, read_steps)`` of every isolated step
    i, for every corruption position and for equal traces."""
    honest = ExecutionTrace.honest("prog", length)
    pairs = set()
    for pos in [None] + list(range(1, length + 1)):
        prover = honest if pos is None else honest.corrupted_at(pos)
        for i in range(1, length + 1):
            pairs.add((reads(prover, i, read_steps),
                       reads(honest, i, read_steps)))
    # reads of different steps belong to different programs
    pairs.add((reads(honest, 1, read_steps), reads(honest, 2, read_steps)))
    return sorted(pairs, key=repr)


def assert_narrow_matches_digest(pairs, his, arity):
    for prover, verifier in pairs:
        for hi in his:
            for lo in range(hi):
                divergence = prover.first_divergence(verifier)
                assert (dispute._narrow(lo, hi, arity, divergence)
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
    # the engine opens every read search at (0, read_steps) with no
    # divergence; along the descent the digests of each reference read
    # pair pick the segment that _narrow picks with none
    pairs = read_pairs(16)
    assert {p.corrupt_from for p, _ in pairs} == {0, 1}
    for prover, verifier in pairs:
        lo, hi = 0, DisputeGame.read_steps
        while hi - lo > 1:
            ours = dispute._narrow(lo, hi, arity, None)
            assert ours == digest_narrow(lo, hi, arity, prover, verifier), \
                (prover, verifier, lo, hi)
            lo, hi = ours


def play(monkeypatch, by_digest, length, arity, pos, delays):
    g = new_game(length, corrupt_at=pos, arity=arity, threshold=delays[2])

    def narrow(lo, hi, arity, divergence):
        # digest_narrow over the game's own searched traces; the game's
        # divergence is never read
        traces = (g.prover_trace, g.verifier_trace)
        if g.phase == Phase.READ_SEARCH:
            traces = [reads(t, g.isolated_step, g.read_steps) for t in traces]
        return digest_narrow(lo, hi, arity, *traces)

    with monkeypatch.context() as m:
        if by_digest:
            m.setattr(dispute, "_narrow", narrow)
        challenge(g)
        try:
            run_search(g, prover_delay=delays[0], verifier_delay=delays[1],
                       leaf_delay=delays[0])
        except TimeoutExpired:
            pass
    return g.rounds, g.publications, g.lo, g.hi, g.isolated_step, g.outcome


@pytest.mark.parametrize("arity", [2, 4])
def test_full_games_match_digest_reference(monkeypatch, arity):
    n = 4 ** 8
    rng = random.Random(arity)
    positions = [None, 1, 2, n // 2, n - 1, n] + rng.sample(range(1, n + 1), 40)
    # unit delays, slow parties, and a staller who runs out their budget
    delays = [(1, 1, 10 ** 6), (3, 2, 10 ** 6), (40, 1, 100), (1, 40, 100)]
    for pos in positions:
        for d in delays:
            ours = play(monkeypatch, False, n, arity, pos, d)
            ref = play(monkeypatch, True, n, arity, pos, d)
            assert ours == ref, (pos, d)
            assert ours[-1] is not None


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


@pytest.mark.parametrize("reason", list(Reason))
def test_outcome_refuses_one_party_as_winner_and_loser(reason):
    with pytest.raises(ValueError, match="winner must differ from loser"):
        Outcome("p", "p", reason)


@pytest.mark.parametrize("missing",
                         ["alt_input", "main_difficulty", "main_anchor_id"])
def test_alt_chain_challenge_without_input_rejected(missing):
    g = new_game(16)
    inp, alt = make_alt(valid=True)
    kwargs = dict(alt_input=alt, main_difficulty=inp.claimed_difficulty,
                  main_anchor_id=inp.headers[0].id)
    del kwargs[missing]
    with pytest.raises(MalformedInput, match="^alt-chain challenge needs "):
        challenge(g, "AltChain", **kwargs)
    # nothing was published and the game still awaits a challenge
    assert g.phase == Phase.AWAIT_CHALLENGE and g.nested is None
    assert [a for _, _, a in g.publications] == ["commit-proof"]
