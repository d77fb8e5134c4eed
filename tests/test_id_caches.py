"""Block header ids are memoised by their content and templates by their
recipe; each must still equal what a cache-free build gives, id included."""

import hashlib
import json

import pytest

from bridgesim import chain, txgraph
from bridgesim.chain import SOURCE, BlockHeader, ChainView, _digest
from bridgesim.harness import (Scenario, Strategy,
                               generate_adversarial_scenarios, run_scenario,
                               scenario_corpus)
from bridgesim.txgraph import TxKind, _serial, build_packet_templates
import pins
from test_txgraph import SimOutput, build_all, content, eager_reference

F10 = [f"f{i}" for i in range(10)]


def full_graph(deposit=0):
    g = build_packet_templates(F10, 4, 100_000, deposit)
    build_all(g)
    assert len(g.templates) == g.template_count()
    return g


def templates_equal_cache_free_builds(graph):
    """Every template equals the eager reference's, and its id is the hash
    of its content."""
    amount = graph.vmxos[graph.vmxo_ids[0]].amount
    reference = eager_reference(graph.functionaries, len(graph.vmxo_ids),
                                amount, graph.deposit_per_functionary)[0]
    for key, tx in graph.templates.items():
        assert content(tx) == content(reference[key]), key
        assert tx.id == reference[key].id, key
        serial = _serial(tx.template_kind, tx.inputs, tx.outputs, tx.vbytes)
        assert tx.id == hashlib.sha256(serial.encode()).hexdigest()[:16]


def _serial_at_pin(template_kind, inputs, outputs, vbytes):
    """A literal copy of ``txgraph._serial`` as it was when
    ``pins.PINNED_IDS`` was recorded, read from the output fields through
    ``SimOutput``: enum ``.value`` strings, signers sorted here, and the
    default ``json.dumps`` checks."""
    outs = [[o.kind.value, o.amount, sorted(o.signers), o.timelock,
             o.predicate, o.tag] for o in map(SimOutput._make, outputs)]
    return json.dumps([template_kind.value, inputs, outs, vbytes],
                      separators=(",", ":"))


def test_template_ids_match_the_pinned_serial():
    # a change to ``_serial`` would move the ids and the cache-free
    # references together, so the ids are pinned apart from it: each is
    # the hash of the pinned serial, and all of them hash to one constant
    g = full_graph(deposit=7_777)
    lines = []
    for key, tx in g.templates.items():
        serial = _serial_at_pin(tx.template_kind, tx.inputs, tx.outputs,
                                tx.vbytes)
        assert tx.id == hashlib.sha256(serial.encode()).hexdigest()[:16], key
        lines.append(" ".join((key[0].value, *key[1:], tx.id)))
    assert pins.digest([sorted(lines)]) == (pins.PINNED_IDS, 1)


def as_lists(value):
    """``value`` with every tuple, an output included, a list."""
    if isinstance(value, tuple):
        return [as_lists(item) for item in value]
    return value


# whole graphs, and a packet whose ids JSON escapes, listed out of sorted
# order so that sorting its signers moves them
@pytest.mark.parametrize("functionaries, vmxos", [
    *((F10[:n], v) for n in (2, 3, 10) for v in range(1, 5)),
    (["fé2", 'f"0', "f\\1"], 2)])
def test_the_flat_output_record_is_its_serial(functionaries, vmxos):
    g = build_packet_templates(functionaries, vmxos, 100_000, 7_777)
    build_all(g)
    for key, tx in g.templates.items():
        for out in tx.outputs:
            signers = SimOutput(*out).signers
            assert type(out) is type(signers) is tuple, key
            assert list(signers) == sorted(signers), key
        serial = _serial(tx.template_kind, tx.inputs, tx.outputs, tx.vbytes)
        assert json.loads(serial)[2] == as_lists(tx.outputs), key
        pinned = _serial_at_pin(tx.template_kind, tx.inputs, tx.outputs,
                                tx.vbytes)
        assert tx.id == hashlib.sha256(pinned.encode()).hexdigest()[:16], key


def sweep_and_corpus():
    return generate_adversarial_scenarios(500) + scenario_corpus()


def test_cached_ids_equal_cache_free_recomputation(run_with_bridge,
                                                   monkeypatch):
    # the sweep and the corpus, then a whole N = 10, V = 4 graph; every
    # header made, through the cache that mine_block and BlockHeader.make
    # call, is the one its arguments describe, id included
    made = []
    header_of = chain._header

    def recording_header(*args):
        made.append((args, header_of(*args)))
        return made[-1][1]

    monkeypatch.setattr(chain, "_header", recording_header)
    for sc in sweep_and_corpus():
        _, bridge = run_with_bridge(sc)
        templates_equal_cache_free_builds(bridge.graph)
    for (chain_id, height, parent_id, difficulty, txs), header in made:
        commit = _digest("txs", tuple(txs))
        hid = _digest(chain_id, height, parent_id, difficulty, commit)
        # a header is a tuple and equals any tuple of its fields: the type
        # is checked apart
        assert type(header) is BlockHeader
        assert header == BlockHeader(chain_id, height, parent_id, difficulty,
                                     commit, hid)
    assert len({h.id for _, h in made}) < len(made)  # headers made again
    assert {h.height for _, h in made} > {0, 1}  # mined, not only geneses
    templates_equal_cache_free_builds(full_graph())


def _digest_at_pin(*parts):
    """A literal copy of ``chain._digest`` as it was before it formatted
    its parts in one pass."""
    data = "\x00".join([*map(repr, parts), ""]).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _header_at_pin(chain_id, height, parent_id, difficulty, txs):
    """The ``(tx_commitment, id)`` that ``chain._header`` gave with that
    ``_digest``."""
    commit = _digest_at_pin("txs", tuple(txs))
    return commit, _digest_at_pin(chain_id, height, parent_id, difficulty,
                                  commit)


def test_header_ids_match_the_frozen_digest(run_with_bridge):
    # every header the corpus, the sweep and the N = 100 runs mine, forks
    # included, has the commitment and id the old digest gives its content
    checked = 0
    for sc in sweep_and_corpus() + [pins.n100_scenario(s) for s in Strategy]:
        bridge = run_with_bridge(sc)[1]
        for view in (bridge.source, bridge.secondary):
            for hid, h in view.headers.items():
                assert hid == h.id
                assert (h.tx_commitment, h.id) == _header_at_pin(
                    h.chain_id, h.height, h.parent_id, h.difficulty,
                    view.block_txs[hid]), sc.name
                checked += 1
    assert checked > 10_000
    # 1 and True hash alike but have different reprs, so different ids
    views = ChainView(SOURCE), ChainView(SOURCE)
    one, true = (view.mine_block(view.genesis.id, ["t"], d)
                 for view, d in zip(views, (1, True)))
    assert one.id != true.id and true.difficulty is True
    for h in (one, true):
        assert (h.tx_commitment, h.id) == _header_at_pin(
            SOURCE, 1, h.parent_id, h.difficulty, ["t"])


def test_templates_fill_in_the_same_order_cold_and_warm(run_with_bridge):
    # a graph's templates hold what its callers looked up, whatever the
    # process cache held, so the same keys in the same order either way
    def cold_and_warm(run):
        txgraph._TEMPLATE_CACHE.clear()
        cold = list(run().templates)
        assert list(run().templates) == cold

    for sc in sweep_and_corpus():
        cold_and_warm(lambda: run_with_bridge(sc)[1].graph)
    cold_and_warm(full_graph)


def test_a_lookup_holds_only_the_template_looked_up():
    # the parents an Unlocking build reads stay in the process cache
    key = (TxKind.UNLOCKING, "pkt0:vmxo0", "f0")
    reference = eager_reference(F10[:3], 2, 100_000, 0)[0][key]
    txgraph._TEMPLATE_CACHE.clear()
    for cached in (0, 4):  # cold, then warm
        assert len(txgraph._TEMPLATE_CACHE) == cached
        g = build_packet_templates(F10[:3], 2, 100_000)
        tx = g.template(*key)
        assert list(g.templates) == [key]
        assert content(tx) == content(reference)
        assert tx.id == reference.id


# the kinds protocol looks up, each to spend it; every other template is
# only a parent
LOOKED_UP = {TxKind.UNLOCKING, TxKind.FORCE_CLOSE}


def test_runs_hold_only_the_templates_protocol_looks_up(run_with_bridge):
    # each template a run looks up is spent, and it reads its parents' ids,
    # so every template a run builds has its id read
    for sc in sweep_and_corpus():
        graph = run_with_bridge(sc)[1].graph
        assert {key[0] for key in graph.templates} <= LOOKED_UP, sc.name
        for key, tx in graph.templates.items():
            assert set(tx.inputs) <= graph.spent, (sc.name, key)


def test_graphs_of_one_shape_hold_their_own_templates():
    a, b = (build_packet_templates(F10[:3], 2, 100_000, 7_000)
            for _ in range(2))
    a.sign_all()
    build_all(a)
    build_all(b)
    assert list(a.templates) == list(b.templates)
    for key, tx in a.templates.items():
        other = b.templates[key]
        assert tx is not other and content(tx) == content(other)
        assert tx.id == other.id
        assert tx.signatures is a.signers and other.signatures is b.signers
    assert set(a.template(TxKind.LOCKING, "pkt0:vmxo0").signatures) == \
        set(F10[:3])
    assert b.template(TxKind.LOCKING, "pkt0:vmxo0").signatures == {}


def test_only_deposit_create_reads_the_deposit():
    a, b = full_graph(7_000), full_graph(8_000)
    for key, tx in a.templates.items():
        if key[0] == TxKind.DEPOSIT_CREATE:
            assert tx.id != b.templates[key].id
        else:
            assert tx.id == b.templates[key].id, key


def counted_builds(monkeypatch) -> list:
    """From now on, each rule call's ``(kind, *ids)``, in order."""
    built = []
    for kind, (rule, ids) in list(txgraph._RULES.items()):
        def counted(graph, *args, kind=kind, rule=rule, **kwargs):
            built.append((kind, *args))
            return rule(graph, *args, **kwargs)
        monkeypatch.setitem(txgraph._RULES, kind, (counted, ids))
    return built


def clear_id_caches():
    txgraph._TEMPLATE_CACHE.clear()
    chain._FIRST_SIGHT.clear()
    chain._KEPT.clear()


def test_caches_stay_bounded_over_the_sweep(run_with_bridge, monkeypatch):
    clear_id_caches()
    built = counted_builds(monkeypatch)
    held = 0
    for sc in generate_adversarial_scenarios(500):
        held += len(run_with_bridge(sc)[1].graph.templates)
    assert 0 < len(built) < held  # hits: templates held but not built
    assert 0 < len(txgraph._TEMPLATE_CACHE) <= txgraph.TEMPLATE_CACHE_SIZE
    # a kept header is one looked up again, so a hit
    assert 0 < len(chain._FIRST_SIGHT) <= chain.HEADER_CACHE_SIZE
    assert 0 < len(chain._KEPT) <= 8 * chain.HEADER_CACHE_SIZE


def test_the_sweep_makes_each_recurring_header_once(monkeypatch):
    # a count, not a timer: the headers made, each two digests, on cold
    # caches and then again on warm ones.  A 128-entry LRU made 3,294 and
    # then 3,237, as most of the sweep's headers recur past its bound
    clear_id_caches()
    made = []
    commitment = chain.tx_commitment

    def counted(txs):
        made.append(txs)
        return commitment(txs)

    monkeypatch.setattr(chain, "tx_commitment", counted)
    scenarios = generate_adversarial_scenarios(500)
    passes = []
    for _ in range(2):
        made.clear()
        for sc in scenarios:
            run_scenario(sc)
        passes.append(len(made))
    assert passes == [1_015, 395]
    assert len(chain._KEPT) == 436


def test_one_off_blocks_leave_the_kept_tier_as_it_was():
    # the genesis recurs, so it is kept; each block mined on a fresh view
    # is seen once and only passes through the first-sight tier, so a
    # set-up of one-off headers holds no more than that tier's bound
    for _ in range(2):
        ChainView(SOURCE)
    kept = list(chain._KEPT)
    for i in range(3_000):
        view = ChainView(SOURCE)
        view.mine_block(view.genesis.id, [f"one-off-{i}"])
    assert list(chain._KEPT) == kept
    assert len(chain._FIRST_SIGHT) <= chain.HEADER_CACHE_SIZE


def test_the_kept_tier_evicts_its_oldest_past_its_bound(monkeypatch):
    # each block is looked up again while first seen, so each is kept, and
    # the kept tier holds the last eight times the bound
    monkeypatch.setattr(chain, "HEADER_CACHE_SIZE", 1)
    clear_id_caches()
    view, mined = ChainView(SOURCE), []
    for i in range(12):
        mined.append(view.mine_block(view.genesis.id, [f"tx{i}"]))
        assert view.mine_block(view.genesis.id, [f"tx{i}"]) is mined[-1]
        assert len(chain._FIRST_SIGHT) <= 1
    assert list(chain._KEPT.values()) == mined[-8:]
    # 1 and True hash alike, but a kept header is not the one True asks for
    true = view.mine_block(view.genesis.id, ["tx11"], True)
    assert true.difficulty is True and true.id != mined[-1].id


def test_a_slash_builds_no_kill_template(monkeypatch):
    # a committee-sized run whose adversary is slashed, on a cold cache
    txgraph._TEMPLATE_CACHE.clear()
    built = counted_builds(monkeypatch)
    sc = Scenario(name="committee-n50", seed=1, n_functionaries=50,
                  vmxo_count=4, n_pegins=2, n_pegouts=2, adversary=7,
                  strategy=Strategy.FAKE_PROOF_PROVER)
    report = run_scenario(sc)
    assert report.all_passed
    assert any(" ev=slashed loser=f7 " in line for line in report.log)
    # the slashed kick-off is published, never built; an unlocked one is
    # built as its Unlocking's parent
    assert (TxKind.KICKOFF, "pkt0:vmxo0", "f7") not in built
    assert (TxKind.KICKOFF, "pkt0:vmxo0", "f0") in built
    assert not [key for key in built if key[0] == TxKind.KILL_ENABLERS]
    assert (TxKind.ENABLER_CREATE, "f7") not in built


def test_a_cold_committee_run_builds_seven_templates(monkeypatch):
    # the template work of a cold N = 50 run, by count rather than by
    # timer: the CLI round trip's committee-n50 scenario builds two Locking,
    # two Kick-off, one EnablerCreate of N·V outputs and two Unlocking
    # templates, each encoded once, and the same run again builds none.
    # Every output encoded is an exact tuple, which the encoder writes in
    # place; it copies a list or a NamedTuple first
    txgraph._TEMPLATE_CACHE.clear()
    built = counted_builds(monkeypatch)
    encoded, inexact = [], []
    encode = txgraph._ENCODE

    def counted(content):
        encoded.append((content[0], len(content[2])))
        inexact.extend(out for out in content[2] if type(out) is not tuple)
        return encode(content)

    monkeypatch.setattr(txgraph, "_ENCODE", counted)
    sc = Scenario(name="committee-n50", seed=1, n_functionaries=50,
                  vmxo_count=4, n_pegins=2, n_pegouts=2, adversary=1,
                  strategy=Strategy.FAKE_PROOF_PROVER)
    assert run_scenario(sc).all_passed
    kinds = sorted(key[0] for key in built)
    assert kinds == sorted([TxKind.LOCKING, TxKind.KICKOFF] * 2
                           + [TxKind.ENABLER_CREATE] + [TxKind.UNLOCKING] * 2)
    assert sorted(kind for kind, _ in encoded) == kinds
    assert (TxKind.ENABLER_CREATE, 200) in encoded
    assert inexact == []
    built.clear()
    encoded.clear()
    assert run_scenario(sc).all_passed
    assert built == encoded == []


def counted_hashes(monkeypatch) -> list:
    """From now on, the kind of each template whose content is hashed."""
    hashed = []
    serial = txgraph._serial

    def counted(template_kind, *args):
        hashed.append(template_kind)
        return serial(template_kind, *args)

    monkeypatch.setattr(txgraph, "_serial", counted)
    return hashed


def test_an_id_is_hashed_once_per_recipe_at_build(monkeypatch):
    ids = {key: tx.id for key, tx
           in eager_reference(F10[:3], 2, 100_000, 0)[0].items()}
    txgraph._TEMPLATE_CACHE.clear()
    hashed = counted_hashes(monkeypatch)
    a, b = (build_packet_templates(F10[:3], 2, 100_000) for _ in range(2))
    assert hashed == []
    # the two graphs' copies carry their recipe's id, hashed at its build
    kick = (TxKind.KICKOFF, "pkt0:vmxo0", "f0")
    assert content(a.template(*kick)) == content(b.template(*kick))
    assert hashed == [TxKind.KICKOFF]
    assert a.template(*kick).id == b.template(*kick).id == ids[kick]
    assert hashed == [TxKind.KICKOFF]
    # an Unlocking build hashes the parents it builds, then itself
    unlock = (TxKind.UNLOCKING, "pkt0:vmxo0", "f0")
    tx = a.template(*unlock)
    assert hashed == [TxKind.KICKOFF, TxKind.LOCKING, TxKind.ENABLER_CREATE,
                      TxKind.UNLOCKING]
    assert tx.id == b.template(*unlock).id == ids[unlock]
    assert len(hashed) == 4


def test_a_slashed_kickoff_is_never_built(monkeypatch, run_with_bridge):
    # its outputs are never spent, so no template reads it as a parent, and
    # publishing it builds nothing; the unlocked ones are built as parents
    # of their Unlockings and hashed once each
    txgraph._TEMPLATE_CACHE.clear()
    hashed = counted_hashes(monkeypatch)
    sc = Scenario(name="committee-n10", seed=1, n_functionaries=10,
                  vmxo_count=4, n_pegins=2, n_pegouts=2, adversary=7,
                  strategy=Strategy.FAKE_PROOF_PROVER)
    report, bridge = run_with_bridge(sc)
    assert any(" ev=slashed loser=f7 " in line for line in report.log)
    assert any(" ev=kickoff honest=False operator=f7 " in line
               for line in report.log)
    kickoffs = {key[1][1:]: tx for key, tx in txgraph._TEMPLATE_CACHE.items()
                if key[1][0] == TxKind.KICKOFF}
    assert set(kickoffs) == {("pkt0:vmxo0", "f0"), ("pkt0:vmxo1", "f0")}
    assert hashed.count(TxKind.KICKOFF) == 2
    assert not [key for key in bridge.graph.templates
                if key[0] == TxKind.KICKOFF]


@pytest.mark.parametrize("size", [0, 1])
def test_a_cache_too_small_to_hit_builds_the_same(size, monkeypatch):
    monkeypatch.setattr(txgraph, "TEMPLATE_CACHE_SIZE", size)
    txgraph._TEMPLATE_CACHE.clear()
    g = full_graph()
    assert len(txgraph._TEMPLATE_CACHE) <= size
    templates_equal_cache_free_builds(g)
