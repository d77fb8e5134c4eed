"""No class in ``src/bridgesim`` is a dataclass.

A dataclass writes and compiles its ``__init__``, ``__repr__`` and ``__eq__``
when its module is imported, and the ``dataclasses`` module pulls in
``inspect``, so each fresh process pays for both.  Immutable value types are
``NamedTuple``s, mutable state records are slotted classes, the scenario and
a game's outcome are ``SimpleNamespace`` records, which compare and print by
field, and the records whose readers need more are hand-written with exactly
what those readers use: each has a test below.  This pins the split by
listing classes, not by timing an import; ``test_stdlib_only`` checks the
import itself.
"""

import dataclasses
import importlib
from types import SimpleNamespace

import pytest

from bridgesim.chain import CensorSpec
from bridgesim.dispute import DisputeGame, ExecutionTrace, Outcome, Reason
from bridgesim.econ import DISPUTE_ACTION_VBYTES, CostTable, TimingParams
from bridgesim.harness import (_FIELDS, RunReport, Scenario, Strategy,
                              run_scenario)
from bridgesim.txgraph import SimTx, TxKind, build_packet_templates
from test_txgraph import content

LAYERS = ("chain", "cli", "dispute", "econ", "errors", "harness",
          "lightclient", "protocol", "stopwatch", "txgraph")

# namespaces, compared and printed by field, each with what it adds
NAMESPACES = {
    "harness.Scenario",  # every field a keyword, fresh censor list
    "dispute.Outcome",  # refuses winner == loser
}
# hand-written, each with what its readers use
HAND_WRITTEN = NAMESPACES | {
    "txgraph.SimTx",  # refuses assignment, its id hashed from its content
    "econ.CostTable",  # prices read as class attributes, no arguments
    "econ.TimingParams",  # refuses inconsistent timelocks
    "dispute.DisputeGame",  # arity and read_steps read as class attributes
    "harness.RunReport",  # its cached_property needs __dict__
}

VALUE_TYPES = ("chain.BlockHeader", "chain.InclusionProof", "chain.CensorSpec",
               "dispute.ExecutionTrace", "lightclient.CheckChainInput",
               "lightclient.AltChainInput", "harness.Verdict")

# a state record and the arguments of one instance
STATE_RECORDS = {
    "protocol.PegIn": ("u0", 1, "pkt0:vmxo0"),
    "protocol.PegOut": ("u0", 1, "burn:u0:1"),
    "txgraph.Vmxo": (1,),
    "stopwatch.StopWatch": ("f0", 4),
}


def package_classes() -> dict[str, type]:
    """``layer.Name`` -> class, for every class a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"bridgesim.{layer}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = obj
    return found


CLASSES = package_classes()


def test_no_class_is_a_dataclass():
    assert HAND_WRITTEN <= set(CLASSES)
    assert all(issubclass(CLASSES[name], SimpleNamespace)
               for name in NAMESPACES)
    assert [name for name, cls in CLASSES.items()
            if dataclasses.is_dataclass(cls)] == []


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_each_dataclass_has_its_own_docstring(name):
    # each hand-written record says what it holds
    cls = CLASSES[name]
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")


def test_scenario_fields_are_its_keywords():
    # perfbench, the corpus and the tests build scenarios by keyword, and
    # the CLI test reads the fields as vars(Scenario()); harness._FIELDS
    # declares each field, its default and its place in the order
    default = Scenario()
    assert list(vars(default)) == list(_FIELDS)
    assert {name: field.default for name, field in _FIELDS.items()} == \
        vars(default)
    values = dict(name="s", seed=5, n_functionaries=4, denomination=7,
                  vmxo_count=3, n_pegins=3, n_pegouts=2, fee_rate=5,
                  challenge_window=9, watch_threshold=70, adversary=1,
                  strategy=Strategy.SILENT_PROVER, leak_all=True,
                  censor=[CensorSpec("f1", 3, 4)], t_sep=2)
    assert list(values) == list(_FIELDS)
    assert vars(Scenario(**values)) == values
    # the fields keep their order whatever the keywords' order
    assert list(vars(Scenario(**dict(reversed(values.items()))))) == \
        list(_FIELDS)
    # each scenario gets its own censor list; an explicit one is kept as
    # given, for validate to judge
    assert default.censor == [] and default.censor is not Scenario().censor
    assert default.censor is not _FIELDS["censor"].default
    assert Scenario(censor=values["censor"]).censor is values["censor"]
    assert Scenario(censor=None).censor is None
    # an unknown keyword is refused, and so is a field given by position
    with pytest.raises(TypeError, match="^Scenario\\(\\) got an unexpected "
                       "keyword argument 'pegout_limit'$"):
        Scenario(seed=1, pegout_limit=1)
    with pytest.raises(TypeError):
        Scenario("s")


def test_scenarios_compare_by_fields():
    sc = Scenario(name="a", seed=3, censor=[CensorSpec("f1", 3, 4)])
    assert sc == Scenario(name="a", seed=3, censor=[CensorSpec("f1", 3, 4)])
    assert sc != Scenario(name="a", seed=3)
    assert sc != Scenario(name="a", seed=4, censor=[CensorSpec("f1", 3, 4)])
    assert sc != vars(sc)
    # mutable, so unhashable
    assert Scenario.__hash__ is None
    assert repr(Scenario(seed=3)).startswith(
        "Scenario(name='scenario', seed=3, n_functionaries=3, ")


def test_templates_compare_by_content_and_id():
    # a run reads a template by its id alone, so a template compares and
    # hashes as itself; a test compares templates by content and id
    assert SimTx.__eq__ is object.__eq__
    assert SimTx.__hash__ is object.__hash__
    g = build_packet_templates(["f0", "f1"], 1, 100)
    g.sign_all()
    kick = g.template(TxKind.KICKOFF, g.vmxo_ids[0], "f0")
    fresh = SimTx(kick.template_kind, list(kick.inputs), list(kick.outputs),
                  kick.vbytes)
    # the signatures and the id are not content
    assert fresh.signatures == {} and kick.signatures != {}
    assert content(fresh) == content(kick) and fresh.id == kick.id
    for changed in (SimTx(kick.template_kind, kick.inputs, kick.outputs,
                          kick.vbytes + 1),
                    SimTx(TxKind.UNLOCKING, kick.inputs, kick.outputs,
                          kick.vbytes)):
        assert content(changed) != content(kick) and changed.id != kick.id
    # the graph's copy: the content and id of its recipe's template, and
    # the graph's own ceremony record
    again = build_packet_templates(["f0", "f1"], 1, 100)
    copy = again.template(TxKind.KICKOFF, again.vmxo_ids[0], "f0")
    assert copy is not kick and content(copy) == content(kick)
    assert copy.id == kick.id
    assert copy.signatures is again.signers is not g.signers


def test_cost_table_fields_are_its_class_attributes():
    # txgraph prices the kick-off by CostTable.commit_proof and the dispute
    # fees by DISPUTE_ACTION_VBYTES, unbuilt; the acceptance suite reads
    # CostTable.default()
    prices = {name: v for name, v in vars(CostTable).items()
              if type(v) is int}
    assert list(prices) == ["commit_proof", "challenge",
                            "publish_hashes_per_step",
                            "publish_choice_per_step", "publish_full_trace",
                            "publish_read_trace", "sha256_computation"]
    assert CostTable.commit_proof == 2513
    default = CostTable.default()
    assert vars(default) == {}
    assert {name: getattr(default, name) for name in prices} == prices
    assert set(DISPUTE_ACTION_VBYTES.values()) < set(prices.values())
    with pytest.raises(TypeError):
        CostTable(0)


def test_timing_params_read_back():
    # min_separation reads the fields; test_econ covers the refusals
    t = TimingParams(5, 3, 1, 2)
    assert (t.t_max, t.t_min, t.t_force, t.t_safety) == (5, 3, 1, 2)


def test_outcomes_compare_by_fields():
    out = Outcome("v", "p", Reason.TIMEOUT)
    assert (out.winner, out.loser, out.reason) == ("v", "p", Reason.TIMEOUT)
    assert out == Outcome("v", "p", Reason.TIMEOUT)
    assert out != Outcome("p", "v", Reason.TIMEOUT)
    assert out != Outcome("v", "p", Reason.CONFLICTING_COMMIT)
    assert out != ("v", "p", Reason.TIMEOUT)


def test_dispute_game_defaults_are_class_attributes():
    # harness._FIELDS reads both before any game exists
    assert (DisputeGame.arity, DisputeGame.read_steps) == (4, 16)
    honest = ExecutionTrace.honest("prog", 16)
    game = DisputeGame("p", "v", honest, honest)
    assert (game.arity, game.watch_threshold) == (4, 64)
    # a game's own arity leaves the class's default as it was
    assert DisputeGame("p", "v", honest, honest, arity=2).arity == 2
    assert DisputeGame.arity == 4


def test_run_report_caches_what_it_reads():
    report = run_scenario(Scenario(seed=3))
    rebuilt = RunReport(report.rows)
    assert rebuilt.verdicts == report.verdicts
    cached = ("log", "dispute_costs", "_meta")
    assert not set(cached) & set(vars(rebuilt))
    for name in cached:
        assert getattr(rebuilt, name) is getattr(rebuilt, name)
        assert name in vars(rebuilt)
    assert rebuilt.log == report.log


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_immutable_tuples(name):
    cls = CLASSES[name]
    assert issubclass(cls, tuple)
    value = cls._make(range(len(cls._fields)))
    for attr in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)


@pytest.mark.parametrize("name", sorted(STATE_RECORDS))
def test_state_records_are_slotted(name):
    cls = CLASSES[name]
    assert "__slots__" in vars(cls)
    record = cls(*STATE_RECORDS[name])
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.misspelt = None


def test_each_peg_in_gets_its_own_signature_set():
    peg_in = CLASSES["protocol.PegIn"]
    args = STATE_RECORDS["protocol.PegIn"]
    assert peg_in(*args).signatures is not peg_in(*args).signatures
