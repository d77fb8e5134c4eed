"""Which classes pay for ``@dataclass`` code generation at import.

A dataclass writes and compiles its ``__init__``, ``__repr__`` and ``__eq__``
when its module is imported, and each fresh process pays that again.  So
only the classes whose generated behaviour something reads stay dataclasses;
immutable value types are ``NamedTuple``s and mutable state records are
slotted classes.  This pins the split by listing classes, not by timing an
import.
"""

import dataclasses
import importlib

import pytest

LAYERS = ("chain", "cli", "dispute", "econ", "errors", "harness",
          "lightclient", "protocol", "stopwatch", "txgraph")

# each kept for what reads its generated behaviour
DATACLASSES = {
    "harness.Scenario",  # dataclasses.fields and ==
    "txgraph.SimTx",  # dataclasses.replace and FrozenInstanceError
    "econ.CostTable",  # validates in __post_init__
    "econ.TimingParams",  # validates in __post_init__
    "dispute.Outcome",  # refuses winner == loser in __post_init__
    "dispute.DisputeGame",  # arity and read_steps read as class attributes
    "harness.RunReport",  # its cached_property needs __dict__
}

VALUE_TYPES = ("chain.BlockHeader", "chain.InclusionProof", "chain.CensorSpec",
               "dispute.ExecutionTrace", "lightclient.CheckChainInput",
               "lightclient.AltChainInput", "harness.Verdict")

# a state record and the arguments of one instance
STATE_RECORDS = {
    "protocol.PegIn": ("u0", 1, "pkt0:vmxo0"),
    "protocol.PegOut": ("u0", 1),
    "txgraph.Vmxo": (1,),
    "stopwatch.StopWatch": ("f0", 4),
    "chain.SimClock": (),
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


def test_only_the_kept_classes_are_dataclasses():
    assert {name for name, cls in CLASSES.items()
            if dataclasses.is_dataclass(cls)} == DATACLASSES


@pytest.mark.parametrize("name", sorted(DATACLASSES))
def test_each_dataclass_has_its_own_docstring(name):
    # without one, dataclass calls inspect.signature to write "Name(...)"
    cls = CLASSES[name]
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")


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
