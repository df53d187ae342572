"""The record classes (`state.record`, `state.hashed`, and the hand-written
`explore.StepLabel`) behave as the frozen dataclasses they replace: equal
fields give equal objects with equal hashes, a record never equals one of
another class, fields cannot be assigned, copies and pickles are equal to
the original, and the default repr is a dataclass's.  And importing the
command line loads none of the modules that made start-up slow.

`rarcheck.litmus` gives tokens as plain tuples; the record `Tok` checked
here is the reference front end's (`reference_parser.py`)."""

import copy
import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import reference_parser
from rarcheck import (assertions, cli, explore, litmus, objects, program,
                      refine, state)
from rarcheck.state import Hashed, Record

RECORDS = sorted(
    {v for m in (assertions, explore, litmus, objects, program, refine, state,
                 reference_parser)
     for v in vars(m).values()
     if isinstance(v, type) and issubclass(v, Record)
     and v not in (Record, Hashed)}, key=lambda c: c.__name__)


def _values(cls, tag=""):
    """Hashable sample values, one per field."""
    return tuple(f"{tag}{f}" for f in cls._fields)


def test_every_record_class_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) == 48
    assert {"Action", "Seq", "Step", "Poss", "ProofOutline", "StepLabel",
            "ExploreResult", "Tok", "LitmusFile", "System", "ObjectSpec",
            "Impl", "SimulationResult", "TraceCheckResult"} <= names
    hashed = {cls.__name__ for cls in RECORDS if issubclass(cls, Hashed)}
    assert len(hashed) == 35  # actions, commands, expressions, assertions


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_objects_and_hashes(cls):
    a, b = cls(*_values(cls)), cls(*_values(cls))
    assert a == b and not a != b and hash(a) == hash(b)
    if cls._fields:
        c = cls(*_values(cls, "other "))
        assert a != c


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_of_two_classes_are_unequal(cls):
    a = cls(*_values(cls))
    for other in RECORDS:
        if other is not cls and len(other._fields) == len(cls._fields):
            assert a != other(*_values(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned(cls):
    a = cls(*_values(cls))
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = None
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal(cls):
    a = cls(*_values(cls))
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a and hash(b) == hash(a)
        assert [getattr(b, f) for f in cls._fields] == list(_values(cls))


@pytest.mark.parametrize("cls", [c for c in RECORDS
                                 if c.__repr__ is Record.__repr__],
                         ids=lambda c: c.__name__)
def test_default_repr_is_a_dataclass_repr(cls):
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields)
    assert repr(cls(*_values(cls))) == repr(twin(*_values(cls)))


def test_records_with_unhashable_fields():
    # a record holding a dict compares by value, and hashing it fails as
    # hashing a frozen dataclass holding one does
    step = program.Step("eps", None, program.Bot(), {"r": 1})
    assert step == program.Step("eps", None, program.Bot(), {"r": 1})
    assert step != program.Step("eps", None, program.Bot(), {"r": 2})
    with pytest.raises(TypeError):
        hash(step)
    with pytest.raises(TypeError):
        program.Seq(program.Bot(), [])  # a node hashes as it is made


def test_step_label_renders_once_and_keeps_its_fields():
    act = state.write("x", 1)
    label = explore.StepLabel("client", act, 2)
    assert label.text == "wr(x,1)@2"
    assert label == explore.StepLabel("client", state.write("x", 1), 2)
    assert label != explore.StepLabel("library", act, 2)
    assert repr(label) == ("StepLabel(component='client', action=wr(x,1), "
                           "rank=2, at_hole=False)")
    assert explore.StepLabel("library", None).text == "eps[L]"


def test_importing_the_cli_loads_no_slow_module():
    # a structural guard, not a timing gate: these modules cost most of the
    # start-up time before records were built without them
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import rarcheck.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', "
            "'importlib.resources') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stderr
