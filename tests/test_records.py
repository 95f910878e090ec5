"""The package's value records are immutable: no field can be assigned,
and the package itself reads every field."""

import ast
import pathlib
from fractions import Fraction

import pytest

from localcorrect.analysis import InfluenceReport
from localcorrect.boolfn import JuntaSpec
from localcorrect.correctors import InfluenceCorrectorParams
from localcorrect.harness import ExperimentConfig
from localcorrect.oracle import ExplicitFlips, IidFlips

RECORDS = [
    JuntaSpec(4, 0b1000, (1, 3)),
    ExplicitFlips(4, frozenset([1, 5])),
    IidFlips(Fraction(1, 3), 5),
    InfluenceCorrectorParams(2),
    InfluenceReport(Fraction(1, 2), True),
    ExperimentConfig(),
]


PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "localcorrect"


TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def namedtuple_classes():
    """(module, class, field names) for every class in the package source
    with a namedtuple("Name", "fields") base."""
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if (isinstance(base, ast.Call) and getattr(
                            base.func, "id", getattr(base.func, "attr", None)) == "namedtuple"):
                        yield module, node.name, base.args[1].value.split()


def test_every_record_is_checked():
    # A namedtuple record missing from RECORDS would escape the checks below.
    assert {name for _, name, _ in namedtuple_classes()} == {type(r).__name__ for r in RECORDS}


def test_every_record_field_is_read():
    """A field that no module of the package reads as an attribute is
    state that only the tests look at.  InfluenceReport's min_influence is
    the one exemption: the report already computes it, and ROADMAP item 4
    prints it."""
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unread = ["%s.%s.%s" % (module, name, field)
              for module, name, fields in namedtuple_classes()
              for field in fields if field not in read]
    assert unread == ["analysis.InfluenceReport.min_influence"]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_hold_only_their_fields(record):
    # Derived state is computed where it is used.  IidFlips is the one
    # exception: its keyed hasher is built once and copied per point.
    if isinstance(record, IidFlips):
        assert sorted(vars(record)) == ["_hasher", "_threshold"]
    else:
        assert not hasattr(record, "__dict__")
