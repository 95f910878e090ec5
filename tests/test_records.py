"""The package's value records are immutable: no field can be assigned."""

import ast
import pathlib
from fractions import Fraction

import pytest

from localcorrect.acceptance import CriterionResult
from localcorrect.analysis import InfluenceReport
from localcorrect.boolfn import JuntaSpec
from localcorrect.correctors import InfluenceCorrectorParams, PartitionState
from localcorrect.harness import ExperimentConfig
from localcorrect.oracle import ExplicitFlips, IidFlips

RECORDS = [
    JuntaSpec(4, 0b1000, (1, 3)),
    ExplicitFlips(4, frozenset([1, 5])),
    IidFlips(Fraction(1, 3), 5),
    InfluenceCorrectorParams(2),
    PartitionState((0, 1, 0), frozenset([0]), (0, 1), 0b111),
    InfluenceReport(Fraction(1, 2), True),
    ExperimentConfig(),
    CriterionResult(1, "name", True, "detail", 0.5),
]


PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "localcorrect"


def namedtuple_classes():
    """Every class in the package source with a namedtuple(...) base."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Call)
                    and getattr(base.func, "id", getattr(base.func, "attr", None)) == "namedtuple"
                    for base in node.bases):
                yield node.name


def test_every_record_is_checked():
    # A namedtuple record missing from RECORDS would escape the checks below.
    assert set(namedtuple_classes()) == {type(r).__name__ for r in RECORDS}


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
