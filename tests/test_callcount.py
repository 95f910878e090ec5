"""Calls per correction at each benchmark workload's shape, and per
trial at cube-k4-flips', pinned: a count that the machine's load does
not move (tests/callcount.py holds the counting rule and the shapes).

A change that lowers a count re-pins it; one that raises a count gives
its reason in CHANGES.md.
"""

import sys

import pytest

from callcount import all_counts

# (Python calls, C calls) on seeds 1, 2 and 3, on Python 3.11.  Other
# versions compile the same source to other calls: 3.12, for one, inlines
# the list comprehensions (PEP 709) that 3.11 runs as calls.
PINS = {
    "cube-k4-flips": [(4, 37), (4, 37), (4, 37)],
    "cube-k4-flips-trial": [(9, 42), (9, 42), (9, 42)],
    "influence-k8-iid": [(178, 1345), (177, 1345), (177, 1355)],
    "lowerbound-blindness": [(20, 153), (20, 153), (20, 157)],
}


def test_calls_per_correction_are_pinned():
    counts = all_counts()
    assert all_counts() == counts, "two runs of the same seeds disagree"
    if sys.version_info[:2] != (3, 11):
        pytest.skip("call counts are pinned on Python 3.11 only, since other "
                    "versions compile the package to other calls; two runs "
                    "agreed")
    assert counts == PINS
