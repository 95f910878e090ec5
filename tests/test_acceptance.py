"""The acceptance criteria, one parametrized test: each must pass with its
detail text, which is fixed by the criterion's seeds.

Also runnable outside pytest via `localcorrect bench`.
"""

import random
from fractions import Fraction

import pytest

from localcorrect import acceptance, harness
from localcorrect.correctors import CorrectionResult
from localcorrect.harness import derive_seed, find_corrupted_point
from localcorrect.oracle import IidFlips, parse_corruption

# Each criterion's detail text, in number order.
DETAILS = [
    "0 nonzero subcube sums (expected 0)",
    "success rate 0.8892 (floor 0.85, theory ~0.879)",
    "success rates (floor 0.70): all-zeros 1.000, corrupted 1.000",
    "all 60 coordinates within tolerance",
    "all closed forms match",
    "low-influence fraction 0.0000 (must be exactly 0)",
    "all exact comparisons hold",
    "uniform hit=0.0010 theory=0.000896 adv=0.0075 (caps 0.06/0.05); "
    "cube adv=0.5000 (floor 0.35)",
    "layer-only=True identical=True fraction=35/128",
    "byte-identical: correct=True lowerbound=True",
]


@pytest.mark.parametrize("criterion, detail", [
    pytest.param(criterion, detail, id=name.replace(" ", "-"))
    for (name, criterion), detail in zip(acceptance.ALL_CRITERIA, DETAILS, strict=True)])
def test_criterion(criterion, detail, capsys):
    assert criterion() == (True, detail)
    # `bench` prints each criterion's line, so a criterion prints nothing.
    assert capsys.readouterr().out == ""


def test_criterion_3_modes_keep_their_x_and_seeds(monkeypatch):
    # Both modes read 1.000, so the detail line alone cannot tell them
    # apart: all-zeros corrects x=0 with a generator of derive_seed(0xC3,
    # t), corrupted the 0xC3A corrupted point with one of derive_seed(0xC4,
    # t), each read by its state as the call begins.  One chunk, so that
    # every call is recorded in this process.
    calls = []
    real = harness.influence_correct

    def recorded(oracle, x, k, rng):
        calls.append((x, rng.getstate()))
        return real(oracle, x, k, rng)

    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    monkeypatch.setattr(harness, "influence_correct", recorded)
    corruption = IidFlips(Fraction(1, 4096), 0xC3F)
    for _, x_seed, trial_seed in acceptance._CRITERION_3_MODES:
        assert acceptance._rate("influence", 8, 128, 0xC3, corruption,
                                x_seed, trial_seed, 2) == (1.0, None)
    corrupted = find_corrupted_point(128, corruption, 0xC3A)
    assert corrupted != 0
    assert calls == [(x, random.Random(derive_seed(seed, t)).getstate())
                     for x, seed in ((0, 0xC3), (corrupted, 0xC4)) for t in (0, 1)]


@pytest.mark.parametrize("off", [{1: 1, 4: 4}, {4: 4}, {}, {2: -2, 3: 3}],
                         ids=["both-chunks", "child", "none", "under"])
def test_rate_reports_the_lowest_off_budget_trial(off, monkeypatch):
    # Trial t makes off[t] queries more than the 15 of a k=3 correction,
    # or fewer where off[t] is negative, each one a real query of the
    # oracle, whose counter _rate reads; the trial is known by its
    # generator's state as the call begins.  Over two chunks, [0, 3) here
    # and [3, 5) in a child, the message is the lowest such trial's,
    # wherever it ran.
    real = harness.cube_sum_correct
    extra = {random.Random(derive_seed(2, t)).getstate(): d for t, d in off.items()}

    def off_budget(oracle, x, k, rng):
        spent = extra.get(rng.getstate(), 0)
        if spent < 0:
            values = oracle.query_many([x] * (15 + spent))
            return CorrectionResult(values[0], len(values))
        res = real(oracle, x, k, rng)
        oracle.query_many([x] * spent)
        return res

    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "FORK_MIN_QUERIES", 1)
    monkeypatch.setattr(harness, "cube_sum_correct", off_budget)
    got = acceptance._rate("cube", 3, 8, 1, parse_corruption("none", 8), None, 2, 5)
    assert got == ((None, "query count %d != 15" % (15 + off[min(off)])) if off else (1.0, None))
