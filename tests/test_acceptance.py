"""The acceptance criteria, one parametrized test: each must pass with its
detail text, which is fixed by the criterion's seeds.

Also runnable outside pytest via `localcorrect bench`.
"""

from fractions import Fraction

import pytest

from localcorrect import acceptance, harness
from localcorrect.correctors import CorrectionResult
from localcorrect.harness import derive_seed, find_corrupted_point
from localcorrect.oracle import IidFlips, NoisyOracle, parse_corruption

# Each criterion's detail text, in number order.
DETAILS = [
    "0 nonzero subcube sums (expected 0)",
    "success rate 0.8892 (floor 0.85, theory ~0.879)",
    "success rates (floor 0.70): all-zeros 1.000, corrupted 1.000",
    "all 60 coordinates within tolerance",
    "all closed forms match",
    "low-influence fraction 0.0000 (must be exactly 0)",
    "all exact comparisons hold",
    "uniform hit=0.0010 theory=0.000896 adv=0.0015 (caps 0.06/0.05); "
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
    # apart: all-zeros corrects x=0 under derive_seed(0xC3, t), corrupted
    # the 0xC3A corrupted point under derive_seed(0xC4, t).  One chunk,
    # so that every call is recorded in this process.
    calls = []
    real = harness.influence_correct

    def recorded(oracle, x, k, seed):
        calls.append((x, seed))
        return real(oracle, x, k, seed)

    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    monkeypatch.setattr(harness, "influence_correct", recorded)
    corruption = IidFlips(Fraction(1, 4096), 0xC3F)
    for _, x_seed, trial_seed in acceptance._CRITERION_3_MODES:
        assert acceptance._rate("influence", 8, 128, 0xC3, corruption,
                                x_seed, trial_seed, 2) == (1.0, None)
    corrupted = find_corrupted_point(128, corruption, 0xC3A)
    assert corrupted != 0
    assert calls == [(0, derive_seed(0xC3, 0)), (0, derive_seed(0xC3, 1)),
                     (corrupted, derive_seed(0xC4, 0)), (corrupted, derive_seed(0xC4, 1))]


def test_successes_stops_at_first_count_off_budget(monkeypatch):
    # A corrector that spends one query too many on its second run.
    runs = []
    real = harness.cube_sum_correct

    def overspent(oracle, x, k, seed):
        res = real(oracle, x, k, seed)
        runs.append(seed)
        return CorrectionResult(res.value, res.queries_used + (len(runs) == 2))

    monkeypatch.setattr(harness, "cube_sum_correct", overspent)
    base, correct, _ = harness.build_base("cube", 3, 8, 1)
    oracle = NoisyOracle(8, base, parse_corruption("none", 8))
    got = acceptance._successes(oracle, correct, 0, base(0), 15, 2, 0, 5)
    assert got == (None, "query count 16 != 15")
    assert len(runs) == 2


@pytest.mark.parametrize("off", [[1, 4], [4], []], ids=["both-chunks", "child", "none"])
def test_rate_reports_the_lowest_off_budget_trial(off, monkeypatch):
    # Trial t spends t queries too many where t is in off.  Over two
    # chunks, [0, 3) here and [3, 5) in a child, the message is the lowest
    # such trial's, wherever it ran.
    real = harness.cube_sum_correct
    extra = {derive_seed(2, t): t for t in off}

    def overspent(oracle, x, k, seed):
        res = real(oracle, x, k, seed)
        return CorrectionResult(res.value, res.queries_used + extra.get(seed, 0))

    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "FORK_MIN_QUERIES", 1)
    monkeypatch.setattr(harness, "cube_sum_correct", overspent)
    got = acceptance._rate("cube", 3, 8, 1, parse_corruption("none", 8), None, 2, 5)
    assert got == ((None, "query count %d != 15" % (15 + off[0])) if off else (1.0, None))
