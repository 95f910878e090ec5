"""One test per acceptance criterion; each prints its pass/fail line and
checks its detail text, which is fixed by the criterion's seeds.

Also runnable outside pytest via `localcorrect bench`.
"""

from fractions import Fraction

from localcorrect import acceptance, harness
from localcorrect.correctors import CorrectionResult
from localcorrect.harness import derive_seed, find_corrupted_point
from localcorrect.oracle import IidFlips, parse_corruption


def _check(result, detail):
    print(result.line())
    assert result.passed, "%s: %s" % (result.name, result.detail)
    assert result.detail == detail


def test_criterion_1_subcube_identity():
    _check(acceptance.criterion_1(), "0 nonzero subcube sums (expected 0)")


def test_criterion_2_cube_corrector_under_corruption():
    _check(acceptance.criterion_2(), "success rate 0.8892 (floor 0.85, theory ~0.879)")


def test_criterion_3_influence_corrector():
    _check(acceptance.criterion_3(),
           "success rates (floor 0.70): all-zeros 1.000, corrupted 1.000")


def test_criterion_3_modes_keep_their_x_and_seeds(monkeypatch):
    # Both modes read 1.000, so the detail line alone cannot tell them
    # apart: all-zeros corrects x=0 under derive_seed(0xC3, t), corrupted
    # the 0xC3A corrupted point under derive_seed(0xC4, t).
    calls = []
    real = harness.influence_correct

    def recorded(oracle, x, k, seed):
        calls.append((x, seed))
        return real(oracle, x, k, seed)

    monkeypatch.setattr(harness, "influence_correct", recorded)
    corruption = IidFlips(Fraction(1, 4096), 0xC3F)
    for _, x_seed, trial_seed in acceptance._CRITERION_3_MODES:
        assert acceptance._successes("influence", 8, 128, 0xC3, corruption,
                                     x_seed, trial_seed, 2) == (2, None)
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
    got = acceptance._successes("cube", 3, 8, 1, parse_corruption("none", 8), None, 2, 5)
    assert got == (None, "query count 16 != 15")
    assert len(runs) == 2


def test_criterion_4_masked_input_marginals():
    _check(acceptance.criterion_4(), "all 60 coordinates within tolerance")


def test_criterion_5_exact_influences():
    _check(acceptance.criterion_5(), "all closed forms match")


def test_criterion_6_random_junta_concentration():
    _check(acceptance.criterion_6(), "low-influence fraction 0.0000 (must be exactly 0)")


def test_criterion_7_single_query_bound():
    _check(acceptance.criterion_7(), "all exact comparisons hold")


def test_criterion_8_distinguisher_blindness():
    _check(acceptance.criterion_8(),
           "uniform hit=0.0005 theory=0.000896 adv=0.0105 (caps 0.06/0.05); "
           "cube adv=0.5000 (floor 0.35)")


def test_criterion_9_majority_ambiguity():
    _check(acceptance.criterion_9(), "layer-only=True identical=True fraction=35/128")


def test_criterion_10_reproducibility(capsys):
    result = acceptance.criterion_10()
    # Its CLI runs must not print into `bench` output.
    assert capsys.readouterr().out == ""
    _check(result, "byte-identical: correct=True lowerbound=True")
