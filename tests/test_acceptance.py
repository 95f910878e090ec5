"""One test per acceptance criterion; each prints its pass/fail line and
checks its detail text, which is fixed by the criterion's seeds.

Also runnable outside pytest via `localcorrect bench`.
"""

import pytest

from localcorrect import acceptance


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
