"""One test per acceptance criterion; each prints its pass/fail line.

Also runnable outside pytest via `localcorrect bench`.
"""

import pytest

from localcorrect import acceptance


def _check(result):
    print(result.line())
    assert result.passed, "%s: %s" % (result.name, result.detail)


def test_criterion_1_subcube_identity():
    _check(acceptance.criterion_1())


def test_criterion_2_cube_corrector_under_corruption():
    _check(acceptance.criterion_2())


def test_criterion_3_influence_corrector():
    _check(acceptance.criterion_3())


def test_criterion_4_masked_input_marginals():
    _check(acceptance.criterion_4())


def test_criterion_5_exact_influences():
    _check(acceptance.criterion_5())


def test_criterion_6_random_junta_concentration():
    _check(acceptance.criterion_6())


def test_criterion_7_single_query_bound():
    _check(acceptance.criterion_7())


def test_criterion_8_distinguisher_blindness():
    _check(acceptance.criterion_8())


def test_criterion_9_majority_ambiguity():
    _check(acceptance.criterion_9())


def test_criterion_10_reproducibility(capsys):
    result = acceptance.criterion_10()
    # Its CLI runs must not print into `bench` output.
    assert capsys.readouterr().out == ""
    _check(result)
