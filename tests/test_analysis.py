import random
from fractions import Fraction

import pytest

from localcorrect.analysis import (
    INFLUENCE_THRESHOLD,
    fraction_low_influence,
    influence_exact,
    min_influence_report,
    sample_random_junta,
)

from families import and_all, majority, parity


class TestInfluenceExact:
    def test_parity_is_one(self):
        table = parity(6)
        for i in range(1, 7):
            assert influence_exact(table, 6, i) == 1

    def test_constant_is_zero(self):
        for table in (0, (1 << 32) - 1):
            for i in range(1, 6):
                assert influence_exact(table, 5, i) == 0

    def test_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(50):
            k = rng.randint(1, 6)
            table = rng.getrandbits(1 << k)
            i = rng.randint(1, k)
            e = 1 << (i - 1)
            count = sum((table >> j) & 1 != (table >> (j ^ e)) & 1 for j in range(1 << k))
            assert influence_exact(table, k, i) == Fraction(count, 1 << k)

    def test_numerator_even_over_table_size(self):
        # Disagreeing points come in pairs {x, x + e_i}.
        rng = random.Random(9)
        for _ in range(100):
            k = rng.randint(1, 8)
            table = rng.getrandbits(1 << k)
            for i in range(1, k + 1):
                f = influence_exact(table, k, i)
                assert (f.numerator * (1 << k) // f.denominator) % 2 == 0

    def test_rejects_bad_index(self):
        with pytest.raises(IndexError):
            influence_exact(parity(3), 3, 0)
        with pytest.raises(IndexError):
            influence_exact(parity(3), 3, 4)


class TestSampleRandomJunta:
    def test_k1_core_distribution(self):
        counts = [0] * 4
        for s in range(10000):
            counts[sample_random_junta(1, 5, s).core] += 1
        for c in counts:
            assert abs(c / 10000 - 0.25) < 0.02

    def test_embedding_marginal(self):
        used = sum(
            1 in sample_random_junta(3, 12, s).embedding for s in range(10000)
        )
        assert abs(used / 10000 - 3 / 12) < 0.02

    def test_deterministic(self):
        assert sample_random_junta(4, 20, 99) == sample_random_junta(4, 20, 99)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            sample_random_junta(5, 4, 0)


class TestMinInfluenceReport:
    def test_parity5_passes(self):
        rep = min_influence_report(parity(5), 5)
        assert rep.min_influence == 1
        assert rep.passes_threshold

    def test_and7_fails_rational_comparison(self):
        rep = min_influence_report(and_all(7), 7)
        assert rep.min_influence == Fraction(1, 64)
        assert Fraction(1, 64) < INFLUENCE_THRESHOLD
        assert not rep.passes_threshold

    def test_maj3_passes(self):
        rep = min_influence_report(majority(3), 3)
        assert rep.min_influence == Fraction(1, 2)
        assert rep.passes_threshold

    def test_recomputation_deterministic(self):
        table = random.Random(8).getrandbits(64)
        assert min_influence_report(table, 6) == min_influence_report(table, 6)


class TestFractionLowInfluence:
    def test_k1_half(self):
        # Exactly 2 of the 4 one-variable tables are constant.
        assert abs(fraction_low_influence(1, 10000, 2) - 0.5) < 0.02

    def test_k2_matches_exhaustive(self):
        low = sum(
            min(
                influence_exact(bits, 2, i) for i in (1, 2)
            ) < INFLUENCE_THRESHOLD
            for bits in range(16)
        )
        expected = low / 16
        assert abs(fraction_low_influence(2, 10000, 3) - expected) < 0.02

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            fraction_low_influence(17, 10, 0)
