import random
from fractions import Fraction

import pytest

from localcorrect import correctors
from localcorrect.analysis import sample_random_junta
from localcorrect.boolfn import JuntaSpec, Point, TruthTable, _mobius
from localcorrect.correctors import (
    CorrectionResult,
    InfluenceCorrectorParams,
    build_masked_input,
    cube_sum_correct,
    identify_influencing_parts,
    influence_correct,
    pair_rounds,
    subcube_points,
    symmetric_correct,
)
from localcorrect.oracle import ExplicitFlips, IidFlips, NoisyOracle, random_flip_set


def random_low_degree_table(rng, m, max_deg):
    coeffs = 0
    for idx in range(1 << m):
        if bin(idx).count("1") <= max_deg and rng.getrandbits(1):
            coeffs |= 1 << idx
    return _mobius(coeffs, m)


class TestParams:
    def test_pair_rounds_formula(self):
        assert pair_rounds(1) == 500
        assert pair_rounds(2) == 600
        assert pair_rounds(4) == 700
        assert pair_rounds(8) == 800

    def test_for_k(self):
        p = InfluenceCorrectorParams(8)
        assert (p.s, p.r) == (24, 800)

    def test_constructor_enforces_contract(self):
        # k is the only settable value; s and r follow from it.
        with pytest.raises(TypeError):
            InfluenceCorrectorParams(4, 11, pair_rounds(4))
        with pytest.raises(ValueError):
            InfluenceCorrectorParams(0)


class TestCubeSum:
    def test_clean_oracle_is_exact(self):
        spec = JuntaSpec(10, TruthTable.and_all(3), (2, 5, 7))
        rng = random.Random(0)
        for _ in range(30):
            x = Point(10, rng.getrandbits(10))
            o = NoisyOracle(spec.n, spec.bits_fn())
            res = cube_sum_correct(o, x, 3, rng.getrandbits(32))
            assert res.value == spec.bits_fn()(x.bits)
            assert res.queries_used == 15
            assert o.query_count == 15

    def test_subcube_identity_with_dependent_directions(self):
        # XOR of a degree-<=k polynomial over any affine subcube is 0,
        # including degenerate direction sets.
        rng = random.Random(1)
        for k in (1, 2, 3):
            for _ in range(50):
                table = random_low_degree_table(rng, 8, k)
                for _ in range(20):
                    dirs = [rng.getrandbits(8) for _ in range(k + 1)]
                    if rng.random() < 0.3:
                        dirs[0] = dirs[-1]  # force dependence
                    if rng.random() < 0.1:
                        dirs[0] = 0
                    offset = rng.getrandbits(8)
                    acc = 0
                    for t in range(1 << (k + 1)):
                        cur = offset
                        for i in range(k + 1):
                            if (t >> i) & 1:
                                cur ^= dirs[i]
                        acc ^= (table >> cur) & 1
                    assert acc == 0

    @pytest.mark.parametrize("dirs", [
        [], [0b1], [0b1, 0b10, 0b100], [0b101, 0b101], [0b11, 0b110, 0b101],
        [0, 0b1000], [0b1, 0b1, 0b1, 0b10],
        [0b1001, 0b110, 0b1111, 0b11, 0b1100, 0b1001],
    ])
    def test_subcube_points_are_nonempty_subset_sums(self, dirs):
        offset = 0b1011
        want = []
        for t in range(1, 1 << len(dirs)):
            cur = offset
            for i, d in enumerate(dirs):
                if (t >> i) & 1:
                    cur ^= d
            want.append(cur)
        pts = subcube_points(offset, dirs)
        assert len(pts) == (1 << len(dirs)) - 1
        assert sorted(pts) == sorted(want)

    def test_failure_rate_under_two_flips(self):
        # union bound: 7 queries x eps = 2/64, plus statistical slack
        k, n, trials = 2, 6, 10000
        spec = sample_random_junta(k, n, 5)
        flips = random_flip_set(n, 2, 6)
        rng = random.Random(7)
        failures = 0
        for t in range(trials):
            x = Point(n, rng.getrandbits(n))
            o = NoisyOracle(spec.n, spec.bits_fn(), flips)
            res = cube_sum_correct(o, x, k, rng.getrandbits(64))
            failures += res.value != spec.bits_fn()(x.bits)
        assert failures / trials <= 7 * (2 / 64) + 0.02

    def test_query_count_exact(self):
        spec = sample_random_junta(4, 12, 1)
        o = NoisyOracle(spec.n, spec.bits_fn())
        res = cube_sum_correct(o, Point(12), 4, 0)
        assert res.queries_used == 31 == o.query_count


def assert_partition_state(state, n, k):
    # S is the union of the k distinct chosen parts of an n-coordinate
    # assignment; over-marked, the chosen parts are marked ones.
    assert len(state.assignment) == n
    assert len(state.chosen) == len(set(state.chosen)) == k
    chosen = set(state.chosen)
    assert state.S == frozenset(c + 1 for c, p in enumerate(state.assignment) if p in chosen)
    if len(state.marked) > k:
        assert chosen <= state.marked


class TestIdentifyParts:
    def test_constant_base_marks_nothing(self):
        params = InfluenceCorrectorParams(3)
        for seed in range(10):
            o = NoisyOracle(12, lambda bits: 0)
            state = identify_influencing_parts(o, 12, params, seed)
            assert state.marked == frozenset()
            assert_partition_state(state, 12, 3)
            assert o.query_count == 2 * params.s * params.r

    def test_heavy_corruption_over_marks(self):
        # Under iid eps = 1/4 nearly every part marks, so the k parts come
        # from the over-marked branch.
        params = InfluenceCorrectorParams(3)
        for seed in range(5):
            o = NoisyOracle(20, lambda bits: 0, IidFlips(Fraction(1, 4), seed))
            state = identify_influencing_parts(o, 20, params, seed)
            assert len(state.marked) > 3
            assert_partition_state(state, 20, 3)

    def test_parity_marks_every_relevant_part(self):
        # every influence is 1, so a relevant part escapes only with
        # probability 2^-r per part
        spec = JuntaSpec(48, TruthTable.parity(8), tuple(range(3, 48, 6)))
        params = InfluenceCorrectorParams(8)
        for seed in range(100):
            o = NoisyOracle(spec.n, spec.bits_fn())
            state = identify_influencing_parts(o, 48, params, seed)
            relevant_parts = {state.assignment[c - 1] for c in spec.embedding}
            assert relevant_parts <= set(state.marked)

    def test_and2_marks_both_parts(self):
        # per-pair disagreement probability is 1/4 for a part holding one
        # AND variable; missing it across r pairs is vanishingly rare
        spec = JuntaSpec(12, TruthTable.and_all(2), (1, 12))
        params = InfluenceCorrectorParams(2)
        hits = 0
        trials = 300
        for seed in range(trials):
            o = NoisyOracle(spec.n, spec.bits_fn())
            state = identify_influencing_parts(o, 12, params, seed)
            p1 = state.assignment[0]
            p2 = state.assignment[11]
            if p1 != p2 and p1 in state.marked and p2 in state.marked:
                hits += 1
            elif p1 == p2 and p1 in state.marked:
                hits += 1
        assert hits == trials

    def test_partition_state_consistency(self):
        spec = sample_random_junta(3, 20, 11)
        params = InfluenceCorrectorParams(3)
        o = NoisyOracle(spec.n, spec.bits_fn())
        state = identify_influencing_parts(o, 20, params, 5)
        assert all(0 <= p < params.s for p in state.assignment)
        assert_partition_state(state, 20, 3)


class TestBuildMaskedInput:
    def test_full_freeze(self):
        x = Point(12, 0b101010101010)
        assert build_masked_input(x, range(1, 13), 1) == x

    def test_flip_frequency(self):
        n = 20
        x = Point(n)
        counts = [0] * n
        runs = 100000
        for seed in range(runs):
            y = build_masked_input(x, (), seed)
            for c in range(n):
                counts[c] += (y.bits >> c) & 1
        for c in range(n):
            assert abs(counts[c] / runs - 0.75) <= 0.01


class TestInfluenceCorrect:
    def test_clean_parity_junta(self):
        spec = JuntaSpec(24, TruthTable.parity(4), (3, 9, 15, 21))
        params = InfluenceCorrectorParams(4)
        rng = random.Random(13)
        trials = 300
        ok = 0
        for _ in range(trials):
            x = Point(24, rng.getrandbits(24))
            o = NoisyOracle(spec.n, spec.bits_fn())
            res = influence_correct(o, x, 4, rng.getrandbits(64))
            ok += res.value == spec.bits_fn()(x.bits)
            assert res.queries_used == 6 * 4 * params.r + 1
        assert ok / trials >= 0.98

    def test_constant_base_as_k1_junta(self):
        for seed in range(20):
            o = NoisyOracle(16, lambda bits: 0)
            res = influence_correct(o, Point(16, seed * 37 % 65536), 1, seed=seed)
            assert res.value == 0
            assert res.queries_used == 6 * 1 * 500 + 1

    def test_diagnostics_populated(self):
        spec = sample_random_junta(3, 18, 2)
        o = NoisyOracle(spec.n, spec.bits_fn())
        res = influence_correct(o, Point(18), 3, seed=1)
        assert res.marked_parts is not None
        assert res.s_size is not None

    def test_y_marginal_uniform_on_constant_base(self, monkeypatch):
        # On a constant base nothing marks, so the chosen parts are random
        # and each coordinate of y should be a fair coin relative to x.
        # r is shrunk to 1 purely to keep the runtime sane; marking cannot
        # fire either way.
        monkeypatch.setattr(correctors, "pair_rounds", lambda k: 1)
        n, k = 60, 5
        runs = 50000
        x = Point(n)
        counts = [0] * n
        for seed in range(runs):
            o = NoisyOracle(n, lambda bits: 0)
            captured = {}
            orig_query = o.query

            def spy(p, _captured=captured, _orig=orig_query):
                _captured["y"] = p
                return _orig(p)

            o.query = spy
            influence_correct(o, x, k, seed)
            yb = captured["y"].bits
            for c in range(n):
                counts[c] += (yb >> c) & 1
        for c in range(n):
            assert abs(counts[c] / runs - 0.5) <= 0.01


class TestSymmetric:
    def test_maj5(self):
        res = symmetric_correct((0, 0, 0, 1, 1, 1), Point(5, 0b00111))
        assert res == CorrectionResult(1, 0)

    def test_parity_profile(self):
        profile = tuple(w % 2 for w in range(9))
        res = symmetric_correct(profile, Point(8, 0b01011010))
        assert res.value == 0
        assert res.queries_used == 0

    def test_constant_one(self):
        profile = (1,) * 7
        for bits in range(64):
            assert symmetric_correct(profile, Point(6, bits)).value == 1

    def test_rejects_wrong_profile_length(self):
        with pytest.raises(ValueError):
            symmetric_correct((0, 1), Point(4, 0))
