import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from localcorrect.boolfn import DimensionMismatch, JuntaSpec, Point, TruthTable
from localcorrect.oracle import (
    BalancedLayerZero,
    ExplicitFlips,
    IidFlips,
    NoCorruption,
    NoisyOracle,
    WeightTruncation,
    disagreement_fraction,
    parse_corruption,
    random_flip_set,
)


def and2_oracle(n=6):
    spec = JuntaSpec(n, TruthTable.and_all(2), (1, 2))
    return NoisyOracle(n, spec.bits_fn())


def exhaustive_disagreement(o):
    """Fraction of all 2^n points where g differs from the base."""
    everywhere = range(1 << o.n)
    g = o.query_many(everywhere)
    count = sum(v != o.base_bits(bits) for bits, v in zip(everywhere, g))
    return Fraction(count, 1 << o.n)


def reference_hash(n, bits, seed):
    digest = hashlib.blake2b(bits.to_bytes((n + 7) // 8, "little"), digest_size=8,
                             key=seed.to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little")


def reference_flips_point(corr, n, bits):
    """The plain flip rule: a freshly keyed hash, h / 2^64 < eps compared
    as h * den < num * 2^64."""
    h = reference_hash(n, bits, corr.seed)
    return h * corr.eps.denominator < corr.eps.numerator << 64


def per_point_query_many(o, points):
    """query_many as it was before batch corruption: one corrupt call per
    point, without the count."""
    base, corrupt, n = o.base_bits, o.corruption.corrupt, o.n
    return [corrupt(n, bits, base(bits)) for bits in points]


# Two slice edges of IidFlips.corrupt_many crossed, and one point beyond.
LONG_BATCH = 2 * (1 << 12) + 1


CORRUPTIONS = {
    "none": NoCorruption(),
    "flips": random_flip_set(12, 300, 4),
    "iid": IidFlips(Fraction(1, 8), 11),
    "trunc": WeightTruncation(3),
    "layer": BalancedLayerZero(),
}


class TestQuery:
    def test_no_corruption_passthrough(self):
        o = and2_oracle()
        assert o.query(Point(6, 0b000011)) == 1
        assert o.query(Point(6, 0b000001)) == 0

    def test_explicit_flip_definition(self):
        x0 = 0b1010
        o = NoisyOracle(4, lambda bits: 0, ExplicitFlips(4, frozenset([x0])))
        assert o.query(Point(4, x0)) == 1
        for bits in range(16):
            if bits != x0:
                assert o.query(Point(4, bits)) == 0

    def test_truncation_forces_zero(self):
        o = NoisyOracle(10, lambda bits: 1, WeightTruncation(3))
        y = Point(10, 0b0000001111)  # first-half weight 4
        assert o.query(y) == 0
        assert o.query(Point(10, 0b0000000111)) == 1

    def test_dimension_mismatch(self):
        o = and2_oracle()
        with pytest.raises(DimensionMismatch):
            o.query(Point(5, 0))

    @pytest.mark.parametrize("model", sorted(CORRUPTIONS))
    def test_query_many_matches_query(self, model):
        spec = JuntaSpec(12, TruthTable(4, random.Random(8).getrandbits(16)),
                         (2, 3, 7, 11))
        o = NoisyOracle(12, spec.bits_fn(), CORRUPTIONS[model])
        rng = random.Random(9)
        pts = [rng.getrandbits(12) for _ in range(500)]
        pts += sorted(CORRUPTIONS["flips"].flips)[:50] + [0, 4095, 0]
        batched = o.query_many(pts)
        assert o.query_count == len(pts)
        assert batched == [o.query(Point(12, b)) for b in pts]
        assert o.query_count == 2 * len(pts)
        assert o.query_many([]) == [] and o.query_count == 2 * len(pts)

    @pytest.mark.parametrize("model", sorted(CORRUPTIONS))
    def test_query_many_matches_per_point_rule(self, model):
        spec = JuntaSpec(12, TruthTable(4, random.Random(6).getrandbits(16)),
                         (1, 5, 6, 12))
        o = NoisyOracle(12, spec.bits_fn(), CORRUPTIONS[model])
        rng = random.Random(7)
        pts = [rng.getrandbits(12) for _ in range(LONG_BATCH)]
        pts += sorted(CORRUPTIONS["flips"].flips)
        for batch in ([], pts[:1], pts[:800], pts, range(1 << 12)):
            before = o.query_count
            assert o.query_many(batch) == per_point_query_many(o, batch)
            assert o.query_count - before == len(batch)

    def test_no_corruption_matches_base_everywhere(self):
        spec = JuntaSpec(8, TruthTable.majority(3), (2, 4, 8))
        o = NoisyOracle(8, spec.bits_fn())
        for bits in range(256):
            assert o.query(Point(8, bits)) == spec.bits_fn()(bits)


def batch_models(n, points):
    """One instance of each model at n, with both outcomes reachable."""
    yield NoCorruption()
    yield ExplicitFlips(n, frozenset(points[::3]))
    yield ExplicitFlips(n, frozenset())
    for eps in (Fraction(0), Fraction(1, 1 << 12), Fraction(1, 3),
                1 - Fraction(1, 1 << 64)):
        yield IidFlips(eps, 0xBA7C + n)
    yield WeightTruncation(n // 4)
    yield WeightTruncation(0)
    yield BalancedLayerZero()


class TestCorruptMany:
    """Each model's batch rule against its per-point reference rule."""

    @pytest.mark.parametrize("n", [1, 7, 8, 13, 64, 129])
    def test_matches_per_point_rule(self, n):
        rng = random.Random(n)
        pts = [rng.getrandbits(n) for _ in range(LONG_BATCH)]
        vals = [rng.getrandbits(1) for _ in pts]
        for m in (0, 1, 800, len(pts)):
            batch = pts[:m]
            for values in (vals[:m], [0] * m, [1] * m):
                for corr in batch_models(n, batch):
                    got = corr.corrupt_many(n, batch, values)
                    assert got == [corr.corrupt(n, b, v)
                                   for b, v in zip(batch, values)], (corr, m)
                    assert all(type(v) is int for v in got)

    def test_iid_memory_is_bounded_by_the_slice(self):
        # Hasher copies live for one slice at a time; a whole-batch chain
        # held 20,000 copies and peaked near 9 MB.
        corr = IidFlips(Fraction(1, 4096), 3)
        rng = random.Random(1)
        pts = [rng.getrandbits(64) for _ in range(20000)]
        vals = [0] * len(pts)
        tracemalloc.start()
        try:
            corr.corrupt_many(64, pts, vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 1024 * 1024


class TestCounter:
    def test_fresh_is_zero(self):
        assert and2_oracle().query_count == 0

    def test_count_is_not_an_init_argument(self):
        with pytest.raises(TypeError):
            NoisyOracle(6, lambda bits: 0, NoCorruption(), 5)

    def test_counts_every_query(self):
        o = and2_oracle()
        for q in range(1, 8):
            o.query(Point(6, q))
            assert o.query_count == q


class TestDisagreementFraction:
    def test_none_is_zero(self):
        b = disagreement_fraction(and2_oracle())
        assert (b.value, b.kind) == (Fraction(0), "exact")

    def test_explicit_counting(self):
        o = NoisyOracle(4, lambda bits: 0, ExplicitFlips(4, frozenset([1, 5, 9])))
        b = disagreement_fraction(o)
        assert (b.value, b.kind) == (Fraction(3, 16), "exact")

    def test_truncation_bound(self):
        o = NoisyOracle(10, lambda bits: 0, WeightTruncation(3))
        b = disagreement_fraction(o)
        assert (b.value, b.kind) == (Fraction(87, 256), "upper_bound")
        # At odd n the high half has the extra bit: 4 and 5 bits at n=9.
        o = NoisyOracle(9, lambda bits: 1, WeightTruncation(2))
        assert disagreement_fraction(o).value == Fraction(21, 32)

    @pytest.mark.parametrize("n", [7, 8, 9, 11])
    def test_truncation_bound_matches_exhaustive_count(self, n):
        # Exact for a constant-1 base, an upper bound for any other.
        spec = JuntaSpec(n, TruthTable(3, 0b10010110), (1, 4, n))
        for t in range(n // 2 + 3):
            corr = WeightTruncation(t)
            ones = NoisyOracle(n, lambda bits: 1, corr)
            b = disagreement_fraction(ones)
            assert b.kind == "upper_bound"
            assert b.value == exhaustive_disagreement(ones)
            assert b.value >= exhaustive_disagreement(NoisyOracle(spec.n, spec.bits_fn(), corr))

    def test_iid_small_n_exact(self):
        corr = IidFlips(Fraction(1, 8), 5)
        o = NoisyOracle(8, lambda bits: 0, corr)
        b = disagreement_fraction(o)
        assert b.kind == "exact"
        count = sum(corr.flips_point(8, bits) for bits in range(256))
        assert b.value == Fraction(count, 256)

    def test_iid_large_n_expected(self):
        o = NoisyOracle(64, lambda bits: 0, IidFlips(Fraction(1, 100), 5))
        b = disagreement_fraction(o)
        assert (b.value, b.kind) == (Fraction(1, 100), "expected")

    @pytest.mark.parametrize("n", [6, 12, 16])
    def test_exact_kinds_match_exhaustive_comparison(self, n):
        spec = JuntaSpec(n, TruthTable.majority(3), (1, 2, n))
        for corr in (random_flip_set(n, 40, n), IidFlips(Fraction(1, 16), n)):
            o = NoisyOracle(spec.n, spec.bits_fn(), corr)
            b = disagreement_fraction(o)
            assert b.kind == "exact"
            assert b.value == exhaustive_disagreement(o)

    def test_layer_bound(self):
        o = NoisyOracle(8, lambda bits: 0, BalancedLayerZero())
        b = disagreement_fraction(o)
        assert (b.value, b.kind) == (Fraction(70, 256), "upper_bound")


class TestIidFlips:
    def test_deterministic_per_point(self):
        corr = IidFlips(Fraction(1, 3), 42)
        for bits in range(64):
            assert corr.flips_point(12, bits) == corr.flips_point(12, bits)

    def test_two_oracles_agree_everywhere(self):
        spec = JuntaSpec(64, TruthTable.majority(5), (1, 10, 20, 40, 60))
        corr = IidFlips(Fraction(1, 16), 9)
        a = NoisyOracle(spec.n, spec.bits_fn(), corr)
        b = NoisyOracle(spec.n, spec.bits_fn(), corr)
        rng = random.Random(3)
        for _ in range(20000):
            p = Point(64, rng.getrandbits(64))
            assert a.query(p) == b.query(p)

    def test_realized_fraction_concentrates(self):
        # eps = 2^-(k+3) / 2 at k=4, exhaustive over n=16.
        eps = Fraction(1, 256)
        n = 16
        tol = 3 * math.sqrt(float(eps) / (1 << n)) + 2 ** -n
        for seed in range(20):
            o = NoisyOracle(n, lambda bits: 0, IidFlips(eps, seed))
            frac = disagreement_fraction(o)
            assert frac.kind == "exact"
            assert abs(float(frac.value) - float(eps)) <= tol

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            IidFlips(Fraction(3, 2), 0)

    @pytest.mark.parametrize("eps", [
        Fraction(0), Fraction(1, 1 << 12), Fraction(1, 3), Fraction(2, 7),
        1 - Fraction(1, 1 << 64),
    ])
    @pytest.mark.parametrize("n", [1, 7, 8, 13, 64, 129])
    def test_matches_fraction_reference(self, eps, n):
        corr = IidFlips(eps, 0x5EED + n)
        rng = random.Random(n)
        points = range(1 << n) if n <= 13 else [rng.getrandbits(n) for _ in range(4000)]
        for bits in points:
            assert corr.flips_point(n, bits) == reference_flips_point(corr, n, bits)

    def test_pinned_flip_set(self):
        # Any change to g's definition (key, byte order, threshold) moves this.
        corr = IidFlips(Fraction(1, 1 << 12), 0xC3F)
        flipped = [b for b in range(1 << 16) if corr.flips_point(16, b)]
        digest = hashlib.sha256(b"".join(b.to_bytes(2, "little") for b in flipped))
        assert len(flipped) == 19
        assert digest.hexdigest() == (
            "858ec8f91d55cbb39491f146ac5fdaceff13258be672e53f804017682b999f54")

    def test_cached_state_is_not_a_field(self):
        a, b = IidFlips(Fraction(1, 3), 5), IidFlips(Fraction(1, 3), 5)
        assert repr(a) == "IidFlips(eps=Fraction(1, 3), seed=5)"
        assert a == b and hash(a) == hash(b)
        assert a != IidFlips(Fraction(1, 3), 6)


    def test_threshold_is_exact_at_the_hash(self):
        # eps placed just below, at and just above h / 2^64 for one point's h.
        h = reference_hash(16, 0xBEEF, 7)
        for eps, flips in ((Fraction(3 * h - 1, 3 << 64), False),
                           (Fraction(h, 1 << 64), False),
                           (Fraction(3 * h + 1, 3 << 64), True),
                           (Fraction(h + 1, 1 << 64), True)):
            corr = IidFlips(eps, 7)
            assert reference_flips_point(corr, 16, 0xBEEF) is flips
            assert corr.flips_point(16, 0xBEEF) is flips


class TestTruncationModels:
    def test_never_creates_ones(self):
        # Truncation and layer-zeroing only force 0; exhaustive at n=12.
        spec = JuntaSpec(12, TruthTable(4, random.Random(2).getrandbits(16)),
                         (1, 4, 7, 12))
        base = spec.bits_fn()
        for corr in (WeightTruncation(3), BalancedLayerZero()):
            o = NoisyOracle(12, base, corr)
            for bits, v in zip(range(1 << 12), o.query_many(range(1 << 12))):
                assert v <= base(bits)

    def test_layer_zero_on_balanced_layer_only(self):
        o = NoisyOracle(8, lambda bits: 1, BalancedLayerZero())
        expected = [0 if bin(bits).count("1") == 4 else 1 for bits in range(256)]
        assert o.query_many(range(256)) == expected

    def test_exhaustive_disagreement_helper(self):
        o = NoisyOracle(8, lambda bits: 1, BalancedLayerZero())
        assert exhaustive_disagreement(o) == Fraction(70, 256)
        assert o.query_count == 256


class TestParseCorruption:
    def test_none_and_layer(self):
        assert isinstance(parse_corruption("none", 8), NoCorruption)
        assert isinstance(parse_corruption("layer", 8), BalancedLayerZero)

    def test_trunc(self):
        c = parse_corruption("trunc:5", 16)
        assert isinstance(c, WeightTruncation) and c.threshold == 5
        assert parse_corruption("trunc:0", 16).threshold == 0
        with pytest.raises(ValueError, match="threshold"):
            parse_corruption("trunc:-3", 16)

    def test_iid_forms(self):
        c = parse_corruption("iid:1/64:7", 16)
        assert c == IidFlips(Fraction(1, 64), 7)
        c = parse_corruption("iid:2^-12:3", 16)
        assert c == IidFlips(Fraction(1, 4096), 3)
        c = parse_corruption("iid:0.25:1", 16)
        assert c == IidFlips(Fraction(1, 4), 1)

    def test_flips_file(self, tmp_path):
        pts = [Point(12, b) for b in (0b1, 0b1010, 0b111111111111)]
        path = tmp_path / "flips.txt"
        path.write_text("".join(p.to_hex() + "\n" for p in pts))
        c = parse_corruption("flips:%s" % path, 12)
        assert isinstance(c, ExplicitFlips)
        assert c.flips == frozenset(p.bits for p in pts)

    def test_flips_file_spelling(self, tmp_path):
        # Each line is stripped and read as Point.from_hex reads it; blank
        # lines are skipped.  Other spellings, and points wider than n,
        # are rejected (more spellings are in test_cli's exit-2 rows).
        path = tmp_path / "flips.txt"
        path.write_text(" 2 \n\n\tA0\n00f\n")
        assert parse_corruption("flips:%s" % path, 8).flips == {0x2, 0xA0, 0xF}
        for line in ("0x10", "-1", "1 0", "100"):
            path.write_text("2\n%s\n" % line)
            with pytest.raises(ValueError):
                parse_corruption("flips:%s" % path, 8)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_corruption("bogus:1", 8)


class TestRandomFlipSet:
    def test_exact_count_and_range(self):
        c = random_flip_set(16, 256, 1)
        assert len(c.flips) == 256
        assert all(0 <= b < 1 << 16 for b in c.flips)

    def test_large_n_path(self):
        c = random_flip_set(100, 50, 1)
        assert len(c.flips) == 50

    def test_deterministic(self):
        assert random_flip_set(16, 64, 9).flips == random_flip_set(16, 64, 9).flips
