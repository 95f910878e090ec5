import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from localcorrect import oracle
from localcorrect.boolfn import MAX_TABLE_VARS, JuntaSpec, hex_point
from localcorrect.correctors import (
    InfluenceCorrectorParams,
    cube_sum_correct,
    identify_influencing_parts,
    pair_rounds,
)
from localcorrect.oracle import (
    ExplicitFlips,
    IidFlips,
    NoisyOracle,
    parse_corruption,
    random_flip_set,
)

from families import and_all, majority
from reference import reference_flipped, reference_flips_point, reference_hash


def and2_oracle(n=6):
    spec = JuntaSpec(n, and_all(2), (1, 2))
    return NoisyOracle(n, spec.bits_fn(), parse_corruption("none", n))


def exhaustive_disagreement(o):
    """Fraction of all 2^n points where g differs from the base."""
    everywhere = range(1 << o.n)
    g = o.query_many(everywhere)
    count = sum(v != o.base_bits(bits) for bits, v in zip(everywhere, g))
    return Fraction(count, 1 << o.n)


def per_point_query_many(o, points):
    """query_many by the plain rule: the base XOR the reference flip, one
    point at a time, without the count."""
    base, flipped = o.base_bits, reference_flipped(o.corruption, o.n)
    return [base(bits) ^ flipped(bits) for bits in points]


# Twice the largest batch a corrector sends, and one point beyond.
LONG_BATCH = 2 * (1 << 12) + 1


CORRUPTIONS = {
    "none": parse_corruption("none", 12),
    "flips": random_flip_set(12, 300, 4),
    "iid": IidFlips(Fraction(1, 8), 11),
}


class TestQuery:
    def test_explicit_flip_definition(self):
        x0 = 0b1010
        o = NoisyOracle(4, lambda bits: 0, ExplicitFlips(frozenset([x0])))
        assert o.query(x0) == 1
        for bits in range(16):
            if bits != x0:
                assert o.query(bits) == 0

    @pytest.mark.parametrize("model", sorted(CORRUPTIONS))
    def test_query_many_matches_per_point_rule(self, model):
        spec = JuntaSpec(12, random.Random(6).getrandbits(16), (1, 5, 6, 12))
        o = NoisyOracle(12, spec.bits_fn(), CORRUPTIONS[model])
        rng = random.Random(7)
        pts = [rng.getrandbits(12) for _ in range(LONG_BATCH)]
        flips = CORRUPTIONS["flips"].flips
        pts += sorted(flips)
        # Under flips, a batch that meets no flipped point and one made only
        # of flipped points, repeated as dependent subcube directions repeat
        # points.  At n=12 g is tabulated; the screen's two branches are
        # reached by test_flip_sets_on_both_sides_of_the_table.
        missed = [b for b in pts if b not in flips]
        only_flipped = rng.choices(sorted(flips), k=600)
        for batch in ([], pts[:1], pts[:800], pts, range(1 << 12), missed, only_flipped):
            before = o.query_count
            assert o.query_many(batch) == per_point_query_many(o, batch)
            assert o.query_count - before == len(batch)
        # At n=40 a k=8 base carries a batch form over four of the five
        # bytes of a point.  Under iid it reads each batch from the strings
        # the hash digests; under none and flips the base is mapped.
        wide = JuntaSpec(40, rng.getrandbits(256), (1, 3, 6, 9, 12, 20, 33, 40))
        corruption = random_flip_set(40, 300, 4) if model == "flips" else CORRUPTIONS[model]
        o = NoisyOracle(40, wide.bits_fn(), corruption)
        assert hasattr(o.base_bits, "bytes_fn")
        assert (o._bytes_fn is not None) == (model == "iid")
        pts = [rng.getrandbits(40) for _ in range(LONG_BATCH)]
        pts += sorted(getattr(corruption, "flips", ()))
        for batch in ([], pts[:1], pts, range(1 << 12)):
            before = o.query_count
            assert o.query_many(batch) == per_point_query_many(o, batch)
            assert o.query_count - before == len(batch)

    @pytest.mark.parametrize("kind", ["table-flips", "bytes-iid", "dict-none", "dict-flips",
                                      "k10-iid", "lambda-iid"])
    def test_batch_of_strings_matches_ints(self, kind):
        # The marking sends its points as their (n + 7) // 8-byte strings.
        # The bytes-iid oracle reads them as they are; every other one
        # decodes them to ints first, so each kind must give the values
        # and the count that the ints give.
        n = 12 if kind == "table-flips" else 40
        rng = random.Random(kind)
        k = 10 if kind == "k10-iid" else 8
        base = JuntaSpec(n, rng.getrandbits(1 << k), rng.sample(range(1, n + 1), k)).bits_fn()
        if kind == "lambda-iid":
            def base(bits):
                return bits.bit_count() & 1
        corruption = {"none": ExplicitFlips(frozenset()),
                      "flips": random_flip_set(n, 300, 8),
                      "iid": IidFlips(Fraction(1, 8), 9)}[kind.partition("-")[2]]
        o = NoisyOracle(n, base, corruption)
        assert (o._g is not None) == (kind == "table-flips")
        assert (o._bytes_fn is not None) == (kind == "bytes-iid")
        pts = [rng.getrandbits(n) for _ in range(800)]
        pts += sorted(getattr(corruption, "flips", ()))
        for batch in ([], pts[:1], pts):
            strings = tuple(b.to_bytes((n + 7) // 8, "little") for b in batch)
            before = o.query_count
            assert o.query_many(strings) == o.query_many(batch) == per_point_query_many(o, batch)
            assert o.query_count - before == 2 * len(batch)

    @pytest.mark.parametrize("n", [16, 17])
    def test_flip_sets_on_both_sides_of_the_table(self, n, monkeypatch):
        # A k <= 8 junta at n=16 is a 2^n-byte table, so g is tabulated
        # once and no batch reaches corrupt_many; at n=17 the base is the
        # dict closure and every batch is screened by the flip set.
        screened = []
        real = ExplicitFlips.corrupt_many

        def counted(self, n, points, values):
            screened.append(len(points))
            return real(self, n, points, values)

        monkeypatch.setattr(ExplicitFlips, "corrupt_many", counted)
        rng = random.Random(n)
        spec = JuntaSpec(n, rng.getrandbits(256), rng.sample(range(1, n + 1), 8))
        flips = random_flip_set(n, 256, n)
        repeated = rng.choices(sorted(flips.flips), k=300) + list(range(300))
        rng.shuffle(repeated)
        everywhere = range(1 << n)
        for corruption in (ExplicitFlips(frozenset()), flips):
            o = NoisyOracle(n, spec.bits_fn(), corruption)
            for batch in (everywhere, repeated):
                before = o.query_count
                assert o.query_many(batch) == per_point_query_many(o, batch)
                assert o.query_count - before == len(batch)
        assert screened == ([] if n == 16 else [1 << n, 600] * 2)

def batch_models(n, points):
    """One instance of each model at n, with both outcomes reachable.

    The iid eps values include the edges of the top-byte screen: at 2^-8
    the threshold is 2^56, so every candidate flips; just above it the
    candidate bytes are 0 and 1; at 1/2 and 255/256 most points are
    candidates."""
    yield ExplicitFlips(frozenset(points[::3]))
    yield ExplicitFlips(frozenset())
    for eps in (Fraction(0), Fraction(1, 1 << 12), Fraction(1, 1 << 8),
                Fraction(1, 1 << 8) + Fraction(1, 1 << 64), Fraction(1, 3),
                Fraction(1, 2), Fraction(255, 256), 1 - Fraction(1, 1 << 64)):
        yield IidFlips(eps, 0xBA7C + n)


class TestCorruptMany:
    """Each model's batch rule against its per-point reference rule."""

    @pytest.mark.parametrize("n", [1, 7, 8, 13, 64, 129])
    def test_matches_per_point_rule(self, n):
        rng = random.Random(n)
        pts = [rng.getrandbits(n) for _ in range(LONG_BATCH)]
        vals = [rng.getrandbits(1) for _ in pts]
        for m in (0, 1, 800, len(pts)):
            batch = pts[:m]
            for corr in batch_models(n, batch):
                if isinstance(corr, IidFlips):
                    flips = [reference_flips_point(corr, n, b) for b in batch]
                else:
                    flips = [b in corr.flips for b in batch]
                for values in (vals[:m], [0] * m, [1] * m):
                    before = list(values)
                    got = corr.corrupt_many(n, batch, values)
                    assert values == before, (corr, m)
                    assert got == [corr.corrupt(n, b, v)
                                   for b, v in zip(batch, values)], (corr, m)
                    assert got == [v ^ f for v, f in zip(values, flips)], (corr, m)
                    assert all(type(v) is int for v in got)

    def test_boundary_byte_decides_both_ways(self):
        # At eps = 1/3 the threshold is ceil(2^64 / 3) = 0x5555...56, so a
        # digest whose top byte is 0x55 is a candidate, and the exact
        # compare flips some such points and keeps others.
        assert (-(-(1 << 64) // 3) - 1) >> 56 == 0x55
        corr = IidFlips(Fraction(1, 3), 0xB0B)
        rng = random.Random(33)
        batch = [rng.getrandbits(64) for _ in range(LONG_BATCH)]
        boundary = [b for b in batch if reference_hash(64, b, corr.seed) >> 56 == 0x55]
        flipped = [b for b in boundary if reference_flips_point(corr, 64, b)]
        assert 0 < len(flipped) < len(boundary)
        got = corr.corrupt_many(64, batch, [0] * len(batch))
        assert got == [int(reference_flips_point(corr, 64, b)) for b in batch]

    def test_callers_bound_the_batch(self, monkeypatch):
        # IidFlips.corrupt_many holds one hasher copy per point, so the
        # callers bound the batch: the subcube walk sends blocks of at most
        # 2^12 points, and a marking batch holds r points.
        sizes = []
        real = NoisyOracle.query_many

        def counted(self, points):
            sizes.append(len(points))
            return real(self, points)

        monkeypatch.setattr(NoisyOracle, "query_many", counted)
        o = NoisyOracle(16, lambda bits: 0, IidFlips(Fraction(1, 4096), 3))
        result = cube_sum_correct(o, 5, 13, 7)
        assert result.queries_used == sum(sizes) == (1 << 14) - 1
        assert max(sizes) == 1 << 12
        sizes.clear()
        identify_influencing_parts(o, 16, InfluenceCorrectorParams(1), 7)
        assert sizes == [pair_rounds(1)] * 6
        assert pair_rounds(MAX_TABLE_VARS) < 1 << 12


class TestCounter:
    def test_fresh_is_zero(self):
        assert and2_oracle().query_count == 0

    def test_count_is_not_an_init_argument(self):
        with pytest.raises(TypeError):
            NoisyOracle(6, lambda bits: 0, parse_corruption("none", 6), 5)

    def test_counts_every_query(self):
        o = and2_oracle()
        for q in range(1, 8):
            o.query(q)
            assert o.query_count == q


class TestDisagreementFraction:
    """Each model's realised disagreement with its base, counted over every
    point, against the share its definition gives."""

    def test_iid_large_n_expected(self):
        # 40,000 uniform points at n=64: the flip share lies within four
        # standard deviations of eps.
        eps, m = Fraction(1, 100), 40000
        o = NoisyOracle(64, lambda bits: 0, IidFlips(eps, 5))
        rng = random.Random(64)
        flipped = sum(o.query_many([rng.getrandbits(64) for _ in range(m)]))
        assert abs(flipped / m - float(eps)) <= 4 * math.sqrt(float(eps) / m)

    @pytest.mark.parametrize("n", [6, 12, 16])
    def test_exact_kinds_match_exhaustive_comparison(self, n):
        # Flip models disagree with the base exactly on their flip set.
        spec = JuntaSpec(n, majority(3), (1, 2, n))
        flips = random_flip_set(n, 40, n)
        o = NoisyOracle(spec.n, spec.bits_fn(), flips)
        assert exhaustive_disagreement(o) == Fraction(40, 1 << n)
        corr = IidFlips(Fraction(1, 16), n)
        count = sum(reference_flips_point(corr, n, bits) for bits in range(1 << n))
        o = NoisyOracle(spec.n, spec.bits_fn(), corr)
        assert exhaustive_disagreement(o) == Fraction(count, 1 << n)


class TestIidFlips:
    def test_realized_fraction_concentrates(self):
        # eps = 2^-(k+3) / 2 at k=4, exhaustive over n=16.
        eps = Fraction(1, 256)
        n = 16
        tol = 3 * math.sqrt(float(eps) / (1 << n)) + 2 ** -n
        for seed in range(20):
            o = NoisyOracle(n, lambda bits: 0, IidFlips(eps, seed))
            assert abs(float(exhaustive_disagreement(o)) - float(eps)) <= tol

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
            assert corr.corrupt(n, bits, 0) == reference_flips_point(corr, n, bits)

    def test_pinned_flip_set(self):
        # Any change to g's definition (key, byte order, threshold) moves this.
        corr = IidFlips(Fraction(1, 1 << 12), 0xC3F)
        flipped = [b for b in range(1 << 16) if corr.corrupt(16, b, 0)]
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
            assert corr.corrupt(16, 0xBEEF, 0) == flips


class TestParseCorruption:
    def test_none(self):
        assert parse_corruption("none", 8) == ExplicitFlips(frozenset())

    def test_iid_forms(self):
        c = parse_corruption("iid:1/64:7", 16)
        assert c == IidFlips(Fraction(1, 64), 7)
        c = parse_corruption("iid:2^-12:3", 16)
        assert c == IidFlips(Fraction(1, 4096), 3)
        c = parse_corruption("iid:0.25:1", 16)
        assert c == IidFlips(Fraction(1, 4), 1)
        # A power may take up to 64 bits per exponent step: base bits
        # times |exponent| <= 65,536.
        assert parse_corruption("iid:10^-1024:3", 16).eps == Fraction(1, 10 ** 1024)
        assert parse_corruption("iid:%d^-1024:3" % (1 << 63), 16).eps == Fraction(1, 1 << 64512)
        with pytest.raises(ValueError, match="bits"):
            parse_corruption("iid:%d^-1024:3" % (1 << 64), 16)

    def test_flips_file(self, tmp_path):
        pts = [0b1, 0b1010, 0b111111111111]
        path = tmp_path / "flips.txt"
        path.write_text("".join(hex_point(p, 12) + "\n" for p in pts))
        c = parse_corruption("flips:%s" % path, 12)
        assert isinstance(c, ExplicitFlips)
        assert c.flips == frozenset(pts)

    def test_flips_file_spelling(self, tmp_path):
        # Each line is stripped and read as parse_hex_point reads it; blank
        # lines are skipped.  Other spellings, and points wider than n,
        # are rejected (more spellings are in test_cli's exit-2 rows).
        path = tmp_path / "flips.txt"
        path.write_text(" 2 \n\n\tA0\n00f\n")
        assert parse_corruption("flips:%s" % path, 8).flips == {0x2, 0xA0, 0xF}
        for line in ("0x10", "-1", "1 0", "100"):
            path.write_text("2\n%s\n" % line)
            with pytest.raises(ValueError):
                parse_corruption("flips:%s" % path, 8)

    def test_flips_file_size_is_capped(self, tmp_path, monkeypatch):
        # At most MAX_FLIP_FILE_CHARS characters are read; a longer file
        # is refused, so an endless one (/dev/zero) cannot exhaust memory.
        path = tmp_path / "flips.txt"
        path.write_bytes(b"2\r\nA0\r\n")
        # Read as text, the file is "2\nA0\n": five characters.
        monkeypatch.setattr(oracle, "MAX_FLIP_FILE_CHARS", 5)
        assert parse_corruption("flips:%s" % path, 8).flips == {0x2, 0xA0}
        monkeypatch.setattr(oracle, "MAX_FLIP_FILE_CHARS", 4)
        with pytest.raises(ValueError, match="over 4 characters"):
            parse_corruption("flips:%s" % path, 8)
        # Only cap + 1 characters are read: a 4 MB file is refused without
        # being held in memory.
        path.write_bytes(b"2\n" * (1 << 21))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over 4 characters"):
                parse_corruption("flips:%s" % path, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_flips_file_is_read_in_bounded_chunks(self, tmp_path):
        # A read of the whole cap at once has the buffered reader allocate
        # MAX_FLIP_FILE_CHARS + 1 bytes (16 MiB) before it reads a 1.3 KB
        # file; parsing a 256-point file at n=16 stays under 1 MiB.
        flips = random_flip_set(16, 256, 16)
        path = tmp_path / "flips.txt"
        path.write_text("".join(hex_point(p, 16) + "\n" for p in sorted(flips.flips)))
        tracemalloc.start()
        try:
            parsed = parse_corruption("flips:%s" % path, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == flips
        assert peak < 1 << 20


class TestRandomFlipSet:
    def test_exact_count_and_range(self):
        c = random_flip_set(16, 256, 1)
        assert len(c.flips) == 256
        assert all(0 <= b < 1 << 16 for b in c.flips)
