import random

import pytest

from localcorrect.acceptance import _random_low_degree_table
from localcorrect.boolfn import (
    FULL_TABLE_MAX_N,
    MAX_TABLE_VARS,
    JuntaSpec,
    _low_mask,
    _mobius,
    encode_points,
    hex_point,
    parse_hex_point,
    truth_table,
)

from families import and_all, majority, parity
from reference import reference_anf_coeffs, reference_bits_fn


def anf_coeffs(table, k):
    """Monomials of the table's ANF as variable masks (bit i-1 = variable
    i), read off the Moebius transform."""
    coeffs = _mobius(table, k)
    return {t for t in range(1 << k) if (coeffs >> t) & 1}


def with_coords(n, coords):
    """Bits of the n-bit point that is 1 exactly on the 1-based coords."""
    bits = 0
    for c in coords:
        bits |= 1 << (c - 1)
    return bits


class TestHexPoint:
    """A point is an n-bit int; hex_point and parse_hex_point are its one
    outside form."""

    def test_indexing_is_one_based(self):
        # Coordinate i is bit i-1: a 1-junta on coordinate i reads it, and
        # the hex form's last digit holds coordinates 1 to 4.
        p = parse_hex_point("05", 5)
        reads = [JuntaSpec(5, parity(1), (i,)).bits_fn()(p)
                 for i in range(1, 6)]
        assert reads == [1, 0, 1, 0, 0]
        assert hex_point(1 << 4, 5) == "10"

    def test_validation(self):
        # A value of 2^n or more does not fit n bits.
        assert parse_hex_point("7", 3) == 7
        for text, n in (("8", 3), ("100", 8), ("1", 0)):
            with pytest.raises(ValueError, match="out of range for n=%d" % n):
                parse_hex_point(text, n)

    def test_large_n(self):
        p = (1 << 1024) - 1
        assert hex_point(p, 1024) == "f" * 256
        assert parse_hex_point(hex_point(p, 1024), 1024) == p
        assert hex_point(0, 1021) == "0" * 256

    def test_from_hex_takes_hex_digits_only(self):
        assert parse_hex_point("A5", 8) == parse_hex_point("a5", 8) == 0xA5
        for text in ("", "0xa5", "a_5", " a5", "a5\n", "+a5", "-1", "\u0663"):
            with pytest.raises(ValueError, match="not a string of hex digits"):
                parse_hex_point(text, 8)


def byte_layouts(n, k):
    """Embeddings that place k coordinates, as the encoding's bytes hold
    them, packed into one middle byte, spread from coordinate 1 to n
    (over eight bytes once n > 64), and in the top byte and those below."""
    middle = 8 * ((n + 7) // 16)
    spread = ([1 + i * (n - 1) // (k - 1) for i in range(k)] if k > 1
              else [n // 2])
    return [range(middle + 1, middle + k + 1), spread, range(n - k + 1, n + 1)]


class TestEvalJunta:
    @pytest.mark.parametrize("k, every_point_n, layouts_n", [
        pytest.param(3, 10, None, id="3-n10-every-point"),
        pytest.param(1, 1, None, id="1-n1-every-point"),
        pytest.param(8, FULL_TABLE_MAX_N, None, id="8-n16-every-point-table"),
        pytest.param(8, FULL_TABLE_MAX_N + 1, None, id="8-n17-every-point-dict"),
    ] + [pytest.param(k, None, None, id=str(k)) for k in (1, 4, 8, 9, 16, 17, 24)]
      + [pytest.param(k, None, n, id="%d-n%d-byte-layouts" % (k, n))
         for k in (1, 8) for n in (17, 127, 129, 1000)])
    def test_matches_mask_loop_reference(self, k, every_point_n, layouts_n):
        # bits_fn's full table of values (k <= 8, n <= FULL_TABLE_MAX_N),
        # its per-chunk dicts, and at k <= 8 above the table the batch
        # form that reads joined encode_points strings, against the plain
        # per-mask loop.  Random cores at every point of n=1, 10, 16 and
        # 17, or on random embeddings that hold coordinates 1 and n at a
        # random n up to 200.  On byte_layouts' embeddings at n = 17 to
        # 1000, a random non-constant core and both constant ones.  The
        # batch form also reads an empty batch and a one-point batch.
        rng = random.Random(1000 + k)
        ones = (1 << (1 << k)) - 1
        cases = ([(emb, core) for emb in byte_layouts(layouts_n, k)
                  for core in (rng.randrange(1, ones), 0, ones)]
                 if layouts_n else [(None, None)] * 3)
        for emb, core in cases:
            n = layouts_n or every_point_n or rng.randint(max(k, 2), 200)
            if core is None:
                core = rng.getrandbits(1 << k)
            if emb is None:
                ends = [1, n][:k]
                middle = rng.sample(range(2, n), k - len(ends))
                emb = ends + middle
                rng.shuffle(emb)
            spec = JuntaSpec(n, core, tuple(emb))
            fast, ref = spec.bits_fn(), reference_bits_fn(spec)
            if every_point_n:
                points = range(1 << n)
            else:
                on_junta = with_coords(n, emb)
                points = [0, (1 << n) - 1, on_junta]
                points += [rng.getrandbits(n) for _ in range(400)]
                points += [rng.getrandbits(n) & on_junta for _ in range(100)]
            for bits in points:
                assert fast(bits) == ref(bits)
            batch_fn = getattr(fast, "bytes_fn", None)
            assert (batch_fn is not None) == (k <= 8 and n > FULL_TABLE_MAX_N)
            if batch_fn is not None:
                for batch in ([], points[:1], points):
                    joined = b"".join(encode_points(n, batch))
                    assert batch_fn(joined) == [ref(b) for b in batch]


class TestAnf:
    """The Moebius transform `_mobius` yields the ANF coefficients;
    criterion 1 builds its low-degree tables through it."""

    def test_and_k_single_monomial(self):
        for k in (2, 3, 6):
            assert anf_coeffs(and_all(k), k) == {(1 << k) - 1}

    def test_parity_linear(self):
        for k in (2, 4, 7):
            assert anf_coeffs(parity(k), k) == {1 << i for i in range(k)}

    def test_maj3_against_brute_force(self):
        table = majority(3)
        assert anf_coeffs(table, 3) == reference_anf_coeffs(table, 3) == {0b011, 0b110, 0b101}

    def test_matches_brute_force_random(self):
        rng = random.Random(11)
        for _ in range(30):
            k = rng.randint(1, 5)
            table = rng.getrandbits(1 << k)
            assert anf_coeffs(table, k) == reference_anf_coeffs(table, k)

    def test_roundtrip_random_tables(self):
        # The transform is an involution: coefficients map back to the table.
        rng = random.Random(5)
        for _ in range(1000):
            k = rng.randint(1, 10)
            bits = rng.getrandbits(1 << k)
            assert _mobius(_mobius(bits, k), k) == bits

    def test_evaluate_matches_table(self):
        # f(j) is the XOR of the coefficients of the monomials inside j.
        rng = random.Random(17)
        table = rng.getrandbits(32)
        coeffs = anf_coeffs(table, 5)
        for j in range(32):
            assert sum(t & ~j == 0 for t in coeffs) % 2 == (table >> j) & 1


class TestLowMask:
    """`_low_mask(k, i)` selects the table indices whose bit i is 0; it
    feeds `_mobius` and `influence_exact`."""

    @staticmethod
    def loop_mask(k, i):
        # The construction the doubling replaced: one shifted block per
        # period, quadratic in the table size.
        step = 1 << i
        block = (1 << step) - 1
        mask = 0
        for b in range(0, 1 << k, 2 * step):
            mask |= block << b
        return mask

    def test_matches_loop_construction(self):
        for k in range(1, 17):
            for i in range(k):
                assert _low_mask(k, i) == self.loop_mask(k, i), (k, i)


class TestDegree:
    def test_bounded_by_k_and_full_monomial(self):
        # Criterion 1's tables have degree <= max_deg, and reach it, so its
        # subcube check is not run on lower-degree tables only.
        rng = random.Random(3)
        for max_deg in range(1, 6):
            degrees = set()
            for _ in range(20):
                table = _random_low_degree_table(rng, 6, max_deg)
                degrees.add(max((t.bit_count() for t in anf_coeffs(table, 6)), default=0))
            assert max(degrees) == max_deg


class TestRelabel:
    """Relabelling a junta is re-embedding its core: the same table under a
    permuted embedding."""

    def test_symmetric_core_unchanged(self):
        xor = parity(2)
        a = JuntaSpec(4, xor, (1, 2)).bits_fn()
        b = JuntaSpec(4, xor, (2, 1)).bits_fn()
        for bits in range(16):
            assert a(bits) == b(bits)

    def test_asymmetric_core_differs_where_inputs_differ(self):
        # f(a, b) = a AND (NOT b): table bit j=1 only (var1=1, var2=0)
        core = 0b0010
        a = JuntaSpec(4, core, (1, 2)).bits_fn()
        b = JuntaSpec(4, core, (2, 1)).bits_fn()
        for bits in range(16):
            differs = a(bits) != b(bits)
            assert differs == ((bits & 1) != ((bits >> 1) & 1))

    def test_identity_relabel(self):
        spec = JuntaSpec(6, majority(3), (2, 4, 6))
        same = JuntaSpec(6, spec.core, spec.embedding)
        assert same == spec
        for bits in range(64):
            assert spec.bits_fn()(bits) == same.bits_fn()(bits)

    def test_rejects_bad_embeddings(self):
        core = majority(3)
        with pytest.raises(ValueError):
            JuntaSpec(6, core, (2, 2, 6))
        with pytest.raises(ValueError):
            JuntaSpec(6, core, (2, 4, 7))
        # k is the embedding's length: Maj_3's 8-bit table does not fit the
        # 2^2 bits of a 2-variable core.
        with pytest.raises(ValueError, match="does not fit"):
            JuntaSpec(6, core, (2, 4))
        for emb in ((), range(1, MAX_TABLE_VARS + 2)):
            with pytest.raises(ValueError, match="k must be in"):
                JuntaSpec(30, 0, emb)
        assert JuntaSpec(30, 0, range(1, MAX_TABLE_VARS + 1)).k == MAX_TABLE_VARS


class TestTableInt:
    """A truth table is a 2^k-bit int, built by truth_table from a rule."""

    def test_families_at_k3(self):
        # Criterion 5's four families, bit j = value at assignment j.
        assert and_all(3) == 0x80
        assert parity(3) == 0x96
        assert majority(3) == 0xE8
        assert truth_table(3, lambda j: 1) == 0xFF

    def test_matches_shifted_sum(self):
        # The plain definition: bit j of the table is rule(j).
        rules = (lambda j: 0, lambda j: 1, lambda j: j.bit_count() & 1,
                 lambda j: j % 3 == 1, lambda j: j.bit_count() > 2)
        for k in range(11):
            for rule in rules:
                assert truth_table(k, rule) == sum(rule(j) << j for j in range(1 << k))

    def test_stateful_rule_called_once_per_j_in_order(self):
        # A rule that draws from a seeded generator only at some j, as
        # criterion 1's random low-degree coefficients do.
        def drawing(rng, calls):
            def rule(j):
                calls.append(j)
                return j.bit_count() <= 3 and rng.getrandbits(1)
            return rule

        for k in (0, 1, 5, 10):
            calls, want_calls = [], []
            got = truth_table(k, drawing(random.Random(k), calls))
            rule = drawing(random.Random(k), want_calls)
            assert got == sum(rule(j) << j for j in range(1 << k))
            assert calls == want_calls == list(range(1 << k))

    def test_junta_rejects_table_of_2_to_the_2_to_the_k_or_more(self):
        for core in (1 << 8, (1 << 9) - 1, -1):
            with pytest.raises(ValueError, match="does not fit"):
                JuntaSpec(6, core, (1, 2, 3))
        assert JuntaSpec(6, (1 << 8) - 1, (1, 2, 3)).core == 0xFF
