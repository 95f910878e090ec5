import random
import tracemalloc
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import pytest

from localcorrect import correctors
from localcorrect.acceptance import _random_low_degree_table, subcube_parity
from localcorrect.boolfn import JuntaSpec, sample_random_junta
from localcorrect.correctors import (
    InfluenceCorrectorParams,
    build_masked_input,
    cube_sum_correct,
    identify_influencing_parts,
    influence_correct,
    pair_rounds,
    subcube_blocks,
    symmetric_correct,
)
from localcorrect.oracle import (
    ExplicitFlips,
    IidFlips,
    NoisyOracle,
    parse_corruption,
    random_flip_set,
)

from families import and_all, parity
from reference import reference_parts, reference_walk


def cube_walk(n, x, k, seed):
    """The points cube_sum_correct(o, x, k, random.Random(seed)) queries,
    as one list."""
    rng = random.Random(seed)
    return reference_walk(x, [rng.getrandbits(n) for _ in range(k + 1)])


def unstreamed_cube_sum(o, x, k, seed):
    """cube_sum_correct with the whole walk sent as one batch, as its
    (value, queries_used) pair."""
    before = o.query_count
    acc = sum(o.query_many(cube_walk(o.n, x, k, seed))) & 1
    return acc, o.query_count - before


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
        spec = JuntaSpec(10, and_all(3), (2, 5, 7))
        rng = random.Random(0)
        for _ in range(30):
            x = rng.getrandbits(10)
            o = NoisyOracle(spec.n, spec.bits_fn(), parse_corruption("none", spec.n))
            res = cube_sum_correct(o, x, 3, random.Random(rng.getrandbits(32)))
            assert res.value == spec.bits_fn()(x)
            assert res.queries_used == 15
            assert o.query_count == 15

    def test_subcube_identity_with_dependent_directions(self):
        # XOR of a degree-<=k polynomial over any affine subcube, walked by
        # subcube_blocks, is 0, including degenerate direction sets.
        rng = random.Random(1)
        for k in (1, 2, 3):
            for _ in range(50):
                table = _random_low_degree_table(rng, 8, k)
                for _ in range(20):
                    dirs = [rng.getrandbits(8) for _ in range(k + 1)]
                    if rng.random() < 0.3:
                        dirs[0] = dirs[-1]  # force dependence
                    if rng.random() < 0.1:
                        dirs[0] = 0
                    assert subcube_parity(table, rng.getrandbits(8), dirs) == 0

    @pytest.mark.parametrize("dirs", [
        [], [0b1], [0b1, 0b10, 0b100], [0b101, 0b101], [0b11, 0b110, 0b101],
        [0, 0b1000], [0b1, 0b1, 0b1, 0b10],
        [0b1001, 0b110, 0b1111, 0b11, 0b1100, 0b1001],
    ])
    def test_subcube_points_are_nonempty_subset_sums(self, dirs):
        # The one check of the walk against its definition; the other
        # walk tests compare with reference_walk.
        offset = 0b1011
        want = []
        for t in range(1, 1 << len(dirs)):
            cur = offset
            for i, d in enumerate(dirs):
                if (t >> i) & 1:
                    cur ^= d
            want.append(cur)
        pts = reference_walk(offset, dirs)
        assert len(pts) == (1 << len(dirs)) - 1
        assert sorted(pts) == sorted(want)
        assert list(chain.from_iterable(subcube_blocks(offset, dirs))) == pts

    @pytest.mark.parametrize("m", range(15))
    def test_blocks_follow_the_old_walk(self, m):
        # Same points in the same order as the per-step rule, across the
        # carry steps between blocks, and no block above 2^12 points.
        rng = random.Random(m)
        dirs = [rng.getrandbits(40) for _ in range(m)]
        if m > 3:
            dirs[3] = dirs[1]  # a dependent direction
        offset = rng.getrandbits(40)
        blocks = list(subcube_blocks(offset, dirs))
        assert list(chain.from_iterable(blocks)) == reference_walk(offset, dirs)
        assert max(map(len, blocks)) <= 1 << 12
        assert len(blocks) == 1 << max(m - 12, 0)

    def test_failure_rate_under_two_flips(self):
        # union bound: 7 queries x eps = 2/64, plus statistical slack
        k, n, trials = 2, 6, 10000
        spec = sample_random_junta(k, n, 5)
        flips = random_flip_set(n, 2, 6)
        rng = random.Random(7)
        failures = 0
        for t in range(trials):
            x = rng.getrandbits(n)
            o = NoisyOracle(spec.n, spec.bits_fn(), flips)
            res = cube_sum_correct(o, x, k, random.Random(rng.getrandbits(64)))
            failures += res.value != spec.bits_fn()(x)
        assert failures / trials <= 7 * (2 / 64) + 0.02

    @pytest.mark.parametrize("k", [11, 12, 13])
    @pytest.mark.parametrize("corruption", ["iid", "flips", "flips-missed"])
    def test_streamed_matches_one_batch(self, k, corruption):
        # Querying the walk block by block gives the value and query
        # count of one batch over the whole walk, under noise that hits
        # and under a flip set that the walk misses.
        n = 40
        spec = sample_random_junta(k, n, k)
        rng = random.Random(100 + k)
        for _ in range(4):
            x, seed = rng.getrandbits(n), rng.getrandbits(64)
            if corruption == "iid":
                model = IidFlips(Fraction(1, 64), k)
            elif corruption == "flips":
                # A random third of the walk's own points, so flips are met.
                walk = cube_walk(n, x, k, seed)
                model = ExplicitFlips(frozenset(rng.sample(walk, len(walk) // 3)))
            else:
                # Random points off the walk, so every block is screened out.
                off = {rng.getrandbits(n) for _ in range(1000)}
                model = ExplicitFlips(frozenset(off.difference(cube_walk(n, x, k, seed))))
            res = cube_sum_correct(NoisyOracle(n, spec.bits_fn(), model), x, k,
                                   random.Random(seed))
            got = res.value, res.queries_used
            want = unstreamed_cube_sum(NoisyOracle(n, spec.bits_fn(), model), x, k, seed)
            assert got == want and res.queries_used == (1 << (k + 1)) - 1
            if corruption == "flips-missed":
                # A missed flip set reads as no corruption at all.
                clean = NoisyOracle(n, spec.bits_fn(), parse_corruption("none", n))
                assert got == unstreamed_cube_sum(clean, x, k, seed)

    def test_walk_memory_is_flat(self):
        # One k=16 trial walks 131,071 points of 64 bits; streamed, only a
        # block or two of them and their values are alive at once.
        spec = sample_random_junta(16, 64, 3)
        o = NoisyOracle(64, spec.bits_fn(), IidFlips(Fraction(1, 1 << 24), 1))
        x = random.Random(4).getrandbits(64)
        tracemalloc.start()
        try:
            res = cube_sum_correct(o, x, 16, random.Random(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.queries_used == (1 << 17) - 1
        assert peak < 4 << 20

def relevance_mask(spec):
    return sum(1 << (c - 1) for c in spec.embedding)


class TestIdentifyParts:
    def test_constant_base_marks_nothing(self):
        # Neither constant marks a part, so S is the seed's draw alone.
        params = InfluenceCorrectorParams(3)
        for seed in range(10):
            masks = []
            for value in (0, 1):
                o = NoisyOracle(12, lambda bits, v=value: v, parse_corruption("none", 12))
                masks.append(identify_influencing_parts(o, 12, params, seed))
                assert o.query_count == 2 * params.s * params.r
            assert masks[0] == masks[1]

    def test_parity_marks_every_relevant_part(self):
        # every influence is 1, so a relevant part escapes only with
        # probability 2^-r per part
        spec = JuntaSpec(48, parity(8), tuple(range(3, 48, 6)))
        params = InfluenceCorrectorParams(8)
        for seed in range(100):
            o = NoisyOracle(spec.n, spec.bits_fn(), parse_corruption("none", spec.n))
            S = identify_influencing_parts(o, 48, params, seed)
            assert relevance_mask(spec) & ~S == 0

    @pytest.mark.parametrize("n", [1, 7, 16, 17, 31, 32, 33, 63, 64, 65, 100, 128, 129])
    def test_matches_plain_pairs(self, n, monkeypatch):
        # A part's pairs come from one long draw, cut into w-bit chunks,
        # w = 8*ceil(n/8), each masked to its low n bits: whole bytes
        # (8 divides n) and a partial last byte, at one and at several
        # bytes, all meet here.  A plain function base takes the oracle's
        # decode path.  Every other row's base is the parity of all n
        # coordinates, so more than k parts are marked once n > 2; the
        # rest AND two coordinates, so unmarked parts are sampled.
        k, seed = 2, 0xD7A + n
        params = InfluenceCorrectorParams(k)
        last = 2 * params.s * params.r
        parity = n in (1, 16, 31, 33, 64, 100, 129)

        def recording(rng_of, points, states):
            """A base that records its points, and the rng's state at
            the last marking query."""
            def g(bits):
                points.append(bits)
                if len(points) == last:
                    states.append(rng_of().getstate())
                return bits.bit_count() & 1 if parity else bits & 1 & bits >> (n - 1)
            return g

        rng = random.Random(seed)
        want, want_states = [], []
        want_S = reference_parts(recording(lambda: rng, want, want_states), n, k, rng)
        # Each pair was asked as x, x'; a part's batches ask its x's, then
        # its x''s.
        want = [p for i in range(0, last, 2 * params.r)
                for p in want[i:i + 2 * params.r:2] + want[i + 1:i + 2 * params.r:2]]

        rngs = []

        def recorded_rng(seed):
            rngs.append(random.Random(seed))
            return rngs[-1]

        monkeypatch.setattr(correctors, "random", SimpleNamespace(Random=recorded_rng))
        got, got_states = [], []
        o = NoisyOracle(n, recording(lambda: rngs[0], got, got_states),
                        parse_corruption("none", n))
        S = identify_influencing_parts(o, n, params, seed)
        assert o.query_count == last
        assert got == want
        assert got_states == want_states
        assert S == want_S
        assert rngs[0].getstate() == rng.getstate()

    def test_and2_marks_both_parts(self):
        # per-pair disagreement probability is 1/4 for a part holding one
        # AND variable; missing it across r pairs is vanishingly rare
        spec = JuntaSpec(12, and_all(2), (1, 12))
        params = InfluenceCorrectorParams(2)
        for seed in range(300):
            o = NoisyOracle(spec.n, spec.bits_fn(), parse_corruption("none", spec.n))
            S = identify_influencing_parts(o, 12, params, seed)
            assert relevance_mask(spec) & ~S == 0


class TestBuildMaskedInput:
    def test_full_freeze(self):
        x = 0b101010101010
        assert build_masked_input(x, 12, (1 << 12) - 1, 1) == x


class TestInfluenceCorrect:
    def test_clean_parity_junta(self):
        spec = JuntaSpec(24, parity(4), (3, 9, 15, 21))
        params = InfluenceCorrectorParams(4)
        rng = random.Random(13)
        trials = 300
        ok = 0
        for _ in range(trials):
            x = rng.getrandbits(24)
            o = NoisyOracle(spec.n, spec.bits_fn(), parse_corruption("none", spec.n))
            res = influence_correct(o, x, 4, random.Random(rng.getrandbits(64)))
            ok += res.value == spec.bits_fn()(x)
            assert res.queries_used == 6 * 4 * params.r + 1
        assert ok / trials >= 0.98

    def test_constant_base_as_k1_junta(self):
        for seed in range(20):
            o = NoisyOracle(16, lambda bits: 0, parse_corruption("none", 16))
            res = influence_correct(o, seed * 37 % 65536, 1, random.Random(seed))
            assert res.value == 0
            assert res.queries_used == 6 * 1 * 500 + 1


class TestSymmetric:
    def test_maj5(self):
        res = symmetric_correct((0, 0, 0, 1, 1, 1), 0b00111)
        assert (res.value, res.queries_used) == (1, 0)

