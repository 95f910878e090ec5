import hashlib
import itertools
import json
import os
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from localcorrect import lowerbound
from localcorrect.boolfn import MAX_N, ConfigError
from localcorrect.lowerbound import (
    default_threshold,
    maj_ambiguity_check,
    run_distinguisher,
    sample_hard_instance,
    single_query_one_prob,
    uniform_one_hit_prob,
)

from reference import reference_distinguisher_report, reference_hard_value, x_star
from test_harness import force_chunks

UNIFORM, CUBE = lowerbound.STRATEGIES


def weight_w_half(rng, half, w, forced=0):
    """A w-bit subset of range(half) containing the bits of forced."""
    free = [i for i in range(half) if not (forced >> i) & 1]
    bits = forced
    for i in rng.sample(free, w - forced.bit_count()):
        bits |= 1 << i
    return bits


class TestSampleHardInstance:
    def test_derived_state(self):
        # The label picks the half that holds the mask.
        rng = random.Random(12)
        for n in (2, 10, 40, 400):
            half = n // 2
            for label, k in itertools.product((0, 1), sorted({1, half})):
                rel = sample_hard_instance(n, k, label, random.Random(rng.getrandbits(64)))
                lo = label * half
                assert type(rel) is int and rel.bit_count() == k
                assert rel & ((1 << lo) - 1) == 0
                assert rel >> (lo + half) == 0

    def test_marginal_coordinate_frequency(self):
        used = sum(
            sample_hard_instance(10, 2, 0, random.Random(s)) & 1 for s in range(10000)
        )
        assert abs(used / 10000 - 0.4) < 0.02

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="even"):
            sample_hard_instance(9, 2, 0, random.Random(0))
        with pytest.raises(ValueError, match="k must"):
            sample_hard_instance(10, 6, 0, random.Random(0))
        with pytest.raises(ValueError, match="k must"):
            sample_hard_instance(10, 0, 0, random.Random(0))
        with pytest.raises(ValueError, match="label"):
            sample_hard_instance(10, 2, 5, random.Random(0))

    def test_label_consistency_at_x_star(self):
        # the uncorrupted AND junta answers the label at the balanced input
        for seed in range(1000):
            label = seed % 2
            rel = sample_hard_instance(12, 3, label, random.Random(seed))
            assert int(x_star(12) & rel == rel) == label

    def test_x_star_is_balanced(self, monkeypatch):
        # Every cube-sum trial walks from first half zeros, second half ones.
        offsets = []
        monkeypatch.setattr(lowerbound, "subcube_blocks",
                            lambda offset, dirs: offsets.append(offset) or [])
        run_distinguisher("cube-sum-at-x_star", 7, 8, 2, 5, 1)
        assert offsets == [0b11110000] * 5


class TestEvalHardG:
    def test_x_star_is_truncated(self):
        rel = 1 << 5 | 1 << 6
        assert x_star(10) & rel == rel
        assert lowerbound._hard_hits(10, rel, [x_star(10)]) == []

    def test_never_one_outside_box(self):
        rel = sample_hard_instance(400, 10, 1, random.Random(3))
        rng = random.Random(4)
        half, t = 200, default_threshold(400)
        outside = []
        for _ in range(200000):
            # mix densities so the out-of-box region is actually exercised
            bits = rng.getrandbits(400)
            if rng.random() < 0.5:
                bits |= rng.getrandbits(400)
            lo = bin(bits & ((1 << half) - 1)).count("1")
            hi = bin(bits >> half).count("1")
            if lo > t or hi > t:
                outside.append(bits)
        assert len(outside) > 1000
        assert lowerbound._hard_hits(400, rel, outside) == []

    def test_matches_generator_reference(self):
        # Uniform points, points covering the relevance mask (so the box
        # test runs) and points with half-weights threshold and
        # threshold + 1, against the definition.
        rng = random.Random(6)
        checked = ones = 0
        for n in (2, 10, 40, 400, 1000):
            half, t = n // 2, default_threshold(n)
            for label, k in itertools.product((0, 1), sorted({1, half})):
                rel = sample_hard_instance(n, k, label, random.Random(rng.getrandbits(64)))
                shift = 0 if label == 0 else half
                pts = [rng.getrandbits(n) for _ in range(200)]
                pts += [rng.getrandbits(n) | rel for _ in range(200)]
                for w_rel, w_free in itertools.product((t, t + 1), repeat=2):
                    if not k <= w_rel <= half or w_free > half:
                        continue
                    for _ in range(20):
                        inside = weight_w_half(rng, half, w_rel, rel >> shift)
                        other = weight_w_half(rng, half, w_free)
                        pts.append((inside << shift) | (other << (half - shift)))
                want = [b for b in pts if reference_hard_value(n, rel, b)]
                assert lowerbound._hard_hits(n, rel, pts) == want
                checked += len(pts)
                ones += len(want)
        assert checked > 4000 and ones > 200

    def test_default_threshold(self):
        assert default_threshold(10) == 3
        assert default_threshold(400) == 120


class TestSingleQueryProb:
    def test_zero_below_k(self):
        for m in range(3):
            assert single_query_one_prob(20, 3, m) == 0
        # At m = k exactly one instance of the C(n/2, k) holds the query.
        for n, k in ((20, 3), (40, 5), (100, 10)):
            assert single_query_one_prob(n, k, k) == Fraction(1, comb(n // 2, k))

    def test_monotone_and_one_at_half(self):
        for n, k in ((20, 3), (40, 5), (100, 10)):
            prev = Fraction(0)
            for m in range(n // 2 + 1):
                cur = single_query_one_prob(n, k, m)
                assert cur >= prev
                prev = cur
            assert single_query_one_prob(n, k, n // 2) == 1


class TestUniformOneHitProb:
    def test_exhaustive_small_n(self):
        # Every instance of every label and every point of the cube: the
        # count of 1s is the same for each instance, and equals p * 2^n.
        for n in range(2, 13, 2):
            half = n // 2
            for k in range(1, half + 1):
                counts = set()
                for label in (0, 1):
                    lo = label * half
                    for picks in itertools.combinations(range(lo, lo + half), k):
                        rel = sum(1 << i for i in picks)
                        counts.add(sum(reference_hard_value(n, rel, b)
                                       for b in range(1 << n)))
                assert len(counts) == 1
                p = Fraction(counts.pop(), 1 << n)
                for q in (0, 1, 3):
                    assert uniform_one_hit_prob(n, k, q) == 1 - (1 - p) ** q

    def test_spot_values(self):
        assert uniform_one_hit_prob(8, 2, 1) == Fraction(11, 256)
        assert round(float(uniform_one_hit_prob(400, 20, 1000)), 6) == 0.000896

    def test_rejects_bad_shapes(self):
        for args in ((7, 2, 1), (8, 0, 1), (8, 5, 1), (8, 2, -1)):
            with pytest.raises(ValueError):
                uniform_one_hit_prob(*args)


class TestDistinguisher:
    @pytest.mark.parametrize("args, digest", [
        (("uniform-random-queries", 50, 40, 4, 300, 7),
         "babba28eeefcbc7963e02499a4da787a02ed688383f51239633f20975901d79e"),
        (("cube-sum-at-x_star", 7, 10, 2, 3000, 4),
         "b7979f2bc0e7f374e07cfe765fe067d5183f56f0cba3cb6df7e1c8fbe9f134a4"),
        # Criterion 8's two runs, at full scale.
        (("uniform-random-queries", 1000, 400, 20, 2000, 200),
         "36b7f423448974e8a84ace348016820095980f5e9538b29ac2bb71fc98819d06"),
        (("cube-sum-at-x_star", 127, 1000, 6, 1000, 3212),
         "8210612bc006525c40daa69d6786b3b58d3339456e603a26209c35e178636ede"),
    ], ids=["uniform", "cube-sum", "criterion-8-uniform", "criterion-8-cube-sum"])
    def test_pinned_report_bytes(self, args, digest):
        # The sha256 of the --out line, as the CLI writes it.
        line = json.dumps(run_distinguisher(*args), sort_keys=True) + "\n"
        assert hashlib.sha256(line.encode()).hexdigest() == digest

    @pytest.mark.parametrize("q, n, k, trials, seed", [
        (50, 40, 4, 300, 7),
        (0, 40, 4, 50, 1),
        (5, 2, 1, 400, 2),
        (30, 20, 1, 300, 3),
        (30, 20, 2, 300, 4),
        (200, 40, 20, 100, 5),
        (1000, 400, 20, 40, 6),
        # Some hits have exactly k-1 ones in the second half, one short
        # of the guess.
        (20, 12, 2, 200, 1),
    ], ids=["n40-k4", "q0", "n2-k1", "dense-k1", "dense-k2", "k-half", "n400-k20",
            "k-minus-one"])
    @pytest.mark.parametrize("strategy", [UNIFORM])
    def test_matches_loop(self, strategy, q, n, k, trials, seed):
        # The bulk draws and the relevance screen give the plain loop's
        # whole report, with or without hits.
        rep = run_distinguisher(strategy, q, n, k, trials, seed)
        assert rep == reference_distinguisher_report(strategy, q, n, k, trials, seed)
        if n == 20:
            assert rep["one_hit_rate"] > 0

    @pytest.mark.parametrize("n, k, trials, seed", [
        (10, 2, 300, 4),
        (40, 3, 200, 1),
        (40, 1, 200, 2),
        (1000, 6, 100, 3),
        (30, 12, 4, 5),
        (28, 14, 2, 6),
    ], ids=["n10-k2", "n40-k3", "k1", "n1000-k6", "k12", "k14"])
    def test_cube_sum_matches_loop(self, n, k, trials, seed):
        # The screened, block-streamed walk gives the same loop's report.
        q = (1 << (k + 1)) - 1
        rep = run_distinguisher(CUBE, q, n, k, trials, seed)
        assert rep == reference_distinguisher_report(CUBE, q, n, k, trials, seed)

    @pytest.mark.parametrize("strategy, q", [
        ("uniform-random-queries", 400),
        ("cube-sum-at-x_star", 15),
    ])
    def test_hooks_reached_through_module_once_per_trial(self, strategy, q, monkeypatch):
        # Each trial looks up sample_hard_instance and _hard_hits at run
        # time, once each, and a cube-sum trial subcube_blocks too.
        # perfbench's trial clock wraps sample_hard_instance through that
        # lookup, and this test _hard_hits; subcube_blocks is counted here
        # only, one walk a trial.
        calls = []

        def counted(name):
            real = getattr(lowerbound, name)

            def wrapper(*args):
                out = real(*args)
                calls.append((name, out))
                return out
            monkeypatch.setattr(lowerbound, name, wrapper)

        for name in ("sample_hard_instance", "subcube_blocks", "_hard_hits"):
            counted(name)
        trials = 6
        rep = run_distinguisher(strategy, q, 20, 3, trials, 1)
        per_trial = ["sample_hard_instance", "_hard_hits"]
        if strategy == "cube-sum-at-x_star":
            per_trial.insert(1, "subcube_blocks")
        assert [name for name, _ in calls] == per_trial * trials
        hits = [out for name, out in calls if name == "_hard_hits"]
        assert rep["one_hit_rate"] == sum(map(bool, hits)) / trials

    def test_uniform_draws_are_streamed(self):
        # The q draws of a trial are screened as they are made, not held
        # as a list: 200,000 points of 400 bits would take about 17 MB.
        tracemalloc.start()
        try:
            run_distinguisher("uniform-random-queries", 200000, 400, 20, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cube_sum_walk_is_streamed(self):
        # The 131,071 walk points of a k=16 trial are screened block by
        # block: listed whole they would take about 6 MB.
        tracemalloc.start()
        try:
            run_distinguisher("cube-sum-at-x_star", (1 << 17) - 1, 40, 16, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cube_sum_k_capped_before_any_walk(self, monkeypatch):
        # The walk would take 2^(k+1)-1 steps, so k above the table cap
        # is a config error, raised before a single instance is drawn.
        walks = []
        monkeypatch.setattr(lowerbound, "subcube_blocks",
                            lambda offset, dirs: walks.append(len(dirs) - 1) or [])
        run_distinguisher("cube-sum-at-x_star", (1 << 25) - 1, 100, 24, 1, 0)
        assert walks == [24]
        for k in (25, 40):
            with pytest.raises(ConfigError) as err:
                run_distinguisher("cube-sum-at-x_star", (1 << (k + 1)) - 1, 100, k, 1, 0)
            assert err.value.fieldname == "k" and "<= 24" in str(err.value)
        assert walks == [24]


# (strategy, q, n, k, seed): dense uniform rows, where hits and guesses
# vary from trial to trial, and small cube-sum walks.
CHUNK_CONFIGS = [
    (UNIFORM, 30, 20, 1, 3),
    (UNIFORM, 50, 40, 4, 7),
    (UNIFORM, 20, 12, 2, 1),
    (CUBE, 7, 10, 2, 4),
    (CUBE, 15, 40, 3, 1),
]


class TestChunks:
    @pytest.mark.parametrize("trials, chunks", [(3, 2), (5, 4), (2, 3)],
                             ids=["3-over-2", "5-over-4", "2-over-3"])
    def test_report_matches_one_chunk(self, trials, chunks, monkeypatch):
        # A trial draws from its own seed, derive_seed(seed, t), so the
        # chunks cut the trials at other points than the one chunk does,
        # yet the report is the same.
        for strategy, q, n, k, seed in CHUNK_CONFIGS:
            reports = []
            for count in (1, chunks):
                force_chunks(monkeypatch, count)
                reports.append(run_distinguisher(strategy, q, n, k, trials, seed))
            assert reports[0] == reports[1], (strategy, q, n, k, seed)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_config_errors_raised_before_any_fork(self, monkeypatch):
        forks = []

        def no_fork():
            forks.append(1)
            raise OSError("fork")

        force_chunks(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        for args in [
            ("no-such-strategy", 50, 40, 4, 3, 7),
            (UNIFORM, 50, 40, 4, 0, 7),
            (UNIFORM, 50, 41, 4, 3, 7),
            (UNIFORM, 50, MAX_N + 2, 4, 3, 7),
            (UNIFORM, 50, 40, 0, 3, 7),
            (UNIFORM, 50, 40, 21, 3, 7),
            (UNIFORM, -1, 40, 4, 3, 7),
            (UNIFORM, 50, 40, 4, 3, -1),
            (UNIFORM, 50, 40, 4, 3, 1 << 64),
            (CUBE, 15, 40, 4, 3, 7),
            (CUBE, (1 << 26) - 1, 60, 25, 3, 7),
        ]:
            with pytest.raises(ConfigError):
                run_distinguisher(*args)
        assert forks == []
        # A good config of the same shape does reach the fork.
        with pytest.raises(OSError, match="fork"):
            run_distinguisher(UNIFORM, 50, 40, 4, 3, 7)
        assert forks == [1]

    def test_fault_in_a_child_is_internal(self, monkeypatch, capfd):
        # The point rule raises only in the forked child: the child prints
        # its traceback and exits 1, and the parent raises an internal
        # fault.
        parent = os.getpid()
        real = lowerbound._hard_hits

        def broken(*args):
            if os.getpid() != parent:
                raise ValueError("internal")
            return real(*args)

        force_chunks(monkeypatch, 2)
        monkeypatch.setattr(lowerbound, "_hard_hits", broken)
        with pytest.raises(RuntimeError, match="trials 2-2 exited with 1"):
            run_distinguisher(UNIFORM, 30, 20, 1, 3, 3)
        assert "ValueError: internal" in capfd.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestMajAmbiguity:
    def test_n16_report(self):
        # The largest n that `ambiguity` accepts.
        rep = maj_ambiguity_check(16)
        assert rep["disagreements_on_balanced_layer_only"] is True
        assert rep["truncated_all_identical"] is True
        assert rep["layer_fraction"] == "6435/32768"

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            maj_ambiguity_check(7)

    def test_json_dict(self):
        # The dict is the `ambiguity` stdout: five keys, the fraction as "a/b".
        d = maj_ambiguity_check(2)
        assert json.dumps(d, sort_keys=True) == (
            '{"disagreements_on_balanced_layer_only": true, "layer_fraction": "1/2", '
            '"n": 2, "num_functions": 2, "truncated_all_identical": true}')
