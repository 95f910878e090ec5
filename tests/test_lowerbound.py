import dataclasses
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from localcorrect import lowerbound
from localcorrect.boolfn import ConfigError
from localcorrect.lowerbound import (
    HardInstance,
    default_threshold,
    maj_ambiguity_check,
    run_distinguisher,
    sample_hard_instance,
    single_query_one_prob,
    uniform_one_hit_prob,
)


def and_before_truncation(inst, bits):
    """The instance's AND junta at bits, ignoring the weight box."""
    return int(all((bits >> (c - 1)) & 1 for c in inst.relevant))


def reference_eval_hard_bits(inst, bits):
    """The hard instance's value by its definition: both half-weights
    within the threshold, then the AND over the relevant coordinates."""
    half = inst.n // 2
    if (bits & ((1 << half) - 1)).bit_count() > inst.threshold:
        return 0
    if (bits >> half).bit_count() > inst.threshold:
        return 0
    return and_before_truncation(inst, bits)


def weight_w_half(rng, half, w, forced=0):
    """A w-bit subset of range(half) containing the bits of forced."""
    free = [i for i in range(half) if not (forced >> i) & 1]
    bits = forced
    for i in rng.sample(free, w - forced.bit_count()):
        bits |= 1 << i
    return bits


def loop_distinguisher(strategy, q, n, k, trials, seed):
    """run_distinguisher's uniform and fixed strategies as a plain loop:
    the uniform points are drawn by a comprehension, and every point goes
    through _eval_hard_bits."""
    rng = random.Random(seed)
    fixed = lowerbound._fixed_queries(n, k, q)
    correct = hit_trials = 0
    for _ in range(trials):
        label = rng.getrandbits(1)
        inst = sample_hard_instance(n, k, label, rng.getrandbits(64))
        if strategy == "uniform-random-queries":
            pts = [rng.getrandbits(n) for _ in range(q)]
        else:
            pts = fixed
        hits = [b for b in pts if lowerbound._eval_hard_bits(inst, b)]
        correct += lowerbound._guess_from_hits(n, k, hits) == label
        hit_trials += bool(hits)
    return {
        "strategy": strategy,
        "n": n,
        "k": k,
        "q": q,
        "trials": trials,
        "advantage": abs(correct / trials - 0.5),
        "one_hit_rate": hit_trials / trials,
        "seed": seed,
    }


class TestSampleHardInstance:
    def test_d0_relevant_in_first_half(self):
        for seed in range(50):
            inst = sample_hard_instance(10, 2, 0, seed)
            assert all(1 <= c <= 5 for c in inst.relevant)

    def test_d1_relevant_in_second_half(self):
        for seed in range(50):
            inst = sample_hard_instance(10, 2, 1, seed)
            assert all(6 <= c <= 10 for c in inst.relevant)

    def test_derived_state(self):
        # The label picks the half that holds relevant; the threshold
        # follows from n alone.
        rng = random.Random(12)
        for n in (2, 10, 40, 400):
            half = n // 2
            for label, k in itertools.product((0, 1), sorted({1, half})):
                inst = sample_hard_instance(n, k, label, rng.getrandbits(64))
                lo = 1 if label == 0 else half + 1
                assert inst.threshold == default_threshold(n)
                assert len(inst.relevant) == k
                assert all(lo <= c < lo + half for c in inst.relevant)

    def test_marginal_coordinate_frequency(self):
        used = sum(
            1 in sample_hard_instance(10, 2, 0, s).relevant for s in range(10000)
        )
        assert abs(used / 10000 - 0.4) < 0.02

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            sample_hard_instance(9, 2, 0, 0)
        with pytest.raises(ValueError):
            sample_hard_instance(10, 6, 0, 0)
        with pytest.raises(ValueError):
            sample_hard_instance(10, 0, 0, 0)
        with pytest.raises(ValueError, match="label"):
            sample_hard_instance(10, 2, 5, 0)
        for relevant in ([], [5, 6], [0, 1], [10, 11], [1, 10]):
            with pytest.raises(ValueError):
                HardInstance(10, frozenset(relevant))

    def test_label_consistency_at_x_star(self):
        # the uncorrupted AND junta answers the label at the balanced input
        for seed in range(1000):
            label = seed % 2
            inst = sample_hard_instance(12, 3, label, seed)
            assert and_before_truncation(inst, inst.x_star.bits) == label

    def test_x_star_is_balanced(self):
        inst = sample_hard_instance(8, 2, 0, 1)
        assert inst.x_star.bits == 0b11110000
        assert inst.x_star.weight() == 4


class TestEvalHardG:
    def test_inside_box_and_satisfied(self):
        inst = HardInstance(10, frozenset([6, 7]))
        y = (1 << 5) | (1 << 6)
        assert lowerbound._eval_hard_bits(inst, y) == 1

    def test_first_half_over_threshold_forces_zero(self):
        inst = HardInstance(10, frozenset([6, 7]))
        y = 0b1111 | (1 << 5) | (1 << 6)  # first-half weight 4
        assert lowerbound._eval_hard_bits(inst, y) == 0

    def test_x_star_is_truncated(self):
        inst = HardInstance(10, frozenset([6, 7]))
        assert and_before_truncation(inst, inst.x_star.bits) == 1
        assert lowerbound._eval_hard_bits(inst, inst.x_star.bits) == 0

    def test_never_one_outside_box(self):
        inst = sample_hard_instance(400, 10, 1, 3)
        rng = random.Random(4)
        half = 200
        checked = 0
        for _ in range(200000):
            # mix densities so the out-of-box region is actually exercised
            bits = rng.getrandbits(400)
            if rng.random() < 0.5:
                bits |= rng.getrandbits(400)
            lo = bin(bits & ((1 << half) - 1)).count("1")
            hi = bin(bits >> half).count("1")
            out = lo > inst.threshold or hi > inst.threshold
            if out:
                checked += 1
                assert lowerbound._eval_hard_bits(inst, bits) == 0
        assert checked > 1000

    def test_matches_generator_reference(self):
        # Uniform points, points covering the relevance mask (so the box
        # test runs) and points with half-weights threshold and
        # threshold + 1, against the definition.
        rng = random.Random(6)
        checked = ones = 0
        for n in (2, 10, 40, 400, 1000):
            half, t = n // 2, default_threshold(n)
            for label, k in itertools.product((0, 1), sorted({1, half})):
                inst = sample_hard_instance(n, k, label, rng.getrandbits(64))
                rel = 0
                for c in inst.relevant:
                    rel |= 1 << (c - 1)
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
                for bits in pts:
                    want = reference_eval_hard_bits(inst, bits)
                    assert lowerbound._eval_hard_bits(inst, bits) == want
                    checked += 1
                    ones += want
        assert checked > 4000 and ones > 200

    def test_cached_state_is_not_a_field(self):
        a = HardInstance(10, frozenset([6, 7]))
        b = HardInstance(10, frozenset([7, 6]))
        assert [f.name for f in dataclasses.fields(a)] == ["n", "relevant"]
        assert repr(a) == "HardInstance(n=10, relevant=frozenset({6, 7}))"
        assert (a.threshold, a._rel_mask, a._low_mask) == (3, 0b1100000, 0b11111)
        assert a == b and hash(a) == hash(b)
        assert a != HardInstance(10, frozenset([6, 8]))

    def test_default_threshold(self):
        assert default_threshold(10) == 3
        assert default_threshold(400) == 120


class TestSingleQueryProb:
    def test_zero_below_k(self):
        for m in range(3):
            assert single_query_one_prob(20, 3, m) == 0

    def test_spot_value(self):
        assert single_query_one_prob(20, 3, 6) == Fraction(1, 6)

    def test_monotone_and_one_at_half(self):
        for n, k in ((20, 3), (40, 5), (100, 10)):
            prev = Fraction(0)
            for m in range(n // 2 + 1):
                cur = single_query_one_prob(n, k, m)
                assert cur >= prev
                prev = cur
            assert single_query_one_prob(n, k, n // 2) == 1

    def test_bound_inside_weight_box(self):
        n = 1000
        for k in (5, 12, 20):
            bound = Fraction(3, 5) ** k
            for m in range(0, 301, 10):
                assert single_query_one_prob(n, k, m) <= bound


class TestUniformOneHitProb:
    def test_exhaustive_small_n(self):
        # Every instance of every label and every point of the cube: the
        # count of 1s is the same for each instance, and equals p * 2^n.
        for n in range(2, 13, 2):
            half = n // 2
            for k in range(1, half + 1):
                counts = set()
                for label in (0, 1):
                    lo = 1 if label == 0 else half + 1
                    for rel in itertools.combinations(range(lo, lo + half), k):
                        inst = HardInstance(n, frozenset(rel))
                        counts.add(sum(reference_eval_hard_bits(inst, b)
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
         "91ff6734f2fcd206c8678dac7279bcc0bdba9a9b0262ddd020403e19b093d616"),
        (("fixed-point-list", 60, 40, 3, 500, 9),
         "9ee34a5b462dc9fcb2148bb8e472724891582184ca1f4e42e38212c523c43f0a"),
        (("cube-sum-at-x_star", 7, 10, 2, 3000, 4),
         "eeb8a4fbf2969c81a51e5c936d0f2169bfe2c5f2738cfb54f0473d0ad2b6c76b"),
        # Criterion 8's two runs, at full scale.
        (("uniform-random-queries", 1000, 400, 20, 2000, 200),
         "2c512cbf521325149195d142d10a6966c68fe81d05eda40fd0a196419ee46ae5"),
        (("cube-sum-at-x_star", 127, 1000, 6, 1000, 3212),
         "1e9dc95671330c1189af689bb4bb1cb441d4cf677eeb500cab5b2744a9d19c47"),
    ], ids=["uniform", "fixed", "cube-sum", "criterion-8-uniform", "criterion-8-cube-sum"])
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
    ], ids=["n40-k4", "q0", "n2-k1", "dense-k1", "dense-k2", "k-half", "n400-k20"])
    @pytest.mark.parametrize("strategy", ["uniform-random-queries", "fixed-point-list"])
    def test_matches_loop(self, strategy, q, n, k, trials, seed):
        # The bulk draws and the relevance screen give the plain loop's
        # report, with or without hits.
        rep = run_distinguisher(strategy, q, n, k, trials, seed)
        assert rep == loop_distinguisher(strategy, q, n, k, trials, seed)
        if n == 20:
            assert rep["one_hit_rate"] > 0

    def test_uniform_draws_match_comprehension(self):
        for n, q in ((2, 7), (40, 100), (400, 30), (64, 0)):
            a, b = random.Random(n + q), random.Random(n + q)
            assert list(lowerbound._uniform_queries(a, n, q)) == [
                b.getrandbits(n) for _ in range(q)
            ]
            # Same calls in the same order: the generators stay in step.
            assert a.getrandbits(64) == b.getrandbits(64)

    def test_screen_evaluates_through_module_global(self, monkeypatch):
        # Tracers wrap lowerbound._eval_hard_bits: the screen must call it
        # at run time, for exactly the points covering the relevance mask.
        calls = []
        real = lowerbound._eval_hard_bits

        def counted(inst, bits):
            calls.append(bits & inst._rel_mask == inst._rel_mask)
            return real(inst, bits)

        monkeypatch.setattr(lowerbound, "_eval_hard_bits", counted)
        inst = sample_hard_instance(20, 2, 1, 8)
        pts = list(lowerbound._uniform_queries(random.Random(9), 20, 400))
        hits = lowerbound._hard_hits(inst, pts)
        covering = sum(b & inst._rel_mask == inst._rel_mask for b in pts)
        assert calls == [True] * covering and covering > 50
        assert hits == [b for b in pts if real(inst, b)] and hits

    def test_fixed_probes_built_once(self, monkeypatch):
        calls = []
        real = lowerbound._fixed_queries

        def counted(n, k, q):
            calls.append((n, k, q))
            return real(n, k, q)

        monkeypatch.setattr(lowerbound, "_fixed_queries", counted)
        run_distinguisher("fixed-point-list", 20, 40, 3, 50, 1)
        assert calls == [(40, 3, 20)]

    def test_cube_sum_evaluates_through_module_global(self, monkeypatch):
        # Tracers wrap lowerbound._eval_hard_bits; the cube-sum walk must
        # look it up at call time, once per subcube point.
        calls = []
        real = lowerbound._eval_hard_bits

        def counted(inst, bits):
            calls.append(bits)
            return real(inst, bits)

        monkeypatch.setattr(lowerbound, "_eval_hard_bits", counted)
        run_distinguisher("cube-sum-at-x_star", 15, 40, 3, 5, 1)
        assert len(calls) == 5 * 15

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

    def test_cube_sum_k_capped_before_any_walk(self, monkeypatch):
        # The walk would list 2^(k+1)-1 points, so k above the table cap
        # is a config error, raised before a single instance is drawn.
        walks = []
        monkeypatch.setattr(lowerbound, "_cube_sum_guess",
                            lambda inst, k, seed: walks.append(k) or (0, False))
        run_distinguisher("cube-sum-at-x_star", (1 << 25) - 1, 100, 24, 1, 0)
        assert walks == [24]
        for k in (25, 40):
            with pytest.raises(ConfigError) as err:
                run_distinguisher("cube-sum-at-x_star", (1 << (k + 1)) - 1, 100, k, 1, 0)
            assert err.value.fieldname == "k" and "<= 24" in str(err.value)
        assert walks == [24]

    def test_zero_queries_no_information(self):
        trials = 2000
        rep = run_distinguisher("uniform-random-queries", 0, 40, 4, trials, 1)
        assert rep["one_hit_rate"] == 0.0
        assert rep["advantage"] <= 3 * math.sqrt(1 / (4 * trials))

    def test_blind_strategy_floor(self):
        # fixed probes at large n never hit a 1, so advantage sits at noise level
        trials = 2000
        rep = run_distinguisher("fixed-point-list", 50, 200, 15, trials, 2)
        assert rep["one_hit_rate"] == 0.0
        assert rep["advantage"] <= 3 * math.sqrt(1 / (4 * trials))

    def test_cube_sum_distinguishes(self):
        rep = run_distinguisher("cube-sum-at-x_star", 127, 600, 6, 400, 3)
        assert rep["advantage"] >= 0.35

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_distinguisher("psychic", 10, 20, 2, 10, 0)

    def test_report_shape(self):
        rep = run_distinguisher("uniform-random-queries", 5, 20, 2, 50, 9)
        assert set(rep) == {
            "strategy", "n", "k", "q", "trials", "advantage", "one_hit_rate", "seed",
        }


class TestMajAmbiguity:
    def test_n8_report(self):
        rep = maj_ambiguity_check(8)
        assert rep["num_functions"] == 8
        assert rep["disagreements_on_balanced_layer_only"]
        assert rep["truncated_all_identical"]
        assert rep["layer_fraction"] == "35/128"

    def test_n6(self):
        rep = maj_ambiguity_check(6)
        assert rep["disagreements_on_balanced_layer_only"]
        assert rep["truncated_all_identical"]
        assert rep["layer_fraction"] == "5/16"

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            maj_ambiguity_check(7)

    def test_json_dict(self):
        # The dict is the `ambiguity` stdout: five keys, the fraction as "a/b".
        d = maj_ambiguity_check(2)
        assert json.dumps(d, sort_keys=True) == (
            '{"disagreements_on_balanced_layer_only": true, "layer_fraction": "1/2", '
            '"n": 2, "num_functions": 2, "truncated_all_identical": true}')
