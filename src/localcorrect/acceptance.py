"""The acceptance suite: every claim the artifact stands behind, runnable
as one batch (CLI `bench`) or per criterion from the test suite.

Each criterion pins its scale and tolerance here; nothing is deferred to
later calibration.
"""

from __future__ import annotations

import contextlib
import filecmp
import functools
import io
import os
import random
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

from . import cli
from .analysis import fraction_low_influence, influence_exact, sample_random_junta
from .boolfn import Point, TruthTable, _mobius
from .correctors import (
    cube_sum_correct,
    influence_correct,
    pair_rounds,
    subcube_points,
)
from .harness import derive_seed, find_corrupted_point, sample_influential_junta
from .lowerbound import (
    maj_ambiguity_check,
    run_distinguisher,
    single_query_one_prob,
    uniform_one_hit_prob,
)
from .oracle import IidFlips, NoisyOracle, random_flip_set


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        return "%s criterion %d: %s (%.1fs) %s" % (
            "PASS" if self.passed else "FAIL", self.number, self.name,
            self.elapsed, self.detail,
        )


def _criterion(number: int, name: str):
    """Turn a body returning (passed, detail) into a timed criterion."""
    def wrap(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body()
            return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)
        return run
    return wrap


def _random_low_degree_table(rng: random.Random, m: int, max_deg: int) -> int:
    """Truth table (as 2^m-bit int) of a random polynomial of degree <= max_deg."""
    coeffs = 0
    for idx in range(1 << m):
        if idx.bit_count() <= max_deg and rng.getrandbits(1):
            coeffs |= 1 << idx
    return _mobius(coeffs, m)


def subcube_parity(table: int, offset: int, dirs) -> int:
    """XOR of the table over the full affine subcube spanned by dirs at offset."""
    acc = (table >> offset) & 1
    for cur in subcube_points(offset, dirs):
        acc ^= (table >> cur) & 1
    return acc


@_criterion(1, "subcube identity")
def criterion_1():
    """Subcube identity: degree-<=k polynomials XOR to 0 over any
    (k+1)-direction affine subcube, dependent direction sets included."""
    m = 10
    rng = random.Random(0xC1)
    failures = 0
    for k in range(1, 6):
        for _ in range(500):
            table = _random_low_degree_table(rng, m, k)
            for _ in range(100):
                offset = rng.getrandbits(m)
                dirs = [rng.getrandbits(m) for _ in range(k + 1)]
                failures += subcube_parity(table, offset, dirs)
    return failures == 0, "%d nonzero subcube sums (expected 0)" % failures


@_criterion(2, "cube-sum corrector under corruption")
def criterion_2():
    """Cube-sum corrector at k=4, n=16 with exactly 256 explicit flips
    (eps = 2^-8), x itself a flipped point: success >= 0.85 over 10^4 trials."""
    k, n, trials = 4, 16, 10000
    spec = sample_random_junta(k, n, 0xC2)
    corruption = random_flip_set(n, 256, 0xC2F)
    base = spec.bits_fn()
    x = find_corrupted_point(n, base, corruption, 0xC2A)
    truth = base(x.bits)
    oracle = NoisyOracle(n, base, corruption)
    ok = 0
    for t in range(trials):
        res = cube_sum_correct(oracle, x, k, derive_seed(0xC2, t))
        if res.queries_used != (1 << (k + 1)) - 1:
            return False, "query count %d != %d" % (res.queries_used, (1 << (k + 1)) - 1)
        ok += res.value == truth
    rate = ok / trials
    return rate >= 0.85, "success rate %.4f (floor 0.85, theory ~0.879)" % rate


@_criterion(3, "influence corrector")
def criterion_3():
    """Influence corrector at k=8, n=128 under iid eps=2^-12: success
    >= 0.70 at x=0 and at a corrupted x; exactly 6*8*800+1 queries/trial."""
    k, n, trials = 8, 128, 1000
    r = pair_rounds(k)
    expected_queries = 6 * k * r + 1
    if r != 800:
        return False, "r=%d != 800 for k=8" % r

    spec, _ = sample_influential_junta(k, n, 0xC3)
    corruption = IidFlips(Fraction(1, 4096), 0xC3F)
    base = spec.bits_fn()

    xs = {
        "all-zeros": Point(n),
        "corrupted": find_corrupted_point(n, base, corruption, 0xC3A),
    }
    details = []
    passed = True
    for mode_idx, (mode, x) in enumerate(xs.items()):
        truth = base(x.bits)
        oracle = NoisyOracle(n, base, corruption)
        ok = 0
        for t in range(trials):
            res = influence_correct(oracle, x, k, derive_seed(0xC3 + mode_idx, t))
            if res.queries_used != expected_queries:
                return False, "query count %d != %d" % (res.queries_used, expected_queries)
            ok += res.value == truth
        rate = ok / trials
        passed = passed and rate >= 0.70
        details.append("%s %.3f" % (mode, rate))
    return passed, "success rates (floor 0.70): " + ", ".join(details)


@_criterion(4, "masked-input marginals")
def criterion_4():
    """Masked-input marginals with k parts fixed by index: Pr[i in S] ~ 1/3,
    flip | i not in S ~ 3/4, unconditional flip ~ 1/2, each +-0.01."""
    from .correctors import build_masked_input

    n, k, samples = 60, 5, 100000
    s = 3 * k
    chosen = set(range(k))  # fixed by part index, independent of assignments
    rng = random.Random(0xC4)
    x = Point(n)
    in_s = [0] * n
    flips = [0] * n
    out_count = [0] * n
    out_flips = [0] * n
    for _ in range(samples):
        assignment = [rng.randrange(s) for _ in range(n)]
        S = [c + 1 for c in range(n) if assignment[c] in chosen]
        y = build_masked_input(x, S, rng.getrandbits(64))
        sset = set(S)
        yb = y.bits
        for c in range(n):
            i = c + 1
            flipped = (yb >> c) & 1
            flips[c] += flipped
            if i in sset:
                in_s[c] += 1
            else:
                out_count[c] += 1
                out_flips[c] += flipped
    bad = []
    for c in range(n):
        p_in = in_s[c] / samples
        p_flip = flips[c] / samples
        p_cond = out_flips[c] / out_count[c]
        if abs(p_in - 1 / 3) > 0.01:
            bad.append("coord %d Pr[in S]=%.4f" % (c + 1, p_in))
        if abs(p_cond - 0.75) > 0.01:
            bad.append("coord %d flip|out=%.4f" % (c + 1, p_cond))
        if abs(p_flip - 0.5) > 0.01:
            bad.append("coord %d flip=%.4f" % (c + 1, p_flip))
    return not bad, "all %d coordinates within tolerance" % n if not bad else "; ".join(bad[:4])


def _influence_brute(tt: TruthTable, i: int) -> Fraction:
    # Independent oracle: literal scan of all points, no bit tricks.
    e = 1 << (i - 1)
    count = sum(tt.value(j) != tt.value(j ^ e) for j in range(tt.size))
    return Fraction(count, tt.size)


@_criterion(5, "exact influences vs brute force")
def criterion_5():
    """Exact influences agree with brute force and the closed forms."""
    problems = []
    for k in range(1, 11):
        tt = TruthTable.and_all(k)
        want = Fraction(1, 1 << (k - 1))
        for i in range(1, k + 1):
            if influence_exact(tt, i) != want or _influence_brute(tt, i) != want:
                problems.append("AND_%d var %d" % (k, i))
    for k in (3, 5, 8):
        tt = TruthTable.parity(k)
        for i in range(1, k + 1):
            if influence_exact(tt, i) != 1 or _influence_brute(tt, i) != 1:
                problems.append("parity_%d var %d" % (k, i))
        const = TruthTable.constant(k, 1)
        for i in range(1, k + 1):
            if influence_exact(const, i) != 0 or _influence_brute(const, i) != 0:
                problems.append("const_%d var %d" % (k, i))
    maj3 = TruthTable.majority(3)
    for i in range(1, 4):
        if influence_exact(maj3, i) != Fraction(1, 2) or _influence_brute(maj3, i) != Fraction(1, 2):
            problems.append("Maj_3 var %d" % i)
    return not problems, "all closed forms match" if not problems else "; ".join(problems[:4])


@_criterion(6, "random-junta concentration")
def criterion_6():
    """Random-core concentration: none of 200 sampled k=10 cores has
    minimum influence below 1/50."""
    frac = fraction_low_influence(10, 200, 0xC6)
    return frac == 0.0, "low-influence fraction %.4f (must be exactly 0)" % frac


@_criterion(7, "single-query probability bound")
def criterion_7():
    """Single-query success bound: C(m,k)/C(n/2,k) <= (3/5)^k exactly for
    n=1000, k in 5..20, m <= 300; spot value 1/6 at n=20, k=3, m=6."""
    problems = []
    n = 1000
    for k in range(5, 21):
        bound = Fraction(3, 5) ** k
        for m in range(0, 301):
            if single_query_one_prob(n, k, m) > bound:
                problems.append("k=%d m=%d" % (k, m))
    if single_query_one_prob(20, 3, 6) != Fraction(1, 6):
        problems.append("spot value n=20 k=3 m=6")
    return not problems, "all exact comparisons hold" if not problems else "; ".join(problems[:4])


@_criterion(8, "distinguisher blindness")
def criterion_8():
    """Distinguisher blindness at lower-bound scale; the exponential-query
    cube-sum corrector still distinguishes in the same regime."""
    n, k, q = 400, 20, 1000
    uni = run_distinguisher("uniform-random-queries", q, n, k, 2000, 0xC8)
    cube = run_distinguisher("cube-sum-at-x_star", 127, 1000, 6, 1000, 0xC8C)
    passed = (
        uni["one_hit_rate"] <= 0.06
        and uni["advantage"] <= 0.05
        and cube["advantage"] >= 0.35
    )
    return passed, (
        "uniform hit=%.4f theory=%.6f adv=%.4f (caps 0.06/0.05); cube adv=%.4f "
        "(floor 0.35)"
        % (uni["one_hit_rate"], uniform_one_hit_prob(n, k, q),
           uni["advantage"], cube["advantage"])
    )


@_criterion(9, "majority ambiguity")
def criterion_9():
    """Majority-minus-one ambiguity at n=8, exhaustively."""
    rep = maj_ambiguity_check(8)
    layer_only = rep["disagreements_on_balanced_layer_only"]
    identical = rep["truncated_all_identical"]
    fraction = rep["layer_fraction"]
    passed = layer_only and identical and fraction == "35/128"
    return passed, "layer-only=%s identical=%s fraction=%s" % (layer_only, identical, fraction)


@_criterion(10, "reproducibility")
def criterion_10():
    """Reproducibility: identical CLI invocations yield byte-identical files."""
    with tempfile.TemporaryDirectory() as tmp:
        pairs = []
        for tag, argv in (
            ("correct", [
                "correct", "--algo", "cube", "--k", "3", "--n", "12",
                "--corruption", "iid:1/64:5", "--trials", "200",
                "--seed", "42", "--x-mode", "random",
            ]),
            ("lowerbound", [
                "lowerbound", "--strategy", "uniform-random-queries",
                "--n", "40", "--k", "4", "--queries", "50",
                "--trials", "300", "--seed", "7",
            ]),
        ):
            outs = []
            for run in (0, 1):
                path = os.path.join(tmp, "%s_%d.jsonl" % (tag, run))
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv + ["--out", path])
                if rc != 0:
                    return False, "%s run exited %d" % (tag, rc)
                outs.append(path)
            pairs.append(filecmp.cmp(outs[0], outs[1], shallow=False))
    return all(pairs), "byte-identical: correct=%s lowerbound=%s" % tuple(pairs)


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
]


def run_all():
    """Run every criterion, printing each line as it finishes."""
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        print(res.line())
    return results
