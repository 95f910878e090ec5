"""The acceptance suite: every claim the artifact stands behind, runnable
as one batch (CLI `bench`) or per criterion from the test suite.

Each criterion returns its (passed, detail) pair and pins its scale and
tolerance here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import os
import random
import tempfile
import time
from fractions import Fraction
from functools import partial
from itertools import chain

from . import cli
from .boolfn import _mobius, fraction_low_influence, influence_exact, truth_table
from .correctors import build_masked_input, pair_rounds, subcube_blocks
from .harness import build_base, derive_seed, find_corrupted_point, query_budget, run_chunks
from .lowerbound import (
    maj_ambiguity_check,
    run_distinguisher,
    single_query_one_prob,
    uniform_one_hit_prob,
)
from .oracle import IidFlips, NoisyOracle, random_flip_set


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
    for cur in chain.from_iterable(subcube_blocks(offset, dirs)):
        acc ^= (table >> cur) & 1
    return acc


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


def _successes(oracle, correct, x: int, truth: int, budget: int, trial_seed: int,
               a: int, b: int):
    """Correct x on oracle once per trial t in [a, b) under
    derive_seed(trial_seed, t); returns (successes, None), or (None,
    message) at the first query count off budget."""
    ok = 0
    for t in range(a, b):
        res = correct(oracle, x, derive_seed(trial_seed, t))
        if res.queries_used != budget:
            return None, "query count %d != %d" % (res.queries_used, budget)
        ok += res.value == truth
    return ok, None


def _rate(algo: str, k: int, n: int, base_seed: int, corruption, x_seed,
          trial_seed: int, trials: int):
    """Correct x (0, or the corrupted point found from x_seed) on the base
    drawn from base_seed, in _successes over range(trials) in run_chunks'
    trial chunks, with base, x and oracle built once, here; returns
    (success rate, None), or (None, the lowest off-budget trial's message)."""
    base, correct, _ = build_base(algo, k, n, base_seed)
    x = 0 if x_seed is None else find_corrupted_point(n, corruption, x_seed)
    budget = query_budget(algo, k)
    chunks = run_chunks(trials, trials * budget,
                        partial(_successes, NoisyOracle(n, base, corruption), correct,
                                x, base(x), budget, trial_seed))
    for _, wrong in chunks:
        if wrong:
            return None, wrong
    return sum(ok for ok, _ in chunks) / trials, None


def criterion_2():
    """Cube-sum corrector at k=4, n=16 with exactly 256 explicit flips
    (eps = 2^-8), x itself a flipped point: success >= 0.85 over 10^4 trials."""
    rate, wrong = _rate("cube", 4, 16, 0xC2, random_flip_set(16, 256, 0xC2F),
                        0xC2A, 0xC2, 10000)
    if wrong:
        return False, wrong
    return rate >= 0.85, "success rate %.4f (floor 0.85, theory ~0.879)" % rate


# Criterion 3's x modes: (name, x seed, trial seed).
_CRITERION_3_MODES = (("all-zeros", None, 0xC3), ("corrupted", 0xC3A, 0xC4))


def criterion_3():
    """Influence corrector at k=8, n=128 under iid eps=2^-12: success
    >= 0.70 at x=0 and at a corrupted x; exactly 6*8*800+1 queries/trial.
    Each x mode's trials run in run_chunks' chunks, one per CPU."""
    r = pair_rounds(8)
    if r != 800:
        return False, "r=%d != 800 for k=8" % r
    corruption = IidFlips(Fraction(1, 4096), 0xC3F)
    details = []
    passed = True
    for mode, x_seed, trial_seed in _CRITERION_3_MODES:
        rate, wrong = _rate("influence", 8, 128, 0xC3, corruption, x_seed, trial_seed, 1000)
        if wrong:
            return False, wrong
        passed = passed and rate >= 0.70
        details.append("%s %.3f" % (mode, rate))
    return passed, "success rates (floor 0.70): " + ", ".join(details)


def criterion_4():
    """Masked-input marginals with k parts fixed by index: Pr[i in S] ~ 1/3,
    flip | i not in S ~ 3/4, unconditional flip ~ 1/2, each +-0.01."""
    n, k, samples = 60, 5, 100000
    s = 3 * k  # parts 0..k-1 are chosen, independent of assignments
    rng = random.Random(0xC4)
    in_s = [0] * n
    flips = [0] * n
    out_count = [0] * n
    out_flips = [0] * n
    for _ in range(samples):
        assignment = [rng.randrange(s) for _ in range(n)]
        S = sum(1 << c for c in range(n) if assignment[c] < k)
        yb = build_masked_input(0, n, S, rng.getrandbits(64))
        for c in range(n):
            flipped = (yb >> c) & 1
            flips[c] += flipped
            if S >> c & 1:
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


def _influence_brute(table: int, k: int, i: int) -> Fraction:
    # Independent oracle: literal scan of all points, no masks.
    e = 1 << (i - 1)
    count = sum((table >> j) & 1 != (table >> (j ^ e)) & 1 for j in range(1 << k))
    return Fraction(count, 1 << k)


def criterion_5():
    """Exact influences agree with brute force and the closed forms."""
    rows = [("AND_%d" % k, k, truth_table(k, lambda j: j == (1 << k) - 1),
             Fraction(1, 1 << (k - 1))) for k in range(1, 11)]
    for k in (3, 5, 8):
        rows += [("parity_%d" % k, k, truth_table(k, lambda j: j.bit_count() & 1), 1),
                 ("const_%d" % k, k, truth_table(k, lambda j: 1), 0)]
    rows.append(("Maj_3", 3, truth_table(3, lambda j: j.bit_count() > 1), Fraction(1, 2)))
    problems = ["%s var %d" % (label, i) for label, k, table, want in rows
                for i in range(1, k + 1)
                if influence_exact(table, k, i) != want
                or _influence_brute(table, k, i) != want]
    return not problems, "all closed forms match" if not problems else "; ".join(problems[:4])


def criterion_6():
    """Random-core concentration: none of 200 sampled k=10 cores has
    minimum influence below 1/50."""
    frac = fraction_low_influence(10, 200, 0xC6)
    return frac == 0.0, "low-influence fraction %.4f (must be exactly 0)" % frac


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


def criterion_9():
    """Majority-minus-one ambiguity at n=8, exhaustively."""
    rep = maj_ambiguity_check(8)
    layer_only = rep["disagreements_on_balanced_layer_only"]
    identical = rep["truncated_all_identical"]
    fraction = rep["layer_fraction"]
    passed = layer_only and identical and fraction == "35/128"
    return passed, "layer-only=%s identical=%s fraction=%s" % (layer_only, identical, fraction)


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
    ("subcube identity", criterion_1),
    ("cube-sum corrector under corruption", criterion_2),
    ("influence corrector", criterion_3),
    ("masked-input marginals", criterion_4),
    ("exact influences vs brute force", criterion_5),
    ("random-junta concentration", criterion_6),
    ("single-query probability bound", criterion_7),
    ("distinguisher blindness", criterion_8),
    ("majority ambiguity", criterion_9),
    ("reproducibility", criterion_10),
]


def run_all():
    """Run every criterion in number order, flushing each one's line as it
    finishes; returns the pass flags."""
    flags = []
    for number, (name, criterion) in enumerate(ALL_CRITERIA, 1):
        t0 = time.perf_counter()
        passed, detail = criterion()
        elapsed = time.perf_counter() - t0
        print("%s criterion %d: %s (%.1fs) %s" % (
            "PASS" if passed else "FAIL", number, name, elapsed, detail), flush=True)
        flags.append(passed)
    return flags
