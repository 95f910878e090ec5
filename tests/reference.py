"""Plain reference rules, each written once, that the tests hold the
package's fast paths to.

Every rule here takes one point, or one table entry, at a time and
reaches no fast path of the package: `test_hygiene`'s
`test_references_reach_no_fast_path` fails on an import or a read of
one.  The two whole-report references rebuild a report from the
documented seed streams, so a test compares outputs, not internals.
Each fast path, its reference, and the one test that compares them:

- `JuntaSpec.bits_fn`, both its full 2^n-byte table of values (k <= 8,
  n <= 16) and its chunk dicts, and the batch form `bytes_fn` that the
  k <= 8 evaluator carries above n = 16: `reference_bits_fn`,
  `test_boolfn::TestEvalJunta::test_matches_mask_loop_reference`, whose
  every-point rows sit on each side of n = 16, and whose byte-layouts
  rows (n = 17 to 1000) read whole batches, an empty one and a
  one-point one through `bytes_fn`;
- `boolfn._mobius`: `reference_anf_coeffs`,
  `test_boolfn::TestAnf::test_matches_brute_force_random`;
- `IidFlips.corrupt`: `reference_flips_point`,
  `test_oracle::TestIidFlips::test_matches_fraction_reference`;
- `corrupt_many`: `reference_flips_point` and flip-set membership,
  `test_oracle::TestCorruptMany::test_matches_per_point_rule`;
- `NoisyOracle.query_many`, on a table base at n = 12 and on a batch
  form base at n = 40, read as bytes under iid and mapped under none
  and flips: the base plus `reference_flipped`,
  `test_oracle::TestQuery::test_query_many_matches_per_point_rule`;
- `subcube_blocks`: `reference_walk`,
  `test_correctors::TestCubeSum::test_blocks_follow_the_old_walk`;
- `identify_influencing_parts`, whose pairs come from one long draw per
  part and reach the oracle as bytes: `reference_parts`,
  `test_correctors::TestIdentifyParts::test_matches_plain_pairs`;
- `find_corrupted_point`: `reference_x_search`,
  `test_harness::TestRunExperiment::test_x_search_matches_value_based_loop`;
- `lowerbound._hard_hits`: `reference_hard_value`,
  `test_lowerbound::TestEvalHardG::test_matches_generator_reference`;
- the `correct` report (`run_correction_experiment` and `emit_report`,
  with the three correctors): `reference_correct_report`,
  `test_harness::TestReferenceGrid::test_report_matches_reference`;
- the `lowerbound` report (`run_distinguisher`):
  `reference_distinguisher_report`,
  `test_lowerbound::TestDistinguisher::test_matches_loop` (uniform
  rows) and `::test_cube_sum_matches_loop` (cube-sum rows).
"""

import hashlib
import json
import math
import random

from localcorrect.boolfn import hex_point, sample_random_junta
from localcorrect.correctors import pair_rounds
from localcorrect.harness import derive_seed, sample_influential_junta
from localcorrect.lowerbound import default_threshold, sample_hard_instance
from localcorrect.oracle import IidFlips

# derive_seed indices of the base function and of the x search; trial t
# uses index t.  Written out, not imported, so that a moved stream fails.
BASE_STREAM = 1 << 48
X_STREAM = (1 << 48) + 1
# The x search's draw cap, written out for the same reason.
MAX_SCAN = 500_000


def reference_bits_fn(spec):
    """The plain evaluator: one test per relevant coordinate."""
    masks = [1 << (c - 1) for c in spec.embedding]

    def fn(bits):
        idx = 0
        for i, m in enumerate(masks):
            if bits & m:
                idx |= 1 << i
        return (spec.core >> idx) & 1

    return fn


def reference_anf_coeffs(table, k):
    """The ANF's monomials as variable masks: the coefficient of monomial
    t is the XOR of the table over every assignment j inside t."""
    coeffs = set()
    for t in range(1 << k):
        acc = 0
        for j in range(1 << k):
            if j & ~t == 0:
                acc ^= (table >> j) & 1
        if acc:
            coeffs.add(t)
    return coeffs


def reference_hash(n, bits, seed):
    digest = hashlib.blake2b(bits.to_bytes((n + 7) // 8, "little"), digest_size=8,
                             key=seed.to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little")


def reference_flips_point(corr, n, bits):
    """The plain iid flip rule: a freshly keyed hash, h / 2^64 < eps
    compared as h * den < num * 2^64."""
    h = reference_hash(n, bits, corr.seed)
    return h * corr.eps.denominator < corr.eps.numerator << 64


def reference_flipped(corruption, n):
    """Whether a point is flipped: the iid rule, or membership of the
    explicit flip set."""
    if isinstance(corruption, IidFlips):
        return lambda bits: reference_flips_point(corruption, n, bits)
    return corruption.flips.__contains__


def reference_x_search(n, corruption, seed):
    """The adversarial x: a seeded pick from the sorted flip set, or the
    first flipped one of up to MAX_SCAN uniform draws (None after them)."""
    rng = random.Random(seed)
    if not isinstance(corruption, IidFlips):
        return rng.choice(sorted(corruption.flips))
    flipped = reference_flipped(corruption, n)
    for _ in range(MAX_SCAN):
        bits = rng.getrandbits(n)
        if flipped(bits):
            return bits
    return None


def reference_walk(offset, dirs):
    """The subcube walk as one list, one step per point: step t XORs in the
    direction of t's lowest set bit, so the 2^m - 1 points are offset plus
    each nonempty subset sum of the m directions."""
    pts = []
    cur = offset
    for t in range(1, 1 << len(dirs)):
        cur ^= dirs[(t & -t).bit_length() - 1]
        pts.append(cur)
    return pts


def reference_cube_sum(g, n, x, k, seed):
    """XOR of g over the walk of k+1 seeded directions from x."""
    rng = random.Random(seed)
    acc = 0
    for y in reference_walk(x, [rng.getrandbits(n) for _ in range(k + 1)]):
        acc ^= g(y)
    return acc


def reference_parts(g, n, k, rng):
    """The mask S of the k parts chosen from 3k seeded parts of [n], each
    marked by r plain query pairs cut from one draw per part: pair j's
    a and b are the draw's chunks 2j and 2j+1 of w = 8*ceil(n/8) bits,
    each shifted down and masked to n bits, then g is asked at a and at
    a with the part's coordinates taken from b, one query per point in
    that order."""
    s, r = 3 * k, pair_rounds(k)
    w, full = 8 * ((n + 7) // 8), (1 << n) - 1
    part = [rng.randrange(s) for _ in range(n)]
    hits = []
    for p in range(s):
        members = sum(1 << c for c in range(n) if part[c] == p)
        draw = rng.getrandbits(2 * w * r)
        count = 0
        for j in range(r):
            a, b = draw >> (2 * j * w) & full, draw >> ((2 * j + 1) * w) & full
            count += g(a) != g(a ^ ((a ^ b) & members))
        hits.append(count)
    marked = [p for p in range(s) if hits[p]]
    if len(marked) <= k:
        unmarked = [p for p in range(s) if not hits[p]]
        chosen = marked + rng.sample(unmarked, k - len(marked))
    else:
        rng.shuffle(marked)
        chosen = sorted(marked, key=lambda p: hits[p], reverse=True)[:k]
    return sum(1 << c for c in range(n) if part[c] in chosen)


def reference_influence(g, n, x, k, seed):
    """Mark the parts holding influencing variables with one query per
    point, freeze x on the k chosen parts and ask g once elsewhere."""
    rng = random.Random(seed)
    parts_rng = random.Random(rng.getrandbits(64))
    mask_rng = random.Random(rng.getrandbits(64))
    S = reference_parts(g, n, k, parts_rng)
    y = x
    for c in range(n):
        if not S >> c & 1 and mask_rng.randrange(4) < 3:
            y ^= 1 << c
    return g(y)


def reference_correct_report(cfg):
    """The text of the `correct` report for cfg, from the seed streams:
    one sorted-key JSON line per trial, then the summary line."""
    corruption, x = cfg.validate()
    n, k = cfg.n, cfg.k
    base_seed = derive_seed(cfg.master_seed, BASE_STREAM)
    redraws = None
    if cfg.algo == "symmetric":
        def base(bits):
            return int(2 * bits.bit_count() > n)
    else:
        if cfg.algo == "influence":
            spec, redraws = sample_influential_junta(k, n, base_seed)
        else:
            spec = sample_random_junta(k, n, base_seed)
        base = reference_bits_fn(spec)
    flipped = reference_flipped(corruption, n)
    queries = [0]

    def g(bits):
        queries[0] += 1
        return base(bits) ^ flipped(bits)

    def correct(x, seed):
        if cfg.algo == "cube":
            return reference_cube_sum(g, n, x, k, seed)
        if cfg.algo == "influence":
            return reference_influence(g, n, x, k, seed)
        return base(x)

    if cfg.x_mode == "adversarial-flipped":
        x = reference_x_search(n, corruption, derive_seed(cfg.master_seed, X_STREAM))
    runs = cfg.repeat_t or 1
    lines, successes = [], 0
    for t in range(cfg.trials):
        seed = derive_seed(cfg.master_seed, t)
        rng = random.Random(seed)
        xt = rng.getrandbits(n) if x is None else x
        before = queries[0]
        votes = sum(correct(xt, rng.getrandbits(64)) for _ in range(runs))
        value, truth = int(2 * votes > runs), base(xt)
        successes += value == truth
        lines.append(json.dumps({
            "trial": t, "x": hex_point(xt, n), "returned": value,
            "truth": truth, "success": value == truth,
            "queries": queries[0] - before, "seed": seed,
        }, sort_keys=True))
    rate = successes / cfg.trials
    summary = {
        "trials": cfg.trials, "success_rate": rate,
        "mean_queries": queries[0] / cfg.trials,
        "ci_halfwidth": 1.96 * math.sqrt(rate * (1 - rate) / cfg.trials),
        "algo": cfg.algo, "k": k, "n": n, "corruption": cfg.corruption,
        "x_mode": cfg.x_mode, "seed": cfg.master_seed, "repeat_t": cfg.repeat_t,
    }
    if redraws is not None:
        summary["junta_redraws"] = redraws
    lines.append(json.dumps({"summary": summary}, sort_keys=True))
    return "\n".join(lines) + "\n"


def reference_hard_value(n, rel, bits):
    """The hard instance's value by its definition: both half-weights
    within the threshold, then the AND over the relevant coordinates."""
    half, t = n // 2, default_threshold(n)
    if (bits & ((1 << half) - 1)).bit_count() > t or (bits >> half).bit_count() > t:
        return 0
    return int(bits & rel == rel)


def x_star(n):
    """The balanced point: coordinates n/2+1 to n set, the first half clear."""
    return sum(1 << i for i in range(n // 2, n))


def reference_distinguisher_report(strategy, q, n, k, trials, seed):
    """The `lowerbound` report from one plain trial loop, every point
    evaluated by the definition.  Uniform draws q points and guesses D1
    iff some 1 has at least k of its second half's coordinates set;
    cube-sum walks from x_star along k+1 seeded directions and guesses the
    parity of its 1s."""
    cube = strategy == "cube-sum-at-x_star"
    rng = random.Random(seed)
    correct = hit_trials = 0
    for _ in range(trials):
        label = rng.getrandbits(1)
        rel = sample_hard_instance(n, k, label, rng.getrandbits(64))
        if cube:
            walk = random.Random(rng.getrandbits(64))
            pts = reference_walk(x_star(n), [walk.getrandbits(n) for _ in range(k + 1)])
        else:
            pts = [rng.getrandbits(n) for _ in range(q)]
        hits = [b for b in pts if reference_hard_value(n, rel, b)]
        if cube:
            guess = len(hits) & 1
        else:
            guess = int(any(sum((b >> i) & 1 for i in range(n // 2, n)) >= k for b in hits))
        correct += guess == label
        hit_trials += bool(hits)
    return {
        "strategy": strategy, "n": n, "k": k, "q": q, "trials": trials,
        "advantage": abs(correct / trials - 0.5),
        "one_hit_rate": hit_trials / trials, "seed": seed,
    }
