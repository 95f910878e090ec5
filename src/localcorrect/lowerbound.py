"""Adversarial instances showing when local correction needs many queries.

The hard instance is an AND junta whose relevant variables all sit in one
half of the coordinates, with the function forced to 0 outside the box of
per-half Hamming weight <= floor(0.3n).  An instance is its relevance
mask, a plain int over n coordinates (bit i-1 for coordinate i), and the
caller holds n: the half holding the mask is its label, and n fixes the
threshold.  The target input is the balanced point x_star (first half
zeros, second half ones): D0 instances answer 0 there, D1 instances
answer 1, yet queries almost never reveal which.

Both distinguishers run one trial rule; a strategy only supplies its
points.  Trial t draws its label, its instance and its points from one
random.Random of derive_seed(seed, t): q uniform draws mapped from
`getrandbits`, or the k+1 directions of the correctors' subcube walk from
x_star, streamed in blocks.  A trial is thus a function of its index, so
harness.run_chunks spreads the trials over every CPU and the report's
bytes do not depend on the CPU count.
Every point goes through `_hard_hits`, the one point rule.  It builds the
half mask and the threshold once per trial, and a point answers 1 only if
it covers the relevance mask, which a uniform point misses with
probability 1 - 2^-k, and only then are the two half-weights compared
with the threshold.  So no trial makes a Python function call per point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from math import comb

from .boolfn import MAX_N, MAX_TABLE_VARS, ConfigError, _low_mask, check_seed, truth_table
from .correctors import subcube_blocks
from .harness import derive_seed, query_budget, run_chunks

STRATEGIES = ("uniform-random-queries", "cube-sum-at-x_star")


def default_threshold(n: int) -> int:
    return (3 * n) // 10


def sample_hard_instance(n: int, k: int, label: int, rng: random.Random) -> int:
    """The relevance mask of an instance: a uniform k-subset of the half
    designated by the label (0: the first, 1: the second), drawn from rng."""
    if n % 2:
        raise ValueError("n must be even")
    if not 1 <= k <= n // 2:
        raise ValueError("k must lie in [1, n/2]")
    if label not in (0, 1):
        raise ValueError("label must be 0 or 1")
    half = n // 2
    picks = rng.sample(range(label * half, (label + 1) * half), k)
    return sum(1 << i for i in picks)


def single_query_one_prob(n: int, k: int, m: int) -> Fraction:
    """Pr over the instance that an in-box query of relevant-half weight m
    returns 1: C(m, k) / C(n/2, k), zero when m < k.  Exact rationals."""
    if n % 2:
        raise ValueError("n must be even")
    if not 0 <= m <= n // 2:
        raise ValueError("m must lie in [0, n/2]")
    if m < k:
        return Fraction(0)
    return Fraction(comb(m, k), comb(n // 2, k))


def uniform_one_hit_prob(n: int, k: int, q: int) -> Fraction:
    """Pr that q uniform queries include a 1 of the hard instance:
    1 - (1 - p)^q, where p is the fraction of points inside the weight box
    (half-weights <= default_threshold(n)) that cover the k relevant
    coordinates.  p is the same for every instance, so this is exact."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    if not 1 <= k <= n // 2:
        raise ValueError("k must lie in [1, n/2]")
    if q < 0:
        raise ValueError("q must be >= 0")
    h, t = n // 2, default_threshold(n)
    # Points by half-weights (w1 free, w2 in the relevant half); a weight-w2
    # half covers the relevant k-set in C(w2, k) of its C(h, k) placements.
    free = sum(comb(h, w) for w in range(t + 1))
    covering = sum(comb(h, w) * comb(w, k) for w in range(t + 1))
    p = Fraction(free * covering, (1 << n) * comb(h, k))
    return 1 - (1 - p) ** q


def _hard_hits(n: int, rel: int, points) -> list:
    # The points where the instance with relevance mask rel is 1.  The
    # mask is tested first: a uniform point almost always misses it, so
    # the box test rarely runs.  Each trial reads it as a module global,
    # once, so a test can wrap it.
    half, t = n >> 1, default_threshold(n)
    low = (1 << half) - 1
    return [b for b in points if b & rel == rel
            and (b & low).bit_count() <= t and (b >> half).bit_count() <= t]


def run_distinguisher(
    strategy: str, q: int, n: int, k: int, trials: int, seed: int
) -> dict:
    """Empirical D0-vs-D1 distinguishing advantage of a query strategy.

    q is the query budget per trial; cube-sum-at-x_star always spends
    2^(k+1)-1, so it must be given exactly that.  advantage = |Pr[guess
    correct] - 1/2|; one_hit_rate is the fraction of trials in which any
    query returned 1.
    """
    if strategy not in STRATEGIES:
        raise ConfigError("strategy", "expected one of %s" % list(STRATEGIES))
    if trials < 1:
        raise ConfigError("trials", "must be >= 1")
    if n < 2 or n % 2:
        raise ConfigError("n", "must be even and >= 2")
    if n > MAX_N:
        raise ConfigError("n", "must be <= %d" % MAX_N)
    if not 1 <= k <= n // 2:
        raise ConfigError("k", "must lie in [1, n/2]")
    cube = strategy == "cube-sum-at-x_star"
    if cube:
        # The walk takes 2^(k+1)-1 steps: correct --algo cube's cap holds.
        if k > MAX_TABLE_VARS:
            raise ConfigError("k", "must be <= %d for %s" % (MAX_TABLE_VARS, strategy))
        if q != query_budget("cube", k):
            raise ConfigError("queries", "must equal 2^(k+1)-1 = %d for %s"
                              % (query_budget("cube", k), strategy))
    elif q < 0:
        raise ConfigError("queries", "must be >= 0")
    check_seed(seed)
    x_star = ((1 << n // 2) - 1) << n // 2  # first half zeros, second half ones
    correct, hit_trials = map(sum, zip(*run_chunks(
        trials, trials * q, partial(_run_trial, cube, q, n, k, seed, x_star))))
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


def _run_trial(cube: bool, q: int, n: int, k: int, seed: int, x_star: int, t: int):
    """Trial t of a distinguisher experiment; returns (guessed the label,
    some query hit a 1)."""
    rng = random.Random(derive_seed(seed, t))
    label = rng.getrandbits(1)
    rel = sample_hard_instance(n, k, label, rng)
    if cube:
        # The subcube corrector at x_star, run against g directly:
        # the hit parity is the recovered bit (D1 answers 1 at x_star).
        dirs = list(map(rng.getrandbits, repeat(n, k + 1)))
        pts = chain.from_iterable(subcube_blocks(x_star, dirs))
    else:
        # The same q calls in the same order as a loop, made from C
        # and streamed, so no list of q points is held.
        pts = map(rng.getrandbits, repeat(n, q))
    hits = _hard_hits(n, rel, pts)
    # Uniform guesses D1 iff some 1 has a relevant-half pattern
    # consistent with D1: at least k ones in the second half.
    guess = len(hits) & 1 if cube else any((b >> n // 2).bit_count() >= k for b in hits)
    return guess == label, bool(hits)


def maj_ambiguity_check(n: int) -> dict:
    """Compare the n strict majorities over [n] minus one coordinate.

    Any two differ exactly on the weight-n/2 layer (at the points where
    the two dropped coordinates differ), so zeroing that layer makes all n
    isomorphisms collide into one function.  Returns the JSON-ready dict
    that `ambiguity` prints, with layer_fraction as an "a/b" string.
    """
    if n % 2 or not 2 <= n <= 16:
        raise ConfigError("n", "must be even and in [2, 16] for the exhaustive check")
    half = n // 2
    maj_cut = (n - 1) // 2  # strict majority of n-1 (odd) variables

    tables = [truth_table(n, lambda bits, keep=~(1 << j): (bits & keep).bit_count() > maj_cut)
              for j in range(n)]
    layer_mask = truth_table(n, lambda bits: bits.bit_count() == half)

    # Each disagreement set must be the balanced-layer points where the two
    # dropped coordinates differ, i.e. where exactly one has bit 0.
    layer_only = all(
        tables[a] ^ tables[b] == layer_mask & (_low_mask(n, a) ^ _low_mask(n, b))
        for a in range(n) for b in range(a + 1, n)
    )
    truncated = {tbl & ~layer_mask for tbl in tables}

    return {
        "n": n,
        "num_functions": n,
        "disagreements_on_balanced_layer_only": layer_only,
        "truncated_all_identical": len(truncated) == 1,
        # Never a whole number for n >= 2, so always "a/b".
        "layer_fraction": str(Fraction(comb(n, half), 1 << n)),
    }
