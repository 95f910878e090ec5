"""Adversarial instances showing when local correction needs many queries.

The hard instance is an AND junta whose relevant variables all sit in one
half of the coordinates, with the function forced to 0 outside the box of
per-half Hamming weight <= floor(0.3n).  An instance is n and its
relevant set: the half holding the set is its label, and n fixes the
threshold.  The target input is the balanced point (first half zeros,
second half ones): D0 instances answer 0 there, D1 instances answer 1,
yet queries almost never reveal which.

Each instance precomputes two masks: the relevant coordinates and the low
half.  A point is evaluated relevance first: it answers 1 only if it
covers the relevance mask, which a uniform point misses with probability
1 - 2^-k, and only then are the two half-weights compared with the
threshold.

The distinguishers screen their query points in bulk.  Uniform points are
drawn by mapping `getrandbits` over the budget, and `_hard_hits` keeps
only the points that cover the relevance mask before it calls
`_eval_hard_bits`, which stays the one full point rule.  So a uniform or
fixed trial makes no Python function call per point: the draws run in C,
and on uniform points the evaluator is called about q * 2^-k times per
trial instead of q times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb

from .boolfn import MAX_TABLE_VARS, ConfigError, Point, _low_mask, check_seed
from .correctors import subcube_points

STRATEGIES = ("uniform-random-queries", "fixed-point-list", "cube-sum-at-x_star")


def default_threshold(n: int) -> int:
    return (3 * n) // 10


@dataclass(frozen=True)
class HardInstance:
    """AND of the relevant coordinates, truncated to 0 above the derived
    threshold default_threshold(n).  relevant lies in one half, and that
    half is the label: the first for D0, the second for D1."""

    n: int
    relevant: frozenset

    def __post_init__(self):
        if self.n % 2:
            raise ValueError("n must be even")
        half = self.n // 2
        if not self.relevant or not (
            all(1 <= c <= half for c in self.relevant)
            or all(half < c <= self.n for c in self.relevant)
        ):
            raise ValueError("relevant must be a nonempty subset of one half")
        rel = 0
        for c in self.relevant:
            rel |= 1 << (c - 1)
        object.__setattr__(self, "_rel_mask", rel)
        object.__setattr__(self, "_low_mask", (1 << half) - 1)
        object.__setattr__(self, "threshold", default_threshold(self.n))

    @property
    def x_star(self) -> Point:
        """First half zeros, second half ones."""
        half = self.n // 2
        return Point(self.n, ((1 << half) - 1) << half)


def sample_hard_instance(n: int, k: int, label: int, seed: int) -> HardInstance:
    """relevant is a uniform k-subset of the half designated by the label."""
    if label not in (0, 1):
        raise ValueError("label must be 0 or 1")
    rng = random.Random(seed)
    half = n // 2
    lo = 1 if label == 0 else half + 1
    return HardInstance(n, frozenset(rng.sample(range(lo, lo + half), k)))


def _eval_hard_bits(inst: HardInstance, bits: int) -> int:
    # The AND of the relevant bits first: it is a single mask test and
    # almost always false, so the half-weight box test rarely runs.
    rel = inst._rel_mask
    if bits & rel != rel:
        return 0
    t = inst.threshold
    return int((bits & inst._low_mask).bit_count() <= t
               and (bits >> (inst.n >> 1)).bit_count() <= t)


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


def _guess_from_hits(n: int, k: int, hits) -> int:
    # Guess D1 iff some query answered 1 with a relevant-half pattern
    # consistent with D1 (at least k ones in the second half).
    for bits in hits:
        if (bits >> (n // 2)).bit_count() >= k:
            return 1
    return 0


def _uniform_queries(rng, n: int, q: int):
    # The same q calls in the same order as a loop, made from C and
    # streamed into _hard_hits, so no list of q points is held.
    return map(rng.getrandbits, repeat(n, q))


def _hard_hits(inst: HardInstance, points) -> list:
    # The points where g is 1.  Points missing a relevant coordinate fail
    # the mask test with no Python call; _eval_hard_bits decides the rest
    # and is read as a module global so tracers can wrap it.
    rel = inst._rel_mask
    return [b for b in points if b & rel == rel and _eval_hard_bits(inst, b)]


def _fixed_queries(n: int, k: int, q: int):
    # Deterministic probe list: weight-k windows sliding across alternating
    # halves.  Every point is inside the weight box only when k <=
    # default_threshold(n); for larger k every probe lies outside it.
    half = n // 2
    pts = []
    for j in range(q):
        start = (j * k) % half
        offset = 0 if j % 2 == 0 else half
        bits = 0
        for i in range(k):
            bits |= 1 << (offset + (start + i) % half)
        pts.append(bits)
    return pts


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
    if not 1 <= k <= n // 2:
        raise ConfigError("k", "must lie in [1, n/2]")
    if strategy == "cube-sum-at-x_star":
        # The walk lists 2^(k+1)-1 points: correct --algo cube's cap holds.
        if k > MAX_TABLE_VARS:
            raise ConfigError("k", "must be <= %d for %s" % (MAX_TABLE_VARS, strategy))
        if q != (1 << (k + 1)) - 1:
            raise ConfigError("queries", "must equal 2^(k+1)-1 = %d for %s"
                              % ((1 << (k + 1)) - 1, strategy))
    elif q < 0:
        raise ConfigError("queries", "must be >= 0")
    check_seed(seed)
    rng = random.Random(seed)
    fixed = _fixed_queries(n, k, q) if strategy == "fixed-point-list" else None
    correct = 0
    hit_trials = 0
    for _ in range(trials):
        label = rng.getrandbits(1)
        inst = sample_hard_instance(n, k, label, rng.getrandbits(64))
        if strategy == "cube-sum-at-x_star":
            guess, hit = _cube_sum_guess(inst, k, rng.getrandbits(64))
        else:
            if strategy == "uniform-random-queries":
                pts = _uniform_queries(rng, n, q)
            else:
                pts = fixed
            hits = _hard_hits(inst, pts)
            hit = bool(hits)
            guess = _guess_from_hits(n, k, hits)
        correct += guess == label
        hit_trials += hit
    advantage = abs(correct / trials - 0.5)
    return {
        "strategy": strategy,
        "n": n,
        "k": k,
        "q": q,
        "trials": trials,
        "advantage": advantage,
        "one_hit_rate": hit_trials / trials,
        "seed": seed,
    }


def _cube_sum_guess(inst: HardInstance, k: int, seed: int):
    # Run the affine-subcube corrector at x_star against g directly; the
    # recovered bit is the guessed label (D1 answers 1 at x_star).
    rng = random.Random(seed)
    n = inst.n
    dirs = [rng.getrandbits(n) for _ in range(k + 1)]
    # _eval_hard_bits is read as a module global so tracers can wrap it.
    vals = [_eval_hard_bits(inst, b) for b in subcube_points(inst.x_star.bits, dirs)]
    return sum(vals) & 1, any(vals)


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

    tables = []
    for j in range(1, n + 1):
        drop = 1 << (j - 1)
        tbl = 0
        for bits in range(1 << n):
            if (bits & ~drop).bit_count() > maj_cut:
                tbl |= 1 << bits
        tables.append(tbl)

    layer_mask = 0
    for bits in range(1 << n):
        if bits.bit_count() == half:
            layer_mask |= 1 << bits

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
