"""Adversarial instances showing when local correction needs many queries.

The hard instance is an AND junta whose relevant variables all sit in one
half of the coordinates, with the function forced to 0 outside the box of
per-half Hamming weight <= floor(0.3n).  The target input is the balanced
point (first half zeros, second half ones): D0 instances answer 0 there,
D1 instances answer 1, yet queries almost never reveal which.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .boolfn import ConfigError, Point, check_seed
from .correctors import subcube_points

STRATEGIES = ("uniform-random-queries", "fixed-point-list", "cube-sum-at-x_star")


def default_threshold(n: int) -> int:
    return (3 * n) // 10


@dataclass(frozen=True)
class HardInstance:
    """AND of k coordinates confined to one half, weight-truncated to 0."""

    n: int
    k: int
    relevant: frozenset
    label: int  # 0 for D0 (first half), 1 for D1 (second half)
    threshold: int

    def __post_init__(self):
        if self.n % 2:
            raise ValueError("n must be even")
        if not 1 <= self.k <= self.n // 2:
            raise ValueError("k must lie in [1, n/2]")
        if len(self.relevant) != self.k:
            raise ValueError("relevant must have k coordinates")
        half = self.n // 2
        if self.label == 0:
            ok = all(1 <= c <= half for c in self.relevant)
        else:
            ok = all(half + 1 <= c <= self.n for c in self.relevant)
        if not ok:
            raise ValueError("relevant coordinates must sit in the label's half")

    @property
    def x_star(self) -> Point:
        """First half zeros, second half ones."""
        half = self.n // 2
        return Point(self.n, ((1 << half) - 1) << half)


def sample_hard_instance(n: int, k: int, label: int, seed: int) -> HardInstance:
    """relevant is a uniform k-subset of the half designated by the label."""
    rng = random.Random(seed)
    half = n // 2
    lo = 1 if label == 0 else half + 1
    relevant = frozenset(rng.sample(range(lo, lo + half), k))
    return HardInstance(n, k, relevant, label, default_threshold(n))


def _eval_hard_bits(inst: HardInstance, bits: int) -> int:
    half = inst.n // 2
    if (bits & ((1 << half) - 1)).bit_count() > inst.threshold:
        return 0
    if (bits >> half).bit_count() > inst.threshold:
        return 0
    return int(all((bits >> (c - 1)) & 1 for c in inst.relevant))


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


def _guess_from_hits(n: int, k: int, hits) -> int:
    # Guess D1 iff some query answered 1 with a relevant-half pattern
    # consistent with D1 (at least k ones in the second half).
    for bits in hits:
        if (bits >> (n // 2)).bit_count() >= k:
            return 1
    return 0


def _uniform_queries(rng, n: int, q: int):
    return [rng.getrandbits(n) for _ in range(q)]


def _fixed_queries(n: int, k: int, q: int):
    # Deterministic probe list: weight-k windows sliding across alternating
    # halves; every point is inside the weight box.
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
        if q != (1 << (k + 1)) - 1:
            raise ConfigError("queries", "must equal 2^(k+1)-1 = %d for %s"
                              % ((1 << (k + 1)) - 1, strategy))
    elif q < 0:
        raise ConfigError("queries", "must be >= 0")
    check_seed(seed)
    rng = random.Random(seed)
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
                pts = _fixed_queries(n, k, q)
            hits = [b for b in pts if _eval_hard_bits(inst, b)]
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


@dataclass(frozen=True)
class MajAmbiguityReport:
    """Exhaustive check that Maj over n-1 of n variables is uncorrectable
    once the balanced layer is zeroed."""

    n: int
    num_functions: int
    disagreements_on_balanced_layer_only: bool
    truncated_all_identical: bool
    layer_fraction: Fraction

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "num_functions": self.num_functions,
            "disagreements_on_balanced_layer_only": self.disagreements_on_balanced_layer_only,
            "truncated_all_identical": self.truncated_all_identical,
            "layer_fraction": "%d/%d"
            % (self.layer_fraction.numerator, self.layer_fraction.denominator),
        }


def maj_ambiguity_check(n: int) -> MajAmbiguityReport:
    """Compare the n strict majorities over [n] minus one coordinate.

    Any two differ exactly on the weight-n/2 layer (at the points where
    the two dropped coordinates differ), so zeroing that layer makes all n
    isomorphisms collide into one function.
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

    layer_only = True
    for a in range(n):
        for b in range(a + 1, n):
            # The disagreement set must be exactly the balanced-layer points
            # where the two dropped coordinates differ.
            expected = 0
            for bits in range(1 << n):
                if bits.bit_count() == half and ((bits >> a) ^ (bits >> b)) & 1:
                    expected |= 1 << bits
            if tables[a] ^ tables[b] != expected:
                layer_only = False

    layer_mask = 0
    for bits in range(1 << n):
        if bits.bit_count() == half:
            layer_mask |= 1 << bits
    truncated = {tbl & ~layer_mask for tbl in tables}

    return MajAmbiguityReport(
        n=n,
        num_functions=n,
        disagreements_on_balanced_layer_only=layer_only,
        truncated_all_identical=len(truncated) == 1,
        layer_fraction=Fraction(comb(n, half), 1 << n),
    )
