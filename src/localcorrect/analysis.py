"""Variable influence, exact and sampled, and random junta generation.

Influence of variable i is the probability over uniform x that flipping
coordinate i changes the function value.  A core function is its truth
table, a 2^k-bit int, passed with its k.  All threshold comparisons
(against 1/50) are exact rational; floating point never decides them.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .boolfn import ConfigError, JuntaSpec, _low_mask, check_seed

INFLUENCE_THRESHOLD = Fraction(1, 50)


class InfluenceReport(namedtuple("InfluenceReport", "min_influence passes_threshold")):
    """The exact minimum influence of a core function (a Fraction), and
    whether it reaches INFLUENCE_THRESHOLD."""

    __slots__ = ()


def influence_exact(table: int, k: int, i: int) -> Fraction:
    """|{x : f(x) != f(x + e_i)}| / 2^k for the k-variable table, exact."""
    if not 1 <= i <= k:
        raise IndexError("variable index %d out of [1, %d]" % (i, k))
    step = 1 << (i - 1)
    # Disagreeing inputs come in pairs {x, x+e_i}; count pairs on the
    # half of the indices where variable i is 0, then double.
    diff = (table ^ (table >> step)) & _low_mask(k, i - 1)
    return Fraction(2 * diff.bit_count(), 1 << k)


def sample_random_junta(k: int, n: int, seed: int) -> JuntaSpec:
    """Uniform core table (all 2^2^k equally likely) and uniform embedding."""
    if k > n:
        raise ValueError("k=%d exceeds n=%d" % (k, n))
    rng = random.Random(seed)
    core = rng.getrandbits(1 << k)
    return JuntaSpec(n, core, rng.sample(range(1, n + 1), k))


def min_influence_report(table: int, k: int) -> InfluenceReport:
    lo = min(influence_exact(table, k, i) for i in range(1, k + 1))
    return InfluenceReport(lo, lo >= INFLUENCE_THRESHOLD)


def fraction_low_influence(k: int, samples: int, seed: int) -> float:
    """Fraction of uniform random cores whose minimum influence is < 1/50."""
    if not 1 <= k <= 16:
        raise ConfigError("k", "must lie in [1, 16]; larger k is too costly to sample")
    if samples < 1:
        raise ConfigError("samples", "must be >= 1")
    check_seed(seed)
    rng = random.Random(seed)
    low = 0
    for _ in range(samples):
        low += not min_influence_report(rng.getrandbits(1 << k), k).passes_threshold
    return low / samples
