"""Variable influence, exact and sampled, and random junta generation.

Influence of variable i is the probability over uniform x that flipping
coordinate i changes the function value.  All threshold comparisons
(against 1/50) are exact rational; floating point never decides them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .boolfn import ConfigError, JuntaSpec, TruthTable, _low_mask, check_seed

INFLUENCE_THRESHOLD = Fraction(1, 50)


@dataclass(frozen=True)
class InfluenceReport:
    """Exact per-variable influences of a core function."""

    k: int
    per_variable: tuple
    min_influence: Fraction
    passes_threshold: bool


def influence_exact(tt: TruthTable, i: int) -> Fraction:
    """|{x : f(x) != f(x + e_i)}| / 2^k, exact."""
    if not 1 <= i <= tt.k:
        raise IndexError("variable index %d out of [1, %d]" % (i, tt.k))
    step = 1 << (i - 1)
    # Disagreeing inputs come in pairs {x, x+e_i}; count pairs on the
    # half of the indices where variable i is 0, then double.
    diff = (tt.bits ^ (tt.bits >> step)) & _low_mask(tt.k, i - 1)
    return Fraction(2 * diff.bit_count(), 1 << tt.k)


def sample_random_junta(k: int, n: int, seed: int) -> JuntaSpec:
    """Uniform core table (all 2^2^k equally likely) and uniform embedding."""
    if k > n:
        raise ValueError("k=%d exceeds n=%d" % (k, n))
    rng = random.Random(seed)
    core = TruthTable(k, rng.getrandbits(1 << k))
    embedding = tuple(rng.sample(range(1, n + 1), k))
    return JuntaSpec(n, core, embedding)


def min_influence_report(tt: TruthTable) -> InfluenceReport:
    per_var = tuple(influence_exact(tt, i) for i in range(1, tt.k + 1))
    lo = min(per_var)
    return InfluenceReport(tt.k, per_var, lo, lo >= INFLUENCE_THRESHOLD)


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
        tt = TruthTable(k, rng.getrandbits(1 << k))
        if min(influence_exact(tt, i) for i in range(1, k + 1)) < INFLUENCE_THRESHOLD:
            low += 1
    return low / samples
