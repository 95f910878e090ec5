"""Noisy query-counting oracles: a base function composed with a corruption.

The corrupted function g is always a fixed function: the iid model decides
each point's flip with a keyed hash, so two oracles built from the same
(base, corruption) agree on every query.  Correctors only ever see g
through NoisyOracle.query and NoisyOracle.query_many, which count.

Each corruption model has two forms of one rule: `corrupt(n, bits, value)`
for one point, the plain reference, and `corrupt_many(n, points, values)`
for a whole batch, which query_many calls.  The batch form makes no Python
call per point, so a query costs the base lookup plus, under iid, one
keyed-hash copy, update and digest run from C.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat, starmap
from math import comb
from operator import xor

from .boolfn import DimensionMismatch, Point

EXHAUSTIVE_MAX_N = 20

# Points IidFlips.corrupt_many hashes per slice, so that at most this many
# hasher copies are alive at once however large the batch.
IID_SLICE = 1 << 12


class NoCorruption:
    def corrupt(self, n: int, bits: int, value: int) -> int:
        return value

    def corrupt_many(self, n: int, points, values) -> list:
        return values


@dataclass(frozen=True)
class ExplicitFlips:
    """g differs from the base exactly on this finite set of points."""

    n: int
    flips: frozenset  # of raw point integers

    def __post_init__(self):
        for b in self.flips:
            if not 0 <= b < 1 << self.n:
                raise ValueError("flip point does not fit n=%d" % self.n)

    def corrupt(self, n: int, bits: int, value: int) -> int:
        return value ^ (bits in self.flips)

    def corrupt_many(self, n: int, points, values) -> list:
        return list(map(xor, values, map(self.flips.__contains__, points)))


@dataclass(frozen=True)
class IidFlips:
    """Each point flipped independently with probability eps.

    The decision is a keyed blake2b hash of (seed, point), so the
    corruption is a fixed function of the point; the realized flip
    fraction concentrates near eps rather than being capped by it.
    """

    eps: Fraction
    seed: int

    def __post_init__(self):
        if not 0 <= self.eps < 1:
            raise ValueError("eps must lie in [0, 1)")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("iid seed must lie in [0, 2^64)")
        # Built once; not fields, so repr, == and hash are unchanged.
        key = self.seed.to_bytes(8, "little", signed=False)
        object.__setattr__(self, "_hasher", hashlib.blake2b(digest_size=8, key=key))
        # h / 2^64 < eps  <=>  h < ceil(eps * 2^64) for integer h, exactly
        num, den = self.eps.numerator, self.eps.denominator
        object.__setattr__(self, "_threshold", -(-(num << 64) // den))

    def flips_point(self, n: int, bits: int) -> bool:
        h = self._hasher.copy()
        h.update(bits.to_bytes((n + 7) // 8, "little"))
        return int.from_bytes(h.digest(), "little") < self._threshold

    def corrupt(self, n: int, bits: int, value: int) -> int:
        return value ^ self.flips_point(n, bits)

    def corrupt_many(self, n: int, points, values) -> list:
        """flips_point's rule over a batch, chained through C-level maps."""
        size, copy, out = (n + 7) // 8, self._hasher.copy, []
        blake2b, below = hashlib.blake2b, self._threshold.__gt__
        for lo in range(0, len(points), IID_SLICE):
            pts = points[lo:lo + IID_SLICE]
            hs = list(starmap(copy, repeat((), len(pts))))
            # Both to_bytes arguments are given: Python 3.10 has no
            # default length or byte order.
            deque(map(blake2b.update, hs,
                      map(int.to_bytes, pts, repeat(size), repeat("little"))), 0)
            flips = map(below, map(int.from_bytes, map(blake2b.digest, hs),
                                   repeat("little")))
            out += map(xor, values[lo:lo + IID_SLICE], flips)
        return out


@dataclass(frozen=True)
class WeightTruncation:
    """g(y) = 0 whenever either half of y has Hamming weight > threshold."""

    threshold: int

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("truncation threshold must be >= 0")

    def corrupt(self, n: int, bits: int, value: int) -> int:
        half = n // 2
        lo = (bits & ((1 << half) - 1)).bit_count()
        hi = (bits >> half).bit_count()
        if lo > self.threshold or hi > self.threshold:
            return 0
        return value

    def corrupt_many(self, n: int, points, values) -> list:
        half, t = n // 2, self.threshold
        low = (1 << half) - 1
        return [0 if (b & low).bit_count() > t or (b >> half).bit_count() > t else v
                for b, v in zip(points, values)]


class BalancedLayerZero:
    """g(y) = 0 on the layer of Hamming weight exactly n/2 (n even)."""

    def corrupt(self, n: int, bits: int, value: int) -> int:
        if bits.bit_count() == n // 2:
            return 0
        return value

    def corrupt_many(self, n: int, points, values) -> list:
        half = n // 2
        return [0 if b.bit_count() == half else v for b, v in zip(points, values)]


@dataclass
class NoisyOracle:
    """Base function plus corruption, with a per-instance query counter.

    g is a fixed function, so one oracle may serve many trials in turn;
    each reads its own queries as a difference of query_count.  The
    counter is not locked, so concurrent trials need their own oracles.
    """

    n: int
    base_bits: object  # Callable[[int], int] on raw n-bit integers
    corruption: object = field(default_factory=NoCorruption)
    query_count: int = field(default=0, init=False)

    def query(self, x: Point) -> int:
        """g at one checked point; counts one query."""
        if x.n != self.n:
            raise DimensionMismatch("query point n=%d, oracle n=%d" % (x.n, self.n))
        return self.query_many((x.bits,))[0]

    def query_many(self, points) -> list:
        """g at each raw n-bit int of the sized, sliceable points, in order;
        counts len(points).

        The one place g is evaluated and queries are counted.  The base is
        mapped over the batch, then the corruption model's corrupt_many
        takes the whole batch at once.
        """
        self.query_count += len(points)
        return self.corruption.corrupt_many(
            self.n, points, list(map(self.base_bits, points)))


@dataclass(frozen=True)
class DisagreementBound:
    """Fraction of points where g differs from the base, with its provenance.

    kind is "exact", "upper_bound", "expected", or "unavailable" (value None).
    """

    value: object
    kind: str


def disagreement_fraction(o: NoisyOracle) -> DisagreementBound:
    """Exact disagreement fraction where tractable, else a labeled bound."""
    c = o.corruption
    if isinstance(c, NoCorruption):
        return DisagreementBound(Fraction(0), "exact")
    if isinstance(c, ExplicitFlips):
        return DisagreementBound(Fraction(len(c.flips), 1 << o.n), "exact")
    if isinstance(c, WeightTruncation):
        # The halves have n//2 and n - n//2 bits; g keeps the base only
        # where both weights are at most the threshold.
        inside = Fraction(1)
        for m in (o.n // 2, o.n - o.n // 2):
            inside *= Fraction(sum(comb(m, w) for w in range(min(c.threshold, m) + 1)),
                               1 << m)
        return DisagreementBound(1 - inside, "upper_bound")
    if isinstance(c, BalancedLayerZero):
        return DisagreementBound(Fraction(comb(o.n, o.n // 2), 1 << o.n), "upper_bound")
    if isinstance(c, IidFlips):
        if o.n <= EXHAUSTIVE_MAX_N:
            count = sum(
                c.flips_point(o.n, bits) for bits in range(1 << o.n)
            )
            return DisagreementBound(Fraction(count, 1 << o.n), "exact")
        return DisagreementBound(c.eps, "expected")
    return DisagreementBound(None, "unavailable")


def _parse_eps(text: str) -> Fraction:
    try:
        if "^" in text:
            base, _, exp = text.partition("^")
            return Fraction(int(base)) ** int(exp)
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("iid eps %r divides by zero" % text) from None


def parse_corruption(spec: str, n: int):
    """Parse a CLI corruption descriptor.

    Grammar: "none" | "flips:<file>" | "iid:<eps>:<seed>" | "trunc:<threshold>"
    | "layer".  Flip files hold one hex point per line, LSB = coordinate 1,
    spelled as `Point.from_hex` reads it; surrounding whitespace and blank
    lines are ignored.
    """
    if spec == "none":
        return NoCorruption()
    if spec == "layer":
        if n % 2:
            raise ValueError("layer needs an even n, got n=%d" % n)
        return BalancedLayerZero()
    kind, _, rest = spec.partition(":")
    if kind == "trunc":
        return WeightTruncation(int(rest))
    if kind == "iid":
        eps_text, _, seed_text = rest.rpartition(":")
        if not eps_text:
            raise ValueError("iid descriptor needs iid:<eps>:<seed>")
        return IidFlips(_parse_eps(eps_text), int(seed_text))
    if kind == "flips":
        with open(rest, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        flips = frozenset(Point.from_hex(line, n).bits for line in lines if line)
        return ExplicitFlips(n, flips)
    raise ValueError("unknown corruption descriptor %r" % spec)


def random_flip_set(n: int, count: int, seed: int) -> ExplicitFlips:
    """count distinct uniform points; the hard-eps corruption of choice."""
    if count > 1 << n:
        raise ValueError("cannot pick %d distinct points in Z_2^%d" % (count, n))
    rng = random.Random(seed)
    if n <= 30:
        flips = frozenset(rng.sample(range(1 << n), count))
    else:
        flips = set()
        while len(flips) < count:
            flips.add(rng.getrandbits(n))
        flips = frozenset(flips)
    return ExplicitFlips(n, flips)
