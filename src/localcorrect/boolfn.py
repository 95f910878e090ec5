"""Core Boolean function representations: points, truth tables, juntas.

Conventions fixed bit-exactly (reports and tests depend on them):
  - Coordinates are 1-based everywhere in the public API.
  - A truth table on k variables is a 2^k-bit integer; the bit at index j
    is the value at the assignment where variable i equals bit (i-1) of j
    (variable 1 = least significant bit).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

MAX_TABLE_VARS = 24  # dense 2^k-bit tables; 16 MiB at the cap


class DimensionMismatch(ValueError):
    """A Point was used with an object of a different arity."""


class ConfigError(ValueError):
    """Bad input from outside the program; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__("%s: %s" % (fieldname, message))
        self.fieldname = fieldname


def check_seed(seed: int) -> None:
    """The seed rule of every seeded subcommand: a 64-bit unsigned int."""
    if not 0 <= seed < 1 << 64:
        raise ConfigError("seed", "must lie in [0, 2^64)")


@dataclass(frozen=True, slots=True)
class Point:
    """An element of Z_2^n, stored as an n-bit integer (bit i-1 = x_i)."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.bits < 1 << self.n:
            raise ValueError("bits out of range for n=%d" % self.n)

    def weight(self) -> int:
        return self.bits.bit_count()

    def to_hex(self) -> str:
        """Lowercase hex; the integer's LSB is coordinate 1."""
        return format(self.bits, "0%dx" % ((self.n + 3) // 4))

    @classmethod
    def from_hex(cls, s: str, n: int) -> "Point":
        return cls(n, int(s, 16))

    @classmethod
    def zero(cls, n: int) -> "Point":
        return cls(n, 0)


@functools.lru_cache(maxsize=None)
def _low_mask(k: int, i: int) -> int:
    """Mask over [0, 2^k) selecting indices whose bit i is 0."""
    step = 1 << i
    block = (1 << step) - 1
    period = 2 * step
    mask = 0
    for b in range(0, 1 << k, period):
        mask |= block << b
    return mask


def _mobius(bits: int, k: int) -> int:
    """GF(2) Moebius/zeta butterfly on a 2^k-bit table; an involution."""
    for i in range(k):
        bits ^= (bits & _low_mask(k, i)) << (1 << i)
    return bits


@dataclass(frozen=True, slots=True)
class TruthTable:
    """Dense truth table of a function on k <= 24 variables."""

    k: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.k <= MAX_TABLE_VARS:
            raise ValueError("k must be in [1, %d]" % MAX_TABLE_VARS)
        if not 0 <= self.bits < 1 << (1 << self.k):
            raise ValueError("table does not fit 2^k bits")

    @property
    def size(self) -> int:
        return 1 << self.k

    def value(self, index: int) -> int:
        """Value at assignment index (variable 1 = LSB of the index)."""
        if not 0 <= index < self.size:
            raise IndexError("assignment index out of range")
        return (self.bits >> index) & 1

    # ---- common families -------------------------------------------------

    @classmethod
    def constant(cls, k: int, value: int) -> "TruthTable":
        return cls(k, ((1 << (1 << k)) - 1) if value else 0)

    @classmethod
    def and_all(cls, k: int) -> "TruthTable":
        return cls(k, 1 << ((1 << k) - 1))

    @classmethod
    def parity(cls, k: int) -> "TruthTable":
        bits = 0
        for j in range(1 << k):
            if j.bit_count() & 1:
                bits |= 1 << j
        return cls(k, bits)

    @classmethod
    def majority(cls, k: int) -> "TruthTable":
        """Strict majority; k must be odd so there are no ties."""
        if k % 2 == 0:
            raise ValueError("majority needs odd arity")
        bits = 0
        for j in range(1 << k):
            if j.bit_count() > k // 2:
                bits |= 1 << j
        return cls(k, bits)


def _check_embedding(n: int, k: int, embedding) -> tuple:
    emb = tuple(embedding)
    if len(emb) != k:
        raise ValueError("embedding length %d != k=%d" % (len(emb), k))
    if any(not 1 <= c <= n for c in emb):
        raise ValueError("embedding coordinate out of [1, n]")
    if len(set(emb)) != k:
        raise ValueError("embedding is not injective")
    return emb


@dataclass(frozen=True)
class JuntaSpec:
    """A core function on k variables embedded into n coordinates.

    embedding[i-1] is the coordinate of [n] carrying core variable i.
    Two specs are equivalent iff they are pointwise equal as functions.
    """

    n: int
    core: TruthTable
    embedding: tuple

    def __post_init__(self):
        if self.core.k > self.n:
            raise ValueError("core arity exceeds n")
        object.__setattr__(
            self, "embedding", _check_embedding(self.n, self.core.k, self.embedding)
        )

    @property
    def k(self) -> int:
        return self.core.k

    def bits_fn(self):
        """Fast evaluator on raw n-bit integers (hot oracle path)."""
        masks = [1 << (c - 1) for c in self.embedding]
        table = self.core.bits

        def fn(bits: int) -> int:
            idx = 0
            for i, m in enumerate(masks):
                if bits & m:
                    idx |= 1 << i
            return (table >> idx) & 1

        return fn
