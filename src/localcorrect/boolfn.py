"""Core Boolean function representations: truth tables, juntas, and the
hex form of a point; a table's variable influences, and random juntas.

Conventions fixed bit-exactly (reports and tests depend on them):
  - Coordinates are 1-based everywhere in the public API; a point or a set
    of coordinates is an n-bit int mask whose bit i-1 stands for
    coordinate i; parse_hex_point bounds a point read from text below 2^n.
  - A truth table on k variables is a plain 2^k-bit int, with k kept
    beside it; the bit at index j is the value at the assignment where
    variable i equals bit (i-1) of j (variable 1 = least significant bit).
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple
from fractions import Fraction

MAX_TABLE_VARS = 24  # dense 2^k-bit tables; 2 MiB at the cap
MAX_N = 1 << 16  # coordinates of a point; the experiments use at most 1,000
# Largest n whose junta (k <= 8) is evaluated from a full 2^n-byte table of
# values rather than a dict per chunk.  At n=16 the table is 64 KiB, built
# in about 0.2 ms, and a k=4 cube correction saves about 2 µs with it, so
# a few hundred corrections repay the build.  Each further coordinate
# doubles the table and its build while a correction saves no more.
FULL_TABLE_MAX_N = 16
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_ASCII_BITS = bytes.maketrans(b"\0\1", b"01")


class ConfigError(ValueError):
    """Bad input from outside the program; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__("%s: %s" % (fieldname, message))
        self.fieldname = fieldname


def check_seed(seed: int) -> None:
    """The seed rule of every seeded subcommand: a 64-bit unsigned int."""
    if not 0 <= seed < 1 << 64:
        raise ConfigError("seed", "must lie in [0, 2^64)")


def hex_point(bits: int, n: int) -> str:
    """A point as lowercase hex, (n + 3) // 4 digits; the integer's LSB
    is coordinate 1."""
    return format(bits, "0%dx" % ((n + 3) // 4))


def parse_hex_point(s: str, n: int) -> int:
    """Inverse of hex_point: ASCII hex digits of either case and nothing
    else (no sign, 0x prefix, whitespace or underscore), below 2^n."""
    if not s or not _HEX_DIGITS.issuperset(s):
        raise ValueError("%r is not a string of hex digits" % s)
    bits = int(s, 16)
    if bits >> n:
        raise ValueError("bits out of range for n=%d" % n)
    return bits


@functools.lru_cache(maxsize=None)
def _low_mask(k: int, i: int) -> int:
    """Mask over [0, 2^k) selecting indices whose bit i is 0."""
    # Start from one period (2^i ones, 2^i zeros) and double it until it
    # spans 2^k bits: log2(2^k / 2^(i+1)) shifts, linear in the table.
    mask = (1 << (1 << i)) - 1
    width = 2 << i
    while width < 1 << k:
        mask |= mask << width
        width *= 2
    return mask


def _mobius(bits: int, k: int) -> int:
    """GF(2) Moebius/zeta butterfly on a 2^k-bit table; an involution."""
    for i in range(k):
        bits ^= (bits & _low_mask(k, i)) << (1 << i)
    return bits


def truth_table(k: int, rule) -> int:
    """The 2^k-bit table whose bit j is rule(j), a 0 or 1 (or bool); rule is
    called once per j, in ascending order.  The bits are parsed from one
    digit string, linear in 2^k (a sum of shifted bits is quadratic)."""
    return int(bytes(map(rule, range(1 << k)))[::-1].translate(_ASCII_BITS), 2)


INFLUENCE_THRESHOLD = Fraction(1, 50)  # compared exactly, never as a float


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


class JuntaSpec(namedtuple("JuntaSpec", "n core embedding")):
    """A core table on k variables, a 2^k-bit int, embedded into n
    coordinates; k is len(embedding).

    embedding[i-1] is the coordinate of [n] carrying core variable i.
    Two specs are equivalent iff they are pointwise equal as functions.
    """

    __slots__ = ()

    def __new__(cls, n: int, core: int, embedding):
        emb = tuple(embedding)
        k = len(emb)
        if not 1 <= k <= MAX_TABLE_VARS:
            raise ValueError("k must be in [1, %d]" % MAX_TABLE_VARS)
        if not 0 <= core < 1 << (1 << k):
            raise ValueError("table does not fit 2^k bits")
        if any(not 1 <= c <= n for c in emb):
            raise ValueError("embedding coordinate out of [1, n]")
        if len(set(emb)) != k:
            raise ValueError("embedding is not injective")
        return tuple.__new__(cls, (n, core, emb))

    @property
    def k(self) -> int:
        return len(self.embedding)

    def bits_fn(self):
        """Evaluator on raw n-bit integers (the hot oracle path).

        The lookup state is built once, here.  With k <= 8 and
        n <= FULL_TABLE_MAX_N it is every value: a 2^n-byte table whose
        byte j is the value at point j, and the evaluator is the table's
        bound __getitem__, so mapping it over a batch makes no Python
        call per point; NoisyOracle reads the table back through its
        __self__ to tabulate g under a flip set.  Otherwise the relevant
        coordinates are split into chunks of up to 8, and each chunk gets
        a dict from bits & chunk_mask to that chunk's share of the
        core-table index.  A point then costs one AND and one dict lookup
        per chunk; with a single chunk (k <= 8) the dict holds the 0/1
        value itself, and otherwise the index selects a bit of the table
        held as bytes.
        """
        table = self.core
        if self.k <= 8 and self.n <= FULL_TABLE_MAX_N:
            # Core-table indices of points 0 .. 2^c - 1, doubled once per
            # coordinate c; the upper copy has coordinate c set, so it
            # carries core variable i's bit when c = embedding[i].
            var_of = {c: i for i, c in enumerate(self.embedding)}
            idx = b"\0"
            for c in range(1, self.n + 1):
                i = var_of.get(c)
                idx += idx if i is None else idx.translate(
                    bytes(b | 1 << i for b in range(256)))
            return idx.translate(
                bytes((table >> j) & 1 for j in range(256))).__getitem__

        chunks = []
        for lo in range(0, self.k, 8):
            mask, shares = 0, {0: 0}
            for i, c in enumerate(self.embedding[lo:lo + 8], lo):
                bit = 1 << (c - 1)
                mask |= bit
                shares.update({key | bit: share | 1 << i
                               for key, share in shares.items()})
            chunks.append((mask, shares))

        if len(chunks) == 1:
            mask, shares = chunks[0]
            values = {key: (table >> idx) & 1 for key, idx in shares.items()}

            def fn(bits: int) -> int:
                return values[bits & mask]

            return fn

        # k > 8: index a byte string, since shifting a 2^k-bit int per
        # query costs time linear in the table (about 0.4 ms at k=24).
        table_bytes = table.to_bytes(1 << (self.k - 3), "little")

        def fn(bits: int) -> int:
            idx = 0
            for mask, shares in chunks:
                idx |= shares[bits & mask]
            return (table_bytes[idx >> 3] >> (idx & 7)) & 1

        return fn


def sample_random_junta(k: int, n: int, seed: int) -> JuntaSpec:
    """Uniform core table (all 2^2^k equally likely) and uniform embedding."""
    if k > n:
        raise ValueError("k=%d exceeds n=%d" % (k, n))
    rng = random.Random(seed)
    core = rng.getrandbits(1 << k)
    return JuntaSpec(n, core, rng.sample(range(1, n + 1), k))
