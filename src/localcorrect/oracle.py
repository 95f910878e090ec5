"""Noisy query-counting oracles: a base function composed with a corruption.

The corrupted function g is always a fixed function: the iid model decides
each point's flip with a keyed hash, so two oracles built from the same
(base, corruption) agree on every query.  Correctors only ever see g
through NoisyOracle.query and NoisyOracle.query_many, which count.

Each corruption model has two forms of one rule: `corrupt(n, bits, value)`
for one point, read by the iid x search only (a flip set's x is picked
from the set itself), and `corrupt_many(n, points, values)` for a whole
batch, which query_many calls.  `ExplicitFlips.corrupt` is kept only for
perfbench's tracer, which patches it by name (ROADMAP items 12 and 13).
The batch form makes no Python call per point, so a query costs the base
lookup plus, under iid, one keyed-hash copy, update and digest run from
C.  The iid batch joins its digests into one string and screens it on
each digest's top byte: only points whose byte could fall below the
threshold (1 in 256 for eps <= 2^-8) are decoded and compared exactly.
Explicit flips screen each batch with one set intersection, and a batch
that meets no flipped point keeps its base values untouched; "none" is
the empty flip set, which every batch misses.  A flip set is only its
points: each is bounded below 2^n where it enters the program.

A flip set over a base that is JuntaSpec.bits_fn's 2^n-byte table
(k <= 8, n <= FULL_TABLE_MAX_N) skips both steps: NoisyOracle tabulates
g once, as a list of the table's values with each flipped entry toggled
(at n=16, 512 KiB built in about 0.3 ms), and a query is one lookup
mapped from C.  iid is never tabulated: at n=16 that would hash all 2^16
points at set-up, 55-80 ms, where a k=4 cube correction hashes 31, so it
would repay only after about 2,100 corrections.  Any wrapper around the
table's lookup hides it, so perfbench's traced run takes the screened
path.

Every other batch is mapped through the base point by point, except
under iid over a base with a batch form (the bytes_fn attribute of
JuntaSpec.bits_fn's k <= 8 evaluator above FULL_TABLE_MAX_N).  There
query_many encodes the batch once (boolfn.encode_points) and hands the
same strings to both: the base reads them joined, one translate of a
byte column per byte that holds relevant coordinates and one more for
the values, and IidFlips hashes them.  Under none or flips nothing else
needs the strings, so the base is mapped, as is a base the oracle does
not recognise (a test's lambda, perfbench's traced wrapper).

A batch comes in one of two forms: the points as ints, or as their
encode_points strings, which the influence corrector's marking reads
straight from its random draw.  Strings go unchanged to the base's
batch form and the iid hash; every other oracle decodes them to ints
once, with one int.from_bytes mapped from C, and takes the int path.
"""

from __future__ import annotations

import hashlib
import os
import random
import stat
from collections import deque, namedtuple
from fractions import Fraction
from itertools import repeat, starmap
from operator import xor

from .boolfn import encode_points, parse_hex_point

# Largest exponent magnitude an iid eps may be written with.  Every eps
# in (0, 2^-64] already gives the smallest non-zero flip threshold, so a
# larger exponent adds no meaning, only time and memory.  A power's bit
# size (base bits times exponent) is bounded at 64 bits per exponent step.
MAX_EPS_EXPONENT = 1024
MAX_EPS_BITS = 64 * MAX_EPS_EXPONENT

# Largest flip file parse_corruption reads, in characters; a 256-point
# file at n=16 is about 1.3 KB.
MAX_FLIP_FILE_CHARS = 1 << 24


class ExplicitFlips(namedtuple("ExplicitFlips", "flips")):
    """g differs from the base exactly on this finite set of points
    (flips is a frozenset of raw point integers); no corruption is the
    empty set."""

    __slots__ = ()

    def corrupt(self, n: int, bits: int, value: int) -> int:
        return value ^ (bits in self.flips)

    def corrupt_many(self, n: int, points, values) -> list:
        """corrupt's rule over a batch, screened by one set intersection:
        a batch that meets no flipped point keeps its values list."""
        hit = self.flips.intersection(points)
        if not hit:
            return values
        return list(map(xor, values, map(hit.__contains__, points)))


class IidFlips(namedtuple("IidFlips", "eps seed")):
    """Each point flipped independently with probability eps.

    The decision is a keyed blake2b hash of (seed, point), so the
    corruption is a fixed function of the point; the realized flip
    fraction concentrates near eps rather than being capped by it.
    """

    def __new__(cls, eps: Fraction, seed: int):
        if not 0 <= eps < 1:
            raise ValueError("eps must lie in [0, 1)")
        if not 0 <= seed < 1 << 64:
            raise ValueError("iid seed must lie in [0, 2^64)")
        self = tuple.__new__(cls, (eps, seed))
        # Built once, in the instance dict rather than the fields, so
        # repr, == and hash are unchanged.
        key = seed.to_bytes(8, "little", signed=False)
        self._hasher = hashlib.blake2b(digest_size=8, key=key)
        # h / 2^64 < eps  <=>  h < ceil(eps * 2^64) for integer h, exactly
        self._threshold = -(-(eps.numerator << 64) // eps.denominator)
        return self

    def corrupt(self, n: int, bits: int, value: int) -> int:
        h = self._hasher.copy()
        # encode_points' string, without its map's 0.4 µs: this runs
        # about 1/eps times in find_corrupted_point.
        h.update(bits.to_bytes((n + 7) // 8, "little"))
        return value ^ (int.from_bytes(h.digest(), "little") < self._threshold)

    def corrupt_many(self, n: int, points, values, encoded=None) -> list:
        """corrupt's rule over a batch, hashed through C-level maps and
        decided from one joined digest string.  encoded, if given, holds
        the points' encode_points strings, which the caller has already
        built; otherwise they are built here.

        A digest's top byte (index 7, little-endian) screens the batch:
        h < T implies h >> 56 <= (T - 1) >> 56, so every flipped point is
        a candidate, and only candidates are decoded and compared exactly.
        For eps <= 2^-8 a point is a candidate with probability 1/256.  A
        batch with no flip keeps its values list.  One hasher copy is alive
        per point, so the caller bounds the batch: the correctors send at
        most 2^12 points at a time."""
        blake2b = hashlib.blake2b
        hs = list(starmap(self._hasher.copy, repeat((), len(points))))
        if encoded is None:
            encoded = encode_points(n, points)
        deque(map(blake2b.update, hs, encoded), 0)
        digests = b"".join(map(blake2b.digest, hs))
        threshold = self._threshold
        top = (threshold - 1) >> 56
        marks = digests[7::8].translate(b"\1" * (top + 1) + bytes(255 - top))
        out = values
        i = marks.find(1)
        while i >= 0:
            if int.from_bytes(digests[8 * i:8 * i + 8], "little") < threshold:
                if out is values:
                    out = list(values)
                out[i] ^= 1
            i = marks.find(1, i + 1)
        return out


class NoisyOracle:
    """Base function plus corruption, with a per-instance query counter.

    base_bits is a callable on raw n-bit integers; corruption is an
    ExplicitFlips (empty for an uncorrupted g) or an IidFlips.  g is a
    fixed function, so one oracle may serve many trials in turn; each
    reads its own queries as a difference of query_count.  The counter is
    not locked, so concurrent trials need their own oracles: each forked
    chunk of harness.run_chunks runs its trials on its own copy of the one
    built before the fork.

    When base_bits is the bound lookup of a 2^n-byte table (what
    JuntaSpec.bits_fn returns at k <= 8, n <= FULL_TABLE_MAX_N) and
    corruption an ExplicitFlips, g is tabulated here, once; base_bits and
    corruption keep the values given, as the plain rule of g.  When
    base_bits carries a bytes_fn batch form (k <= 8 above that n) and
    corruption is an IidFlips, each batch is encoded once, read by
    bytes_fn, and hashed by the IidFlips.

    query_many takes a batch as ints or as their encode_points strings;
    the strings skip the encoding where the bytes are read, and are
    decoded to ints everywhere else.
    """

    def __init__(self, n: int, base_bits, corruption):
        self.n = n
        self.base_bits = base_bits
        self.corruption = corruption
        self.query_count = 0
        self._g = None
        table = getattr(base_bits, "__self__", None)
        if (type(corruption) is ExplicitFlips and type(table) is bytes
                and len(table) == 1 << n):
            # A list, not a bytes copy: mapped over a batch, its
            # __getitem__ costs about half as much a point.
            g = list(table)
            for p in corruption.flips:
                g[p] ^= 1
            self._g = g.__getitem__
        self._bytes_fn = (getattr(base_bits, "bytes_fn", None)
                          if type(corruption) is IidFlips else None)

    def query(self, x: int) -> int:
        """g at one n-bit int; counts one query."""
        return self.query_many((x,))[0]

    def query_many(self, points) -> list:
        """g at each point of the sized batch, in order; counts
        len(points).  The points are raw n-bit ints, or all of them their
        encode_points strings (bytes).

        The one place g is evaluated and queries are counted.  Under iid
        over a base with a batch form, an int batch is encoded once, and
        the base and the hash read the same strings.  Every other oracle
        decodes a batch of strings to ints once.  A tabulated g is mapped
        over the batch; otherwise the base is, and then the corruption
        model's corrupt_many takes the whole batch.
        """
        self.query_count += len(points)
        n, corruption, bytes_fn = self.n, self.corruption, self._bytes_fn
        encoded = points and type(points[0]) is bytes
        if bytes_fn is not None:
            if not encoded:
                points = list(encode_points(n, points))
            return corruption.corrupt_many(n, points, bytes_fn(b"".join(points)), points)
        if encoded:
            points = list(map(int.from_bytes, points, repeat("little")))
        if self._g is not None:
            return list(map(self._g, points))
        return corruption.corrupt_many(n, points, list(map(self.base_bits, points)))


def _parse_eps(text: str) -> Fraction:
    """eps as "<base>^<exp>", a ratio or a decimal; the exponent, and a
    power's bit size, are bounded before any power is taken."""
    base, caret, exp = text.partition("^")
    if not caret:
        exp = text.upper().partition("E")[2] or "0"
    try:
        if abs(int(exp)) > MAX_EPS_EXPONENT:
            raise ValueError("iid eps %r has an exponent above %d in magnitude"
                             % (text, MAX_EPS_EXPONENT))
        if not caret:
            return Fraction(text)
        if int(base).bit_length() * abs(int(exp)) > MAX_EPS_BITS:
            raise ValueError("iid eps %r has a power above %d bits"
                             % (text, MAX_EPS_BITS))
        return Fraction(int(base)) ** int(exp)
    except ZeroDivisionError:
        raise ValueError("iid eps %r divides by zero" % text) from None


def _open_nonblocking(path, flags):
    return os.open(path, flags | getattr(os, "O_NONBLOCK", 0))


def parse_corruption(spec: str, n: int):
    """Parse a CLI corruption descriptor.

    Grammar: "none" | "flips:<file>" | "iid:<eps>:<seed>"; "none" is the
    empty flip set, ExplicitFlips(frozenset()).  Flip files hold one
    hex point per line as `parse_hex_point` reads it, LSB = coordinate 1;
    surrounding whitespace and blank lines are ignored.  A flip file must
    be a regular file of at most MAX_FLIP_FILE_CHARS characters.
    """
    if spec == "none":
        return ExplicitFlips(frozenset())
    kind, _, rest = spec.partition(":")
    if kind == "iid":
        eps_text, _, seed_text = rest.rpartition(":")
        if not eps_text:
            raise ValueError("iid descriptor needs iid:<eps>:<seed>")
        return IidFlips(_parse_eps(eps_text), int(seed_text))
    if kind == "flips":
        # Opened without blocking, so a FIFO with no writer is refused by
        # the check below instead of stalling the open.
        with open(rest, encoding="utf-8", opener=_open_nonblocking) as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                raise ValueError("flip file %r is not a regular file" % rest)
            # Read in bounded chunks: one read of the cap would have the
            # buffered reader allocate the whole cap (16 MiB) up front.
            parts, left = [], MAX_FLIP_FILE_CHARS + 1
            while left and (part := fh.read(min(left, 1 << 16))):
                parts.append(part)
                left -= len(part)
            text = "".join(parts)
        if len(text) > MAX_FLIP_FILE_CHARS:
            raise ValueError("flip file over %d characters" % MAX_FLIP_FILE_CHARS)
        lines = [line.strip() for line in text.split("\n")]
        flips = frozenset(parse_hex_point(line, n) for line in lines if line)
        return ExplicitFlips(flips)
    raise ValueError("unknown corruption descriptor %r" % spec)


def random_flip_set(n: int, count: int, seed: int) -> ExplicitFlips:
    """count distinct uniform points; the hard-eps corruption of choice.
    One rng.sample over range(2^n) draws them, which serves any n <= 62
    (a range's length must fit a C ssize_t)."""
    if count > 1 << n:
        raise ValueError("cannot pick %d distinct points in Z_2^%d" % (count, n))
    return ExplicitFlips(frozenset(random.Random(seed).sample(range(1 << n), count)))
