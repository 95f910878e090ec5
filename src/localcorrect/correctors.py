"""The three correction strategies.

  - cube_sum_correct: XOR over a random affine subcube; works for any
    degree-<=k polynomial, 2^(k+1)-1 queries.
  - influence_correct: find the parts holding influencing variables,
    freeze x there, re-randomize the rest, one final query; 6*k*r + 1
    queries where r = ceil(100*log2 k) + 500.
  - symmetric_correct: symmetric functions need no queries at all.

The first two draw from the caller's random.Random, so one seeding
serves a whole trial.
"""

from __future__ import annotations

import functools
import math
import random
import struct
from collections import namedtuple
from itertools import repeat
from operator import ne

from .oracle import NoisyOracle


class InfluenceCorrectorParams(namedtuple("InfluenceCorrectorParams", "k")):
    """The corrector's parameters, all fixed by k: s = 3k parts and r =
    pair_rounds(k) query pairs per part."""

    __slots__ = ()

    def __new__(cls, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        return tuple.__new__(cls, (k,))

    @property
    def s(self) -> int:
        return 3 * self.k

    @property
    def r(self) -> int:
        return pair_rounds(self.k)


def pair_rounds(k: int) -> int:
    """r = ceil(100*log2 k) + 500; base-2 log so 0.99^r < (1/k)*0.99^500."""
    return math.ceil(100 * math.log2(k)) + 500


class CorrectionResult:
    """One corrector run; a plain slotted class, since one is built per
    correction."""

    __slots__ = ("value", "queries_used")

    def __init__(self, value: int, queries_used: int):
        self.value = value
        self.queries_used = queries_used


# Points per block of subcube_blocks, and the ruler table one block reads:
# _RULER[t-1] is the index of the lowest set bit of t, for t < 2^12.  The
# ruler of 2^(i+1) - 1 steps is two copies of the ruler of 2^i - 1 steps
# around the step i, so the table is built by doubling.
_BLOCK_BITS = 12
_RULER = functools.reduce(lambda r, i: r + bytes((i,)) + r, range(_BLOCK_BITS), b"")


def subcube_blocks(offset: int, dirs):
    """The 2^len(dirs) - 1 points offset ^ (nonempty subset sum of dirs),
    yielded in order as lists of at most 2^12 points.

    A Gray-code walk: step t toggles the direction at t's lowest set bit,
    so each point costs one XOR.  Within a block the steps repeat the
    ruler table, and the step that opens block B >= 1 toggles direction
    12 + (the index of B's lowest set bit).  Dependent or repeated
    directions give repeated points, as the subcube identity requires.
    """
    steps = _RULER[:(1 << min(len(dirs), _BLOCK_BITS)) - 1]
    cur = offset
    for b in range(1 << max(len(dirs) - _BLOCK_BITS, 0)):
        block = []
        if b:
            cur ^= dirs[_BLOCK_BITS + (b & -b).bit_length() - 1]
            block.append(cur)
        for i in steps:
            cur ^= dirs[i]
            block.append(cur)
        yield block


def cube_sum_correct(o: NoisyOracle, x: int, k: int, rng: random.Random) -> CorrectionResult:
    """Correct a degree-<=k polynomial by one random affine subcube.

    Draws k+1 uniform directions from rng (dependent sets allowed; the
    subcube identity holds regardless) and XORs the oracle over the 2^(k+1)-1
    nonempty subset sums offset by x.  Each queried point is marginally
    uniform, so corruption of fraction eps fails with probability at most
    (2^(k+1)-1)*eps.  The walk is queried block by block, so memory stays
    flat in k.
    """
    dirs = list(map(rng.getrandbits, repeat(o.n, k + 1)))
    before = o.query_count
    acc = 0
    for block in subcube_blocks(x, dirs):
        acc += sum(o.query_many(block))
    return CorrectionResult(acc & 1, o.query_count - before)


def identify_influencing_parts(
    o: NoisyOracle, n: int, params: InfluenceCorrectorParams, seed: int
) -> int:
    """Randomly partition [n] into s parts, mark the influencing ones, and
    return S, the coordinate mask of the k chosen parts (bit c-1 set iff
    coordinate c is frozen).

    For each part, r query pairs (x, x') with x uniform and x' equal to x
    except the part's coordinates re-randomized; a part is marked iff any
    pair disagrees.  Exactly 2*s*r queries, no early exit.

    A part's 2r points come from one getrandbits(2*w*r) draw, cut into
    w-bit chunks, w = 8*ceil(n/8): chunk 2j is the j-th x and chunk 2j+1
    the j-th b, each masked to its low n bits, and x' is b with x's bits
    outside the part.  x' is built in the draw with big-int masks, and
    one struct unpack cuts the points' encode_points strings from the
    draw's bytes, with no Python step per point.  The strings go to the
    oracle in two batches, the r x's and then the r x''s.
    """
    rng = random.Random(seed)
    s, r, k = params.s, params.r, params.k
    part_masks = [0] * s
    for c in range(n):
        part_masks[rng.randrange(s)] |= 1 << c
    full = (1 << n) - 1

    size = (n + 7) // 8
    w, layout = 8 * size, "%ds" % size * (2 * r)
    # The low n bits of every chunk, built and applied only where 8 does
    # not divide n: elsewhere a chunk holds no other bits.
    low = n % 8 and int.from_bytes(full.to_bytes(size, "little") * (2 * r), "little")
    hits = [0] * s
    for p in range(s):
        # The coordinates where x' = x, in every odd chunk: there b
        # becomes x' = b ^ ((b ^ x) & keep).
        keep = int.from_bytes((bytes(size) + (full ^ part_masks[p]).to_bytes(size, "little")) * r,
                              "little")
        draw = rng.getrandbits(2 * w * r)
        if low:
            draw &= low
        draw ^= (draw ^ draw << w) & keep
        pts = struct.unpack(layout, draw.to_bytes(2 * size * r, "little"))
        # Freed before the queries, whose hasher copies set the peak.
        del draw, keep
        hits[p] = sum(map(ne, o.query_many(pts[::2]), o.query_many(pts[1::2])))
    marked = [p for p in range(s) if hits[p]]

    if len(marked) <= k:
        unmarked = [p for p in range(s) if not hits[p]]
        chosen = marked + rng.sample(unmarked, k - len(marked))
    else:
        # Corruption can over-mark.  A falsely marked part almost always
        # has a single disagreeing pair, while a part holding a variable
        # of influence >= 1/50 expects at least r/100 of them, so keep the
        # k parts with the most disagreements (ties broken at random).
        order = list(marked)
        rng.shuffle(order)
        order.sort(key=lambda p: -hits[p])
        chosen = order[:k]

    return sum(part_masks[p] for p in chosen)  # disjoint parts, so sum is OR


def build_masked_input(x: int, n: int, S: int, seed: int) -> int:
    """y agreeing with the n-bit x on the mask S; elsewhere each bit flips
    with probability 3/4, one draw per free coordinate in order."""
    rng = random.Random(seed)
    for c in range(n):
        if not S >> c & 1 and rng.randrange(4) < 3:
            x ^= 1 << c
    return x


def influence_correct(o: NoisyOracle, x: int, k: int, rng: random.Random) -> CorrectionResult:
    """Correct a high-influence k-junta with 6*k*r + 1 queries.

    The marking's seed and then the masked input's are two 64-bit draws
    from rng.  Success >= 2/3 per invocation requires every relevant
    variable to have influence >= 1/50 and corruption fraction <
    2^(-k-3); violating the preconditions voids the guarantee, not the
    execution.
    """
    before = o.query_count
    S = identify_influencing_parts(o, o.n, InfluenceCorrectorParams(k), rng.getrandbits(64))
    y = build_masked_input(x, o.n, S, rng.getrandbits(64))
    return CorrectionResult(o.query(y), o.query_count - before)


def symmetric_correct(profile, x: int) -> CorrectionResult:
    """Symmetric functions are 0-locally correctable: read off the profile.

    profile[w] is the function value on inputs of Hamming weight w.
    """
    return CorrectionResult(profile[x.bit_count()], 0)
