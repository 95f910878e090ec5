"""The three correction strategies.

  - cube_sum_correct: XOR over a random affine subcube; works for any
    degree-<=k polynomial, 2^(k+1)-1 queries.
  - influence_correct: find the parts holding influencing variables,
    freeze x there, re-randomize the rest, one final query; 6*k*r + 1
    queries where r = ceil(100*log2 k) + 500.
  - symmetric_correct: symmetric functions need no queries at all.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .boolfn import DimensionMismatch, Point
from .oracle import NoisyOracle


@dataclass(frozen=True)
class InfluenceCorrectorParams:
    """The corrector's parameters, all fixed by k: s = 3k parts and r =
    pair_rounds(k) query pairs per part."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def s(self) -> int:
        return 3 * self.k

    @property
    def r(self) -> int:
        return pair_rounds(self.k)


def pair_rounds(k: int) -> int:
    """r = ceil(100*log2 k) + 500; base-2 log so 0.99^r < (1/k)*0.99^500."""
    return math.ceil(100 * math.log2(k)) + 500


@dataclass(frozen=True)
class PartitionState:
    """Outcome of the part-marking phase.

    assignment maps each coordinate (1-based) to a part id in [0, s);
    chosen is the ordered list of exactly k part ids whose union is S.
    """

    assignment: tuple
    marked: frozenset
    chosen: tuple
    S: frozenset


@dataclass(frozen=True)
class CorrectionResult:
    value: int
    queries_used: int
    marked_parts: int | None = None
    s_size: int | None = None


def subcube_points(offset: int, dirs) -> list:
    """The 2^len(dirs) - 1 points offset ^ (nonempty subset sum of dirs).

    A Gray-code walk: step t toggles the direction at t's lowest set bit,
    so each point costs one XOR.  Dependent or repeated directions give
    repeated points, as the subcube identity requires.
    """
    pts = []
    cur = offset
    for t in range(1, 1 << len(dirs)):
        cur ^= dirs[(t & -t).bit_length() - 1]
        pts.append(cur)
    return pts


def cube_sum_correct(o: NoisyOracle, x: Point, k: int, seed: int) -> CorrectionResult:
    """Correct a degree-<=k polynomial by one random affine subcube.

    Picks k+1 uniform directions (dependent sets allowed; the subcube
    identity holds regardless) and XORs the oracle over the 2^(k+1)-1
    nonempty subset sums offset by x.  Each queried point is marginally
    uniform, so corruption of fraction eps fails with probability at most
    (2^(k+1)-1)*eps.
    """
    if x.n != o.n:
        raise DimensionMismatch("point n=%d, oracle n=%d" % (x.n, o.n))
    rng = random.Random(seed)
    n = o.n
    dirs = [rng.getrandbits(n) for _ in range(k + 1)]
    before = o.query_count
    acc = sum(o.query_many(subcube_points(x.bits, dirs))) & 1
    return CorrectionResult(acc, o.query_count - before)


def identify_influencing_parts(
    o: NoisyOracle, n: int, params: InfluenceCorrectorParams, seed: int
) -> PartitionState:
    """Randomly partition [n] into s parts and mark the influencing ones.

    For each part, r query pairs (x, x') with x uniform and x' equal to x
    except the part's coordinates re-randomized; a part is marked iff any
    pair disagrees.  Exactly 2*s*r queries, no early exit.
    """
    rng = random.Random(seed)
    s, r, k = params.s, params.r, params.k
    assignment = tuple(rng.randrange(s) for _ in range(n))
    part_masks = [0] * s
    for c, p in enumerate(assignment):
        part_masks[p] |= 1 << c
    full = (1 << n) - 1

    rand = rng.getrandbits
    hits = [0] * s
    for p in range(s):
        pm = part_masks[p]
        keep = full ^ pm
        xs, ys = [], []
        for _ in range(r):
            xb = rand(n)
            xs.append(xb)
            ys.append((xb & keep) | (rand(n) & pm))
        gx, gy = o.query_many(xs), o.query_many(ys)
        hits[p] = sum(a != b for a, b in zip(gx, gy))
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

    chosen_set = set(chosen)
    S = frozenset(c + 1 for c, p in enumerate(assignment) if p in chosen_set)
    return PartitionState(assignment, frozenset(marked), tuple(chosen), S)


def build_masked_input(x: Point, S, seed: int) -> Point:
    """y agreeing with x on S; elsewhere each bit flips with probability 3/4."""
    rng = random.Random(seed)
    bits = x.bits
    frozen = set(S)
    for i in range(1, x.n + 1):
        if i in frozen:
            continue
        if rng.randrange(4) < 3:
            bits ^= 1 << (i - 1)
    return Point(x.n, bits)


def influence_correct(o: NoisyOracle, x: Point, k: int, seed: int) -> CorrectionResult:
    """Correct a high-influence k-junta with 6*k*r + 1 queries.

    Success >= 2/3 per invocation requires every relevant variable to have
    influence >= 1/50 and corruption fraction < 2^(-k-3); violating the
    preconditions voids the guarantee, not the execution.
    """
    if x.n != o.n:
        raise DimensionMismatch("point n=%d, oracle n=%d" % (x.n, o.n))
    params = InfluenceCorrectorParams(k)
    rng = random.Random(seed)
    parts_seed = rng.getrandbits(64)
    mask_seed = rng.getrandbits(64)
    before = o.query_count
    state = identify_influencing_parts(o, o.n, params, parts_seed)
    y = build_masked_input(x, state.S, mask_seed)
    value = o.query(y)
    return CorrectionResult(
        value,
        o.query_count - before,
        marked_parts=len(state.marked),
        s_size=len(state.S),
    )


def symmetric_correct(profile, x: Point) -> CorrectionResult:
    """Symmetric functions are 0-locally correctable: read off the profile.

    profile[w] is the function value on inputs of Hamming weight w.
    """
    profile = tuple(profile)
    if len(profile) != x.n + 1:
        raise ValueError("profile must have length n+1")
    return CorrectionResult(profile[x.weight()], 0)
