"""Machine-speed gauge for a shared, noisy box.

On a box shared with other tenants the CPU's speed drifts by a third
over tens of seconds, which no amount of repetition inside one run
removes.  A fixed pure-Python kernel run next to each measurement drifts
with it: the ratio of a localcorrect timing to the kernel time around it
stays within a few percent while the raw timing moves by tens of
percent.  Every timing the benchmark reports is therefore scaled by
NOMINAL_S / (kernel time measured around it): the figure is what the
timing would read on the baseline box when uncontended.  The unscaled
trials_per_s is kept in the run's record next to the scaled one.
"""

from __future__ import annotations

import hashlib
import random
import time

# A reading's value on the baseline box (2-core Xeon, Python 3.11) when
# uncontended; see README.md.  Changing it rescales every result.
NOMINAL_S = 0.0050

_MASKS = tuple(1 << (7 * j) for j in range(8))
_KEY = bytes(range(8))


def kernel(iterations: int = 2000) -> int:
    """The interpreter work localcorrect does per query, with no
    localcorrect code: a seeded RNG draw, a keyed blake2b, a bit loop
    over eight masks, and a small object per step."""
    rng = random.Random(12345)
    acc = 0
    for _ in range(iterations):
        bits = rng.getrandbits(64)
        digest = hashlib.blake2b(bits.to_bytes(8, "little"), digest_size=8, key=_KEY).digest()
        acc ^= int.from_bytes(digest, "little")
        idx = 0
        for i, m in enumerate(_MASKS):
            if bits & m:
                idx |= 1 << i
        acc += len((idx, bits.bit_count()))
    return acc


def measure() -> float:
    """Seconds one kernel run takes now: the median of three runs, so a
    burst that hits one run does not mis-scale the timings around it."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - t0)
    return sorted(runs)[1]


def factor(before: float, after: float) -> float:
    """Scale for a timing taken between two gauge readings."""
    return NOMINAL_S / ((before + after) / 2)
