"""Calls made by one correction, counted with sys.setprofile: a cost that
is exact for a fixed seed, whatever the machine's load.

The rule.  A package frame is a frame running code from a file of the
imported localcorrect package.  A Python call counts when both its
caller and its callee are package frames; a generator resumed from a
package frame counts as such a call.  A C call counts when a package
frame makes it.  So the stdlib's Python code (random.Random's methods,
say) and the C calls made inside it are not counted.  ROADMAP item 17's
first figures counted a Python call to any callee from a package frame,
which adds those stdlib functions: 6 Python calls per cube correction
against 5 here.  They also entered through build_base's corrector
closure, one call more (7), where the shapes here call the corrector.

The hook sees code objects, not names, so it patches nothing.  It is per
thread, so a correction is counted in this process.  One shape per
benchmark workload, each on a base, corruption and x fixed as the
acceptance criterion of that shape fixes them; the seed is the
correction's own.

Run as a script, it prints every shape's counts on seeds 1-3:

    PYTHONPATH=src python tests/callcount.py
"""

import os
import sys
from fractions import Fraction

import localcorrect
from localcorrect.correctors import cube_sum_correct, influence_correct
from localcorrect.harness import build_base, find_corrupted_point
from localcorrect.lowerbound import run_distinguisher
from localcorrect.oracle import IidFlips, NoisyOracle, random_flip_set

PACKAGE_DIR = os.path.dirname(localcorrect.__file__) + os.sep
SEEDS = (1, 2, 3)


def count_calls(fn, *args):
    """(Python calls, C calls) that fn(*args) makes, by the rule above."""
    ours = {}
    counts = [0, 0]

    def is_ours(code):
        try:
            return ours[code]
        except KeyError:
            ours[code] = found = code.co_filename.startswith(PACKAGE_DIR)
            return found

    def hook(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if caller is not None and is_ours(frame.f_code) and is_ours(caller.f_code):
                counts[0] += 1
        elif event == "c_call" and is_ours(frame.f_code):
            counts[1] += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return tuple(counts)


def _correction(corrector, algo, k, n, base_seed, corruption, x):
    """corrector(oracle, x, k, seed) as a function of the seed, on the
    base that run_correction_experiment builds from base_seed."""
    base, _, _ = build_base(algo, k, n, base_seed)
    oracle = NoisyOracle(n, base, corruption)
    return lambda seed: corrector(oracle, x, k, seed)


def shapes():
    """Workload name -> a one-argument call running one correction."""
    flips = random_flip_set(16, 256, 0xC2F)
    return {
        # criterion 2: 256 explicit flips at n=16, x a flipped point.
        "cube-k4-flips": _correction(cube_sum_correct, "cube", 4, 16, 0xC2,
                                     flips, find_corrupted_point(16, flips, 0xC2A)),
        # criterion 3's all-zeros mode: iid eps = 2^-12 at n=128.
        "influence-k8-iid": _correction(influence_correct, "influence", 8, 128,
                                        0xC3, IidFlips(Fraction(1, 4096), 0xC3F), 0),
        # criterion 8's cube-sum shape, one distinguisher trial.
        "lowerbound-blindness": lambda seed: run_distinguisher(
            "cube-sum-at-x_star", 127, 1000, 6, 1, seed),
    }


def all_counts():
    """Workload name -> [(Python calls, C calls) for each of SEEDS]."""
    return {name: [count_calls(run, seed) for seed in SEEDS]
            for name, run in shapes().items()}


if __name__ == "__main__":
    print("Python %d.%d: Python / C calls per correction, seeds %s"
          % (sys.version_info[:2] + (", ".join(map(str, SEEDS)),)))
    for name, counts in all_counts().items():
        print("%s: %s" % (name, ", ".join("%d / %d" % c for c in counts)))
