"""The benchmark's self-test, run as part of the unit tests.

perfbench/spans.py wraps named functions and methods of the package
(harness.cube_sum_correct, correctors.identify_influencing_parts,
NoisyOracle.query, JuntaSpec.bits_fn, ...).  Renaming one of them breaks
the self-test, so it fails here rather than only when the benchmark runs.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS ") == 3, proc.stdout
