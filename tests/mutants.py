"""One-line mutants of the package, each with the one fast test that
kills it: a defect that the suite must keep catching.

A mutant is a file of src/, a text that occurs in it exactly once, the
text that replaces it, and the pytest id of its killer.
`test_hygiene::test_mutant_texts_occur_once` checks the texts, so a
change that moves or rewrites the mutated code must update this list.

Run as a script, from any directory:

    python tests/mutants.py

It copies src/, tests/ and pyproject.toml to a temporary directory, runs
every killer there once unmutated (each must pass), and then, for each
mutant on a fresh copy, applies it and runs only its killer.  It exits 1
if an unmutated killer fails, if a text does not occur exactly once, or
if any mutant survives.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new killer")

MUTANTS = [
    Mutant("one-query probability zero at m = k",
           "src/localcorrect/lowerbound.py", "    if m < k:", "    if m <= k:",
           "tests/test_lowerbound.py::TestSingleQueryProb::test_zero_below_k"),
    Mutant("x search capped at 5,000 draws",
           "src/localcorrect/harness.py", "MAX_SCAN = 500000", "MAX_SCAN = 5000",
           "tests/test_harness.py::TestRunExperiment::test_x_search_scans_past_5000_draws"),
    Mutant("uniform distinguisher guesses D1 at k-1 second-half ones",
           "src/localcorrect/lowerbound.py", ".bit_count() >= k for b in hits",
           ".bit_count() >= k - 1 for b in hits",
           "tests/test_lowerbound.py::TestDistinguisher::"
           "test_matches_loop[uniform-random-queries-k-minus-one]"),
    Mutant("marking chunks keep the bits above n",
           "src/localcorrect/correctors.py", "draw &= low", "pass",
           "tests/test_correctors.py::TestIdentifyParts::test_matches_plain_pairs[7]"),
    Mutant("over-mark ties keep their part order",
           "src/localcorrect/correctors.py", "rng.shuffle(order)", "pass",
           "tests/test_correctors.py::TestIdentifyParts::test_matches_plain_pairs[16]"),
    Mutant("over-mark keeps the fewest disagreements",
           "src/localcorrect/correctors.py", "order.sort(key=lambda p: -hits[p])",
           "order.sort(key=lambda p: hits[p])",
           "tests/test_correctors.py::TestIdentifyParts::test_matches_plain_pairs[16]"),
    Mutant("bytes_fn reads each coordinate one bit up",
           "src/localcorrect/boolfn.py", "(c - 1) & 7))", "c & 7))",
           "tests/test_boolfn.py::TestEvalJunta::"
           "test_matches_mask_loop_reference[8-n17-byte-layouts]"),
    Mutant("subcube block opens on the wrong direction",
           "src/localcorrect/correctors.py", "(b & -b).bit_length() - 1]",
           "(b & -b).bit_length() - 2]",
           "tests/test_correctors.py::TestCubeSum::test_blocks_follow_the_old_walk[13]"),
    Mutant("eps size cap refuses its own bound",
           "src/localcorrect/oracle.py", "abs(int(exp)) > MAX_EPS_BITS:",
           "abs(int(exp)) >= MAX_EPS_BITS:",
           "tests/test_oracle.py::TestParseCorruption::test_iid_forms"),
    Mutant("n = k refused",
           "src/localcorrect/harness.py", "if self.n < self.k:", "if self.n <= self.k:",
           "tests/test_cli.py::TestCorrect::test_pinned_report_bytes[symmetric-repeat-5]"),
    Mutant("forked chunks merged ahead of chunk 0",
           "src/localcorrect/harness.py", "results += marshal.loads(data)",
           "results[:0] = marshal.loads(data)",
           "tests/test_harness.py::TestChunks::test_report_matches_one_chunk[3-over-2]"),
    Mutant("chunk 0 ends a trial early",
           "src/localcorrect/harness.py", "map(trial, range(bounds[1]))",
           "map(trial, range(bounds[1] - 1))",
           "tests/test_harness.py::TestChunks::test_chunk_bounds"),
    Mutant("a child's fault reads as success",
           "src/localcorrect/harness.py", "    code = 1", "    code = 0",
           "tests/test_harness.py::TestChunks::test_fault_in_a_child_is_internal"),
    Mutant("a forked chunk skips its first trial",
           "src/localcorrect/harness.py", "map(trial, range(a, b))",
           "map(trial, range(a + 1, b))",
           "tests/test_harness.py::TestChunks::test_chunk_bounds"),
    Mutant("confidence half-width at z = 2",
           "src/localcorrect/harness.py", '"ci_halfwidth": 1.96 *', '"ci_halfwidth": 2.0 *',
           "tests/test_cli.py::TestCorrect::test_pinned_report_bytes[cube-iid]"),
]


def copy_tree(dest):
    """src/, tests/ and pyproject.toml under dest, without bytecode; the
    copy's pyproject puts its own src/ on the tests' path."""
    skip = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_pytest(cwd, ids):
    """The run of the tests ids in the tree at cwd."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(cwd / "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *ids], cwd=cwd, env=env, capture_output=True, text=True)


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "base"
        copy_tree(base)
        run = run_pytest(base, [m.killer for m in MUTANTS])
        if run.returncode:
            print("a killer fails on the unmutated tree:\n" + run.stdout)
            return 1
        for i, m in enumerate(MUTANTS):
            tree = pathlib.Path(tmp) / str(i)
            copy_tree(tree)
            path = tree / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print("NOT FOUND ONCE  %s: %r in %s" % (m.name, m.old, m.path))
                failed += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            survived = run_pytest(tree, [m.killer]).returncode == 0
            failed += survived
            print("%-8s %5.1f s  %s  (%s)" % ("SURVIVED" if survived else "killed",
                                             time.perf_counter() - start, m.name, m.killer))
            shutil.rmtree(tree)
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
