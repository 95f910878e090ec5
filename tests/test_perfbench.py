"""The benchmark's self-test, run as part of the unit tests.

perfbench/spans.py wraps named functions and methods of the package
(harness.cube_sum_correct, correctors.identify_influencing_parts,
NoisyOracle.query, JuntaSpec.bits_fn, ...).  Renaming one of them breaks
the self-test, so it fails here rather than only when the benchmark runs.

Besides the names, the benchmark reads these call shapes, which only a
change to perfbench/ may move:
  - identify_influencing_parts(o, n, params, seed): args[2].s and
    args[2].r, positionally;
  - cube_sum_correct and influence_correct: result.queries_used;
  - min_influence_report(...): result.passes_threshold;
  - emit_report(records, summary, path): args[2], the report path;
  - run_distinguisher(strategy, q, n, k, trials, seed): args[0], args[4];
  - find_corrupted_point: one IidFlips.corrupt or ExplicitFlips.corrupt
    call per draw, counted as x_search_draws;
  - the harness globals cube_sum_correct, influence_correct,
    find_corrupted_point, derive_seed, sample_random_junta and
    min_influence_report; the cli globals run_correction_experiment,
    emit_report and run_distinguisher; lowerbound.sample_hard_instance,
    correctors.build_masked_input, correctors.pair_rounds,
    oracle.random_flip_set(n, count, seed).flips and cli.main(argv).
    sample_hard_instance is read by name only: the benchmark timestamps
    each call and passes its result, the relevance mask, through unread.
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
