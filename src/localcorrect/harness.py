"""Experiment orchestration: seeded trials, success-rate summaries, reports.

Every random decision in an experiment flows from the master seed through
derive_seed, so identical configs produce byte-identical report files.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import math
import os
import random
import sys
from collections import namedtuple
from functools import partial
from itertools import chain

from .boolfn import (MAX_N, MAX_TABLE_VARS, ConfigError, check_seed, hex_point,
                     min_influence_report, parse_hex_point, sample_random_junta)
from .correctors import cube_sum_correct, influence_correct, pair_rounds, symmetric_correct
from .oracle import ExplicitFlips, NoisyOracle, parse_corruption

ALGOS = ("cube", "influence", "symmetric")
X_MODES = ("fixed-hex", "random", "adversarial-flipped")

# Reserved derive_seed indices for non-trial randomness.
_BASE_STREAM = 1 << 48
_X_STREAM = (1 << 48) + 1

# Draws find_corrupted_point makes before giving up.
MAX_SCAN = 500000

# Fewest queries each chunk of run_chunks must make.  A fork and its
# waitpid take about 2 ms at 19 MB of RSS, and the forks run one after
# another before chunk 0 starts.  On a 2-core box two chunks lost to one
# up to about 6,300 queries and won from about 12,400 (cube experiments
# at n = 16 and n = 128, medians of 21 runs): break-even near 3,100-6,200
# queries a chunk.  So a chunk gets at least 2^13, and a many-core box
# forks no more children than that allows.
FORK_MIN_QUERIES = 1 << 13

# The one encoder of report lines, shared so that none is built per record.
REPORT_ENCODER = json.JSONEncoder(sort_keys=True)

# A trial record as REPORT_ENCODER writes it: every field is an int, a bool
# or a hex string, so one template yields the same bytes without the
# per-record encode call.
_RECORD_LINE = ('{"queries": %d, "returned": %d, "seed": %d, "success": %s, '
                '"trial": %d, "truth": %d, "x": "%s"}\n')


def derive_seed(master_seed: int, trial_index: int) -> int:
    """Collision-resistant 64-bit per-trial seed, stable across platforms."""
    payload = master_seed.to_bytes(8, "little", signed=False) + trial_index.to_bytes(
        8, "little", signed=False
    )
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


class ExperimentConfig(namedtuple(
        "ExperimentConfig",
        "algo k n corruption trials master_seed x_mode x_hex repeat_t",
        defaults=("cube", 3, 12, "none", 100, 0, "random", None, None))):
    __slots__ = ()

    def validate(self):
        """Check every field, naming the first bad one; returns the parsed
        (corruption, x), with x the fixed-hex point as an int, or None."""
        if self.algo not in ALGOS:
            raise ConfigError("algo", "expected one of %s" % list(ALGOS))
        if self.trials < 1:
            raise ConfigError("trials", "must be >= 1")
        if self.k < 1:
            raise ConfigError("k", "must be >= 1")
        if self.algo != "symmetric" and self.k > MAX_TABLE_VARS:
            raise ConfigError("k", "must be <= %d for %s" % (MAX_TABLE_VARS, self.algo))
        if self.n < self.k:
            raise ConfigError("n", "must be >= k")
        if self.n > MAX_N:
            raise ConfigError("n", "must be <= %d" % MAX_N)
        # The symmetric base is the majority of all n coordinates.
        if self.algo == "symmetric" and self.k != self.n:
            raise ConfigError("k", "must equal n for symmetric")
        if self.x_mode not in X_MODES:
            raise ConfigError("x_mode", "expected one of %s" % list(X_MODES))
        x = None
        if self.x_mode == "fixed-hex":
            if not self.x_hex:
                raise ConfigError("x_hex", "required when x_mode is fixed-hex")
            try:
                x = parse_hex_point(self.x_hex, self.n)
            except ValueError:
                raise ConfigError("x_hex", "%r is not a hex point of n=%d bits"
                                  % (self.x_hex, self.n)) from None
        elif self.x_hex is not None:
            raise ConfigError("x_hex", "only read when x_mode is fixed-hex")
        if self.repeat_t is not None and (self.repeat_t < 1 or self.repeat_t % 2 == 0):
            raise ConfigError("repeat_t", "must be a positive odd integer")
        check_seed(self.master_seed)
        try:
            return parse_corruption(self.corruption, self.n), x
        except (ValueError, OSError) as exc:
            raise ConfigError("corruption", str(exc)) from exc


def build_base(algo: str, k: int, n: int, seed: int):
    """A correction experiment's base function and corrector, drawn from
    seed; returns (bits_fn, correct, redraws) with correct(o, x, seed) ->
    CorrectionResult, and redraws None unless the influence base was
    redrawn to fit."""
    # The closures look the correctors up when called, so patching the
    # module globals reaches every trial.
    if algo == "symmetric":
        profile = tuple(int(w > n / 2) for w in range(n + 1))
        return (lambda bits: profile[bits.bit_count()],
                lambda o, x, seed: symmetric_correct(profile, x), None)
    if algo == "influence":
        spec, redraws = sample_influential_junta(k, n, seed)
        return (spec.bits_fn(),
                lambda o, x, seed: influence_correct(o, x, k, seed), redraws)
    return (sample_random_junta(k, n, seed).bits_fn(),
            lambda o, x, seed: cube_sum_correct(o, x, k, seed), None)


def sample_influential_junta(k: int, n: int, seed: int):
    """Redraw random juntas until every variable has influence >= 1/50;
    returns (spec, number of rejected draws)."""
    rng = random.Random(seed)
    redraws = 0
    while True:
        spec = sample_random_junta(k, n, rng.getrandbits(64))
        if min_influence_report(spec.core, k).passes_threshold:
            return spec, redraws
        redraws += 1


def find_corrupted_point(n: int, corruption, seed: int) -> int:
    """A point where the corrupted oracle disagrees with the base: a seeded
    pick from a flip set, or under iid the first of up to MAX_SCAN draws.
    A flip does not depend on the value, so each draw is tested at value 0.
    An empty flip set and iid eps 0 flip no point and are refused at once."""
    rng = random.Random(seed)
    if isinstance(corruption, ExplicitFlips):
        if corruption.flips:
            return rng.choice(sorted(corruption.flips))
    elif corruption.eps:
        for _ in range(MAX_SCAN):
            bits = rng.getrandbits(n)
            if corruption.corrupt(n, bits, 0):
                return bits
        raise ConfigError("x_mode", "no corrupted point found in %d draws" % MAX_SCAN)
    raise ConfigError("x_mode", "the corruption flips no point")


def query_budget(algo: str, k: int) -> int:
    """The exact queries of one corrector run: 2^(k+1)-1 for cube,
    6*k*r+1 for influence, none for symmetric."""
    if algo == "cube":
        return (1 << (k + 1)) - 1
    return 6 * k * pair_rounds(k) + 1 if algo == "influence" else 0


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunks(trials: int, queries: int, run):
    """run(a, b) on contiguous chunks [a, b) of range(trials), one per CPU
    this process may run on; returns their results in trial order.

    Chunk 0 runs here, each other chunk in a forked child, which inherits
    all that this process built before the call and sends its result
    back as marshal bytes over a pipe, so a result holds only marshal
    types.  There are at most queries // FORK_MIN_QUERIES chunks, so one
    chunk runs alone below twice that threshold, and where os.fork is
    missing.  run should raise no ConfigError: any fault of a child is an
    internal one.  Every child is reaped before this returns or raises;
    if this process raises first, the children are killed.
    """
    count = 1
    if hasattr(os, "fork"):
        count = max(1, min(trials, _cpu_count(), queries // FORK_MIN_QUERIES))
    size, extra = divmod(trials, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    pids, ends, sent, codes = [], [], [], []
    try:
        for a, b in zip(bounds[1:], bounds[2:]):
            r, w = os.pipe()
            ends.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(run, a, b, w)
            finally:
                os.close(w)
            pids.append(pid)
        results = [run(0, bounds[1])]
        for r in ends:
            with open(r, "rb", closefd=False) as fh:
                sent.append(fh.read())
    finally:
        if len(sent) < len(pids):
            for pid in pids:
                os.kill(pid, 9)  # SIGKILL; importing signal costs about 1 ms
        for r in ends:
            os.close(r)
        for pid in pids:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for a, b, data, code in zip(bounds[1:], bounds[2:], sent, codes):
        if code:
            raise RuntimeError("the child running trials %d-%d exited with %d"
                               % (a, b - 1, code))
        results.append(marshal.loads(data))
    return results


def _run_child(run, a, b, w):
    """The forked child of chunk [a, b): it writes run(a, b) to the pipe
    end w as marshal bytes and exits 0, or 1 on any fault.  It never
    returns into its caller's frames."""
    code = 1
    try:
        with open(w, "wb") as fh:
            fh.write(marshal.dumps(run(a, b)))
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
        raise
    finally:
        os._exit(code)


def run_correction_experiment(cfg: ExperimentConfig):
    """Run cfg.trials independent trials, each a majority of
    cfg.repeat_t or 1 corrector runs, in run_chunks' trial chunks, on the
    one base, x and oracle built here first; returns (lines, summary),
    where a trial's record is its report line, formatted once as it
    finishes."""
    corruption, fixed_x = cfg.validate()
    base_fn, correct, redraws = build_base(
        cfg.algo, cfg.k, cfg.n, derive_seed(cfg.master_seed, _BASE_STREAM))
    if cfg.x_mode == "adversarial-flipped":
        fixed_x = find_corrupted_point(cfg.n, corruption,
                                       derive_seed(cfg.master_seed, _X_STREAM))
    # g is one fixed function, so one oracle serves every trial and vote.
    oracle = NoisyOracle(cfg.n, base_fn, corruption)
    runs = cfg.repeat_t or 1
    lines, successes, queries = zip(*run_chunks(
        cfg.trials, cfg.trials * runs * query_budget(cfg.algo, cfg.k),
        partial(_run_trials, cfg, oracle, base_fn, correct, fixed_x, runs)))
    rate = sum(successes) / cfg.trials
    summary = {
        "trials": cfg.trials,
        "success_rate": rate,
        "mean_queries": sum(queries) / cfg.trials,
        "ci_halfwidth": 1.96 * math.sqrt(rate * (1 - rate) / cfg.trials),
        "algo": cfg.algo,
        "k": cfg.k,
        "n": cfg.n,
        "corruption": cfg.corruption,
        "x_mode": cfg.x_mode,
        "seed": cfg.master_seed,
        "repeat_t": cfg.repeat_t,
    }
    if redraws is not None:
        summary["junta_redraws"] = redraws
    return list(chain.from_iterable(lines)), summary


def _run_trials(cfg: ExperimentConfig, oracle, base_fn, correct, fixed_x, runs: int,
                a: int, b: int):
    """Trials [a, b) of cfg on oracle, each a majority of runs calls of
    correct at fixed_x, or at a random x where that is None; returns
    (lines, successes, queries), the queries read as a difference of the
    oracle's counter."""
    if fixed_x is not None:
        x, x_hex, truth = fixed_x, hex_point(fixed_x, cfg.n), base_fn(fixed_x)
    start = oracle.query_count
    lines = []
    successes = 0
    for t in range(a, b):
        seed = derive_seed(cfg.master_seed, t)
        rng = random.Random(seed)
        if fixed_x is None:
            x = rng.getrandbits(cfg.n)
            x_hex, truth = hex_point(x, cfg.n), base_fn(x)
        before = oracle.query_count
        votes = sum(correct(oracle, x, rng.getrandbits(64)).value for _ in range(runs))
        value = int(2 * votes > runs)
        success = value == truth
        successes += success
        lines.append(_RECORD_LINE % (oracle.query_count - before, value, seed,
                                     "true" if success else "false", t, truth, x_hex))
    return lines, successes, oracle.query_count - start


def emit_report(records, summary, path: str) -> str:
    """Write the JSON-lines report: the record lines as given, then the
    summary object's line, which is returned without its newline."""
    line = REPORT_ENCODER.encode({"summary": summary})
    with open(path, "w") as fh:
        fh.writelines(records)
        fh.write(line + "\n")
    return line
