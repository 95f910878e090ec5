"""Experiment orchestration: seeded trials, success-rate summaries, reports.

Every random decision in an experiment flows from the master seed through
derive_seed, so identical configs produce byte-identical report files.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import namedtuple

from .boolfn import (MAX_N, MAX_TABLE_VARS, ConfigError, check_seed, hex_point,
                     min_influence_report, parse_hex_point, sample_random_junta)
from .correctors import cube_sum_correct, influence_correct, symmetric_correct
from .oracle import ExplicitFlips, NoisyOracle, parse_corruption

ALGOS = ("cube", "influence", "symmetric")
X_MODES = ("fixed-hex", "random", "adversarial-flipped")

# Reserved derive_seed indices for non-trial randomness.
_BASE_STREAM = 1 << 48
_X_STREAM = (1 << 48) + 1

# Draws find_corrupted_point makes before giving up.
MAX_SCAN = 500000

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


def run_correction_experiment(cfg: ExperimentConfig):
    """Run cfg.trials independent trials, each a majority of
    cfg.repeat_t or 1 corrector runs; returns (records, summary)."""
    corruption, fixed_x = cfg.validate()
    base_fn, correct, redraws = build_base(
        cfg.algo, cfg.k, cfg.n, derive_seed(cfg.master_seed, _BASE_STREAM))

    if cfg.x_mode == "adversarial-flipped":
        fixed_x = find_corrupted_point(cfg.n, corruption,
                                       derive_seed(cfg.master_seed, _X_STREAM))
    if fixed_x is not None:
        x, x_hex, truth = fixed_x, hex_point(fixed_x, cfg.n), base_fn(fixed_x)

    # g is one fixed function, so one oracle serves every trial and vote;
    # its counter is read as a difference.
    oracle = NoisyOracle(cfg.n, base_fn, corruption)
    runs = cfg.repeat_t or 1
    records = []
    for t in range(cfg.trials):
        seed = derive_seed(cfg.master_seed, t)
        rng = random.Random(seed)
        if fixed_x is None:
            x = rng.getrandbits(cfg.n)
            x_hex, truth = hex_point(x, cfg.n), base_fn(x)
        before = oracle.query_count
        votes = sum(correct(oracle, x, rng.getrandbits(64)).value for _ in range(runs))
        value = int(2 * votes > runs)
        records.append({
            "trial": t,
            "x": x_hex,
            "returned": value,
            "truth": truth,
            "success": value == truth,
            "queries": oracle.query_count - before,
            "seed": seed,
        })

    rate = sum(r["success"] for r in records) / cfg.trials
    summary = {
        "trials": cfg.trials,
        "success_rate": rate,
        "mean_queries": oracle.query_count / cfg.trials,
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
    return records, summary


def emit_report(records, summary, path: str) -> None:
    """JSON lines: one record per line, then the summary object."""
    lines = [_RECORD_LINE % (r["queries"], r["returned"], r["seed"],
                             "true" if r["success"] else "false",
                             r["trial"], r["truth"], r["x"]) for r in records]
    lines.append(REPORT_ENCODER.encode({"summary": summary}) + "\n")
    with open(path, "w") as fh:
        fh.write("".join(lines))
