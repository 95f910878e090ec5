"""Experiment orchestration: seeded trials, success-rate summaries, reports.

Every random decision in an experiment flows from the master seed through
derive_seed, so identical configs produce byte-identical report files.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

from .analysis import min_influence_report, sample_random_junta
from .boolfn import MAX_TABLE_VARS, ConfigError, Point, check_seed
from .correctors import cube_sum_correct, influence_correct, symmetric_correct
from .oracle import ExplicitFlips, NoCorruption, NoisyOracle, parse_corruption

ALGOS = ("cube", "influence", "symmetric")
X_MODES = ("fixed-hex", "random", "adversarial-flipped")

# Reserved derive_seed indices for non-trial randomness.
_BASE_STREAM = 1 << 48
_X_STREAM = (1 << 48) + 1


def derive_seed(master_seed: int, trial_index: int) -> int:
    """Collision-resistant 64-bit per-trial seed, stable across platforms."""
    payload = master_seed.to_bytes(8, "little", signed=False) + trial_index.to_bytes(
        8, "little", signed=False
    )
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class ExperimentConfig:
    algo: str = "cube"
    k: int = 3
    n: int = 12
    corruption: str = "none"
    trials: int = 100
    master_seed: int = 0
    x_mode: str = "random"
    x_hex: str | None = None
    repeat_t: int | None = None

    def validate(self):
        """Check every field, naming the first bad one; returns the parsed
        corruption."""
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
        if self.x_mode not in X_MODES:
            raise ConfigError("x_mode", "expected one of %s" % list(X_MODES))
        if self.x_mode == "fixed-hex":
            if not self.x_hex:
                raise ConfigError("x_hex", "required when x_mode is fixed-hex")
            try:
                Point.from_hex(self.x_hex, self.n)
            except ValueError:
                raise ConfigError("x_hex", "%r is not a hex point of n=%d bits"
                                  % (self.x_hex, self.n)) from None
        if self.repeat_t is not None and (self.repeat_t < 1 or self.repeat_t % 2 == 0):
            raise ConfigError("repeat_t", "must be a positive odd integer")
        check_seed(self.master_seed)
        try:
            return parse_corruption(self.corruption, self.n)
        except (ValueError, OSError) as exc:
            raise ConfigError("corruption", str(exc)) from exc


@dataclass(frozen=True)
class TrialRecord:
    index: int
    x_hex: str
    returned: int
    truth: int
    success: bool
    queries: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "trial": self.index,
            "x": self.x_hex,
            "returned": self.returned,
            "truth": self.truth,
            "success": self.success,
            "queries": self.queries,
            "seed": self.seed,
        }


def _majority_profile(n: int):
    return tuple(int(w > n / 2) for w in range(n + 1))


def _build_base(cfg: ExperimentConfig):
    """Base function for the experiment; returns (bits_fn, extras)."""
    extras = {}
    base_seed = derive_seed(cfg.master_seed, _BASE_STREAM)
    if cfg.algo == "symmetric":
        profile = _majority_profile(cfg.n)
        extras["profile"] = profile
        fn = lambda bits: profile[bits.bit_count()]
        return fn, extras
    if cfg.algo == "influence":
        spec, extras["redraws"] = sample_influential_junta(cfg.k, cfg.n, base_seed)
        return spec.bits_fn(), extras
    return sample_random_junta(cfg.k, cfg.n, base_seed).bits_fn(), extras


def sample_influential_junta(k: int, n: int, seed: int):
    """Redraw random juntas until every variable has influence >= 1/50;
    returns (spec, number of rejected draws)."""
    rng = random.Random(seed)
    redraws = 0
    while True:
        spec = sample_random_junta(k, n, rng.getrandbits(64))
        if min_influence_report(spec.core).passes_threshold:
            return spec, redraws
        redraws += 1


def find_corrupted_point(
    n: int, base_fn, corruption, seed: int, max_scan: int = 500000
) -> Point:
    """A point where the corrupted oracle disagrees with the base."""
    if isinstance(corruption, NoCorruption):
        raise ConfigError("x_mode", "no corrupted point exists under 'none'")
    if isinstance(corruption, ExplicitFlips):
        if not corruption.flips:
            raise ConfigError("x_mode", "flip set is empty")
        rng = random.Random(seed)
        return Point(n, rng.choice(sorted(corruption.flips)))
    rng = random.Random(seed)
    for _ in range(max_scan):
        bits = rng.getrandbits(n)
        value = base_fn(bits)
        if corruption.corrupt(n, bits, value) != value:
            return Point(n, bits)
    raise ConfigError("x_mode", "no corrupted point found in %d draws" % max_scan)


def _run_single(cfg, oracle, x, trial_seed, profile):
    if cfg.algo == "cube":
        return cube_sum_correct(oracle, x, cfg.k, trial_seed)
    if cfg.algo == "influence":
        return influence_correct(oracle, x, cfg.k, trial_seed)
    return symmetric_correct(profile, x)


def run_correction_experiment(cfg: ExperimentConfig):
    """Run cfg.trials independent trials; returns (records, summary)."""
    corruption = cfg.validate()
    base_fn, extras = _build_base(cfg)
    profile = extras.get("profile")

    if cfg.x_mode == "fixed-hex":
        fixed_x = Point.from_hex(cfg.x_hex, cfg.n)
    elif cfg.x_mode == "adversarial-flipped":
        fixed_x = find_corrupted_point(
            cfg.n, base_fn, corruption, derive_seed(cfg.master_seed, _X_STREAM)
        )
    else:
        fixed_x = None

    records = []
    total_queries = 0
    successes = 0
    for t in range(cfg.trials):
        seed = derive_seed(cfg.master_seed, t)
        rng = random.Random(seed)
        x = fixed_x if fixed_x is not None else Point(cfg.n, rng.getrandbits(cfg.n))
        truth = base_fn(x.bits)

        if cfg.repeat_t:
            votes = 0
            queries = 0
            for _ in range(cfg.repeat_t):
                oracle = NoisyOracle(cfg.n, base_fn, corruption)
                res = _run_single(cfg, oracle, x, rng.getrandbits(64), profile)
                votes += res.value
                queries += res.queries_used
            value = int(votes * 2 > cfg.repeat_t)
        else:
            oracle = NoisyOracle(cfg.n, base_fn, corruption)
            res = _run_single(cfg, oracle, x, rng.getrandbits(64), profile)
            value, queries = res.value, res.queries_used

        ok = value == truth
        successes += ok
        total_queries += queries
        records.append(TrialRecord(t, x.to_hex(), value, truth, ok, queries, seed))

    rate = successes / cfg.trials
    summary = {
        "trials": cfg.trials,
        "success_rate": rate,
        "mean_queries": total_queries / cfg.trials,
        "ci_halfwidth": 1.96 * math.sqrt(rate * (1 - rate) / cfg.trials),
        "algo": cfg.algo,
        "k": cfg.k,
        "n": cfg.n,
        "corruption": cfg.corruption,
        "x_mode": cfg.x_mode,
        "seed": cfg.master_seed,
        "repeat_t": cfg.repeat_t,
    }
    if "redraws" in extras:
        summary["junta_redraws"] = extras["redraws"]
    return records, summary


def emit_report(records, summary, path: str) -> None:
    """JSON lines: one record per line, then the summary object."""
    lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in records]
    lines.append(json.dumps({"summary": summary}, sort_keys=True))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
