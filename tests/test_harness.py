import json
import random

import pytest

from localcorrect.analysis import min_influence_report, sample_random_junta
from localcorrect.harness import (
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    emit_report,
    find_corrupted_point,
    run_correction_experiment,
    sample_influential_junta,
)
from localcorrect.oracle import ExplicitFlips, NoCorruption, random_flip_set


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(12345, 6) == derive_seed(12345, 6)

    def test_no_collisions_across_indices(self):
        seeds = {derive_seed(99, i) for i in range(10000)}
        assert len(seeds) == 10000

    def test_avalanche(self):
        rng = random.Random(0)
        for _ in range(10000):
            s = rng.getrandbits(63)
            flipped = s ^ (1 << rng.randrange(63))
            assert derive_seed(s, 0) != derive_seed(flipped, 0)

    def test_fits_64_bits(self):
        assert 0 <= derive_seed(2 ** 63, 2 ** 40) < 2 ** 64


class TestConfigValidation:
    def test_bad_field_named(self):
        cfg = ExperimentConfig(algo="nope")
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert exc.value.fieldname == "algo"

    def test_repeat_t_must_be_odd(self):
        cfg = ExperimentConfig(repeat_t=4)
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert exc.value.fieldname == "repeat_t"

    def test_fixed_hex_needs_x(self):
        cfg = ExperimentConfig(x_mode="fixed-hex")
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert exc.value.fieldname == "x_hex"

    def test_bad_corruption_descriptor(self):
        cfg = ExperimentConfig(corruption="bogus:1")
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert exc.value.fieldname == "corruption"


class TestRunExperiment:
    def test_clean_cube_is_exact(self):
        cfg = ExperimentConfig(algo="cube", k=3, n=12, trials=100, master_seed=1)
        records, summary = run_correction_experiment(cfg)
        assert summary["success_rate"] == 1.0
        assert summary["mean_queries"] == 15.0

    def test_symmetric_uses_zero_queries(self):
        cfg = ExperimentConfig(algo="symmetric", k=1, n=9, trials=50, master_seed=2)
        _, summary = run_correction_experiment(cfg)
        assert summary["mean_queries"] == 0.0
        assert summary["success_rate"] == 1.0

    def test_summary_matches_records(self):
        cfg = ExperimentConfig(
            algo="cube", k=2, n=8, corruption="iid:1/32:3", trials=250, master_seed=3
        )
        records, summary = run_correction_experiment(cfg)
        assert summary["success_rate"] == sum(r.success for r in records) / 250
        assert summary["mean_queries"] == sum(r.queries for r in records) / 250
        assert all(r.success == (r.returned == r.truth) for r in records)

    def test_influence_redraws_logged(self):
        cfg = ExperimentConfig(algo="influence", k=2, n=10, trials=3, master_seed=4)
        _, summary = run_correction_experiment(cfg)
        assert "junta_redraws" in summary

    def test_sample_influential_junta_replays_draws(self):
        # The first draw whose every variable has influence >= 1/50, with
        # the earlier draws of the same seed stream counted as redraws.
        spec, redraws = sample_influential_junta(2, 10, 4)
        rng = random.Random(4)
        drawn = [sample_random_junta(2, 10, rng.getrandbits(64)) for _ in range(redraws + 1)]
        assert drawn[-1] == spec
        assert [min_influence_report(s.core).passes_threshold for s in drawn] == (
            [False] * redraws + [True])

    def test_fixed_x_mode(self):
        cfg = ExperimentConfig(
            algo="cube", k=2, n=8, trials=20, master_seed=5,
            x_mode="fixed-hex", x_hex="a5",
        )
        records, _ = run_correction_experiment(cfg)
        assert {r.x_hex for r in records} == {"a5"}

    def test_adversarial_x_is_corrupted(self):
        flips = random_flip_set(10, 8, 7)
        cfg = ExperimentConfig(algo="cube", k=2, n=10, trials=10, master_seed=6)
        x = find_corrupted_point(10, lambda bits: 0, flips, 11)
        assert x.bits in flips.flips

    def test_adversarial_without_corruption_rejected(self):
        with pytest.raises(ConfigError) as exc:
            find_corrupted_point(10, lambda bits: 0, NoCorruption(), 1)
        assert exc.value.fieldname == "x_mode"

    def test_amplification_monotone(self):
        # single-run success ~0.89 under 7*eps union bound; majority of 5
        # should not do worse (0.01 statistical slack)
        base = dict(algo="cube", k=2, n=10, corruption="iid:1/64:9",
                    trials=2000, master_seed=8)
        _, single = run_correction_experiment(ExperimentConfig(**base))
        _, amplified = run_correction_experiment(
            ExperimentConfig(**base, repeat_t=5)
        )
        assert single["success_rate"] >= 0.70
        assert amplified["success_rate"] >= single["success_rate"] - 0.01
        assert amplified["mean_queries"] == 5 * single["mean_queries"]


class TestEmitReport:
    def _record(self, i):
        return TrialRecord(i, "00", 1, 1, True, 7, 123)

    def test_empty_records_single_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        emit_report([], {"trials": 0}, str(path))
        assert len(path.read_text().splitlines()) == 1

    def test_three_records_four_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        emit_report([self._record(i) for i in range(3)], {"trials": 3}, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[-1]) == {"summary": {"trials": 3}}

    def test_rerun_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(algo="cube", k=2, n=8, trials=40, master_seed=10)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            records, summary = run_correction_experiment(cfg)
            emit_report(records, summary, str(path))
        assert a.read_bytes() == b.read_bytes()
