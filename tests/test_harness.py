import random

import pytest

from localcorrect import harness
from localcorrect.boolfn import hex_point, min_influence_report, sample_random_junta
from localcorrect.harness import (
    ALGOS,
    X_MODES,
    ConfigError,
    ExperimentConfig,
    derive_seed,
    emit_report,
    find_corrupted_point,
    run_correction_experiment,
    sample_influential_junta,
)
from localcorrect.oracle import ExplicitFlips, IidFlips, parse_corruption, random_flip_set

from reference import reference_correct_report, reference_x_search


class TestDeriveSeed:
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

    def test_fixed_hex_needs_x(self):
        cfg = ExperimentConfig(x_mode="fixed-hex")
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert exc.value.fieldname == "x_hex"


class TestRunExperiment:
    def test_sample_influential_junta_replays_draws(self):
        # The first draw whose every variable has influence >= 1/50, with
        # the earlier draws of the same seed stream counted as redraws.
        spec, redraws = sample_influential_junta(2, 10, 4)
        rng = random.Random(4)
        drawn = [sample_random_junta(2, 10, rng.getrandbits(64)) for _ in range(redraws + 1)]
        assert drawn[-1] == spec
        assert [min_influence_report(s.core, 2).passes_threshold for s in drawn] == (
            [False] * redraws + [True])

    def test_one_oracle_per_experiment(self, monkeypatch):
        built = []
        real = harness.NoisyOracle

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "NoisyOracle", counted)
        cfg = ExperimentConfig(algo="cube", k=2, n=8, corruption="iid:1/32:3",
                               trials=30, master_seed=3, repeat_t=3)
        records, summary = run_correction_experiment(cfg)
        assert len(built) == 1
        assert {r["queries"] for r in records} == {3 * 7}
        assert summary["mean_queries"] == 21.0

    def test_adversarial_without_corruption_rejected(self, monkeypatch):
        # The empty flip set and iid eps 0 flip no point: both are refused
        # before a single draw is scanned.
        scanned = []
        for model in (ExplicitFlips, IidFlips):
            monkeypatch.setattr(model, "corrupt", lambda *args: scanned.append(args))
        for spec in ("none", "iid:0:3"):
            with pytest.raises(ConfigError, match="flips no point") as exc:
                find_corrupted_point(10, parse_corruption(spec, 10), 1)
            assert exc.value.fieldname == "x_mode"
        assert scanned == []

    @pytest.mark.parametrize("model", ["iid", "flips"])
    def test_x_search_matches_value_based_loop(self, model):
        # g differs from the base exactly at a flipped draw, so the plain
        # per-draw search over flips is the value-based search; this runs
        # more seeds, at a wider n, than the reference grid.
        n = 32
        corruption = (random_flip_set(n, 64, 12) if model == "flips"
                      else parse_corruption("iid:1/64:5", n))
        for seed in range(50):
            assert find_corrupted_point(n, corruption, seed) == (
                reference_x_search(n, corruption, seed))

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
    def test_empty_records_single_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        emit_report([], {"trials": 0}, str(path))
        assert len(path.read_text().splitlines()) == 1


# (k, n, trials) of each algo's grid rows, small enough that the plain
# reference, one Python call per query, stays fast.  At n=12 a k <= 8
# junta is the 2^n-byte table; the n=20 rows reach the base's batch form
# above it, the flip-set screen, and the iid hash over a base that is not
# a table.
GRID_SHAPES = {"cube": [(3, 12, 12), (3, 20, 4)],
               "influence": [(2, 12, 2), (2, 20, 1)],
               "symmetric": [(12, 12, 12)]}


def grid_configs(algo, flip_paths):
    """algo under no corruption, a flip file (flip_paths[n]) and iid, in
    every x mode that the corruption allows, with repeat_t unset and 3."""
    seed = 0
    for k, n, trials in GRID_SHAPES[algo]:
        for corruption in ("none", "flips:%s" % flip_paths[n], "iid:1/16:3"):
            for x_mode in X_MODES:
                if x_mode == "adversarial-flipped" and corruption == "none":
                    continue
                for repeat_t in (None, 3):
                    seed += 1
                    yield ExperimentConfig(
                        algo=algo, k=k, n=n, corruption=corruption, trials=trials,
                        master_seed=seed, x_mode=x_mode, repeat_t=repeat_t,
                        x_hex="a5c" if x_mode == "fixed-hex" else None)


class TestReferenceGrid:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_report_matches_reference(self, algo, tmp_path):
        # The report's bytes against the plain reference's, config by
        # config: every value, query count, record and summary line.
        flip_paths = {}
        for n in {n for _, n, _ in GRID_SHAPES[algo]}:
            flips = random_flip_set(n, 256, 21)
            flip_paths[n] = tmp_path / ("flips%d.txt" % n)
            flip_paths[n].write_text("".join(hex_point(b, n) + "\n" for b in sorted(flips.flips)))
        out = tmp_path / "r.jsonl"
        successes = set()
        for cfg in grid_configs(algo, flip_paths):
            records, summary = run_correction_experiment(cfg)
            emit_report(records, summary, str(out))
            assert out.read_text() == reference_correct_report(cfg), cfg
            successes.update(r["success"] for r in records)
        # Both outcomes are written, so both spellings of a record are checked.
        assert successes == ({True} if algo == "symmetric" else {True, False})
