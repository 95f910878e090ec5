import collections
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from localcorrect import cli, correctors, harness, lowerbound
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

        # One chunk, so one process builds the oracle.
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        monkeypatch.setattr(harness, "NoisyOracle", counted)
        cfg = ExperimentConfig(algo="cube", k=2, n=8, corruption="iid:1/32:3",
                               trials=30, master_seed=3, repeat_t=3)
        lines, summary = run_correction_experiment(cfg)
        assert len(built) == 1
        assert {json.loads(line)["queries"] for line in lines} == {3 * 7}
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

    def test_x_search_scans_past_5000_draws(self):
        # The first flipped draw is draw 8,483 of the search, so any cap
        # on the scan short of that refuses this x.
        n, seed = 16, 3
        corruption = parse_corruption("iid:2^-12:3", n)
        x = find_corrupted_point(n, corruption, seed)
        assert x == reference_x_search(n, corruption, seed) == 0x253B
        rng = random.Random(seed)
        assert [rng.getrandbits(n) for _ in range(8483)].index(x) == 8482

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
        line = emit_report([], {"trials": 0}, str(path))
        assert path.read_text() == line + "\n"

    def test_run_holds_one_line_per_trial(self, tmp_path):
        # A run holds one report line per trial, about 180 bytes at this
        # shape; a dict of the record's seven fields beside it adds 620.
        trials = 3000
        cfg = ExperimentConfig(algo="cube", k=2, n=8, trials=trials, master_seed=5)
        tracemalloc.start()
        try:
            emit_report(*run_correction_experiment(cfg), str(tmp_path / "r.jsonl"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / trials < 400


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
            lines, summary = run_correction_experiment(cfg)
            emit_report(lines, summary, str(out))
            assert out.read_text() == reference_correct_report(cfg), cfg
            successes.update(json.loads(line)["success"] for line in lines)
        # Both outcomes are written, so both spellings of a record are checked.
        assert successes == ({True} if algo == "symmetric" else {True, False})


def force_chunks(monkeypatch, count):
    """Let every experiment that makes a query per chunk fork, into count
    chunks where it has as many trials.  A symmetric experiment makes no
    query, so it runs in one chunk."""
    monkeypatch.setattr(harness, "_cpu_count", lambda: count)
    monkeypatch.setattr(harness, "FORK_MIN_QUERIES", 1)


def count_forks(monkeypatch):
    """Spy on os.fork, which still forks; returns the list that gets one
    entry per fork made in this process."""
    forks = []
    real = os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def chunk_lengths(trials, queries):
    """The lengths, in trial order, of run_chunks' chunks over a trial
    that returns its index and its process id; checks that the results
    come in trial order, chunk 0's from this process and each other
    chunk's from its own."""
    got = harness.run_chunks(trials, queries, lambda t: (t, os.getpid()))
    assert [t for t, _ in got] == list(range(trials))
    pids = [pid for _, pid in got]
    lengths = [len(list(run)) for _, run in itertools.groupby(pids)]
    assert pids[0] == os.getpid() and len(set(pids)) == len(lengths)
    return lengths


def chunk_configs():
    """Each algo in every x mode, with repeat_t unset and 3; the test sets
    the trial count."""
    for algo, k, n in (("cube", 2, 8), ("influence", 2, 12), ("symmetric", 9, 9)):
        for x_mode in X_MODES:
            for repeat_t in (None, 3):
                yield ExperimentConfig(
                    algo=algo, k=k, n=n, corruption="iid:1/16:3", master_seed=7,
                    x_mode=x_mode, repeat_t=repeat_t,
                    x_hex="5" if x_mode == "fixed-hex" else None)


class TestChunks:
    @pytest.mark.parametrize("trials, chunks", [(3, 2), (5, 4), (4, 4), (2, 3)],
                             ids=["3-over-2", "5-over-4", "4-over-4", "2-over-3"])
    def test_report_matches_one_chunk(self, trials, chunks, tmp_path, monkeypatch):
        # The chunks cut the trials at other points than the one chunk
        # does, and each forked chunk counts queries on its own copy of
        # the oracle, yet the report's bytes are the same.
        out = tmp_path / "r.jsonl"
        for cfg in chunk_configs():
            cfg = cfg._replace(trials=trials)
            reports = []
            for count in (1, chunks):
                force_chunks(monkeypatch, count)
                emit_report(*run_correction_experiment(cfg), str(out))
                reports.append(out.read_bytes())
            assert reports[0] == reports[1], cfg
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_chunk_bounds(self, monkeypatch):
        # Contiguous chunks in trial order, the first ones a trial longer.
        force_chunks(monkeypatch, 4)
        assert chunk_lengths(10, 10) == [3, 3, 2, 2]
        assert chunk_lengths(2, 2) == [1, 1]
        # No more chunks than queries a chunk needs.
        assert chunk_lengths(10, 3) == [4, 3, 3]

    def test_no_fork_below_the_threshold(self, monkeypatch):
        forks = []
        monkeypatch.setattr(harness, "_cpu_count", lambda: 4)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1))
        cfg = ExperimentConfig(algo="cube", k=2, n=8, trials=50, master_seed=1)
        assert cfg.trials * 7 < harness.FORK_MIN_QUERIES
        lines, _ = run_correction_experiment(cfg)
        assert len(lines) == 50 and forks == []

    def test_many_cpus_fork_per_chunk_queries(self, monkeypatch):
        # On 64 CPUs a 2^14-query experiment makes two chunks of 2^13
        # queries, so it forks one child, not 63; one query fewer forks
        # none.
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(harness, "_cpu_count", lambda: 64)
        assert chunk_lengths(64, 1 << 14) == [32, 32]
        assert forks == [1]
        assert chunk_lengths(64, (1 << 14) - 1) == [64]
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fault_in_a_child_is_internal(self, tmp_path, monkeypatch, capfd):
        # The corrector raises only in the forked child: the child prints
        # its traceback and exits 1, and the parent raises an internal
        # fault, which the command line lets propagate (exit 1) after
        # removing the report file it made.
        parent = os.getpid()
        real = harness.cube_sum_correct

        def broken(*args):
            if os.getpid() != parent:
                raise ValueError("internal")
            return real(*args)

        force_chunks(monkeypatch, 2)
        monkeypatch.setattr(harness, "cube_sum_correct", broken)
        with pytest.raises(RuntimeError, match="trials 3-4 exited with 1"):
            cli.main(["correct", "--algo", "cube", "--k", "2", "--n", "8",
                      "--trials", "5", "--seed", "1", "--out", str(tmp_path / "r")])
        assert "ValueError: internal" in capfd.readouterr().err
        assert not (tmp_path / "r").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("where", ["every-process", "child-only"])
    def test_x_search_config_error_exits_2(self, where, tmp_path, monkeypatch, capsys):
        # The search, capped at 10 draws, gives up before the chunks fork:
        # exit 2, no fork and no report.  every-process caps it in this
        # process, which a forked chunk would inherit; child-only runs the
        # command in a child process of the test, the one process capped,
        # whose os.fork raises, and reads the 2 from its exit status.
        # Uncapped, the search finds x at draw 67.
        out = tmp_path / "r"
        argv = ["correct", "--algo", "cube", "--k", "2", "--n", "8",
                "--corruption", "iid:1/64:3", "--x-mode", "adversarial-flipped",
                "--trials", "5", "--seed", "1", "--out", str(out)]
        if where == "every-process":
            forks = count_forks(monkeypatch)
            force_chunks(monkeypatch, 2)
            monkeypatch.setattr(harness, "MAX_SCAN", 10)
            rc, err = cli.main(argv), capsys.readouterr().err
            assert forks == []
        else:
            src = pathlib.Path(__file__).resolve().parent.parent / "src"
            code = ("import os, sys\n"
                    "sys.path.insert(0, %r)\n"
                    "from localcorrect import cli, harness\n"
                    "harness._cpu_count = lambda: 2\n"
                    "harness.FORK_MIN_QUERIES = 1\n"
                    "harness.MAX_SCAN = 10\n"
                    "def fork():\n"
                    "    raise AssertionError('forked')\n"
                    "os.fork = fork\n"
                    "sys.exit(cli.main(sys.argv[1:]))\n" % str(src))
            proc = subprocess.run([sys.executable, "-I", "-c", code] + argv,
                                  capture_output=True, text=True, timeout=30)
            rc, err = proc.returncode, proc.stderr
            assert harness.MAX_SCAN > 10
        assert rc == 2
        assert err == "config error: x_mode: no corrupted point found in 10 draws\n"
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_set_up_runs_once_before_the_fork(self, tmp_path, monkeypatch):
        # The x search and then the base build each run once, in this
        # process; the forked chunk inherits what they built.
        log = tmp_path / "calls"

        def logged(name):
            real = getattr(harness, name)

            def call(*args):
                with open(log, "a") as fh:
                    fh.write("%s %d\n" % (name, os.getpid()))
                return real(*args)
            return call

        forks = count_forks(monkeypatch)
        force_chunks(monkeypatch, 2)
        for name in ("build_base", "find_corrupted_point"):
            monkeypatch.setattr(harness, name, logged(name))
        cfg = ExperimentConfig(algo="cube", k=2, n=8, corruption="iid:1/16:3", trials=4,
                               master_seed=7, x_mode="adversarial-flipped")
        lines, _ = run_correction_experiment(cfg)
        assert len(lines) == 4 and forks == [1]
        assert log.read_text().splitlines() == ["find_corrupted_point %d" % os.getpid(),
                                                "build_base %d" % os.getpid()]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def trial_seedings(monkeypatch, module, run):
    """The random.Random seedings that each trial makes, by trial index,
    when run() maps its trials through module.run_chunks in one chunk;
    seedings made before or after the trials are not counted."""
    current, seedings = [None], []
    real_seed, real_chunks = random.Random.seed, module.run_chunks

    def seed(self, *args, **kwargs):
        seedings.append(current[0])
        return real_seed(self, *args, **kwargs)

    def chunks(trials, queries, trial):
        def counted(t):
            current[0] = t
            try:
                return trial(t)
            finally:
                current[0] = None
        return real_chunks(trials, queries, counted)

    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    monkeypatch.setattr(random.Random, "seed", seed)
    monkeypatch.setattr(module, "run_chunks", chunks)
    run()
    return collections.Counter(t for t in seedings if t is not None)


class TestTrialGenerator:
    @pytest.mark.parametrize("algo, k, n, repeat_t, per_trial", [
        ("cube", 2, 8, None, 1),
        ("cube", 2, 8, 3, 1),
        # The marking and the masked input each seed their own generator.
        ("influence", 2, 12, None, 3),
    ], ids=["cube", "cube-repeat-3", "influence"])
    def test_correct_seeds_once_per_trial(self, algo, k, n, repeat_t, per_trial,
                                          monkeypatch):
        # One MT19937 seeding costs about as much as the rest of a cube
        # trial, so a trial seeds one generator, and its corrector runs
        # draw from it.
        cfg = ExperimentConfig(algo=algo, k=k, n=n, corruption="iid:1/16:3", trials=3,
                               master_seed=7, repeat_t=repeat_t)
        counts = trial_seedings(monkeypatch, harness, lambda: run_correction_experiment(cfg))
        assert counts == {t: per_trial for t in range(3)}

    @pytest.mark.parametrize("strategy, q", [("uniform-random-queries", 20),
                                             ("cube-sum-at-x_star", 7)])
    def test_distinguisher_seeds_once_per_trial(self, strategy, q, monkeypatch):
        counts = trial_seedings(monkeypatch, lowerbound,
                                lambda: lowerbound.run_distinguisher(strategy, q, 20, 2, 3, 1))
        assert counts == {0: 1, 1: 1, 2: 1}

    def test_repeat_t_runs_walk_apart(self, monkeypatch):
        # The three runs of a --repeat-t 3 trial walk from the same x along
        # directions drawn one after another from the trial's generator,
        # so no two runs walk the same subcube.
        walks = []
        real = correctors.subcube_blocks

        def recorded(offset, dirs):
            walks.append((offset, tuple(dirs)))
            return real(offset, dirs)

        monkeypatch.setattr(correctors, "subcube_blocks", recorded)
        cfg = ExperimentConfig(algo="cube", k=2, n=8, trials=4, master_seed=1, repeat_t=3)
        lines, _ = run_correction_experiment(cfg)
        assert len(walks) == 12
        for line, trial in zip(lines, (walks[i:i + 3] for i in range(0, 12, 3))):
            assert {offset for offset, _ in trial} == {int(json.loads(line)["x"], 16)}
            assert len({dirs for _, dirs in trial}) == 3
