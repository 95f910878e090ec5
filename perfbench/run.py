"""Benchmark of localcorrect: closed-loop trial workloads, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from ./src, so
there is nothing to build.  Each workload is a sequence of experiments,
each one an in-process `localcorrect` CLI invocation (`cli.main`) whose
inputs (master seeds, the iid key, the flip file) are derived from
--seed.  Inside an experiment the harness starts a trial only after the
previous one returns.  Experiments run until --seconds have passed.

--trace 0 reports the end-to-end metrics.  Its only instrumentation is
one clock pair around each corrector call (for lowerbound, one clock
read at the start of each trial).  --trace 1 runs every experiment twice,
untraced and then traced, requires the two reports to be byte-identical,
and reports the per-layer metrics from spans.py plus the tracing
overhead.  The last line of stdout is the JSON result; the lines before
it give each metric's sample count and the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from array import array

import gauge
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

IMPORT_RUNS = 5
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
BLOCK_MIN = 40
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import localcorrect.cli; "
    "t = time.perf_counter() - t; import gauge; print(t, gauge.measure())"
)

# Trials per experiment and a tiny size for the self-test.  Experiments
# stay short so the gauge brackets each closely.  Success-rate floors
# apply to all of a run's trials; lowerbound checks criterion 8's caps
# and floor on one extra experiment at that criterion's own scale.  Its
# 200 cube-sum trials put its tail at p90, which held within 4 % across
# seeds where p95 over 500 spread 20 % (README.md).
WORKLOADS = {
    "influence-k8-iid": dict(algo="influence", k=8, n=128, trials=3, tiny=2,
                             floor=0.70),
    "cube-k4-flips": dict(algo="cube", k=4, n=16, trials=5000, tiny=100,
                          floor=0.85),
    "lowerbound-blindness": dict(algo=None, trials=(500, 200), tiny=(60, 30),
                                 full=(2000, 1000)),
}
UNIFORM = ("uniform-random-queries", 400, 20, 1000)
CUBE_SUM = ("cube-sum-at-x_star", 1000, 6, 127)


def derive(*parts) -> int:
    """A 32-bit seed from the workload seed and a label; any int seed works."""
    text = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "little")


def load_package():
    if not os.path.isfile(os.path.join(SRC, "localcorrect", "__init__.py")):
        sys.exit("perfbench: no localcorrect package under %s; run from the "
                 "root of a full checkout" % SRC)
    sys.path.insert(0, SRC)
    from localcorrect import (boolfn, cli, correctors, harness, lowerbound,
                              oracle)
    return types.SimpleNamespace(boolfn=boolfn, cli=cli, correctors=correctors,
                                 harness=harness, lowerbound=lowerbound,
                                 oracle=oracle)


class Workload:
    """Inputs, CLI invocations and output checks of one workload."""

    def __init__(self, name, seed, workdir, lc, tiny=False):
        spec = WORKLOADS[name]
        self.name, self.seed, self.workdir, self.lc = name, seed, workdir, lc
        self.algo = spec["algo"]
        self.tiny = tiny
        self.trials = spec["tiny"] if tiny else spec["trials"]
        self.full_trials = self.trials if tiny else spec.get("full", self.trials)
        self.floor = spec.get("floor")
        self.successes = self.checked = 0
        if self.algo == "cube":
            self.corruption = "flips:" + self.write_flip_file()
        elif self.algo == "influence":
            self.corruption = "iid:2^-12:%d" % derive(name, seed, "iid")
        if self.algo:
            self.k, self.n = spec["k"], spec["n"]
            self.expected_queries = (
                (1 << (self.k + 1)) - 1 if self.algo == "cube"
                else 6 * self.k * lc.correctors.pair_rounds(self.k) + 1)

    def write_flip_file(self):
        flips = self.lc.oracle.random_flip_set(16, 256, derive(self.name, self.seed, "flips"))
        path = os.path.join(self.workdir, "flips.hex")
        with open(path, "w") as fh:
            for bits in sorted(flips.flips):
                fh.write("%04x\n" % bits)
        return path

    @property
    def trials_per_experiment(self):
        return sum(self.trials) if self.algo is None else self.trials

    def invocations(self, index, tag, trials=None):
        """[(argv, report path)] for experiment `index` (an int, or a label
        for the reproducibility check); `tag` names the copy."""
        trials = trials or self.trials

        def out(part):
            return os.path.join(self.workdir, "%s-%s.json" % (part, tag))

        if self.algo is None:
            return [([
                "lowerbound", "--strategy", strategy, "--n", str(n),
                "--k", str(k), "--queries", str(q), "--trials", str(count),
                "--seed", str(derive(self.name, self.seed, strategy, index)),
                "--out", out(strategy)], out(strategy))
                for (strategy, n, k, q), count in zip((UNIFORM, CUBE_SUM), trials)]
        return [([
            "correct", "--algo", self.algo, "--k", str(self.k), "--n", str(self.n),
            "--corruption", self.corruption, "--trials", str(trials),
            "--seed", str(derive(self.name, self.seed, "master", index)),
            "--x-mode", "adversarial-flipped", "--out", out("report")], out("report"))]

    def check(self, reports, problems, trials=None):
        """Check one experiment's report texts; returns the failed trials.

        A trial fails if it used the wrong number of queries; a wrong
        value only lowers the success rate, as the theorem allows."""
        trials = trials or self.trials
        if self.algo is None:
            uni, cube = (json.loads(text) for text in reports)
            if (uni["trials"], cube["trials"]) != tuple(trials):
                problems.append("distinguisher report trial count is wrong")
            if (uni["q"], cube["q"]) != (UNIFORM[3], CUBE_SUM[3]):
                problems.append("distinguisher report query count is wrong")
            self.successes += round(uni["one_hit_rate"] * uni["trials"])
            self.checked += uni["trials"]
            return 0
        lines = reports[0].splitlines()
        records = [json.loads(line) for line in lines[:-1]]
        summary = json.loads(lines[-1])["summary"]
        failed = 0
        for rec in records:
            if rec["queries"] != self.expected_queries:
                failed += 1
            if rec["success"] != (rec["returned"] == rec["truth"]):
                problems.append("trial %d: success flag disagrees with values" % rec["trial"])
            self.successes += rec["success"]
        self.checked += len(records)
        if len(records) != trials or summary["trials"] != trials:
            problems.append("report holds %d trials, expected %d" % (len(records), trials))
        return failed

    def check_full_scale(self, reports, problems):
        """Criterion 8's caps and floor, on a report pair at its scale."""
        if self.algo is not None or self.tiny:
            return
        uni, cube = (json.loads(text) for text in reports)
        if not (uni["one_hit_rate"] <= 0.06 and uni["advantage"] <= 0.05
                and cube["advantage"] >= 0.35):
            problems.append("criterion 8 caps/floor missed: uniform hit=%s adv=%s, cube adv=%s"
                            % (uni["one_hit_rate"], uni["advantage"], cube["advantage"]))

    def check_rates(self, problems):
        """The run's success floor; for lowerbound, the uniform hit-rate cap."""
        if self.tiny or not self.checked:
            return
        rate = self.successes / self.checked
        if self.algo is None and rate > 0.06:
            problems.append("uniform one-hit rate %.4f above cap 0.06" % rate)
        if self.algo is not None and rate < self.floor:
            problems.append("success rate %.4f below floor %.2f" % (rate, self.floor))


class TrialClock:
    """The untraced run's only instrumentation.

    Correction workloads: one clock pair around each corrector call.
    lowerbound: one clock read at the start of each trial (its public
    sample_hard_instance call); the cube-sum trials are the corrections.
    """

    def __init__(self, lc):
        self.lc = lc
        self.latencies = array("d")
        self.first = None
        self.starts = []

    def install(self):
        h, lb = self.lc.harness, self.lc.lowerbound
        self.saved = [(h, "cube_sum_correct", h.cube_sum_correct),
                      (h, "influence_correct", h.influence_correct),
                      (lb, "sample_hard_instance", lb.sample_hard_instance)]
        for owner, attr, fn in self.saved[:2]:
            setattr(owner, attr, self.timed(fn))
        setattr(lb, "sample_hard_instance", self.marked(lb.sample_hard_instance))

    def restore(self):
        for owner, attr, fn in self.saved:
            setattr(owner, attr, fn)

    def timed(self, fn):
        clock, latencies = time.perf_counter, self.latencies

        def corrector(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            latencies.append(clock() - t0)
            if self.first is None:
                self.first = t0
            return result

        return corrector

    def marked(self, fn):
        clock, starts = time.perf_counter, self.starts

        def trial_start(*args, **kwargs):
            starts.append(clock())
            return fn(*args, **kwargs)

        return trial_start


def run_cli(lc, argv, sink):
    with contextlib.redirect_stdout(sink):
        return lc.cli.main(argv)


def untraced_experiment(wl, index, tag, sink, trials=None, rescale=None):
    """Run one experiment with only the trial clock.

    Returns (setup, loop, raw loop, latencies) in seconds.  With
    `rescale`, a callable giving the gauge factor since its previous call,
    each CLI invocation's timings are scaled by the factor read right
    after it; the raw loop time stays unscaled."""
    clock = TrialClock(wl.lc)
    clock.install()
    setup = loop = raw_loop = 0.0
    lat = clock.latencies
    try:
        for argv, _ in wl.invocations(index, tag, trials):
            clock.first, clock.starts[:] = None, []
            mark = len(lat)
            t0 = time.perf_counter()
            rc = run_cli(wl.lc, argv, sink)
            t1 = time.perf_counter()
            scale = rescale() if rescale else 1.0
            if rc != 0:
                raise RuntimeError("cli exited %d for %s" % (rc, " ".join(argv)))
            first = clock.first if wl.algo else clock.starts[0]
            setup += (first - t0) * scale
            loop += (t1 - first) * scale
            raw_loop += t1 - first
            if CUBE_SUM[0] in argv:
                # Start to start; the last trial would include the report.
                lat.extend(b - a for a, b in zip(clock.starts, clock.starts[1:]))
            for i in range(mark, len(lat)):
                lat[i] *= scale
    finally:
        clock.restore()
    return setup, loop, raw_loop, lat


def traced_experiment(wl, index, tag, sink, tracer):
    spans.install(tracer, wl.lc)
    try:
        main = tracer.wrap("experiment", wl.lc.cli.main, record=True)
        t_loop = 0.0
        for argv, _ in wl.invocations(index, tag):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                rc = main(argv)
            t_loop += time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError("cli exited %d for %s" % (rc, " ".join(argv)))
    finally:
        tracer.restore()
    return t_loop


def read_reports(wl, index, tag, trials=None):
    texts = []
    for _, path in wl.invocations(index, tag, trials):
        with open(path, "rb") as fh:
            texts.append(fh.read())
    return texts


def import_times():
    """Fresh-process import of localcorrect.cli, IMPORT_RUNS times, each
    scaled by a gauge reading the child takes right after it (s)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    times = []
    for _ in range(IMPORT_RUNS):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        seconds, reading = (float(v) for v in out.stdout.split())
        times.append(seconds * gauge.NOMINAL_S / reading)
    return times


def tail(blocks):
    """(percentile, value, blocks used) of the correction-time tail.

    Each experiment holding at least BLOCK_MIN corrections is a block;
    otherwise the whole run is one block.  The percentile is the highest
    listed one with at least ten corrections beyond it in every block,
    and the value is its median over blocks (nearest rank), so a
    contention burst in one experiment cannot set the run's tail."""
    if min(len(b) for b in blocks) < BLOCK_MIN:
        blocks = [[x for b in blocks for x in b]]
    n = min(len(b) for b in blocks)
    p = next((p for p in TAIL_PERCENTILES if n - math.ceil(p * n / 100) >= 10), 50.0)
    values = []
    for block in blocks:
        ordered = sorted(block)
        values.append(ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1])
    return p, statistics.median(values), len(blocks)


def environment():
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg_start": list(os.getloadavg()),
    }


def reproduce(wl, sink, problems):
    """Two runs of one experiment with one seed must write identical
    reports; lowerbound's runs are at criterion 8's scale and also face
    its caps and floor."""
    texts = []
    try:
        for tag in ("repro-a", "repro-b"):
            untraced_experiment(wl, "repro", tag, sink, wl.full_trials)
            texts.append(read_reports(wl, "repro", tag, wl.full_trials))
        decoded = [t.decode() for t in texts[0]]
        if wl.check(decoded, problems, wl.full_trials):
            problems.append("reproducibility run used wrong query counts")
        wl.check_full_scale(decoded, problems)
    except Exception as exc:  # reported as a failed check
        problems.append("reproducibility run raised %r" % exc)
        return
    if texts[0] != texts[1]:
        problems.append("two runs with one seed wrote different reports")


def run(args):
    lc = load_package()
    env = environment()
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        with open(os.devnull, "w") as sink:
            return measure(args, lc, env, workdir, sink)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, lc, env, workdir, sink):
    wl = Workload(args.workload, args.seed, workdir, lc)
    per_exp = wl.trials_per_experiment
    problems, details = [], []
    imports = import_times()
    tracer = spans.Tracer() if args.trace else None
    # Scaled by the gauge readings around each CLI invocation (see
    # gauge.py); raw_rates keeps the unscaled figure for the record.
    setups, rates, raw_rates, latencies = [], [], [], []
    # Whole-experiment rates, set-up included, for the tracing overhead.
    whole_rates, traced_rates, traced_scales = [], [], []
    attempted = failed = 0
    reading = gauge.measure()

    def rescale():
        nonlocal reading
        before, reading = reading, gauge.measure()
        return gauge.factor(before, reading)

    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        attempted += per_exp
        try:
            setup, loop, raw_loop, lat = untraced_experiment(
                wl, index, "plain", sink, rescale=rescale)
            reports = read_reports(wl, index, "plain")
            if args.trace:
                t_loop = traced_experiment(wl, index, "traced", sink, tracer)
                traced_scales.append(rescale())
                traced_rates.append(per_exp / (t_loop * traced_scales[-1]))
                if read_reports(wl, index, "traced") != reports:
                    problems.append("experiment %d: traced report differs" % index)
            failed += wl.check([r.decode() for r in reports], problems)
        except Exception as exc:  # keep measuring; the failure is reported
            failed += per_exp
            problems.append("experiment %d raised %r" % (index, exc))
            index += 1
            reading = gauge.measure()
            continue
        setups.append(setup)
        rates.append(per_exp / loop)
        raw_rates.append(per_exp / raw_loop)
        whole_rates.append(per_exp / (setup + loop))
        latencies.append(lat)
        index += 1

    # Read before the re-run and the statistics below, whose sorted
    # copies of the latencies would otherwise set the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reproduce(wl, sink, problems)
    wl.check_rates(problems)

    experiments = len(rates)
    import_s = statistics.median(imports)
    if args.trace:
        metrics = spans.layer_metrics(tracer, experiments * per_exp)
        if traced_scales:
            scale = statistics.median(traced_scales)
            for name, (value, unit) in metrics.items():
                if unit in spans.TIME_UNITS:
                    metrics[name] = (value * scale, unit)
        metrics["cli.import_ms"] = (import_s * 1e3, "ms")
        if experiments:
            plain, traced = statistics.median(whole_rates), statistics.median(traced_rates)
            metrics["trace.overhead_trials_per_s"] = (traced - plain, "1/s")
            metrics["trace.overhead_share"] = ((plain - traced) / plain, "share")
        details.append("per-layer figures from %d traced experiments (%d trials)"
                       % (experiments, experiments * per_exp))
        spans_path = os.path.join(WORK, "results", "%s-seed%s.spans.jsonl"
                                  % (args.workload, args.seed))
        tracer.write_spans(spans_path)
    else:
        metrics = {}
        if experiments:
            pct, tail_s, blocks = tail(latencies)
            pooled = array("d")
            for lat in latencies:
                pooled.extend(lat)
            metrics = {
                "trials_per_s": (statistics.median(rates), "1/s"),
                "correction_ms_p50": (statistics.median(pooled) * 1e3, "ms"),
                "correction_ms_tail": (tail_s * 1e3, "ms"),
                "setup_s": (import_s + statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            details += [
                "trials_per_s: median of %d experiments of %d trials "
                "(unscaled median %.4g)" % (experiments, per_exp, statistics.median(raw_rates)),
                "correction_ms_p50: median of %d corrections" % len(pooled),
                "correction_ms_tail: p%g of %d corrections, median over %d blocks"
                % (pct, len(pooled), blocks),
                "setup_s: median of %d fresh-process imports + median of %d "
                "experiments' pre-trial set-up" % (len(imports), experiments),
                "peak_rss_mb: ru_maxrss of this process at the end of the timed loop",
            ]
    details.append("timings scaled to gauge.NOMINAL_S=%g s; last gauge reading %.4g s"
                   % (gauge.NOMINAL_S, reading))
    result = {
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "details": details,
              "problems": problems, "result": result}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-seed%s-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in details + ["problem: " + p for p in problems]:
        print(line)
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def self_test():
    """On a tiny size of each workload: two untraced runs and one traced run
    of the same experiment write byte-identical reports, and the traced run
    yields exactly the per-layer metrics BENCHMARK.json names."""
    lc = load_package()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    per_layer = {m["name"] for m in declared["per_layer"]}
    ok = True
    for name in WORKLOADS:
        workdir = os.path.join(WORK, "selftest-%s-%d" % (name, os.getpid()))
        os.makedirs(workdir, exist_ok=True)
        try:
            with open(os.devnull, "w") as sink:
                wl = Workload(name, 1, workdir, lc, tiny=True)
                tracer = spans.Tracer()
                untraced_experiment(wl, 0, "a", sink)
                untraced_experiment(wl, 0, "b", sink)
                traced_experiment(wl, 0, "t", sink, tracer)
            a, b, t = (read_reports(wl, 0, tag) for tag in ("a", "b", "t"))
            problems = []
            wl.check([r.decode() for r in a], problems)
            names = set(spans.layer_metrics(tracer, 1)) | {
                "cli.import_ms", "trace.overhead_trials_per_s", "trace.overhead_share"}
            same = a == b == t
            good = same and not problems and names == per_layer
            ok = ok and good
            print("%s %s: untraced twice and traced identical=%s, checks=%s, "
                  "per-layer names match=%s" % ("PASS" if good else "FAIL", name,
                                                same, problems or "ok",
                                                names == per_layer))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
