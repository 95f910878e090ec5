"""In-memory spans around calls into localcorrect's modules.

The tracer never edits the package: it swaps module globals and class
attributes for timing wrappers while a traced experiment runs and puts
the originals back afterwards.  Every wrapped call adds its duration to
per-name totals and to its parent's child time, so each name also gets a
self time.  Calls made once per experiment or per trial are kept as span
records (id, parent id, name, start, end) and written out at the end;
per-query calls (junta evaluation, corruption, hard-instance evaluation)
are only aggregated, which keeps memory flat however long the run is.
"""

from __future__ import annotations

import json
import os
import time

# Span name -> module it belongs to, for the per-module self-time split.
MODULE_OF = {
    "experiment": "cli",
    "cli.emit_report": "harness",
    "harness.run_correction_experiment": "harness",
    "harness.derive_seed": "harness",
    "harness.find_corrupted_point": "harness",
    "harness.cube_sum_correct": "correctors",
    "harness.influence_correct": "correctors",
    "correctors.identify_influencing_parts": "correctors",
    "correctors.build_masked_input": "correctors",
    "oracle.query": "oracle",
    "oracle.corrupt.iid": "oracle",
    "oracle.corrupt.flips": "oracle",
    "boolfn.junta_eval": "boolfn",
    "analysis.sample_random_junta": "analysis",
    "analysis.min_influence_report": "analysis",
    "lowerbound.run_distinguisher": "lowerbound",
    "lowerbound.sample_hard_instance": "lowerbound",
    "lowerbound.eval_hard_bits": "lowerbound",
}
TIME_UNITS = ("ns", "us", "ms", "s/1000")
MODULES = ("cli", "harness", "analysis", "boolfn", "oracle", "correctors", "lowerbound")


class Tracer:
    """Span stack plus per-name totals: calls, inclusive ns, self ns."""

    def __init__(self):
        self.stack = []  # open frames: [child_ns, span_id]
        self.stats = {name: [0, 0, 0] for name in MODULE_OF}
        self.spans = []  # recorded spans: (id, parent, name, start_ns, end_ns)
        self.counts = {}  # named counters observed at span boundaries
        self._patches = []
        self._next_id = 1

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, record=False, observe=None):
        """fn behind a span called `name`.

        observe(args, result, duration_ns, calls_before), if given, runs
        after each call that returns and reads what the span saw, e.g. a
        result field; calls_before maps each span name to its call count
        when the call began.
        """
        stack = self.stack
        stat = self.stats[name]
        clock = time.perf_counter_ns
        spans = self.spans

        if not record and observe is None:
            # Per-query path: keep it as short as possible.
            def leaf(*args, **kwargs):
                frame = [0, None]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += d
                    stat[0] += 1
                    stat[1] += d
                    stat[2] += d - frame[0]

            return leaf

        def traced(*args, **kwargs):
            span_id = parent = None
            if record:
                span_id = self._next_id
                self._next_id += 1
                parent = next((f[1] for f in reversed(stack) if f[1]), None)
            frame = [0, span_id]
            stack.append(frame)
            before = {key: s[0] for key, s in self.stats.items()}
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += d
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0]
                if record:
                    spans.append((span_id, parent, name, t0, t1))
            if observe is not None:
                observe(args, result, d, before)
            return result

        return traced

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start_ns": t0, "end_ns": t1}) + "\n")


def install(tracer, lc):
    """Patch every traced boundary of the package `lc` (a namespace of
    its modules); tracer.restore() undoes it.

    harness, cli and lowerbound import functions by name, so those are
    patched in the importing module.  Corruption `corrupt` methods are
    patched on the class, so find_corrupted_point's isinstance dispatch
    still sees the real ExplicitFlips.
    """
    harness, correctors, cli = lc.harness, lc.correctors, lc.cli
    oracle, boolfn, lowerbound = lc.oracle, lc.boolfn, lc.lowerbound
    stats = tracer.stats

    def module_fn(module, attr, name, **kw):
        tracer.patch(module, attr, tracer.wrap(name, getattr(module, attr), **kw))

    def count_corrector(kind):
        def observe(args, result, d, before):
            tracer.add("corrector_calls", 1)
            tracer.add("trial_queries", result.queries_used)
            tracer.add(kind + "_queries", result.queries_used)
            tracer.add("trial_junta_evals",
                       stats["boolfn.junta_eval"][0] - before["boolfn.junta_eval"])
        return observe

    def count_marking(args, result, d, before):
        params = args[2]
        tracer.add("marking_queries", 2 * params.s * params.r)

    def count_x_search(args, result, d, before):
        tracer.add("x_search_draws", sum(
            stats[key][0] - before[key]
            for key in ("oracle.corrupt.iid", "oracle.corrupt.flips")))

    def count_report(args, result, d, before):
        tracer.add("report_bytes", os.path.getsize(args[2]))

    def count_influence_check(args, result, d, before):
        tracer.add("junta_redraws", 0 if result.passes_threshold else 1)

    def count_distinguisher(args, result, d, before):
        strategy, trials = args[0], args[4]
        tracer.add("lb_trials." + strategy, trials)
        tracer.add("lb_ns." + strategy, d)

    module_fn(harness, "cube_sum_correct", "harness.cube_sum_correct",
              record=True, observe=count_corrector("cube"))
    module_fn(harness, "influence_correct", "harness.influence_correct",
              record=True, observe=count_corrector("influence"))
    module_fn(harness, "find_corrupted_point", "harness.find_corrupted_point",
              record=True, observe=count_x_search)
    module_fn(harness, "derive_seed", "harness.derive_seed")
    module_fn(harness, "sample_random_junta", "analysis.sample_random_junta")
    module_fn(harness, "min_influence_report", "analysis.min_influence_report",
              observe=count_influence_check)
    module_fn(correctors, "identify_influencing_parts",
              "correctors.identify_influencing_parts", record=True,
              observe=count_marking)
    module_fn(correctors, "build_masked_input", "correctors.build_masked_input",
              record=True)
    module_fn(cli, "run_correction_experiment", "harness.run_correction_experiment",
              record=True)
    module_fn(cli, "emit_report", "cli.emit_report", record=True,
              observe=count_report)
    module_fn(cli, "run_distinguisher", "lowerbound.run_distinguisher",
              record=True, observe=count_distinguisher)
    module_fn(lowerbound, "sample_hard_instance", "lowerbound.sample_hard_instance")
    if hasattr(lowerbound, "_eval_hard_bits"):  # private; may be refactored away
        module_fn(lowerbound, "_eval_hard_bits", "lowerbound.eval_hard_bits")

    tracer.patch(oracle.NoisyOracle, "query",
                 tracer.wrap("oracle.query", oracle.NoisyOracle.query))
    tracer.patch(oracle.IidFlips, "corrupt",
                 tracer.wrap("oracle.corrupt.iid", oracle.IidFlips.corrupt))
    tracer.patch(oracle.ExplicitFlips, "corrupt",
                 tracer.wrap("oracle.corrupt.flips", oracle.ExplicitFlips.corrupt))

    bits_fn = boolfn.JuntaSpec.bits_fn

    def traced_bits_fn(spec):
        return tracer.wrap("boolfn.junta_eval", bits_fn(spec))

    tracer.patch(boolfn.JuntaSpec, "bits_fn", traced_bits_fn)


def layer_metrics(tracer, trials):
    """Per-layer figures from a tracer whose experiments held `trials`
    trials in all.  A layer the workload never calls reads 0."""
    stats, counts = tracer.stats, tracer.counts

    def calls(name):
        return stats[name][0]

    def mean_ns(name):
        c, total, _ = stats[name]
        return total / c if c else 0.0

    def per(value, base):
        return value / base if base else 0.0

    correctors = counts.get("corrector_calls", 0)
    self_ns = {m: 0 for m in MODULES}
    for name, (_, _, own) in stats.items():
        self_ns[MODULE_OF[name]] += own

    # The query-bound phases: influence marking and the whole cube walk.
    phase_ns = (stats["correctors.identify_influencing_parts"][1]
                + stats["harness.cube_sum_correct"][1])
    phase_queries = counts.get("marking_queries", 0) + counts.get("cube_queries", 0)

    in_trials = (stats["harness.run_correction_experiment"][1]
                 - stats["harness.cube_sum_correct"][1]
                 - stats["harness.influence_correct"][1]
                 - stats["harness.find_corrupted_point"][1]
                 - stats["analysis.sample_random_junta"][1]
                 - stats["analysis.min_influence_report"][1])
    uni = "uniform-random-queries"
    cube = "cube-sum-at-x_star"

    m = {
        "boolfn.junta_eval_calls": (per(counts.get("trial_junta_evals", 0), correctors), "count"),
        "boolfn.junta_eval_ns": (mean_ns("boolfn.junta_eval"), "ns"),
        "oracle.corrupt_ns.iid": (mean_ns("oracle.corrupt.iid"), "ns"),
        "oracle.corrupt_ns.flips": (mean_ns("oracle.corrupt.flips"), "ns"),
        "oracle.queries_per_trial": (per(counts.get("trial_queries", 0), correctors), "count"),
        "oracle.fused_ns_per_query": (per(phase_ns, phase_queries), "ns"),
        "correctors.marking_ms": (mean_ns("correctors.identify_influencing_parts") / 1e6, "ms"),
        "correctors.mask_us": (mean_ns("correctors.build_masked_input") / 1e3, "us"),
        "correctors.final_query_us": (mean_ns("oracle.query") / 1e3, "us"),
        "correctors.cube_walk_us": (mean_ns("harness.cube_sum_correct") / 1e3, "us"),
        "harness.trial_overhead_us": (per(in_trials, correctors) / 1e3, "us"),
        "harness.derive_seed_us": (mean_ns("harness.derive_seed") / 1e3, "us"),
        "harness.emit_report_ms": (mean_ns("cli.emit_report") / 1e6, "ms"),
        "harness.report_bytes": (per(counts.get("report_bytes", 0), calls("cli.emit_report")), "bytes"),
        "harness.x_search_ms": (mean_ns("harness.find_corrupted_point") / 1e6, "ms"),
        "harness.x_search_draws": (per(counts.get("x_search_draws", 0), calls("harness.find_corrupted_point")), "count"),
        "analysis.base_build_ms": (per(stats["analysis.sample_random_junta"][1]
                                       + stats["analysis.min_influence_report"][1],
                                       calls("harness.run_correction_experiment")) / 1e6, "ms"),
        "analysis.junta_redraws": (per(counts.get("junta_redraws", 0), calls("harness.run_correction_experiment")), "count"),
        "lowerbound.sample_instance_us": (mean_ns("lowerbound.sample_hard_instance") / 1e3, "us"),
        "lowerbound.uniform_s": (per(counts.get("lb_ns." + uni, 0), counts.get("lb_trials." + uni, 0)) * 1e3 / 1e9, "s/1000"),
        "lowerbound.cube_sum_s": (per(counts.get("lb_ns." + cube, 0), counts.get("lb_trials." + cube, 0)) * 1e3 / 1e9, "s/1000"),
        "lowerbound.query_eval_ns": (mean_ns("lowerbound.eval_hard_bits"), "ns"),
    }
    for module in MODULES:
        m[module + ".self_us_per_trial"] = (per(self_ns[module], trials) / 1e3, "us")
    return m
