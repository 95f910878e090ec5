"""Command-line workbench.

Subcommands: correct, lowerbound, influence, ambiguity, bench.
Exit codes: 0 success; 2 bad input (a ConfigError, which names the
field); 1 an I/O failure, an internal fault, which propagates with its
traceback, or a failed `bench` criterion.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import fraction_low_influence
from .boolfn import ConfigError
from .harness import ALGOS, X_MODES, ExperimentConfig, emit_report, run_correction_experiment
from .lowerbound import maj_ambiguity_check, run_distinguisher


def _add_correct(sub):
    p = sub.add_parser("correct", help="run a correction experiment")
    p.add_argument("--algo", required=True, choices=ALGOS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--corruption", default="none",
                   help="none | flips:<file> | iid:<eps>:<seed> | trunc:<t> | layer")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x-mode", default="random", choices=X_MODES)
    p.add_argument("--x", dest="x_hex", default=None, help="hex point for fixed-hex mode")
    p.add_argument("--repeat-t", type=int, default=None,
                   help="odd majority-vote repetition count")
    p.add_argument("--out", required=True)


def _add_lowerbound(sub):
    p = sub.add_parser("lowerbound", help="run a distinguisher experiment")
    p.add_argument("--strategy", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--queries", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)


def _add_influence(sub):
    p = sub.add_parser("influence", help="sample random cores, report low-influence fraction")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)


def _add_ambiguity(sub):
    p = sub.add_parser("ambiguity", help="exhaustive majority-ambiguity check")
    p.add_argument("--n", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localcorrect",
        description="Local correction of Boolean functions known up to isomorphism.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    _add_correct(sub)
    _add_lowerbound(sub)
    _add_influence(sub)
    _add_ambiguity(sub)
    sub.add_parser("bench", help="run the full acceptance suite")
    return parser


def _cmd_correct(args) -> int:
    cfg = ExperimentConfig(
        algo=args.algo,
        k=args.k,
        n=args.n,
        corruption=args.corruption,
        trials=args.trials,
        master_seed=args.seed,
        x_mode=args.x_mode,
        x_hex=args.x_hex,
        repeat_t=args.repeat_t,
    )
    # An unwritable --out fails before any trial; "a" keeps an existing
    # report intact when the config turns out to be bad.
    open(args.out, "a").close()
    records, summary = run_correction_experiment(cfg)
    emit_report(records, summary, args.out)
    print(json.dumps({"summary": summary}, sort_keys=True))
    return 0


def _cmd_lowerbound(args) -> int:
    open(args.out, "a").close()
    report = run_distinguisher(
        args.strategy, args.queries, args.n, args.k, args.trials, args.seed
    )
    with open(args.out, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_influence(args) -> int:
    frac = fraction_low_influence(args.k, args.samples, args.seed)
    print(json.dumps(
        {"k": args.k, "samples": args.samples, "seed": args.seed,
         "low_influence_fraction": frac},
        sort_keys=True,
    ))
    return 0


def _cmd_ambiguity(args) -> int:
    print(json.dumps(maj_ambiguity_check(args.n), sort_keys=True))
    return 0


def _cmd_bench(_args) -> int:
    from .acceptance import run_all

    results = run_all()
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "correct": _cmd_correct,
        "lowerbound": _cmd_lowerbound,
        "influence": _cmd_influence,
        "ambiguity": _cmd_ambiguity,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.subcommand](args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
