"""Command-line workbench.

Subcommands: correct, lowerbound, influence, ambiguity, bench.
Exit codes: 0 success; 2 bad input (a ConfigError, which names the
field, or argparse's usage error); 1 an I/O failure, an internal fault,
which propagates with its traceback, or a failed `bench` criterion.
"""

from __future__ import annotations

import argparse
import os
import sys

from .boolfn import ConfigError, fraction_low_influence
from .harness import (ALGOS, REPORT_ENCODER, X_MODES, ExperimentConfig, emit_report,
                      run_correction_experiment)
from .lowerbound import maj_ambiguity_check, run_distinguisher


def _add_correct(sub):
    p = sub.add_parser("correct", help="run a correction experiment")
    p.add_argument("--algo", required=True, choices=ALGOS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--corruption", default="none",
                   help="none | flips:<file> | iid:<eps>:<seed>")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, dest="master_seed", metavar="SEED")
    p.add_argument("--x-mode", default="random", choices=X_MODES)
    p.add_argument("--x", dest="x_hex", default=None, help="hex point for fixed-hex mode")
    p.add_argument("--repeat-t", type=int, default=None,
                   help="odd majority-vote repetition count")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_correct)


def _add_lowerbound(sub):
    p = sub.add_parser("lowerbound", help="run a distinguisher experiment")
    p.add_argument("--strategy", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--queries", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_lowerbound)


def _add_influence(sub):
    p = sub.add_parser("influence", help="sample random cores, report low-influence fraction")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(run=_cmd_influence)


def _add_ambiguity(sub):
    p = sub.add_parser("ambiguity", help="exhaustive majority-ambiguity check")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_ambiguity)


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
    sub.add_parser("bench", help="run the full acceptance suite").set_defaults(run=_cmd_bench)
    return parser


def _cmd_correct(args) -> int:
    # Every destination of the correct parser but out and run is a field.
    cfg = ExperimentConfig(**{f: getattr(args, f) for f in ExperimentConfig._fields})
    print(emit_report(*run_correction_experiment(cfg), args.out))
    return 0


def _cmd_lowerbound(args) -> int:
    report = run_distinguisher(
        args.strategy, args.queries, args.n, args.k, args.trials, args.seed
    )
    line = REPORT_ENCODER.encode(report)
    with open(args.out, "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


def _cmd_influence(args) -> int:
    frac = fraction_low_influence(args.k, args.samples, args.seed)
    print(REPORT_ENCODER.encode(
        {"k": args.k, "samples": args.samples, "seed": args.seed,
         "low_influence_fraction": frac}))
    return 0


def _cmd_ambiguity(args) -> int:
    print(REPORT_ENCODER.encode(maj_ambiguity_check(args.n)))
    return 0


def _cmd_bench(_args) -> int:
    from .acceptance import run_all

    return 0 if all(run_all()) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    # Opening a dangling symlink creates the file it names, so that file
    # is the one checked and, on a bad config, removed; the link is kept.
    real_out = None if out is None else os.path.realpath(out)
    new_out = real_out is not None and not os.path.lexists(real_out)
    try:
        if out is not None:
            # An unwritable --out fails before any trial; "a" keeps an
            # existing report intact when the config turns out to be bad.
            open(out, "a").close()
        return args.run(args)
    except ConfigError as exc:
        if new_out:
            os.remove(real_out)
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
