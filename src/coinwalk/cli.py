"""Command-line entry point for batch experiments.

Subcommands mirror the spec kinds -- ``analyze``, ``simulate``,
``ensemble``, ``sweep`` -- each taking a JSON spec file plus flags for
the seed, output and worker count -- and ``predict`` evaluates the
scaling regime for one (gamma, d, m) triple directly from flags.

Exit codes: 0 success, 2 spec validation failure, 3 at least one grid
point failed (its row carries the error message), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import (FORMATS, ResultRow, SpecError, check_seed, emit, fill_row,
                      load_spec, run_experiment)
from .moments import predict_scaling

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_PARTIAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinwalk",
        description="Coincidence-time analytics and walker simulation on random graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "analyze": "Build each graph in the spec's grid and record degree "
                   "statistics and closed-form moments.",
        "simulate": "Run the two-walker Monte Carlo per grid point and compare "
                    "against the coincidence-time predictions.",
        "ensemble": "Estimate moments of D and D2 over replicate graphs per grid point.",
        "sweep": "Sweep power-law parameters and record the measured "
                 "meeting-rate ratio against its predicted regime.",
    }
    for name, help_text in descriptions.items():
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        cmd.add_argument("--spec", required=True, metavar="FILE",
                         help="JSON experiment spec (its kind must match this subcommand)")
        cmd.add_argument("--out", metavar="FILE", help="output file (default stdout)")
        cmd.add_argument("--format", choices=FORMATS, default="csv",
                         help="output format (default csv)")
        cmd.add_argument("--seed", type=int,
                         help="master seed (overrides the spec)")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="worker threads across grid points "
                              "(default 1; identical output either way)")
    pred = sub.add_parser(
        "predict",
        help="Evaluate the scaling-regime prediction for one (gamma, d, m) triple.",
        description="Evaluate the scaling-regime prediction for one (gamma, d, m) triple.")
    pred.add_argument("--gamma", type=float, required=True, help="power-law exponent (> 2)")
    pred.add_argument("--d", type=float, required=True, help="mean expected degree (> 0)")
    pred.add_argument("--m", type=float, required=True, help="maximum expected degree (> d)")
    pred.add_argument("--out", metavar="FILE", help="output file (default stdout)")
    pred.add_argument("--format", choices=FORMATS, default="csv")
    return parser


def _emit_or_die(rows, fmt: str, path: str | None) -> int:
    try:
        text = emit(rows, fmt=fmt, path=path)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    if path is None:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "predict":
        try:
            pred = predict_scaling(args.gamma, args.d, args.m)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SPEC
        row = fill_row(ResultRow(row=0, kind="predict", gamma=args.gamma, d=args.d,
                                 m=args.m), pred)
        return _emit_or_die([row], args.format, args.out)
    try:
        spec = load_spec(args.spec)
        if spec.kind != args.command:
            raise SpecError(
                f"spec kind {spec.kind!r} does not match subcommand {args.command!r}")
        if args.seed is not None:
            spec = replace(spec, seed=check_seed(args.seed))
        if args.jobs < 1:
            raise SpecError(f"jobs must be at least 1, got {args.jobs}")
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OSError as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return EXIT_IO
    rows = run_experiment(spec, jobs=args.jobs)
    code = _emit_or_die(rows, args.format, args.out)
    if code != EXIT_OK:
        return code
    failed = sum(1 for row in rows if row.error)
    if failed:
        print(f"warning: {failed} of {len(rows)} grid points failed; "
              "see the error column", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
