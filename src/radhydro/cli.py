"""Command-line entry point.

Usage:
    radhydro <mode> --config PATH [--out DIR] [--strict | --no-strict]

where <mode> is one of simulate-eps, simulate-limit, convergence-study,
closure-check. --out overrides the config's out_dir. With --strict
(the default) the process exits nonzero when any configured acceptance
bound fails; --no-strict always exits 0 for completed runs but still
reports the misses. Every run is one thread: the members of an eps
sweep advance in lockstep.

Exit codes: 1 a bound failed (strict), 2 the config could not be read
or did not validate, 3 the run failed (a solver failure, or outputs
that cannot be written).
"""

from __future__ import annotations

import argparse
import sys

from .config import MODES, load_config
from .errors import RadHydroError
from .runner import run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radhydro",
        description="Pseudo-spectral radiation-hydrodynamics runs and studies",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} job")
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--strict",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="exit nonzero if any configured bound fails (default on)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, mode=args.mode)
    except RadHydroError as exc:
        print(f"radhydro: {exc}", file=sys.stderr)
        return 2

    try:
        summary = run(config, out_dir=args.out)
    except (RadHydroError, OSError) as exc:
        print(f"radhydro: run failed: {exc}", file=sys.stderr)
        return 3

    for bound in summary.bounds_report:
        status = "pass" if bound["passed"] else "FAIL"
        print(f"[{status}] {bound['name']} = {bound['value']}", file=sys.stderr)
    print(
        f"radhydro: {config.mode} finished in {summary.wall_time_s:.2f}s"
        f" (exit status {summary.exit_status})",
        file=sys.stderr,
    )
    if args.strict:
        return summary.exit_status
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
