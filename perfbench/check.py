"""Correctness check of one run against the recorded reference.

Values of order one (slopes, R^2, sup errors, gamma/eps^2, final-time
norms) must match the reference to REL_TOL relative. Values that are
zero up to roundoff (closure, moment and quadrature residuals, mass
drift) carry no relative meaning and are checked against their bounds,
fixed here when the reference was recorded.

Record the reference (one run per workload on the untranslated README
default profiles) with

    python3 perfbench/check.py --record
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Translated seeds reproduce the reference to about 1e-12 relative, and a
# reordering of floating-point work is expected to stay near 1e-10; a
# change of the numerical method moves these values far more than 1e-7.
REL_TOL = 1e-7

QUADRATURE_DEFECT_MAX = 1e-12  # the runner's own window
P1_RESIDUAL_MAX = 1e-8  # radhydro.kinetic.P1_RESIDUAL_LIMIT


def _final_row(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: float(v) for name, v in zip(rows[0], rows[-1])}


def acceptance_values(summary, out_dir: str) -> tuple[dict, dict]:
    """(values, bounded) of one run.

    values: name -> number compared relatively.
    bounded: name -> (number, bound) for values that are zero up to roundoff.
    """
    values, bounded = {}, {}
    b = summary.config["bounds"]
    if summary.mode in ("convergence-study", "simulate-limit"):
        final = _final_row(os.path.join(out_dir, "limit_series.csv"))
        final.pop("closure_residual")  # bounded below as the max over time
        values.update({f"limit_final.{k}": v for k, v in final.items()})
    for key, fit in summary.rate_fits.items():
        values[f"{key}.slope"] = fit["slope"]
        values[f"{key}.r_squared"] = fit["r_squared"]
        for eps, err in zip(fit["eps_values"], fit["errors"]):
            values[f"{key}.sup_error[{eps:g}]"] = err
    for eps, g in summary.gamma.get("per_eps", {}).items():
        values[f"gamma_over_eps2[{eps}]"] = g
    if "max_halving_ratio" in summary.gamma:
        values["gamma_halving_ratio"] = summary.gamma["max_halving_ratio"]
    if "spread" in summary.hypothesis:
        values["hypothesis_spread"] = summary.hypothesis["spread"]
    for eps, drift in summary.conservation.get("per_eps", {}).items():
        bounded[f"mass_drift[{eps}]"] = (drift, b["mass_drift_max"])
    if "limit_run" in summary.conservation:
        bounded["mass_drift[limit]"] = (summary.conservation["limit_run"], b["mass_drift_max"])
    for bound in summary.bounds_report:
        if bound["name"] == "closure_residual":
            bounded["closure_residual"] = (bound["value"], b["closure_residual_max"])
    if summary.closure is not None:
        c = summary.closure
        for key, defect in c["quadrature"].items():
            bounded[f"quadrature.{key}"] = (defect, QUADRATURE_DEFECT_MAX)
        bounded["p1_projection_residual"] = (c["p1_projection_residual"], P1_RESIDUAL_MAX)
        for pair, res in c["moment_residuals"].items():
            for key, r in res.items():
                bounded[f"moment_residual[{pair}].{key}"] = (r, b["moment_residual_max"])
    return values, bounded


def check_run(summary, out_dir: str, reference: dict) -> list[str]:
    """Failure messages; empty when the run is correct."""
    failures = [
        f"bound {r['name']} failed: {r['value']!r} outside {r['window']}"
        for r in summary.bounds_report
        if not r["passed"]
    ]
    if summary.exit_status != 0:
        failures.append(f"exit status {summary.exit_status}")
    values, bounded = acceptance_values(summary, out_dir)
    want_values = reference["values"]
    if set(values) != set(want_values):
        failures.append(
            f"acceptance values differ in name: missing {sorted(set(want_values) - set(values))}, "
            f"extra {sorted(set(values) - set(want_values))}"
        )
    for name in sorted(set(values) & set(want_values)):
        got, want = values[name], want_values[name]
        if not (math.isfinite(got) and abs(got - want) <= REL_TOL * abs(want)):
            failures.append(f"{name} = {got!r}, reference {want!r} (rel tol {REL_TOL:g})")
    want_bounded = reference["bounded"]
    if set(bounded) != set(want_bounded):
        failures.append(
            f"bounded values differ in name: missing {sorted(set(want_bounded) - set(bounded))}, "
            f"extra {sorted(set(bounded) - set(want_bounded))}"
        )
    for name in sorted(set(bounded) & set(want_bounded)):
        got = bounded[name][0]
        limit = want_bounded[name]["bound"]
        if not (math.isfinite(got) and 0.0 <= got <= limit):
            failures.append(f"{name} = {got!r} outside [0, {limit:g}]")
    return failures


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _record() -> None:
    from bench import import_radhydro, workload_dir
    from workloads import WORKLOADS, make_config

    import_radhydro()
    from radhydro.config import parse_config
    from radhydro.runner import run

    out = {"rel_tol": REL_TOL, "workloads": {}}
    for name in WORKLOADS:
        out_dir = workload_dir(name, "reference")
        summary = run(parse_config(make_config(name, None, out_dir)), threads=1)
        values, bounded = acceptance_values(summary, out_dir)
        out["workloads"][name] = {
            "values": values,
            "bounded": {k: {"value": v, "bound": lim} for k, (v, lim) in bounded.items()},
        }
        print(f"{name}: {len(values)} values, {len(bounded)} bounded", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/check.py --record")
    _record()
