"""Run orchestration and deterministic result emission.

One process drives one of four run kinds: a single finite-eps
simulation, a single limit simulation, an eps-sweep convergence study,
or a kinetic closure check. ``run`` looks the mode up in one table; each
mode's function writes its series and returns, by name, the
``RunSummary`` fields it fills. The eps runs are ``EpsBatch`` marches
through one sampling loop: the members of a sweep advance in lockstep
with the smallest stable dt of any member, a simulate-eps run is the
one-member case, and at each output time the error rows of all members
come from one batched transform; the eps states are not kept. One
routine gives every state-norm row (limit and eps), from one transform
of the stacked state. Time series go to CSV (one column per tracked
quantity, 17 significant digits), run summaries to JSON with sorted
keys. Identical configurations produce byte-identical files; wall time
is therefore reported on the console only, never written to the output
files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time as _time
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    EnergyRecord,
    batch_error_squares,
    fit_rate,
    gamma_bound_check,
    hypothesis_deviation,
    well_prepared_init,
)
from .config import RunConfig, build_limit_initial, build_shapes
from .errors import DegenerateFit, TimeMismatch
from .kinetic import KineticField, make_ordinates, moment_system_check
from .radiation import RadiationMoments, limit_I0, limit_closure_residual, limit_q
from .spectral import SpectralField, grad, sobolev_squares
from .stepping import StepControl, cfl_dt, step_batch, step_eps, step_limit

__all__ = ["RunSummary", "run", "emit_series", "emit_summary"]

_LAND_TOL = 1e-12


@dataclass
class RunSummary:
    """Everything a completed run reports.

    wall_time_s is console-only; emit_summary excludes it so repeated
    runs produce byte-identical files.
    """

    mode: str
    config: dict
    wall_time_s: float
    bounds_report: list[dict]
    exit_status: int
    rate_fits: dict = field(default_factory=dict)
    gamma: dict = field(default_factory=dict)
    hypothesis: dict = field(default_factory=dict)
    conservation: dict = field(default_factory=dict)
    closure: dict | None = None

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d.pop("wall_time_s")
        return d


def emit_series(path, header: list[str], rows) -> None:
    """Write a CSV time series: header row, LF endings, %.16e floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".16e") for v in row) + "\n")


def emit_summary(summary: RunSummary, path) -> None:
    """Write the run summary as sorted-key JSON (volatile fields dropped)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(summary.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sample_times(t_end: float, interval: float) -> list[float]:
    times = [0.0]
    i = 0
    while times[-1] < t_end - _LAND_TOL:
        i += 1
        times.append(min(i * interval, t_end))
    return times


def _sampled(state, stepper, params, config: RunConfig, name: str):
    """The states at every output time, including t = 0, one at a time.

    Between output times the run steps with the largest dt the CFL
    bounds allow, spread evenly so that it lands on the output time.
    """
    yield state
    for t_target in _sample_times(config.t_end, config.output_interval)[1:]:
        while t_target - state.time > _LAND_TOL:
            control = StepControl(
                t_end=t_target,
                dt=config.dt_max,
                cfl_advective=config.cfl_advective,
                cfl_diffusive=config.cfl_diffusive,
            )
            dt_stable = cfl_dt(state, params, control)
            remaining = t_target - state.time
            n_sub = max(1, math.ceil(remaining / dt_stable - 1e-9))
            state = stepper(state, remaining / n_sub)
        if abs(state.time - t_target) >= 1e-9:
            raise TimeMismatch(
                f"{name}: stepping to t = {t_target!r} reached t = {state.time!r}"
            )
        state = dataclasses.replace(state, time=t_target)
        yield state


def _mass(rho: np.ndarray, grid) -> np.ndarray:
    """Total mass; rho is one field or a (E, *shape) stack of members."""
    return rho.mean(axis=grid.axes) * grid.volume


def _relative_drift(masses):
    m = np.asarray(masses)
    return np.abs(m - m[0]).max(axis=0) / np.abs(m[0])


def _limit_run(base, config: RunConfig):
    """States of the limit run from base at every output time."""
    params = config.params
    stepper = lambda st, dt: step_limit(st, params, dt)
    return list(_sampled(base, stepper, params, config, "limit run"))


def _state_norm_header(config: RunConfig, with_radiation: bool, extra=()) -> list[str]:
    header = ["time"]
    for s in config.sobolev_indices:
        header += [f"rho_h{s}", f"u_h{s}", f"theta_h{s}"]
        if with_radiation:
            header += [f"I0_h{s}", f"I1_h{s}"]
    return header + list(extra)


def _state_row(grid, time: float, values: np.ndarray, indices) -> list:
    """time, then per index s the H^s norms of rho, u, theta (, I0, I1).

    values stacks one state's fields: (n+2, *shape) for the limit system
    or (2n+3, *shape) with the moments; one forward transform.
    """
    n = grid.n_dims
    squares = sobolev_squares(grid, grid.forward(values), indices)  # (index, field)
    starts = [i for i in (0, 1, n + 1, n + 2, n + 3) if i < len(values)]
    return [time, *np.sqrt(np.add.reduceat(squares, starts, axis=1)).ravel()]


def _emit_limit_series(states, config: RunConfig, out_dir: str) -> tuple[float, float]:
    """Write limit_series.csv; returns the largest closure residual and
    the relative mass drift of the limit run."""
    rows = []
    for st in states:
        theta = SpectralField.from_values(st.grid, st.fluid[-1])
        rows.append(
            _state_row(st.grid, st.time, st.fluid, config.sobolev_indices)
            + [limit_closure_residual(theta, limit_q(theta))]
        )
    emit_series(
        os.path.join(out_dir, "limit_series.csv"),
        _state_norm_header(config, with_radiation=False, extra=("closure_residual",)),
        rows,
    )
    drift = _relative_drift([_mass(s.fluid[0], s.grid) for s in states])
    return max(row[-1] for row in rows), float(drift)


def _error_header(config: RunConfig) -> list[str]:
    header = ["time"]
    for s in config.sobolev_indices:
        header += [f"fluid_err_h{s}", f"rad_err_h{s}"]
    return header + ["fluid_energy", "full_energy", "gamma"]


def _error_series(eps_values, batches, limit_states, config: RunConfig) -> list[dict]:
    """Error rows, sup norms, energy records and mass drift per member.

    batches yields an EpsBatch of the members eps_values at every output
    time, in step with limit_states; the batches are not kept.
    """
    indices = config.sobolev_indices
    acc = indices.index(config.acceptance_index)
    rows = [[] for _ in eps_values]
    records = [[] for _ in eps_values]
    masses, sup = [], 0.0
    for b, ls in zip(batches, limit_states):
        squares = batch_error_squares(b, ls, indices)  # (index, fluid/rad, member)
        norms = np.sqrt(squares)
        sup = np.maximum(sup, norms)
        masses.append(_mass(b.fluid[0], b.grid))
        for e, eps in enumerate(eps_values):
            record = EnergyRecord.from_squares(b.time, *squares[acc, :, e].tolist(), eps)
            records[e].append(record)
            rows[e].append(
                [b.time, *norms[:, :, e].ravel(), record.fluid_energy, record.full_energy, record.gamma]
            )
        del b  # the next batch is computed while this one would still be held
    drift = _relative_drift(masses)
    families = ("fluid", "radiation")
    return [
        {
            "eps": eps,
            "rows": rows[e],
            "records": records[e],
            "sup": {
                f"{family}_s{s}": float(sup[i, f, e])
                for i, s in enumerate(indices)
                for f, family in enumerate(families)
            },
            "mass_drift": float(drift[e]),
        }
        for e, eps in enumerate(eps_values)
    ]


def _spread(values) -> float:
    """max/min ratio; values indistinguishable from zero count as equal."""
    floor = 1e-12
    if max(values) < floor:
        return 1.0
    lo = min(values)
    if lo < floor:
        return math.inf
    return max(values) / lo


def _halving_ratio(values) -> float:
    """Worst ratio between consecutive sweep entries (either direction).

    The sweep is ordered by decreasing eps; with errors decaying like a
    power of eps, stability is judged per halving, not end to end.
    """
    floor = 1e-12
    worst = 1.0
    for a, b in zip(values, values[1:]):
        if a < floor and b < floor:
            continue
        if min(a, b) < floor:
            return math.inf
        r = a / b
        worst = max(worst, r, 1.0 / r)
    return worst


def _eps_tag(eps: float) -> str:
    return format(eps, "g")


def _run_convergence(config: RunConfig, out_dir: str):
    params = config.params
    base = build_limit_initial(config)
    shapes = build_shapes(config)
    s_acc = config.acceptance_index

    limit_states = _limit_run(base, config)
    closure_residual, limit_drift = _emit_limit_series(limit_states, config, out_dir)

    # All members advance in lockstep with the smallest stable dt of any
    # member: the exact radiation substep makes the bound eps-independent.
    sweep = config.eps_list  # strictly decreasing
    init = well_prepared_init(base, sweep, config.perturbation_amp, shapes)
    lhs = (hypothesis_deviation(init, base, s_acc) / sweep).tolist()
    batches = _sampled(
        init, lambda b, dt: step_batch(b, params, dt), params, config, "eps sweep"
    )
    del init
    results = _error_series(sweep, batches, limit_states, config)
    for r, lhs_over_eps in zip(results, lhs):
        eps = r["eps"]
        r["hypothesis_lhs_over_eps"] = lhs_over_eps
        r["gamma_over_eps2"] = gamma_bound_check(
            r["records"], eps, config.bounds["gamma_limit"]
        )[0]
        emit_series(
            os.path.join(out_dir, f"errors_eps_{_eps_tag(eps)}.csv"),
            _error_header(config),
            r["rows"],
        )

    rate_fits = {}
    for s in config.sobolev_indices:
        for family in ("fluid", "radiation"):
            pairs = [(r["eps"], r["sup"][f"{family}_s{s}"]) for r in results]
            try:
                fit = fit_rate(pairs)
                rate_fits[f"{family}_s{s}"] = {
                    "eps_values": list(fit.eps_values),
                    "errors": list(fit.errors),
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "r_squared": fit.r_squared,
                }
            except DegenerateFit as exc:
                rate_fits[f"{family}_s{s}"] = {"error": str(exc)}

    b = config.bounds
    per_eps = lambda key: {_eps_tag(r["eps"]): r[key] for r in results}
    gammas = [r["gamma_over_eps2"] for r in results]
    gamma = {
        "per_eps": per_eps("gamma_over_eps2"),
        "max_halving_ratio": _halving_ratio(gammas),
        "limit": b["gamma_limit"],
    }
    hypothesis = {
        "per_eps": per_eps("hypothesis_lhs_over_eps"),
        "spread": _spread([r["hypothesis_lhs_over_eps"] for r in results]),
        "amp": config.perturbation_amp,
    }
    conservation = {"per_eps": per_eps("mass_drift"), "limit_run": limit_drift}

    fluid_fit = rate_fits[f"fluid_s{s_acc}"]
    rad_fit = rate_fits[f"radiation_s{s_acc}"]
    bounds_report = [
        _bound("fluid_slope", fluid_fit.get("slope"), b["fluid_slope"]),
        _bound("fluid_r_squared", fluid_fit.get("r_squared"), [b["r_squared_min"], math.inf]),
        _bound("radiation_slope", rad_fit.get("slope"), b["radiation_slope"]),
        _bound("gamma_over_eps2_max", max(gammas), [0.0, b["gamma_limit"]]),
        _bound("gamma_halving_ratio", gamma["max_halving_ratio"], [0.0, b["gamma_spread_max"]]),
        _bound("hypothesis_spread", hypothesis["spread"], [0.0, b["hypothesis_spread_max"]]),
        _bound("closure_residual", closure_residual, [0.0, b["closure_residual_max"]]),
        _bound(
            "mass_drift",
            max(*conservation["per_eps"].values(), limit_drift),
            [0.0, b["mass_drift_max"]],
        ),
    ]
    return dict(
        rate_fits=rate_fits, gamma=gamma, hypothesis=hypothesis,
        conservation=conservation, bounds_report=bounds_report,
    )


def _bound(name: str, value, window) -> dict:
    lo, hi = window
    passed = value is not None and lo <= value <= hi
    return {
        "name": name,
        "value": value,
        "window": [lo, None if hi == math.inf else hi],
        "passed": bool(passed),
    }


def _run_simulate_eps(config: RunConfig, out_dir: str):
    params = config.params
    eps = config.eps
    base = build_limit_initial(config)
    shapes = build_shapes(config)
    init = well_prepared_init(base, (eps,), config.perturbation_amp, shapes)
    limit_states = _limit_run(base, config)

    state_rows = []

    def batches():
        # One member, through the binding step_batch calls per chunk.
        stepper = lambda b, dt: step_eps(b, params, dt)
        for b in _sampled(init, stepper, params, config, f"eps = {eps:g}"):
            values = np.concatenate([b.fluid[:, 0], b.grid.inverse(b.rad[:, 0])])
            state_rows.append(_state_row(b.grid, b.time, values, config.sobolev_indices))
            yield b

    (series,) = _error_series((eps,), batches(), limit_states, config)
    emit_series(
        os.path.join(out_dir, "eps_series.csv"),
        _state_norm_header(config, with_radiation=True),
        state_rows,
    )
    emit_series(os.path.join(out_dir, "errors_series.csv"), _error_header(config), series["rows"])

    gamma_worst, _ = gamma_bound_check(series["records"], eps, config.bounds["gamma_limit"])
    drift = series["mass_drift"]
    return dict(
        gamma={"per_eps": {_eps_tag(eps): gamma_worst}, "limit": config.bounds["gamma_limit"]},
        conservation={"per_eps": {_eps_tag(eps): drift}},
        bounds_report=[
            _bound("gamma_over_eps2_max", gamma_worst, [0.0, config.bounds["gamma_limit"]]),
            _bound("mass_drift", drift, [0.0, config.bounds["mass_drift_max"]]),
        ],
    )


def _run_simulate_limit(config: RunConfig, out_dir: str):
    states = _limit_run(build_limit_initial(config), config)
    residual, drift = _emit_limit_series(states, config, out_dir)
    return dict(
        conservation={"limit_run": drift},
        bounds_report=[
            _bound("closure_residual", residual, [0.0, config.bounds["closure_residual_max"]]),
            _bound("mass_drift", drift, [0.0, config.bounds["mass_drift_max"]]),
        ],
    )


def _run_closure_check(config: RunConfig, out_dir: str):
    base = build_limit_initial(config)
    theta = SpectralField.from_values(base.grid, base.fluid[-1])
    ords = make_ordinates(config.n_dims, config.ordinates)
    i0 = limit_I0(theta)
    rad = RadiationMoments(I0=i0, I1=-grad(i0))
    field = KineticField.from_p1(rad, ords)
    eps = config.eps if config.eps is not None else 1.0

    n = ords.n_dims
    measure = 2.0 if n == 1 else 2.0 * math.pi
    weight_defect = abs(ords.weights.sum() - measure)
    odd_defect = float(np.abs(ords.weights @ ords.directions).max())
    second = np.einsum("j,ji,jk->ik", ords.weights, ords.directions, ords.directions)
    second_defect = float(np.abs(second - (measure / n) * np.eye(n)).max())

    residual, pair_residuals = moment_system_check(field, theta, eps, config.sigma_pairs)
    per_pair = {}
    worst = 0.0
    for (sigma_a, sigma_s), (r0, r1) in zip(config.sigma_pairs, pair_residuals):
        per_pair[f"sigma_a={sigma_a:g},sigma_s={sigma_s:g}"] = {"r0": r0, "r1": r1}
        worst = max(worst, r0, r1)

    closure = {
        "ordinates": config.ordinates,
        "eps": eps,
        "quadrature": {
            "weight_sum_defect": weight_defect,
            "odd_moment_defect": odd_defect,
            "second_moment_defect": second_defect,
        },
        "p1_projection_residual": residual,
        "moment_residuals": per_pair,
    }
    bounds_report = [
        _bound("moment_residual", worst, [0.0, config.bounds["moment_residual_max"]]),
        _bound("quadrature_defect", max(weight_defect, odd_defect, second_defect), [0.0, 1e-12]),
    ]
    return dict(closure=closure, bounds_report=bounds_report)


# Each mode's run writes its series and returns the RunSummary fields it
# fills, by name; the others keep their defaults.
_MODES = {
    "convergence-study": _run_convergence,
    "simulate-eps": _run_simulate_eps,
    "simulate-limit": _run_simulate_limit,
    "closure-check": _run_closure_check,
}


def run(config: RunConfig, out_dir: str | None = None, threads: int = 1) -> RunSummary:
    """Execute a run and write its outputs under out_dir.

    Returns the summary; the caller decides how exit_status maps to a
    process exit code (strict mode). threads is accepted and ignored
    (the members of an eps sweep advance in lockstep in one thread); the
    keyword stays because the benchmark harness in perfbench/ passes
    threads=1.
    """
    out_dir = out_dir if out_dir is not None else config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    started = _time.perf_counter()

    parts = _MODES[config.mode](config, out_dir)
    summary = RunSummary(
        mode=config.mode,
        config=config.echo,
        wall_time_s=_time.perf_counter() - started,
        exit_status=0 if all(b["passed"] for b in parts["bounds_report"]) else 1,
        **parts,
    )
    emit_summary(summary, os.path.join(out_dir, "summary.json"))
    return summary
