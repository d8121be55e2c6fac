"""Run orchestration and deterministic result emission.

One process drives one of four run kinds: a single finite-eps
simulation, a single limit simulation, an eps-sweep convergence study,
or a kinetic closure check. ``run`` looks the mode up in one table; each
mode's function writes its series and returns, by name, the
``RunSummary`` fields it fills.

The three solver modes are one streaming loop, ``_march``. It zips the
samples of the limit run with those of an ``EpsBatch`` of members (none
for simulate-limit, one for simulate-eps, the whole sweep for a
convergence study); each system steps with its own stable dt between
output times, and the members of a sweep advance in lockstep with the
smallest stable dt of any member. At every output time the loop writes
the limit row, every member's error row (the norms of all members come
from the half spectra the states carry) and, for simulate-eps, the
member's state row straight to the open CSV files. It keeps only the
running values the summary needs: the sup error norms, the largest gamma
of each member and the largest mass deviation from t = 0. No state, row or record is kept
per sample, so memory does not grow with the sample count, and a run
that fails leaves its series written up to the last completed sample and
writes no summary. The modes differ only in the members they march, the
files they write and the summary fields they fill.

One routine gives every state-norm row (limit and eps), from the half
spectra the state carries, with no transform. Time series go to CSV
(one column per tracked quantity, 17 significant digits), run summaries
to JSON with sorted keys. Identical configurations produce byte-identical files; wall
time is therefore reported on the console only, never written to the
output files.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import time as _time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    EnergyRecord,
    batch_error_squares,
    fit_rate,
    hypothesis_deviation,
    well_prepared_init,
)
from .config import RunConfig, build_limit_initial, build_shapes
from .errors import DegenerateFit, TimeMismatch
from .kinetic import KineticField, make_ordinates, moment_system_check
from .radiation import RadiationMoments, limit_I0, limit_closure_residual, limit_q
from .spectral import SpectralField, grad, sobolev_squares
from .stepping import StepControl, cfl_dt, step_batch, step_limit

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


def _row(values) -> str:
    """One CSV line: %.16e floats, comma separated, LF ending."""
    return ",".join(format(v, ".16e") for v in values) + "\n"


def _open_series(stack: ExitStack, path, header: list[str]):
    """Open a CSV series (closed with stack) and write its header row."""
    fh = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
    fh.write(",".join(header) + "\n")
    return fh


def emit_series(path, header: list[str], rows) -> None:
    """Write a CSV time series: header row, LF endings, %.16e floats."""
    with ExitStack() as stack:
        _open_series(stack, path, header).writelines(map(_row, rows))


def emit_summary(summary: RunSummary, path) -> None:
    """Write the run summary as sorted-key JSON (volatile fields dropped)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(summary.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _output_times(t_end: float, interval: float):
    """The output times after t = 0: the multiples of interval, then t_end."""
    i, t = 0, 0.0
    while t < t_end - _LAND_TOL:
        i += 1
        t = min(i * interval, t_end)
        yield t


def _sampled(state, stepper, params, config: RunConfig, name: str):
    """The states at every output time, including t = 0, one at a time.

    Between output times the run steps with the largest dt the CFL
    bounds allow, spread evenly so that it lands on the output time.
    """
    yield state
    for t_target in _output_times(config.t_end, config.output_interval):
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


def _state_norm_header(config: RunConfig, with_radiation: bool, extra=()) -> list[str]:
    header = ["time"]
    for s in config.sobolev_indices:
        header += [f"rho_h{s}", f"u_h{s}", f"theta_h{s}"]
        if with_radiation:
            header += [f"I0_h{s}", f"I1_h{s}"]
    return header + list(extra)


def _state_row(grid, time: float, spectra: np.ndarray, indices) -> list:
    """time, then per index s the H^s norms of rho, u, theta (, I0, I1).

    spectra stacks the half spectra of one state's fields:
    (n+2, *half_shape) for the limit system or (2n+3, *half_shape) with
    the moments.
    """
    n = grid.n_dims
    squares = sobolev_squares(grid, spectra, indices)  # (index, field)
    starts = [i for i in (0, 1, n + 1, n + 2, n + 3) if i < len(spectra)]
    return [time, *np.sqrt(np.add.reduceat(squares, starts, axis=1)).ravel()]


def _error_header(config: RunConfig) -> list[str]:
    header = ["time"]
    for s in config.sobolev_indices:
        header += [f"fluid_err_h{s}", f"rad_err_h{s}"]
    return header + ["fluid_energy", "full_energy", "gamma"]


@dataclass(frozen=True)
class _Marched:
    """The running values of a march that the summaries use.

    closure_residual: largest limit closure residual (-inf when the limit
        series is not written).
    limit_drift: relative mass drift of the limit run.
    sup: (index, fluid/radiation, member) sup-in-time error norms.
    gamma_over_eps2: largest gamma / eps^2 per member.
    drift: relative mass drift per member.
    """

    closure_residual: float
    limit_drift: float
    sup: np.ndarray
    gamma_over_eps2: list[float]
    drift: list[float]


def _march(
    config: RunConfig, out_dir: str, base, init=None, limit_csv=None, error_csvs=(), state_csv=None
) -> _Marched:
    """March the limit run from base and the members of the EpsBatch init
    (None: no members) together, writing their rows as the samples pass.

    limit_csv names the limit series, error_csvs one error series per
    member and state_csv the state series of a one-member batch; a None
    name is not written. The files are closed when the march ends, also
    when it raises, so a failed run keeps every completed sample's rows.
    """
    params, indices = config.params, config.sobolev_indices
    acc = indices.index(config.acceptance_index)
    grid = base.grid
    limits = _sampled(base, lambda s, dt: step_limit(s, params, dt), params, config, "limit run")
    members = () if init is None else init.eps
    if members:
        name = f"eps = {members[0]:g}" if len(members) == 1 else "eps sweep"
        batches = _sampled(init, lambda b, dt: step_batch(b, params, dt), params, config, name)
        mass0 = _mass(init.fluid[0], grid)
    else:
        batches = itertools.repeat(None)
    limit_mass0 = _mass(base.fluid[0], grid)
    closure, limit_dm = -math.inf, 0.0
    sup, dm, gamma = 0.0, 0.0, [-math.inf] * len(members)
    with ExitStack() as stack:
        path = lambda name: os.path.join(out_dir, name)
        limit_fh = state_fh = None
        if limit_csv is not None:
            header = _state_norm_header(config, with_radiation=False, extra=("closure_residual",))
            limit_fh = _open_series(stack, path(limit_csv), header)
        error_fhs = [_open_series(stack, path(n), _error_header(config)) for n in error_csvs]
        if state_csv is not None:
            header = _state_norm_header(config, with_radiation=True)
            state_fh = _open_series(stack, path(state_csv), header)

        for ls in limits:
            # next() rather than zip, and b dropped at the end: zip's
            # reused result tuple, like the name b, would keep the last
            # sampled batch alive while the generator steps on from it.
            b = next(batches)
            limit_dm = np.maximum(limit_dm, np.abs(_mass(ls.fluid[0], grid) - limit_mass0))
            if limit_fh is not None:
                theta = SpectralField.from_values(grid, ls.fluid[-1])
                residual = limit_closure_residual(theta, limit_q(theta))
                closure = max(closure, residual)
                limit_fh.write(_row(_state_row(grid, ls.time, ls.spectrum, indices) + [residual]))
            if b is None:
                continue
            if state_fh is not None:
                spectra = np.concatenate([b.spectrum[:, 0], b.rad[:, 0]])
                state_fh.write(_row(_state_row(grid, b.time, spectra, indices)))
            squares = batch_error_squares(b, ls, indices)  # (index, fluid/rad, member)
            norms = np.sqrt(squares)
            sup = np.maximum(sup, norms)
            dm = np.maximum(dm, np.abs(_mass(b.fluid[0], grid) - mass0))
            for e, (eps, fh) in enumerate(zip(members, error_fhs)):
                rec = EnergyRecord.from_squares(b.time, *squares[acc, :, e].tolist(), eps)
                gamma[e] = max(gamma[e], rec.gamma)
                energies = [rec.fluid_energy, rec.full_energy, rec.gamma]
                fh.write(_row([b.time, *norms[:, :, e].ravel(), *energies]))
            del b

    return _Marched(
        closure_residual=closure,
        limit_drift=float(limit_dm / np.abs(limit_mass0)),
        sup=sup,
        gamma_over_eps2=[g / eps**2 for g, eps in zip(gamma, members)],
        drift=(dm / np.abs(mass0)).tolist() if members else [],
    )


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
    base = build_limit_initial(config)
    s_acc = config.acceptance_index
    # All members advance in lockstep with the smallest stable dt of any
    # member: the exact radiation substep makes the bound eps-independent.
    sweep = config.eps_list  # strictly decreasing
    init = well_prepared_init(base, sweep, config.perturbation_amp, build_shapes(config))
    lhs = (hypothesis_deviation(init, base, s_acc) / sweep).tolist()
    m = _march(
        config, out_dir, base, init,
        limit_csv="limit_series.csv",
        error_csvs=[f"errors_eps_{_eps_tag(eps)}.csv" for eps in sweep],
    )

    rate_fits = {}
    for i, s in enumerate(config.sobolev_indices):
        for f, family in enumerate(("fluid", "radiation")):
            try:
                fit = fit_rate([(eps, float(m.sup[i, f, e])) for e, eps in enumerate(sweep)])
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
    per_eps = lambda values: {_eps_tag(eps): v for eps, v in zip(sweep, values)}
    gammas = m.gamma_over_eps2
    gamma = {
        "per_eps": per_eps(gammas),
        "max_halving_ratio": _halving_ratio(gammas),
        "limit": b["gamma_limit"],
    }
    hypothesis = {"per_eps": per_eps(lhs), "spread": _spread(lhs), "amp": config.perturbation_amp}
    conservation = {"per_eps": per_eps(m.drift), "limit_run": m.limit_drift}

    fluid_fit = rate_fits[f"fluid_s{s_acc}"]
    rad_fit = rate_fits[f"radiation_s{s_acc}"]
    bounds_report = [
        _bound("fluid_slope", fluid_fit.get("slope"), b["fluid_slope"]),
        _bound("fluid_r_squared", fluid_fit.get("r_squared"), [b["r_squared_min"], math.inf]),
        _bound("radiation_slope", rad_fit.get("slope"), b["radiation_slope"]),
        _bound("gamma_over_eps2_max", max(gammas), [0.0, b["gamma_limit"]]),
        _bound("gamma_halving_ratio", gamma["max_halving_ratio"], [0.0, b["gamma_spread_max"]]),
        _bound("hypothesis_spread", hypothesis["spread"], [0.0, b["hypothesis_spread_max"]]),
        _bound("closure_residual", m.closure_residual, [0.0, b["closure_residual_max"]]),
        _bound("mass_drift", max(*m.drift, m.limit_drift), [0.0, b["mass_drift_max"]]),
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
    eps = config.eps
    base = build_limit_initial(config)
    init = well_prepared_init(base, (eps,), config.perturbation_amp, build_shapes(config))
    m = _march(
        config, out_dir, base, init, error_csvs=["errors_series.csv"], state_csv="eps_series.csv"
    )
    (gamma_worst,), (drift,) = m.gamma_over_eps2, m.drift
    return dict(
        gamma={"per_eps": {_eps_tag(eps): gamma_worst}, "limit": config.bounds["gamma_limit"]},
        conservation={"per_eps": {_eps_tag(eps): drift}},
        bounds_report=[
            _bound("gamma_over_eps2_max", gamma_worst, [0.0, config.bounds["gamma_limit"]]),
            _bound("mass_drift", drift, [0.0, config.bounds["mass_drift_max"]]),
        ],
    )


def _run_simulate_limit(config: RunConfig, out_dir: str):
    m = _march(config, out_dir, build_limit_initial(config), limit_csv="limit_series.csv")
    b = config.bounds
    return dict(
        conservation={"limit_run": m.limit_drift},
        bounds_report=[
            _bound("closure_residual", m.closure_residual, [0.0, b["closure_residual_max"]]),
            _bound("mass_drift", m.limit_drift, [0.0, b["mass_drift_max"]]),
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
