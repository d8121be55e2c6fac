"""Run orchestration and deterministic result emission.

One process drives one of four run kinds: a single finite-eps
simulation, a single limit simulation, an eps-sweep convergence study,
or a kinetic closure check. ``run`` looks the mode up in one table; each
mode's function writes its series and returns, by name, the
``RunSummary`` fields it fills.

The three solver modes are one streaming loop, ``_march``, over the
samples of one ``EpsBatch``: member 0 is the limit run, eps = 0, whose
moments are the limit closure of its temperature, and the later members
are the eps members (none for simulate-limit, one for simulate-eps, the
whole sweep for a convergence study). It steps with ``step_batch`` and
one stable dt between output times, the smallest of any member, so the
limit run and every member stand at the same time at every step. At
every output time the loop writes the limit row, every member's error
row (the norms of all members come from the half spectra the batch
carries) and, for simulate-eps, the member's state row straight to the
open CSV files. The per-member values are array arithmetic over the
member axis of one ``batch_error_squares`` array per sample. The loop
keeps only the running values the summary needs: the t = 0 error
squares, the sup error norms, the largest gamma of each member and the
largest mass deviation from t = 0 of every member. No state or row is
kept per sample, so memory does not grow with the sample count, and a
run that fails leaves its series written up to the last completed
sample and writes no summary. The modes differ only in the members they
march, the files they write and the summary fields they fill.

One routine gives every state-norm row (limit and eps), and
``limit_closure_residual`` the limit row's closure residual, from the
half spectra the state carries, with no transform; the closure check
takes the moment and theta^4 spectra of the limit state as they are and
transforms nothing either. Time series go to CSV
(one column per tracked quantity, 17 significant digits), run summaries
to JSON with sorted keys. Identical configurations produce byte-identical files; wall
time is therefore reported on the console only, never written to the
output files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time as _time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .analysis import batch_error_squares, fit_rate
from .config import RunConfig
from .errors import DegenerateFit, TimeMismatch
from .fluid import limit_rhs_residual
from .kinetic import make_ordinates, moment_system_check, p1_basis
from .radiation import limit_closure_residual
from .spectral import sobolev_squares
from .stepping import cfl_dt, step_batch

__all__ = ["RunSummary", "run", "emit_summary"]

# Output times are landed to within this fraction of the output interval
# (a shorter remainder is not stepped), and a stepper that misses one by
# 1000 times as much raises TimeMismatch. Relative to the interval, so
# that an interval of any length is stepped, not relabelled.
_LAND_TOL = 1e-9


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
        """The fields but wall_time_s, by name; the values are shared,
        not copied."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "wall_time_s"
        }


def _row(values) -> str:
    """One CSV line: %.16e floats, comma separated, LF ending."""
    return ",".join(format(v, ".16e") for v in values) + "\n"


def _open_series(stack: ExitStack, path, header: list[str]):
    """Open a CSV series (closed with stack) and write its header row."""
    fh = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
    fh.write(",".join(header) + "\n")
    return fh


def emit_summary(summary: RunSummary, path) -> None:
    """Write the run summary as sorted-key JSON (volatile fields dropped)."""
    text = json.dumps(summary.to_json_dict(), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _output_times(t_end: float, interval: float):
    """The output times after t = 0: the multiples of interval, then t_end."""
    i, t = 0, 0.0
    while t < t_end - _LAND_TOL * interval:
        i += 1
        t = min(i * interval, t_end)
        yield t


def _sampled(state, stepper, params, config: RunConfig, name: str):
    """The states at every output time, including t = 0, one at a time.

    Between output times the run steps with the largest dt the CFL
    bounds allow, spread evenly so that it lands on the output time. A
    step that does not move the time forward raises TimeMismatch, so a
    broken stepper cannot loop forever.
    """
    yield state
    tol = _LAND_TOL * config.output_interval
    for t_target in _output_times(config.t_end, config.output_interval):
        while t_target - state.time > tol:
            dt_stable = cfl_dt(
                state, params, config.dt_max, config.cfl_advective, config.cfl_diffusive
            )
            remaining = t_target - state.time
            dt = remaining / max(1, math.ceil(remaining / dt_stable - 1e-9))
            before = state.time
            state = stepper(state, dt)
            if not state.time > before:  # also NaN
                raise TimeMismatch(
                    f"{name}: a step of dt = {dt!r} from t = {before!r} reached t = {state.time!r}"
                )
        if abs(state.time - t_target) >= 1e3 * tol:
            raise TimeMismatch(
                f"{name}: stepping to t = {t_target!r} reached t = {state.time!r}"
            )
        state = dataclasses.replace(state, time=t_target)
        yield state


def _mass(rho: np.ndarray, grid) -> np.ndarray:
    """Total mass of every member of a (E, *shape) stack of densities."""
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

    closure_residual: largest limit closure residual, with the t = 0
        ``fluid.limit_rhs_residual`` (-inf without a limit series).
    limit_drift: relative mass drift of the limit run.
    sup: (index, fluid/radiation, member) sup-in-time error norms.
    initial: (fluid/radiation, member) squared error norms at the
        acceptance index at t = 0.
    gamma_over_eps2: largest gamma / eps^2 per member.
    drift: relative mass drift per member.
    """

    closure_residual: float
    limit_drift: float
    sup: np.ndarray
    initial: np.ndarray
    gamma_over_eps2: list[float]
    drift: list[float]


def _march(
    config: RunConfig, out_dir: str, limit_csv=None, error_csvs=(), state_csv=None
) -> _Marched:
    """March the config's batch (``RunConfig.prepared``: the limit run,
    then the eps members), writing its rows as the samples pass.

    limit_csv names the limit series, error_csvs one error series per
    member and state_csv the state series of a one-member sweep; a None
    name is not written. The files are closed when the march ends, also
    when it raises, so a failed run keeps every completed sample's rows.
    """
    params, indices = config.params, config.sobolev_indices
    acc = indices.index(config.acceptance_index)
    init = config.prepared
    grid, members = init.grid, init.eps[1:]
    eps = np.array(members)
    name = "limit run" if not members else "eps sweep" if members[1:] else f"eps = {members[0]:g}"
    step = lambda b, dt: step_batch(b, params, dt)
    mass0 = _mass(init.fluid[0], grid)
    closure, sup, dm, gamma, initial = -math.inf, 0.0, 0.0, np.full(len(members), -math.inf), None
    with ExitStack() as stack:
        path = lambda name: os.path.join(out_dir, name)
        limit_fh = state_fh = None
        if limit_csv is not None:
            header = _state_norm_header(config, with_radiation=False, extra=("closure_residual",))
            limit_fh = _open_series(stack, path(limit_csv), header)
            base = config.limit_initial
            closure = limit_rhs_residual(grid, base.fluid, base.spectrum, base.rad, params)
        error_fhs = [_open_series(stack, path(n), _error_header(config)) for n in error_csvs]
        if state_csv is not None:
            header = _state_norm_header(config, with_radiation=True)
            state_fh = _open_series(stack, path(state_csv), header)

        for b in _sampled(init, step, params, config, name):
            dm = np.maximum(dm, np.abs(_mass(b.fluid[0], grid) - mass0))
            if limit_fh is not None:
                residual = limit_closure_residual(grid, b.source[0], b.rad[1:, 0])
                closure = max(closure, residual)
                row = _state_row(grid, b.time, b.spectrum[:, 0], indices)
                limit_fh.write(_row(row + [residual]))
            if state_fh is not None:
                spectra = np.concatenate([b.spectrum[:, 1], b.rad[:, 1]])
                state_fh.write(_row(_state_row(grid, b.time, spectra, indices)))
            squares = batch_error_squares(b, indices)  # (index, fluid/rad, member)
            if initial is None:
                initial = squares[acc]
            norms = np.sqrt(squares)
            sup = np.maximum(sup, norms)
            fluid_sq, rad_sq = squares[acc]
            full_sq = fluid_sq + eps * rad_sq  # gamma of every member
            gamma = np.maximum(gamma, full_sq)
            # Per member: the norms, then fluid_energy, full_energy, gamma.
            energies = [norms[acc, 0], np.sqrt(full_sq), full_sq]
            for fh, column in zip(error_fhs, np.vstack([*norms, *energies]).T):
                fh.write(_row([b.time, *column]))
            # Dropped before the generator steps on, so that no third
            # state is alive while it steps from this one.
            del b

    drift = (dm / np.abs(mass0)).tolist()
    return _Marched(
        closure_residual=closure,
        limit_drift=drift[0],
        sup=sup,
        initial=initial,
        # Python's e**2 is pow, whose last bit can differ from numpy's e*e.
        gamma_over_eps2=[g / e**2 for g, e in zip(gamma.tolist(), members)],
        drift=drift[1:],
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


def _halving_ratio(sweep, values) -> float:
    """Worst ratio between the values at consecutive sweep entries
    (either direction), per halving of eps: r^(1/log2(eps_i/eps_(i+1))).

    The sweep is ordered by decreasing eps; with errors decaying like a
    power of eps, stability is judged per halving, not end to end, and
    not per step of a sweep whose steps are not halvings.
    """
    floor = 1e-12
    worst = 1.0
    for eps_a, eps_b, a, b in zip(sweep, sweep[1:], values, values[1:]):
        if a < floor and b < floor:
            continue
        if min(a, b) < floor:
            return math.inf
        r = a / b
        r = max(r, 1.0 / r)
        try:
            worst = max(worst, r ** (1.0 / math.log2(eps_a / eps_b)))
        except OverflowError:  # eps_a / eps_b so near 1 the ratio per halving overflows
            return math.inf
    return worst


def _eps_tag(eps: float) -> str:
    return format(eps, "g")


def _run_convergence(config: RunConfig, out_dir: str):
    s_acc = config.acceptance_index
    # The limit run and the members step with one dt, the smallest stable
    # one of any; the exact radiation substep makes it eps-independent.
    sweep = config.eps_list  # strictly decreasing
    errors = [f"errors_eps_{_eps_tag(eps)}.csv" for eps in sweep]
    m = _march(config, out_dir, limit_csv="limit_series.csv", error_csvs=errors)
    # The well-preparedness functional over eps, from the t = 0 squares.
    fluid, rad = np.sqrt(m.initial)
    lhs = ((fluid + np.sqrt(sweep) * rad) / sweep).tolist()

    rate_fits = {}
    for i, s in enumerate(config.sobolev_indices):
        for f, family in enumerate(("fluid", "radiation")):
            try:
                rate_fits[f"{family}_s{s}"] = fit_rate(zip(sweep, m.sup[i, f].tolist()))
            except DegenerateFit as exc:
                rate_fits[f"{family}_s{s}"] = {"error": str(exc)}

    b = config.bounds
    per_eps = lambda values: {_eps_tag(eps): v for eps, v in zip(sweep, values)}
    gammas = m.gamma_over_eps2
    gamma = {
        "per_eps": per_eps(gammas),
        "max_halving_ratio": _halving_ratio(sweep, gammas),
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
    m = _march(config, out_dir, error_csvs=["errors_series.csv"], state_csv="eps_series.csv")
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
    m = _march(config, out_dir, limit_csv="limit_series.csv")
    b = config.bounds
    return dict(
        conservation={"limit_run": m.limit_drift},
        bounds_report=[
            _bound("closure_residual", m.closure_residual, [0.0, b["closure_residual_max"]]),
            _bound("mass_drift", m.limit_drift, [0.0, b["mass_drift_max"]]),
        ],
    )


def _run_closure_check(config: RunConfig, out_dir: str):
    base = config.limit_initial
    ords = make_ordinates(config.n_dims, config.ordinates)
    intensity = (p1_basis(ords), base.rad[:, 0])
    eps = config.eps

    n = ords.n_dims
    measure = 2.0 if n == 1 else 2.0 * math.pi
    weight_defect = abs(ords.weights.sum() - measure)
    odd_defect = float(np.abs(ords.weights @ ords.directions).max())
    second = np.einsum("j,ji,jk->ik", ords.weights, ords.directions, ords.directions)
    second_defect = float(np.abs(second - (measure / n) * np.eye(n)).max())

    residual, pair_residuals = moment_system_check(
        base.grid, ords, intensity, base.source[0], eps, config.sigma_pairs
    )
    per_pair = {
        f"sigma_a={sigma_a:g},sigma_s={sigma_s:g}": {"r0": r0, "r1": r1}
        for (sigma_a, sigma_s), (r0, r1) in zip(config.sigma_pairs, pair_residuals)
    }
    # The residuals are roundoff of the tendency, whose damping term grows
    # as (sigma_a + sigma_s |S|)/eps: each pair is held to the bound times
    # kappa = max(1, (sigma_a + sigma_s |S|)/(eps (1 + |S|))), which is one
    # for the default pairs at eps = 1.
    sigma_a, sigma_s = np.array(config.sigma_pairs).T
    kappa = np.maximum(1.0, (sigma_a + sigma_s * measure) / (eps * (1.0 + measure)))
    worst = float(np.max(np.asarray(pair_residuals) / kappa[:, None]))  # NaN fails the bound

    closure = {
        "ordinates": ords.count,
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
