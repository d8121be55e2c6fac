"""Run configuration: strict JSON schema, defaults, profile builders.

Each mode reads its own keys, at the top level (``MODE_KEYS``) and under
"bounds" (``MODE_BOUNDS``). A key no mode reads is unknown and one only
other modes read fails naming them, so no key is silently ignored; a
key a mode does not read keeps its default on the RunConfig. Every
accepted config is echoed back fully resolved, its mode's keys only,
so a run can be reproduced from its own summary. Initial profiles are
sums of trigonometric modes over a constant background, which keeps
runs deterministic and diffable; the default perturbation shapes are
profile specs too (``_default_shapes``), so configured and default
shapes are built by one path.

A config that passes the schema is then evaluated once on what its run
starts from, with the run's own builders and kernels (``_admit``); a
row of it that is not finite, or initial data below the positivity
floor (the solver's own guard, ``fluid.require_positive``), fails the
parse naming the config field (exit code 2). The
initial data built there stays on the config, and the run marches from
it: ``limit_initial``, the limit state, and ``prepared``, the batch of
that state and the prepared data of the eps members.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .analysis import batch_error_squares, unit_rows, well_prepared_init
from .errors import NonPositiveState, ParseError, ValidationError
from .fluid import POSITIVITY_FLOOR, FluidParams, _rhs_common, require_positive
from .kinetic import make_ordinates
from .radiation import emission_spectrum, limit_closure
from .spectral import Grid, sobolev_squares
from .stepping import EpsBatch, cfl_bounds

__all__ = ["RunConfig", "load_config", "build_limit_initial", "build_shapes"]

MODES = ("simulate-eps", "simulate-limit", "convergence-study", "closure-check")

DEFAULT_EPS_SWEEP = (0.1, 0.05, 0.025, 0.0125)

# Work budget checked at parse time, so that no accepted config asks for
# an effectively endless run or an unbounded amount of memory: output
# samples (t_end / output_interval), time steps (t_end / dt_max, and
# t_end over the CFL bound of the initial profiles) and grid cells
# (1024 x 1024 in 2D).
MAX_SAMPLES = 1e6
MAX_STEPS = 1e7
MAX_CELLS = 2**20
# Grid cells x ordinates of a closure check (2^26 values). The check
# takes every ordinate sum on the (count, 1+n) basis of the P1 intensity
# and works on its 1+n half spectra, so its field work and memory do not
# grow with the ordinate count; its (count, k) matrices do, and on a
# coarse grid the cap bounds them (1D uses two directions, so only 2D
# grids can exceed it).
MAX_INTENSITY_VALUES = 2**26
# Smallest eps a run marches: gamma / eps^2 and the eps-scaled terms of
# a step need eps^2 to be a normal float (2^-1022, so eps >= 2^-511).
MIN_EPS = math.sqrt(sys.float_info.min)
# Largest Sobolev index of a norm: grids at desk scale cannot resolve
# the (1 + |k|^2)^s weights of higher ones meaningfully.
MAX_SOBOLEV_INDEX = 6

DEFAULT_BOUNDS = {
    "fluid_slope": [0.9, 1.3],
    "radiation_slope": [0.45, 1.3],
    "r_squared_min": 0.98,
    "gamma_limit": 100.0,
    "gamma_spread_max": 2.0,
    "hypothesis_spread_max": 1.5,
    "closure_residual_max": 1e-10,
    "mass_drift_max": 1e-10,
    "moment_residual_max": 1e-10,
}

# The keys each mode reads, at the top level and under "bounds".
_COMMON = {"mode", "grid", "profiles", "out_dir", "bounds"}
_LIMIT = _COMMON | {
    "fluid", "t_end", "output_interval", "dt_max", "cfl_advective", "cfl_diffusive",
    "sobolev_indices",
}
_PREPARED = {"perturbation_amp", "perturbation_shapes"}
MODE_KEYS = {
    "simulate-eps": _LIMIT | _PREPARED | {"eps"},
    "simulate-limit": _LIMIT,
    "convergence-study": _LIMIT | _PREPARED | {"eps_list"},
    "closure-check": _COMMON | {"eps", "ordinates", "sigma_pairs"},
}
MODE_BOUNDS = {
    "simulate-eps": {"gamma_limit", "mass_drift_max"},
    "simulate-limit": {"closure_residual_max", "mass_drift_max"},
    "convergence-study": set(DEFAULT_BOUNDS) - {"moment_residual_max"},
    "closure-check": {"moment_residual_max"},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    mode: str
    n_dims: int
    points: int
    params: FluidParams
    eps: float | None
    eps_list: tuple[float, ...] | None
    t_end: float
    output_interval: float
    dt_max: float
    cfl_advective: float
    cfl_diffusive: float
    profiles: dict
    perturbation_amp: float
    perturbation_shapes: dict | None
    sobolev_indices: tuple[int, ...]
    out_dir: str
    ordinates: int
    sigma_pairs: tuple[tuple[float, float], ...]
    bounds: dict

    @cached_property
    def grid(self) -> Grid:
        """One instance per config: the parse and the run share its symbols."""
        return Grid(n_dims=self.n_dims, points_per_dim=self.points)

    @property
    def acceptance_index(self) -> int:
        """Sobolev index the rate acceptance runs at.

        The highest monitored index; defaults to the smallest integer
        above n/2 + 2, the regularity level the error analysis needs.
        Lower indices ride along as robustness companions.
        """
        return max(self.sobolev_indices)

    @property
    def echo(self) -> dict:
        """The keys its mode reads (``MODE_KEYS``) as the JSON object
        that parses back to the configuration, every default filled in,
        so a run can be reproduced from its own summary."""
        p = self.params
        echo = {f.name: getattr(self, f.name) for f in fields(self)} | {
            "grid": {"n_dims": self.n_dims, "points": self.points},
            "fluid": {"mu": p.mu, "lambda": p.lam, "kappa": p.kappa},
            "eps_list": None if self.eps_list is None else list(self.eps_list),
            "sobolev_indices": list(self.sobolev_indices),
            "sigma_pairs": [list(pair) for pair in self.sigma_pairs],
        }
        return {key: value for key, value in echo.items() if key in MODE_KEYS[self.mode]}

    # The initial data, built once per config by its parse-time check and
    # shared with the run: the arrays are read-only, and a config made by
    # dataclasses.replace builds its own.
    @cached_property
    def limit_initial(self) -> EpsBatch:
        """The limit-system initial state of the profile spec, the
        one-member batch eps = 0 whose moments are the limit closure
        of the theta^4 spectrum it carries.

        Raises:
            ValidationError: naming the profile, if the rho or theta
                values fall below the positivity floor of the solver
                somewhere.
        """
        grid, profiles = self.grid, self.profiles
        rows = [profiles["rho"], *profiles["u"], profiles["theta"]]
        y = np.stack([_profile_values(grid, spec) for spec in rows])[:, None]
        try:
            require_positive(y)
        except NonPositiveState as exc:
            message = f"initial values must be positive, min is {exc.minimum:.3g}"
            _fail(f"profiles.{exc.field}", f"{message} (the floor is {POSITIVITY_FLOOR:g})")
        source = emission_spectrum(grid, y[-1])
        return EpsBatch(grid, (0.0,), y, limit_closure(grid, source), 0.0, source)

    @cached_property
    def shapes(self) -> np.ndarray:
        """Perturbation shapes, the configured specs or the defaults
        (``_default_shapes``), as one (2n+3, *shape) array of rows rho,
        u_1..u_n, theta, I0, I1_1..I1_n.

        Every shape is normalized to unit L^2 norm; a shape of norm zero
        stays zero, and one of norm that is not finite raises a
        ValidationError naming it.
        """
        grid, raw = self.grid, self.perturbation_shapes
        if raw is None:
            raw = _default_shapes(grid.n_dims)
        specs = [raw["rho"], *raw["u"], raw["theta"], raw["I0"], *raw["I1"]]
        shapes, norms = unit_rows(grid, np.stack([_profile_values(grid, s) for s in specs]))
        vector = lambda key: [f"{key}[{i}]" for i in range(grid.n_dims)]
        rows = ["rho", *vector("u"), "theta", "I0", *vector("I1")]
        message = "the shape's L^2 norm on the grid is not finite"
        _require_finite(norms, rows, "perturbation_shapes.{}", message)
        shapes.setflags(write=False)
        return shapes

    @cached_property
    def prepared(self) -> EpsBatch | None:
        """The batch the run marches, or None for closure-check: the
        limit initial state, then in the eps modes the prepared data of
        the eps members (``well_prepared_init``).

        Raises:
            ValidationError: naming perturbation_amp, if a member's rho
                or theta falls below the positivity floor.
        """
        sweep = {"simulate-eps": (self.eps,), "convergence-study": self.eps_list}.get(self.mode)
        if sweep is None:
            return None if self.mode == "closure-check" else self.limit_initial
        amp = self.perturbation_amp
        try:
            return well_prepared_init(self.limit_initial, sweep, amp, self.shapes)
        except NonPositiveState as exc:
            _fail(
                "perturbation_amp",
                f"{amp:g} leaves the prepared data non-positive: min {exc.field} ="
                f" {exc.minimum:.3g} at eps = {exc.eps:g}, below the floor {POSITIVITY_FLOOR:g}",
            )


def _fail(field_name: str, message: str):
    raise ValidationError(f"field '{field_name}': {message}")


def _require_read(raw: dict, mode: str, table: dict, field: str) -> None:
    """Fail for the first key of raw that mode does not read, naming the
    modes that do; table maps each mode to the keys it reads, and field
    formats a key as the config field it names."""
    for key in raw:
        if key not in table[mode]:
            readers = ", ".join(m for m in MODES if key in table[m])
            _fail(field.format(key), f"{mode} does not read it (read by {readers})")


def _object(value, name: str, allowed) -> dict:
    """value, which must be a JSON object with no key outside allowed."""
    if not isinstance(value, dict):
        _fail(name, "expected an object")
    for key in value:
        if key not in allowed:
            raise ValidationError(f"unknown field '{key}' in {name}")
    return value


def _is_finite_number(value) -> bool:
    """A JSON number other than NaN and +-Infinity (which json accepts),
    and no integer too large for a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(d: dict, key: str, default, context: str = "", positive=False):
    """The number under key, or default when the key is absent or null."""
    value = default if d.get(key) is None else d[key]
    if value is None:
        return None
    name = f"{context}.{key}" if context else key
    if not _is_finite_number(value):
        _fail(name, f"expected a finite number, got {value!r}")
    value = float(value)
    if positive and value <= 0.0:
        _fail(name, f"must be positive, got {value}")
    return value


def _numbers(value, name: str, message: str, size=None, keep=lambda v: True) -> tuple:
    """value, which must be a JSON list (of size entries, if given) of
    finite numbers each passing keep, as a tuple of floats."""
    if not (
        isinstance(value, list)
        and size in (None, len(value))
        and all(_is_finite_number(v) and keep(v) for v in value)
    ):
        _fail(name, message)
    return tuple(float(v) for v in value)


def _validate_profile(spec, name: str, default: dict, grid: Grid) -> dict:
    """Profile spec with its defaults; a wavenumber has n_dims entries k
    with |k| <= points/2, the largest the grid resolves."""
    n_dims, kmax = grid.n_dims, grid.points_per_dim // 2
    if spec is None:
        return default
    _object(spec, name, {"base", "modes"})
    base = _number(spec, "base", 0.0, name)
    modes = spec.get("modes", [])
    if not isinstance(modes, list):
        _fail(f"{name}.modes", "expected a list")
    out_modes = []
    for i, m in enumerate(modes):
        ctx = f"{name}.modes[{i}]"
        _object(m, ctx, {"amplitude", "wavenumber", "kind"})
        amp = _number(m, "amplitude", None, ctx)
        if amp is None:
            _fail(ctx, "missing 'amplitude'")
        wn = m.get("wavenumber")
        if isinstance(wn, int):
            wn = [wn]
        if not (isinstance(wn, list) and all(isinstance(k, int) for k in wn)):
            _fail(f"{ctx}.wavenumber", "expected an integer or list of integers")
        if len(wn) != n_dims or any(isinstance(k, bool) or abs(k) > kmax for k in wn):
            _fail(f"{ctx}.wavenumber", f"expected {n_dims} integers k with |k| <= {kmax}")
        kind = m.get("kind", "sin")
        if kind not in ("sin", "cos"):
            _fail(f"{ctx}.kind", f"expected 'sin' or 'cos', got {kind!r}")
        out_modes.append({"amplitude": amp, "wavenumber": list(wn), "kind": kind})
    return {"base": base, "modes": out_modes}


def _default_profiles(n_dims: int) -> dict:
    k1 = [1] + [0] * (n_dims - 1)
    mode = lambda kind: {"amplitude": 0.1, "wavenumber": k1, "kind": kind}
    wave = lambda base, kind: {"base": base, "modes": [mode(kind)]}
    u = [wave(0.0, "sin")] + [{"base": 0.0, "modes": []}] * (n_dims - 1)
    return {"rho": wave(1.0, "sin"), "u": u, "theta": wave(1.0, "cos")}


def _default_shapes(n_dims: int) -> dict:
    """The default perturbation shapes: one low-wavenumber mode of
    amplitude 1 per row, over base 0 (``RunConfig.shapes`` normalizes
    them)."""
    wave = lambda kind, *k: {
        "base": 0.0, "modes": [{"amplitude": 1.0, "wavenumber": list(k), "kind": kind}]
    }
    if n_dims == 1:
        rows = wave("sin", 1), [wave("cos", 1)], wave("sin", 2), wave("cos", 2), [wave("sin", 3)]
    else:
        rows = (
            wave("sin", 1, 1), [wave("cos", 1, 0), wave("sin", 0, 1)], wave("sin", 2, 0),
            wave("cos", 1, 1), [wave("sin", 0, 1), wave("cos", 2, 0)],
        )
    return dict(zip(("rho", "u", "theta", "I0", "I1"), rows))


def _validate_fields(raw, name: str, defaults: dict, grid: Grid) -> dict:
    """The profile specs under name, one per key of defaults, each
    defaulting to its entry there: a spec, or for a vector field (u, I1)
    a list of n_dims component specs."""
    if raw is None:
        return defaults
    _object(raw, name, defaults)
    out = {}
    for key, default in defaults.items():
        spec, ctx = raw.get(key), f"{name}.{key}"
        if spec is None or not isinstance(default, list):
            out[key] = _validate_profile(spec, ctx, default, grid)
        elif not isinstance(spec, list) or len(spec) != grid.n_dims:
            _fail(ctx, f"expected a list of {grid.n_dims} component profiles")
        else:
            out[key] = [
                _validate_profile(c, f"{ctx}[{i}]", d, grid)
                for i, (c, d) in enumerate(zip(spec, default))
            ]
    return out


def _validate_bounds(raw, mode: str) -> dict:
    """The acceptance bounds the mode reads (``MODE_BOUNDS``) with their
    defaults. Every run fails a bound whose window holds no value it can
    take, so each window must be nonempty: [low, high] for a slope,
    [r_squared_min, 1] for R^2 and [0, limit] for gamma and the *_max
    limits of nonnegative values."""
    bounds = {key: v for key, v in DEFAULT_BOUNDS.items() if key in MODE_BOUNDS[mode]}
    if raw is None:
        return bounds
    _require_read(_object(raw, "bounds", DEFAULT_BOUNDS), mode, MODE_BOUNDS, "bounds.{}")
    for key, value in raw.items():
        name = f"bounds.{key}"
        if value is None:
            continue
        if key.endswith("_slope"):
            value = list(_numbers(value, name, "expected [low, high] of finite numbers", size=2))
            low, high = value
        else:
            value = _number(raw, key, None, "bounds")
            low, high = (value, 1.0) if key == "r_squared_min" else (0.0, value)
        if low > high:
            _fail(name, f"its window [{low}, {high}] is empty, so every run would fail it")
        bounds[key] = value
    return bounds


def _require_finite(rows, names, field_name: str, message: str) -> None:
    """Fail for the first of rows with a non-finite entry, naming
    field_name.format(row name); message may name the row too."""
    for name, row in zip(names, rows):
        if not np.isfinite(row).all():
            _fail(field_name.format(name), message.format(name))


def _admit(config: RunConfig) -> None:
    """ValidationError naming the field unless what the run starts from
    is finite, row by row, and positive where it must be: in every mode
    the limit initial state and its limit closure; in the closure check
    the size of the kinetic tendency of every sigma pair; in the solver
    modes the t = 0 norm rows, one limit right-hand side and the steps
    to t_end at dt_max and at either CFL bound (MAX_STEPS each); in the
    eps modes the prepared data, its shapes, its t = 0 error rows and
    one eps right-hand side. Floating-point warnings are silenced; every
    result is checked instead."""
    grid, n, params = config.grid, config.n_dims, config.params
    names = ["rho", *["u"] * n, "theta"]
    with np.errstate(all="ignore"):
        base = config.limit_initial
        _require_finite([base.rad], ["theta"], "profiles.{}", "its limit closure is not finite")
        if config.mode == "closure-check":
            _admit_sigma_pairs(config, grid.inverse(base.rad[:, 0]))
            return
        norms = sobolev_squares(grid, base.spectrum[:, 0], config.sobolev_indices).T
        message = "the H^s norms of the initial profile are not finite"
        _require_finite(norms, names, "profiles.{}", message)
        tend = _rhs_common(grid, base.fluid, base.spectrum, params)
        _require_finite(tend, names, "profiles.{}", "the limit right-hand side is not finite")
        bounds = cfl_bounds(grid, base.fluid, params, config.cfl_advective, config.cfl_diffusive)
        for field_name, bound, dt in zip(
            ("dt_max", "profiles", "fluid"),
            ("dt_max", "the advective CFL bound dt", "the diffusive CFL bound dt"),
            (config.dt_max, *bounds),
        ):
            steps = config.t_end / dt if dt > 0.0 else math.inf
            if not steps <= MAX_STEPS:
                message = f"{bound} = {dt:.3g} implies {steps:.3g} time steps"
                _fail(field_name, f"{message}, over the budget of {MAX_STEPS:g}")
        init = config.prepared  # in the eps modes, the shapes' L^2 norms too
        if len(init.eps) == 1:
            return
        eps_key = "eps_list" if config.mode == "convergence-study" else "eps"
        squares = batch_error_squares(init, config.sobolev_indices)
        for eps, rows in zip(init.eps[1:], squares.T):  # rows: fluid, radiation of one member
            message = f"the t = 0 {{}} error norms at eps = {eps:g} are not finite"
            _require_finite(rows, ("fluid", "radiation"), "perturbation_amp", message)
        # Member 1 is the first eps member, of the largest eps (a sweep decreases).
        y, y_hat, rad = init.fluid[:, 1:2], init.spectrum[:, 1:2], init.rad[:, 1:2]
        tend = _rhs_common(grid, y, y_hat, params, rad, np.full((1,) * (n + 1), init.eps[1]))
        message = f"the right-hand side at eps = {init.eps[1]:g} is not finite in its {{}} row"
        _require_finite(tend, names, eps_key, message)


def _admit_sigma_pairs(config: RunConfig, closure: np.ndarray) -> None:
    """Fail for the first sigma pair whose kinetic tendency can overflow
    on the intensity the closure check samples from the (1+n, *shape)
    closure values: |I0 + omega.I1| <= peak = max(|I0| + sum_j |I1_j|),
    so the damping term (sigma_a + sigma_s |S|) peak / eps must be
    finite. With sigma_a > 0 and sigma_s >= 0 it bounds the scattering
    gain sigma_s |S| peak too, so one test covers both terms."""
    peak = float(np.abs(closure).sum(axis=0).max())
    measure = make_ordinates(config.n_dims, config.ordinates).surface_measure
    for i, (sigma_a, sigma_s) in enumerate(config.sigma_pairs):
        damping = (sigma_a + sigma_s * measure) * peak / config.eps
        if not math.isfinite(damping):
            _fail(
                f"sigma_pairs[{i}]",
                f"the kinetic tendency bound (sigma_a + sigma_s |S|) max|I| / eps = {damping:.3g}"
                f" is not finite (|S| = {measure:.3g}, max|I| <= {peak:.3g}, eps = {config.eps:g})",
            )


def parse_config(raw: dict, mode: str | None = None) -> RunConfig:
    """Validate a parsed JSON object and fill defaults.

    Args:
        raw: The decoded configuration object.
        mode: Mode requested on the command line; must agree with the
            config's own "mode" field when both are present.
    """
    _object(raw, "configuration", set().union(*MODE_KEYS.values()))
    cfg_mode = raw.get("mode", mode)
    if cfg_mode is None:
        _fail("mode", "missing (give it in the config or as the subcommand)")
    if cfg_mode not in MODES:
        _fail("mode", f"expected one of {MODES}, got {cfg_mode!r}")
    if mode is not None and cfg_mode != mode:
        _fail("mode", f"config says {cfg_mode!r} but the subcommand is {mode!r}")
    _require_read(raw, cfg_mode, MODE_KEYS, "{}")

    grid_raw = _object(raw.get("grid", {}), "grid", {"n_dims", "points"})
    n_dims = grid_raw.get("n_dims", 1)
    points = grid_raw.get("points", 64)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n_dims, points)):
        _fail("grid", "n_dims and points must be integers")
    try:
        grid = Grid(n_dims=n_dims, points_per_dim=points)
    except ValueError as exc:
        raise ValidationError(f"field 'grid': {exc}") from exc
    if points**n_dims > MAX_CELLS:
        _fail("grid", f"{points}^{n_dims} grid cells exceed the budget of {MAX_CELLS}")

    fluid_raw = _object(raw.get("fluid", {}), "fluid", {"mu", "lambda", "kappa"})
    try:
        values = [_number(fluid_raw, key, 0.01, "fluid") for key in ("mu", "lambda", "kappa")]
        params = FluidParams(*values)
        params.validate_for(n_dims)
    except ValueError as exc:
        raise ValidationError(f"field 'fluid': {exc}") from exc

    # The RunConfig fields, filled in the order they are checked.
    cfg = {"mode": cfg_mode, "n_dims": n_dims, "points": points, "params": params}
    eps = {"simulate-eps": 0.1, "closure-check": 1.0}.get(cfg_mode)  # a study sweeps eps_list
    cfg["eps"] = _number(raw, "eps", eps, positive=True)
    eps_list = raw.get("eps_list")
    if eps_list is not None:
        message = "expected a list of positive finite numbers"
        eps_list = _numbers(eps_list, "eps_list", message, keep=lambda v: v > 0)
    if cfg_mode == "convergence-study":
        if eps_list is None:
            eps_list = DEFAULT_EPS_SWEEP
        if len(eps_list) < 3:
            _fail("eps_list", "convergence study needs at least 3 entries")
        if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
            _fail("eps_list", "must be strictly decreasing")
    cfg["eps_list"] = eps_list
    marched = {"simulate-eps": (cfg["eps"],), "convergence-study": eps_list}.get(cfg_mode, ())
    if any(e < MIN_EPS for e in marched):
        key = "eps" if cfg_mode == "simulate-eps" else "eps_list"
        bound = f"{MIN_EPS} = 2^-511, the smallest eps whose square is a normal float"
        _fail(key, f"{min(marched)} is below {bound}")

    t_end = cfg["t_end"] = _number(raw, "t_end", 0.5, positive=True)
    output_interval = cfg["output_interval"] = _number(raw, "output_interval", 0.025, positive=True)
    if output_interval > t_end:
        _fail("output_interval", "must not exceed t_end")
    if t_end / output_interval > MAX_SAMPLES:
        samples = f"t_end/output_interval = {t_end / output_interval:.3g} output samples"
        _fail("output_interval", f"{samples} exceeds the budget of {MAX_SAMPLES:g}")
    # Default dt cap: resolve each output interval with >= 10 steps so the
    # splitting error sits well below the eps-sweep errors being measured.
    cfg["dt_max"] = _number(raw, "dt_max", output_interval / 10.0, positive=True)
    for key in ("cfl_advective", "cfl_diffusive"):
        cfg[key] = _number(raw, key, 0.4, positive=True)
        if cfg[key] > 1.0:
            _fail(key, f"must lie in (0, 1], got {cfg[key]}")

    profiles = _default_profiles(n_dims)
    cfg["profiles"] = _validate_fields(raw.get("profiles"), "profiles", profiles, grid)
    cfg["perturbation_amp"] = _number(raw, "perturbation_amp", 0.0)
    if cfg["perturbation_amp"] < 0.0:
        _fail("perturbation_amp", "must be nonnegative")
    shapes = raw.get("perturbation_shapes")
    if shapes is not None:
        empty = {"base": 0.0, "modes": []}
        defaults = dict(rho=empty, u=[empty] * n_dims, theta=empty, I0=empty, I1=[empty] * n_dims)
        shapes = _validate_fields(shapes, "perturbation_shapes", defaults, grid)
    cfg["perturbation_shapes"] = shapes

    indices = raw.get("sobolev_indices")
    # default high index: smallest integer above n/2 + 2
    if indices is None:
        indices = [0, 3 if n_dims == 1 else 4]
    message = f"expected a nonempty list of integers in [0, {MAX_SOBOLEV_INDEX}]"
    in_range = lambda v: isinstance(v, int) and 0 <= v <= MAX_SOBOLEV_INDEX
    if not _numbers(indices, "sobolev_indices", message, keep=in_range):
        _fail("sobolev_indices", message)
    cfg["sobolev_indices"] = tuple(sorted(set(indices)))

    out_dir = cfg["out_dir"] = raw.get("out_dir", "out")
    if not (isinstance(out_dir, str) and out_dir and "\x00" not in out_dir):
        _fail("out_dir", "expected a nonempty string with no NUL character")

    ordinates = cfg["ordinates"] = raw.get("ordinates", 8)
    if not isinstance(ordinates, int) or ordinates < 4 or ordinates % 2 != 0:
        _fail("ordinates", "expected an even integer >= 4")
    if n_dims == 2 and points**2 * ordinates > MAX_INTENSITY_VALUES:
        budget = f"the budget of {MAX_INTENSITY_VALUES} intensity values"
        _fail("ordinates", f"{points}^2 grid cells x {ordinates} ordinates exceed {budget}")
    sigma_raw = raw.get("sigma_pairs", [[1.0, 0.0], [1.0, 1.0]])
    message = "expected a list of [sigma_a, sigma_s] pairs of finite numbers"
    if not (isinstance(sigma_raw, list) and sigma_raw):
        _fail("sigma_pairs", message)
    cfg["sigma_pairs"] = tuple(_numbers(p, "sigma_pairs", message, size=2) for p in sigma_raw)
    for i, (sigma_a, sigma_s) in enumerate(cfg["sigma_pairs"]):
        if not (sigma_a > 0.0 and sigma_s >= 0.0):
            message = f"expected sigma_a > 0 and sigma_s >= 0, got {list(sigma_raw[i])}"
            _fail(f"sigma_pairs[{i}]", message)

    cfg["bounds"] = _validate_bounds(raw.get("bounds"), cfg_mode)
    config = RunConfig(**cfg)
    _admit(config)
    return config


def load_config(path, mode: str | None = None) -> RunConfig:
    """Read and validate a JSON configuration file.

    Raises:
        ParseError: a file that cannot be read or is not UTF-8 text,
            naming the path, or invalid JSON, with line/column context.
        ValidationError: schema violation, naming the offending field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(raw, mode=mode)


def _profile_values(grid: Grid, spec: dict):
    coords = grid.coordinates()
    vals = np.full(grid.shape, float(spec["base"]))
    for m in spec["modes"]:
        phase = sum(k * x for k, x in zip(m["wavenumber"], coords))
        wave = np.sin(phase) if m["kind"] == "sin" else np.cos(phase)
        vals = vals + m["amplitude"] * wave
    return vals


def build_limit_initial(config: RunConfig) -> EpsBatch:
    """``config.limit_initial``, a set-up step perfbench/ calls and times."""
    return config.limit_initial


def build_shapes(config: RunConfig) -> np.ndarray:
    """``config.shapes``, a set-up step perfbench/ calls and times."""
    return config.shapes
