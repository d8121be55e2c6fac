"""Run configuration: strict JSON schema, defaults, profile builders.

Unknown keys are errors, never silently ignored; every accepted config
is echoed back fully resolved so a run can be reproduced from its own
summary. Initial profiles are sums of trigonometric modes over a
constant background, which keeps runs deterministic and diffable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import default_perturbation_shapes, unit_rows
from .errors import ParseError, ValidationError
from .fluid import FluidParams
from .radiation import fourth_power
from .spectral import Grid
from .stepping import LimitState, StepControl, cfl_bounds

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

_MODE_SPEC_KEYS = {"amplitude", "wavenumber", "kind"}
_PROFILE_KEYS = {"base", "modes"}
_SHAPE_KEYS = {"rho", "u", "theta", "I0", "I1"}

_TOP_KEYS = {
    "mode",
    "grid",
    "fluid",
    "eps",
    "eps_list",
    "t_end",
    "output_interval",
    "dt_max",
    "cfl_advective",
    "cfl_diffusive",
    "profiles",
    "perturbation_amp",
    "perturbation_shapes",
    "sobolev_indices",
    "out_dir",
    "ordinates",
    "sigma_pairs",
    "bounds",
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
    echo: dict = field(repr=False, default_factory=dict)

    @property
    def grid(self) -> Grid:
        return Grid(n_dims=self.n_dims, points_per_dim=self.points)

    @property
    def acceptance_index(self) -> int:
        """Sobolev index the rate acceptance runs at.

        The highest monitored index; defaults to the smallest integer
        above n/2 + 2, the regularity level the error analysis needs.
        Lower indices ride along as robustness companions.
        """
        return max(self.sobolev_indices)


def _fail(field_name: str, message: str):
    raise ValidationError(f"field '{field_name}': {message}")


def _check_keys(d: dict, allowed: set, context: str) -> None:
    for key in d:
        if key not in allowed:
            raise ValidationError(f"unknown field '{key}' in {context}")


def _is_finite_number(value) -> bool:
    """A JSON number other than NaN and +-Infinity (which json accepts),
    and no integer too large for a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(d: dict, key: str, default, context: str, positive=False):
    """The number under key, or default when the key is absent or null."""
    value = d.get(key)
    if value is None:
        value = default
    if value is None:
        return None
    if not _is_finite_number(value):
        _fail(
            f"{context}.{key}" if context else key,
            f"expected a finite number, got {value!r}",
        )
    value = float(value)
    if positive and value <= 0.0:
        _fail(f"{context}.{key}" if context else key, f"must be positive, got {value}")
    return value


def _validate_profile(spec, name: str, default: dict, kmax: int) -> dict:
    """Profile spec with its defaults; wavenumbers must satisfy |k| <= kmax,
    the largest the grid resolves."""
    if spec is None:
        return default
    if not isinstance(spec, dict):
        _fail(name, "expected an object with 'base' and 'modes'")
    _check_keys(spec, _PROFILE_KEYS, name)
    base = _number(spec, "base", 0.0, name)
    modes = spec.get("modes", [])
    if not isinstance(modes, list):
        _fail(f"{name}.modes", "expected a list")
    out_modes = []
    for i, m in enumerate(modes):
        ctx = f"{name}.modes[{i}]"
        if not isinstance(m, dict):
            _fail(ctx, "expected an object")
        _check_keys(m, _MODE_SPEC_KEYS, ctx)
        amp = _number(m, "amplitude", None, ctx)
        if amp is None:
            _fail(ctx, "missing 'amplitude'")
        wn = m.get("wavenumber")
        if isinstance(wn, int):
            wn = [wn]
        if not (isinstance(wn, list) and all(isinstance(k, int) for k in wn)):
            _fail(f"{ctx}.wavenumber", "expected an integer or list of integers")
        if any(isinstance(k, bool) or abs(k) > kmax for k in wn):
            _fail(f"{ctx}.wavenumber", f"expected integers k with |k| <= {kmax}")
        kind = m.get("kind", "sin")
        if kind not in ("sin", "cos"):
            _fail(f"{ctx}.kind", f"expected 'sin' or 'cos', got {kind!r}")
        out_modes.append({"amplitude": amp, "wavenumber": list(wn), "kind": kind})
    return {"base": base, "modes": out_modes}


def _default_profiles(n_dims: int) -> dict:
    k1 = [1] + [0] * (n_dims - 1)
    rho = {"base": 1.0, "modes": [{"amplitude": 0.1, "wavenumber": k1, "kind": "sin"}]}
    theta = {"base": 1.0, "modes": [{"amplitude": 0.1, "wavenumber": k1, "kind": "cos"}]}
    u0 = {"base": 0.0, "modes": [{"amplitude": 0.1, "wavenumber": k1, "kind": "sin"}]}
    rest = {"base": 0.0, "modes": []}
    return {"rho": rho, "u": [u0] + [rest] * (n_dims - 1), "theta": theta}


def _validate_profiles(raw, grid: Grid) -> dict:
    n_dims, kmax = grid.n_dims, grid.points_per_dim // 2
    defaults = _default_profiles(n_dims)
    if raw is None:
        return defaults
    if not isinstance(raw, dict):
        _fail("profiles", "expected an object")
    _check_keys(raw, {"rho", "u", "theta"}, "profiles")
    rho = _validate_profile(raw.get("rho"), "profiles.rho", defaults["rho"], kmax)
    theta = _validate_profile(raw.get("theta"), "profiles.theta", defaults["theta"], kmax)
    u_raw = raw.get("u")
    if u_raw is None:
        u = defaults["u"]
    else:
        if not isinstance(u_raw, list) or len(u_raw) != n_dims:
            _fail("profiles.u", f"expected a list of {n_dims} component profiles")
        u = [
            _validate_profile(c, f"profiles.u[{i}]", defaults["u"][i], kmax)
            for i, c in enumerate(u_raw)
        ]
    return {"rho": rho, "u": u, "theta": theta}


def _validate_shapes(raw, grid: Grid) -> dict | None:
    n_dims, kmax = grid.n_dims, grid.points_per_dim // 2
    if raw is None:
        return None
    if not isinstance(raw, dict):
        _fail("perturbation_shapes", "expected an object")
    _check_keys(raw, _SHAPE_KEYS, "perturbation_shapes")
    empty = {"base": 0.0, "modes": []}

    def shape(spec, name):
        # build_shapes divides by this norm, so it must be finite too.
        spec = _validate_profile(spec, name, empty, kmax)
        with np.errstate(over="ignore", invalid="ignore"):
            (norm,) = unit_rows(grid, _profile_values(grid, spec)[None])[1]
        if not math.isfinite(norm):
            _fail(name, "the shape's values or L^2 norm on the grid are not finite")
        return spec

    out = {}
    for key in ("rho", "theta", "I0"):
        out[key] = shape(raw.get(key), f"perturbation_shapes.{key}")
    for key in ("u", "I1"):
        comp_raw = raw.get(key)
        if comp_raw is None:
            out[key] = [empty] * n_dims
            continue
        if not isinstance(comp_raw, list) or len(comp_raw) != n_dims:
            _fail(
                f"perturbation_shapes.{key}",
                f"expected a list of {n_dims} component profiles",
            )
        out[key] = [
            shape(c, f"perturbation_shapes.{key}[{i}]") for i, c in enumerate(comp_raw)
        ]
    return out


def _validate_bounds(raw) -> dict:
    bounds = dict(DEFAULT_BOUNDS)
    if raw is None:
        return bounds
    if not isinstance(raw, dict):
        _fail("bounds", "expected an object")
    _check_keys(raw, set(DEFAULT_BOUNDS), "bounds")
    for key, value in raw.items():
        if value is None:
            continue
        if key in ("fluid_slope", "radiation_slope"):
            if not (
                isinstance(value, list)
                and len(value) == 2
                and all(_is_finite_number(v) for v in value)
            ):
                _fail(f"bounds.{key}", "expected [low, high] of finite numbers")
            bounds[key] = [float(value[0]), float(value[1])]
        else:
            bounds[key] = _number(raw, key, None, "bounds")
    return bounds


def _check_cfl_steps(grid: Grid, profiles: dict, params: FluidParams, control: StepControl):
    """Reject a run whose CFL bounds (those of ``cfl_dt``) on the initial
    profile values imply more than MAX_STEPS time steps, and profiles
    whose values are not finite, whose rho or theta is not positive, or
    whose squares or formed products overflow: the sum of squares over
    the grid of a field (its L^2 norm), or the value or the sum over the
    grid of the squared velocity magnitude, the pressure rho*theta, the
    momentum rho*u or the emission theta^4.
    """
    y = _profile_stack(grid, profiles)
    if not np.isfinite(y).all():
        _fail("profiles", "the initial profile values are not all finite")
    for name, row in (("rho", y[0]), ("theta", y[-1])):
        if row.min() <= 0.0:
            _fail(f"profiles.{name}", f"initial values must be positive, min is {row.min():.3g}")
    # Each of these can overflow while the values are finite: the norm
    # rows square the fields and sum them over the grid (a finite sum of
    # squares also keeps the mass sum, the transforms of the fields and
    # the diffusive bound's cfl * R * min(rho) finite); cfl_bounds squares
    # the velocity; the right-hand side forms the products rho*theta,
    # rho*u and theta^4, and its transforms sum them over the grid.
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.square(y).sum(axis=grid.axes)
        formed = (
            ("profiles.u", "squared velocity magnitude", np.sum(y[1:-1] ** 2, axis=0)),
            ("profiles.rho", "pressure rho*theta or momentum rho*u", y[0] * y[1:]),
            ("profiles.theta", "emission theta^4", fourth_power(y[-1])),
        )
        sums = [np.abs(values).sum() for _, _, values in formed]
    names = ["profiles.rho"] + ["profiles.u"] * grid.n_dims + ["profiles.theta"]
    for name, total in zip(names, squares):
        if not np.isfinite(total):
            _fail(name, "the sum of squares over the grid of the initial profile is not finite")
    for (name, what, _), total in zip(formed, sums):
        if not np.isfinite(total):
            _fail(name, f"the {what} of the initial profile or its sum over the grid is not finite")
    bounds = cfl_bounds(grid, y, params, control)
    for name, field_name, dt in zip(("advective", "diffusive"), ("profiles", "fluid"), bounds):
        steps = control.t_end / dt if dt > 0.0 else math.inf
        if not steps <= MAX_STEPS:
            _fail(
                field_name,
                f"the {name} CFL bound dt = {dt:.3g} on the initial profiles implies"
                f" {steps:.3g} time steps, over the budget of {MAX_STEPS:g}",
            )


def parse_config(raw: dict, mode: str | None = None) -> RunConfig:
    """Validate a parsed JSON object and fill defaults.

    Args:
        raw: The decoded configuration object.
        mode: Mode requested on the command line; must agree with the
            config's own "mode" field when both are present.
    """
    if not isinstance(raw, dict):
        raise ValidationError("top-level configuration must be an object")
    _check_keys(raw, _TOP_KEYS, "configuration")

    cfg_mode = raw.get("mode", mode)
    if cfg_mode is None:
        _fail("mode", "missing (give it in the config or as the subcommand)")
    if cfg_mode not in MODES:
        _fail("mode", f"expected one of {MODES}, got {cfg_mode!r}")
    if mode is not None and cfg_mode != mode:
        _fail("mode", f"config says {cfg_mode!r} but the subcommand is {mode!r}")

    grid_raw = raw.get("grid", {})
    if not isinstance(grid_raw, dict):
        _fail("grid", "expected an object")
    _check_keys(grid_raw, {"n_dims", "points"}, "grid")
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

    fluid_raw = raw.get("fluid", {})
    if not isinstance(fluid_raw, dict):
        _fail("fluid", "expected an object")
    _check_keys(fluid_raw, {"mu", "lambda", "kappa"}, "fluid")
    try:
        params = FluidParams(
            mu=_number(fluid_raw, "mu", 0.01, "fluid"),
            lam=_number(fluid_raw, "lambda", 0.01, "fluid"),
            kappa=_number(fluid_raw, "kappa", 0.01, "fluid"),
        )
        params.validate_for(n_dims)
    except ValueError as exc:
        raise ValidationError(f"field 'fluid': {exc}") from exc

    eps = _number(raw, "eps", None, "", positive=True)
    eps_list_raw = raw.get("eps_list")
    eps_list = None
    if eps_list_raw is not None:
        if not (
            isinstance(eps_list_raw, list)
            and all(_is_finite_number(v) and v > 0 for v in eps_list_raw)
        ):
            _fail("eps_list", "expected a list of positive finite numbers")
        eps_list = tuple(float(v) for v in eps_list_raw)

    if cfg_mode == "convergence-study":
        if eps_list is None:
            eps_list = DEFAULT_EPS_SWEEP
        if len(eps_list) < 3:
            _fail("eps_list", "convergence study needs at least 3 entries")
        if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
            _fail("eps_list", "must be strictly decreasing")
    if cfg_mode == "simulate-eps" and eps is None:
        eps = 0.1

    t_end = _number(raw, "t_end", 0.5, "", positive=True)
    output_interval = _number(raw, "output_interval", 0.025, "", positive=True)
    if output_interval > t_end:
        _fail("output_interval", "must not exceed t_end")
    # Default dt cap: resolve each output interval with >= 10 steps so the
    # splitting error sits well below the eps-sweep errors being measured.
    dt_max = _number(raw, "dt_max", None, "", positive=True)
    if dt_max is None:
        dt_max = output_interval / 10.0
    for name, step, budget, unit in (
        ("output_interval", output_interval, MAX_SAMPLES, "output samples"),
        ("dt_max", dt_max, MAX_STEPS, "time steps"),
    ):
        if t_end / step > budget:
            _fail(name, f"t_end/{name} = {t_end / step:.3g} {unit} exceeds the budget of {budget:g}")
    cfl_advective = _number(raw, "cfl_advective", 0.4, "", positive=True)
    cfl_diffusive = _number(raw, "cfl_diffusive", 0.4, "", positive=True)
    for name, value in (("cfl_advective", cfl_advective), ("cfl_diffusive", cfl_diffusive)):
        if value > 1.0:
            _fail(name, f"must lie in (0, 1], got {value}")

    profiles = _validate_profiles(raw.get("profiles"), grid)
    control = StepControl(t_end, dt_max, cfl_advective, cfl_diffusive)
    _check_cfl_steps(grid, profiles, params, control)
    perturbation_amp = _number(raw, "perturbation_amp", 0.0, "")
    if perturbation_amp < 0.0:
        _fail("perturbation_amp", "must be nonnegative")
    shapes = _validate_shapes(raw.get("perturbation_shapes"), grid)

    sobolev_raw = raw.get("sobolev_indices")
    # default high index: smallest integer above n/2 + 2
    s_high = 3 if n_dims == 1 else 4
    if sobolev_raw is None:
        sobolev_indices = (0, s_high)
    else:
        if not (
            isinstance(sobolev_raw, list)
            and sobolev_raw
            and all(isinstance(v, int) and 0 <= v <= 6 for v in sobolev_raw)
        ):
            _fail("sobolev_indices", "expected a nonempty list of integers in [0, 6]")
        sobolev_indices = tuple(sorted(set(sobolev_raw)))

    out_dir = raw.get("out_dir", "out")
    if not isinstance(out_dir, str):
        _fail("out_dir", "expected a string")

    ordinates = raw.get("ordinates", 8)
    if not isinstance(ordinates, int) or ordinates < 4 or ordinates % 2 != 0:
        _fail("ordinates", "expected an even integer >= 4")
    sigma_raw = raw.get("sigma_pairs", [[1.0, 0.0], [1.0, 1.0]])
    if not (
        isinstance(sigma_raw, list)
        and sigma_raw
        and all(
            isinstance(p, list) and len(p) == 2
            and all(_is_finite_number(v) for v in p)
            for p in sigma_raw
        )
    ):
        _fail("sigma_pairs", "expected a list of [sigma_a, sigma_s] pairs of finite numbers")
    sigma_pairs = tuple((float(a), float(s)) for a, s in sigma_raw)

    bounds = _validate_bounds(raw.get("bounds"))

    echo = {
        "mode": cfg_mode,
        "grid": {"n_dims": n_dims, "points": points},
        "fluid": {"mu": params.mu, "lambda": params.lam, "kappa": params.kappa},
        "eps": eps,
        "eps_list": list(eps_list) if eps_list is not None else None,
        "t_end": t_end,
        "output_interval": output_interval,
        "dt_max": dt_max,
        "cfl_advective": cfl_advective,
        "cfl_diffusive": cfl_diffusive,
        "profiles": profiles,
        "perturbation_amp": perturbation_amp,
        "perturbation_shapes": shapes,
        "sobolev_indices": list(sobolev_indices),
        "out_dir": out_dir,
        "ordinates": ordinates,
        "sigma_pairs": [list(p) for p in sigma_pairs],
        "bounds": bounds,
    }
    return RunConfig(
        mode=cfg_mode,
        n_dims=n_dims,
        points=points,
        params=params,
        eps=eps,
        eps_list=eps_list,
        t_end=t_end,
        output_interval=output_interval,
        dt_max=dt_max,
        cfl_advective=cfl_advective,
        cfl_diffusive=cfl_diffusive,
        profiles=profiles,
        perturbation_amp=perturbation_amp,
        perturbation_shapes=shapes,
        sobolev_indices=sobolev_indices,
        out_dir=out_dir,
        ordinates=ordinates,
        sigma_pairs=sigma_pairs,
        bounds=bounds,
        echo=echo,
    )


def load_config(path, mode: str | None = None) -> RunConfig:
    """Read and validate a JSON configuration file.

    Raises:
        ParseError: invalid JSON, with line/column context.
        ValidationError: schema violation, naming the offending field.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
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
        wn = m["wavenumber"]
        if len(wn) != grid.n_dims:
            raise ValidationError(
                f"wavenumber {wn} has wrong length for n_dims={grid.n_dims}"
            )
        phase = sum(k * x for k, x in zip(wn, coords))
        wave = np.sin(phase) if m["kind"] == "sin" else np.cos(phase)
        vals = vals + m["amplitude"] * wave
    return vals


def _profile_stack(grid: Grid, profiles: dict) -> np.ndarray:
    """The (n+2, *shape) values of the rho, u and theta profiles."""
    rows = [profiles["rho"], *profiles["u"], profiles["theta"]]
    return np.stack([_profile_values(grid, spec) for spec in rows])


def build_limit_initial(config: RunConfig) -> LimitState:
    """Construct the limit-system initial state from the profile spec."""
    grid = config.grid
    y = _profile_stack(grid, config.profiles)
    if y[0].min() <= 0.0 or y[-1].min() <= 0.0:
        raise ValidationError("initial rho and theta profiles must be positive")
    return LimitState(grid, y, 0.0)


def build_shapes(config: RunConfig) -> np.ndarray:
    """Perturbation shapes, configured override or the fixed defaults,
    as one (2n+3, *shape) array of rows rho, u_1..u_n, theta, I0,
    I1_1..I1_n.

    Configured shapes are normalized to unit L^2 norm, matching the
    defaults' convention; a shape of norm zero stays zero.
    """
    grid = config.grid
    raw = config.perturbation_shapes
    if raw is None:
        return default_perturbation_shapes(grid)
    specs = [raw["rho"], *raw["u"], raw["theta"], raw["I0"], *raw["I1"]]
    return unit_rows(grid, np.stack([_profile_values(grid, spec) for spec in specs]))[0]
