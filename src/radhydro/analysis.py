"""Error fields, energy functionals, prepared data and rate fitting.

The convergence harness compares a finite-eps run against the limit run
through five difference fields: the fluid differences (rho, u, theta)
and the radiation differences measured against the limit closure
evaluated on the *limit* temperature. Two Sobolev functionals track
them: the fluid energy ||(drho, du, dtheta)||_s and the eps-weighted
full energy whose square adds eps * ||(dI0, dI1)||_s^2; the square of
the full energy ("gamma") is the quantity whose sup-in-time should
scale like eps^2.

Observed convergence orders come from a least-squares line through
(log eps, log error) over a sweep of eps values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, PositivityLost, TimeMismatch
from .fluid import POSITIVITY_FLOOR, FluidState
from .radiation import RadiationMoments, limit_I0, limit_spectrum
from .spectral import Grid, SpectralField, VectorField, grad, sobolev_norm, sobolev_squares
from .stepping import EpsBatch, EpsState, LimitState

__all__ = [
    "ErrorFields",
    "EnergyRecord",
    "RateFit",
    "PerturbationShapes",
    "default_perturbation_shapes",
    "error_fields",
    "error_squares",
    "batch_error_squares",
    "energy",
    "well_prepared_init",
    "hypothesis_deviation",
    "fit_rate",
    "gamma_bound_check",
]


@dataclass(frozen=True)
class ErrorFields:
    """Difference fields between a finite-eps state and the limit state."""

    rho: SpectralField
    u: VectorField
    theta: SpectralField
    I0: SpectralField
    I1: VectorField
    time: float

    @property
    def grid(self) -> Grid:
        return self.rho.grid


@dataclass(frozen=True)
class EnergyRecord:
    """Sobolev energies of one ErrorFields snapshot.

    fluid_energy: norm of the fluid differences.
    full_energy: eps-weighted norm including the radiation differences.
    gamma: square of the full energy, the quantity tracked against eps^2.
    """

    time: float
    fluid_energy: float
    full_energy: float
    gamma: float

    @classmethod
    def from_squares(
        cls, time: float, fluid_sq: float, rad_sq: float, eps: float
    ) -> "EnergyRecord":
        """Record from the squared norms returned by error_squares."""
        full_sq = fluid_sq + eps * rad_sq
        return cls(
            time=time,
            fluid_energy=math.sqrt(fluid_sq),
            full_energy=math.sqrt(full_sq),
            gamma=full_sq,
        )


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(error) against log(eps)."""

    eps_values: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class PerturbationShapes:
    """Fixed deviation profiles used to build prepared initial data."""

    rho: SpectralField
    u: VectorField
    theta: SpectralField
    I0: SpectralField
    I1: VectorField


def _unit(f: SpectralField) -> SpectralField:
    return f * (1.0 / sobolev_norm(f, 0))


def default_perturbation_shapes(grid: Grid) -> PerturbationShapes:
    """Low-wavenumber trigonometric shapes, each of unit L^2 norm.

    Fixed defaults keep prepared-data runs deterministic and reproducible;
    override through the run configuration when studying other shapes.
    """
    x = grid.coordinates()
    if grid.n_dims == 1:
        rho = np.sin(x[0])
        u = [np.cos(x[0])]
        theta = np.sin(2.0 * x[0])
        i0 = np.cos(2.0 * x[0])
        i1 = [np.sin(3.0 * x[0])]
    else:
        rho = np.sin(x[0] + x[1])
        u = [np.cos(x[0]), np.sin(x[1])]
        theta = np.sin(2.0 * x[0])
        i0 = np.cos(x[0] + x[1])
        i1 = [np.sin(x[1]), np.cos(2.0 * x[0])]
    make = lambda v: _unit(SpectralField.from_values(grid, v))
    return PerturbationShapes(
        rho=make(rho),
        u=VectorField([make(c) for c in u]),
        theta=make(theta),
        I0=make(i0),
        I1=VectorField([make(c) for c in i1]),
    )


def error_fields(eps_state: EpsState, limit_state: LimitState) -> ErrorFields:
    """Componentwise differences against the limit solution.

    The radiation references are the limit closure of the limit
    temperature: the equilibrium intensity and its negative gradient.

    Raises:
        TimeMismatch: if the states differ in time by more than 1e-12.
    """
    if eps_state.grid != limit_state.grid:
        raise ValueError("states live on different grids")
    if abs(eps_state.time - limit_state.time) > 1e-12:
        raise TimeMismatch(
            f"state times differ: {eps_state.time!r} vs {limit_state.time!r}"
        )
    i0_ref = limit_I0(limit_state.fluid.theta)
    q_ref = -grad(i0_ref)
    return ErrorFields(
        rho=eps_state.fluid.rho - limit_state.fluid.rho,
        u=eps_state.fluid.u - limit_state.fluid.u,
        theta=eps_state.fluid.theta - limit_state.fluid.theta,
        I0=eps_state.rad.I0 - i0_ref,
        I1=eps_state.rad.I1 - q_ref,
        time=eps_state.time,
    )


def error_squares(err: ErrorFields, s: int) -> tuple[float, float]:
    """Squared H^s norms of the fluid and of the radiation differences.

    fluid: ||drho||_s^2 + ||du||_s^2 + ||dtheta||_s^2;
    radiation: ||dI0||_s^2 + ||dI1||_s^2.
    """
    fluid_sq = (
        sobolev_norm(err.rho, s) ** 2
        + sobolev_norm(err.u, s) ** 2
        + sobolev_norm(err.theta, s) ** 2
    )
    rad_sq = sobolev_norm(err.I0, s) ** 2 + sobolev_norm(err.I1, s) ** 2
    return fluid_sq, rad_sq


def batch_error_squares(batch: EpsBatch, limit_state: LimitState, indices) -> np.ndarray:
    """error_squares of every member of a batch, at every index in indices.

    Returns an array of shape (len(indices), 2, E): the squared H^s norms
    of the fluid and of the radiation differences. The limit references
    are computed once for all members, and the stacked (2n+3, E, *shape)
    differences take one forward transform; the norms are the
    ``sobolev_squares`` of its half spectrum, as in ``sobolev_norm``.

    Raises:
        TimeMismatch: if the batch and the limit state differ in time by
            more than 1e-12.
    """
    grid = batch.grid
    if abs(batch.time - limit_state.time) > 1e-12:
        raise TimeMismatch(f"state times differ: {batch.time!r} vs {limit_state.time!r}")
    limit_rad = grid.inverse(limit_spectrum(grid, limit_state.fluid.theta.values))
    diff = np.concatenate([batch.fluid, grid.inverse(batch.rad)])
    diff -= np.concatenate([limit_state.fluid.stacked, limit_rad])[:, None]
    spec = grid.forward(diff)
    del diff
    per_field = sobolev_squares(grid, spec, indices)  # (index, field, member)
    return np.add.reduceat(per_field, [0, grid.n_dims + 2], axis=1)


def energy(err: ErrorFields, s: int, eps: float) -> EnergyRecord:
    """Sobolev energies of the error fields at index s."""
    return EnergyRecord.from_squares(err.time, *error_squares(err, s), eps)


def well_prepared_init(
    base: LimitState,
    eps: float,
    amp: float,
    shapes: PerturbationShapes | None = None,
) -> tuple[EpsState, LimitState]:
    """Prepared initial data at distance O(eps) from the limit data.

    The fluid fields deviate by eps*amp times the fixed shapes and the
    radiation pair deviates from the limit closure by sqrt(eps)*amp times
    its shapes, so the weighted initial-deviation functional is amp-many
    multiples of eps with an eps-independent constant.

    Raises:
        PositivityLost: if the perturbed rho or theta is not positive.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if amp < 0.0:
        raise ValueError(f"amp must be nonnegative, got {amp}")
    grid = base.grid
    if shapes is None:
        shapes = default_perturbation_shapes(grid)

    fluid_scale = eps * amp
    rad_scale = math.sqrt(eps) * amp
    rho = base.fluid.rho + shapes.rho * fluid_scale
    u = base.fluid.u + shapes.u * fluid_scale
    theta = base.fluid.theta + shapes.theta * fluid_scale
    if rho.min_value < POSITIVITY_FLOOR or theta.min_value < POSITIVITY_FLOOR:
        raise PositivityLost(
            f"perturbation amp={amp} destroys positivity at eps={eps}"
        )
    i0_ref = limit_I0(base.fluid.theta)
    rad = RadiationMoments(
        I0=i0_ref + shapes.I0 * rad_scale,
        I1=-grad(i0_ref) + shapes.I1 * rad_scale,
    )
    eps_init = EpsState(
        fluid=FluidState(rho=rho, u=u, theta=theta), rad=rad, time=base.time
    )
    return eps_init, base


def hypothesis_deviation(
    eps_init: EpsState, limit_init: LimitState, s: int, eps: float
) -> float:
    """Weighted distance of initial data from the limit-induced data.

    ||fluid differences||_s + sqrt(eps) * ||radiation differences||_s,
    the quantity that must be O(eps) for the convergence theory to apply.
    """
    fluid_sq, rad_sq = error_squares(error_fields(eps_init, limit_init), s)
    return math.sqrt(fluid_sq) + math.sqrt(eps) * math.sqrt(rad_sq)


def fit_rate(pairs) -> RateFit:
    """Fit log(error) = slope*log(eps) + intercept by least squares.

    Args:
        pairs: at least three (eps, error) tuples with positive errors.

    Raises:
        DegenerateFit: nonpositive error, fewer than 3 pairs, or all eps
            equal.
    """
    pairs = sorted(pairs, key=lambda p: -p[0])
    if len(pairs) < 3:
        raise DegenerateFit(f"need at least 3 pairs, got {len(pairs)}")
    eps_values = tuple(float(p[0]) for p in pairs)
    errors = tuple(float(p[1]) for p in pairs)
    if any(e <= 0.0 for e in errors):
        raise DegenerateFit("errors must be positive for a log-log fit")
    if len(set(eps_values)) == 1:
        raise DegenerateFit("all eps values are equal")
    if len(set(eps_values)) != len(eps_values):
        raise DegenerateFit("eps values must be distinct")
    x = np.log(eps_values)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return RateFit(
        eps_values=eps_values,
        errors=errors,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
    )


def gamma_bound_check(
    records, eps: float, m1_squared: float = 100.0
) -> tuple[float, bool]:
    """Largest gamma/eps^2 over a time series, against a fixed bound.

    Whether the per-eps values stay comparable as eps shrinks is checked
    across a sweep by the harness; this covers a single series.
    """
    records = list(records)
    if not records:
        raise ValueError("empty record series")
    worst = max(r.gamma for r in records) / eps**2
    return worst, worst <= m1_squared
