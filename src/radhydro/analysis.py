"""Error norms, energy records, prepared data and rate fitting.

The convergence harness compares a finite-eps run against the limit run
through five difference fields: the fluid differences (rho, u, theta)
and the radiation differences measured against the limit closure
evaluated on the *limit* temperature. Two Sobolev functionals track
them: the fluid energy ||(drho, du, dtheta)||_s and the eps-weighted
full energy whose square adds eps * ||(dI0, dI1)||_s^2; the square of
the full energy ("gamma") is the quantity whose sup-in-time should
scale like eps^2. The differences are never formed as fields:
``batch_error_squares`` takes the squared norms of every member of an
``EpsBatch`` from the half spectra both states carry, and the prepared
data of a whole sweep is built as one batch.

Observed convergence orders come from a least-squares line through
(log eps, log error) over a sweep of eps values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, PositivityLost, TimeMismatch
from .fluid import POSITIVITY_FLOOR
from .radiation import limit_spectrum
from .spectral import Grid, SpectralField, VectorField, sobolev_norm, sobolev_squares
from .stepping import EpsBatch, LimitState

__all__ = [
    "EnergyRecord",
    "RateFit",
    "PerturbationShapes",
    "default_perturbation_shapes",
    "batch_error_squares",
    "well_prepared_init",
    "hypothesis_deviation",
    "fit_rate",
]


@dataclass(frozen=True)
class EnergyRecord:
    """Sobolev energies of the differences of one member at one time.

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
        """Record from the squared fluid and radiation norms of one member
        (one column of ``batch_error_squares``)."""
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


def batch_error_squares(batch: EpsBatch, limit_state: LimitState, indices) -> np.ndarray:
    """Squared H^s norms of every member's differences from the limit
    state, at every index in indices.

    Returns an array of shape (len(indices), 2, E): per member the fluid
    ||drho||_s^2 + ||du||_s^2 + ||dtheta||_s^2 and the radiation
    ||dI0||_s^2 + ||dI1||_s^2, where the radiation references are the
    limit closure of the limit temperature, I0 = (I - Lap)^(-1) theta^4
    and its negative gradient. The differences are taken between the
    half spectra the states carry, so the one transform is the forward
    one of the limit temperature's theta^4, shared by all members; the
    norms are the ``sobolev_squares`` of the (2n+3, E, *half_shape)
    differences, as in ``sobolev_norm``.

    Raises:
        TimeMismatch: if the batch and the limit state differ in time by
            more than 1e-12.
    """
    grid = batch.grid
    if abs(batch.time - limit_state.time) > 1e-12:
        raise TimeMismatch(f"state times differ: {batch.time!r} vs {limit_state.time!r}")
    limit = np.concatenate([limit_state.spectrum, limit_spectrum(grid, limit_state.fluid[-1])])
    diff = np.concatenate([batch.spectrum, batch.rad])
    diff -= limit[:, None]
    per_field = sobolev_squares(grid, diff, indices)  # (index, field, member)
    return np.add.reduceat(per_field, [0, grid.n_dims + 2], axis=1)


def well_prepared_init(
    base: LimitState,
    eps_values,
    amp: float,
    shapes: PerturbationShapes | None = None,
) -> EpsBatch:
    """Prepared initial data of a sweep, at distance O(eps) from the limit
    data, as one batch with a member per entry of eps_values.

    The fluid fields deviate by eps*amp times the fixed shapes and the
    radiation pair deviates from the limit closure of the base
    temperature by sqrt(eps)*amp times its shapes, so the weighted
    initial-deviation functional is amp-many multiples of eps with an
    eps-independent constant. The fluid spectrum is built the same way,
    from the base state's spectrum and the shapes', so at amp = 0 the
    fluid spectrum is exactly the base state's and the moments are
    exactly the limit closure's half spectrum.

    Raises:
        PositivityLost: if the perturbed rho or theta of a member is not
            positive (the first such member in the order of eps_values).
    """
    eps = tuple(float(e) for e in eps_values)
    if not eps or min(eps) <= 0.0:
        raise ValueError(f"eps values must be positive, got {eps_values!r}")
    if amp < 0.0:
        raise ValueError(f"amp must be nonnegative, got {amp}")
    grid = base.grid
    if shapes is None:
        shapes = default_perturbation_shapes(grid)
    n = grid.n_dims
    dev = np.stack(
        [shapes.rho.values, *(c.values for c in shapes.u), shapes.theta.values,
         shapes.I0.values, *(c.values for c in shapes.I1)]
    )[:, None]
    dev_hat = grid.forward(dev)

    member = (-1,) + (1,) * n
    fluid_scale = np.reshape([e * amp for e in eps], member)
    rad_scale = np.reshape([math.sqrt(e) * amp for e in eps], member)
    fluid = base.fluid[:, None] + dev[: n + 2] * fluid_scale
    lows = np.minimum(fluid[0].min(axis=grid.axes), fluid[-1].min(axis=grid.axes))
    for e, low in zip(eps, lows):
        if low < POSITIVITY_FLOOR:
            raise PositivityLost(f"perturbation amp={amp} destroys positivity at eps={e}")
    spectrum = base.spectrum[:, None] + dev_hat[: n + 2] * fluid_scale
    rad = limit_spectrum(grid, base.fluid[-1])[:, None] + dev_hat[n + 2 :] * rad_scale
    return EpsBatch(grid, eps, fluid, rad, base.time, spectrum=spectrum)


def hypothesis_deviation(batch: EpsBatch, limit_init: LimitState, s: int) -> np.ndarray:
    """Weighted distance of each member's data from the limit-induced data.

    ||fluid differences||_s + sqrt(eps) * ||radiation differences||_s per
    member, the quantity that must be O(eps) for the convergence theory
    to apply; an array over the members of the batch.
    """
    fluid_sq, rad_sq = batch_error_squares(batch, limit_init, (s,))[0]
    return np.sqrt(fluid_sq) + np.sqrt(batch.eps) * np.sqrt(rad_sq)


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

