"""Time integration: Strang splitting with an exact radiation substep.

The radiation moments relax on the 1/eps scale, so explicit coupling
would force dt = O(eps). Instead each step composes

    half radiation substep -> full RK4 fluid step -> half radiation substep

where the radiation substep solves its linear constant-coefficient
subsystem exactly per Fourier mode (theta^4 frozen over the substep) and
the fluid step holds the radiation moments fixed while re-evaluating the
full fluid right-hand side at every stage. The stiff scale therefore
imposes no time-step restriction: dt is limited only by the advective
and diffusive CFL bounds, independent of eps.

Per mode k the radiation subsystem splits into a longitudinal 2x2 block
(the zeroth moment and the component of the first moment along k), whose
matrix exponential is a damped rotation exp(-dt/eps) *
rot(|k| dt / eps), and transverse first-moment components that decay as
exp(-dt/eps). No linear solves appear anywhere. The substep works on
the stacked half-spectrum coefficients of (I0, I1); the moments it
returns keep them (``RadiationMoments.half_spectrum``), so the second
half substep starts from them without another forward transform. RK4
runs as axpy operations on the stacked (n+2, *shape) fluid state.

Viscous and heat terms ride inside the explicit RK4 stage with the
diffusive CFL bound; at desk-scale grids and mu, kappa <= 0.05 the dt
penalty is acceptable and the code stays matrix-free. This is the first
knob to revisit for fine grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp
from .fluid import FluidParams, FluidState, fluid_rhs_eps, fluid_rhs_limit
from .radiation import RadiationMoments, limit_q
from .spectral import SpectralField

__all__ = [
    "EpsState",
    "LimitState",
    "StepControl",
    "radiation_exact_substep",
    "step_eps",
    "step_limit",
    "cfl_dt",
]


@dataclass(frozen=True)
class EpsState:
    """Unknowns of the finite-eps system at one time."""

    fluid: FluidState
    rad: RadiationMoments
    time: float

    def __post_init__(self):
        if self.fluid.grid != self.rad.grid:
            raise ValueError("fluid and radiation grids differ")

    @property
    def grid(self):
        return self.fluid.grid


@dataclass(frozen=True)
class LimitState:
    """Unknowns of the limit system; the flux is derived, not stored."""

    fluid: FluidState
    time: float

    @property
    def grid(self):
        return self.fluid.grid


@dataclass(frozen=True)
class StepControl:
    """Time-step limits: dt cap, CFL safety factors, final time."""

    t_end: float
    dt: float = math.inf
    cfl_advective: float = 0.4
    cfl_diffusive: float = 0.4

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt cap must be positive, got {self.dt}")
        for name in ("cfl_advective", "cfl_diffusive"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")


def radiation_exact_substep(
    rad: RadiationMoments, theta_frozen: SpectralField, eps: float, dt: float
) -> RadiationMoments:
    """Advance the radiation moments exactly over [0, dt], theta frozen.

    Solves, per mode k with source t = coefficients of theta^4 (dealiased),

        eps d(I0)/dt = t - I0 - i k . I1
        eps d(I1)/dt = -I1 - i k I0

    in closed form. The fixed point is the limit pair (Helmholtz-inverse
    intensity and its negative gradient); the deviation from it rotates at
    rate |k|/eps while decaying as exp(-dt/eps). A semigroup: two steps of
    dt/2 compose to one step of dt exactly.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    grid = rad.grid
    source = grid.forward(theta_frozen.values**4)
    source *= grid.half_dealias_mask
    coeffs = rad.half_spectrum
    i0, i1 = coeffs[0], coeffs[1:]
    kappa = grid.half_k_abs
    khat = grid.half_k_unit

    # Longitudinal component of I1 and the steady state of the 2x2 block.
    along = np.sum(khat * i1, axis=0)
    i0_star = source * grid.half_helmholtz
    along_star = -1j * kappa * i0_star

    tau = dt / eps
    decay = math.exp(-tau)
    cos_r = np.cos(kappa * tau)
    sin_r = np.sin(kappa * tau)

    d0 = i0 - i0_star
    da = along - along_star
    out = np.empty_like(coeffs)
    out[0] = i0_star + decay * (cos_r * d0 - 1j * sin_r * da)
    along_new = along_star + decay * (-1j * sin_r * d0 + cos_r * da)
    out[1:] = along_new * khat + decay * (i1 - along * khat)
    return RadiationMoments.from_half_spectrum(grid, out)


def _stacked(tend) -> np.ndarray:
    d_rho, d_u, d_theta = tend
    return np.stack([d_rho.values, *(c.values for c in d_u), d_theta.values])


def _rk4(f: FluidState, rhs, dt: float) -> FluidState:
    """Classical RK4 as axpy operations on the stacked (n+2, *shape) state."""
    grid = f.grid
    y = f.stacked
    k1 = _stacked(rhs(f))
    k2 = _stacked(rhs(FluidState.from_stacked(grid, y + k1 * (0.5 * dt))))
    k3 = _stacked(rhs(FluidState.from_stacked(grid, y + k2 * (0.5 * dt))))
    k4 = _stacked(rhs(FluidState.from_stacked(grid, y + k3 * dt)))
    return FluidState.from_stacked(grid, y + (k1 + (k2 + k3) * 2.0 + k4) * (dt / 6.0))


def _check_finite(fluid: FluidState, time: float, extra_finite: bool = True) -> None:
    if not (fluid.is_finite() and extra_finite):
        raise BlowUp(f"non-finite values at t = {time:.6g}")


def step_eps(s: EpsState, p: FluidParams, eps: float, dt: float) -> EpsState:
    """One Strang step of the finite-eps system.

    Second-order accurate in dt uniformly as eps -> 0 for smooth data;
    the global constant equilibrium is an exact fixed point.
    """
    rad_half = radiation_exact_substep(s.rad, s.fluid.theta, eps, 0.5 * dt)
    fluid = _rk4(s.fluid, lambda f: fluid_rhs_eps(f, rad_half, eps, p), dt)
    rad_full = radiation_exact_substep(rad_half, fluid.theta, eps, 0.5 * dt)
    _check_finite(fluid, s.time + dt, rad_full.is_finite())
    return EpsState(fluid=fluid, rad=rad_full, time=s.time + dt)


def step_limit(s: LimitState, p: FluidParams, dt: float) -> LimitState:
    """One RK4 step of the limit system.

    The flux is recomputed from the stage temperature at every stage, so
    the limit flux equation holds to solver precision throughout.
    """

    def rhs(f: FluidState):
        return fluid_rhs_limit(f, limit_q(f.theta), p)

    fluid = _rk4(s.fluid, rhs, dt)
    _check_finite(fluid, s.time + dt)
    return LimitState(fluid=fluid, time=s.time + dt)


def cfl_dt(s, p: FluidParams, c: StepControl, eps: float | None = None) -> float:
    """Stable time step from the advective and diffusive bounds.

    dt = min( cfl_adv * h / (max|u| + sqrt(max theta)),
              cfl_diff * h^2 * min(rho) / max(mu, kappa),
              dt cap, time remaining ).

    sqrt(theta) is the isothermal sound-speed proxy (unit gas constant).
    The stiff radiation scale imposes no restriction (the substep is
    exact), so the result is independent of eps.
    """
    fluid = s.fluid
    h = fluid.grid.spacing
    speed = fluid.u.max_magnitude() + math.sqrt(fluid.theta.max_value)
    advective = c.cfl_advective * h / speed
    diffusive = c.cfl_diffusive * h**2 * fluid.rho.min_value / max(p.mu, p.kappa)
    remaining = c.t_end - s.time
    return min(advective, diffusive, c.dt, remaining)
