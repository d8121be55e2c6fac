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
half substep starts from them without another forward transform.

The Strang step is one array kernel over E members at once
(``EpsBatch``, ``step_batch``): the fluid state is a (n+2, E, *shape)
stack, the moments a (1+n, E, *half_shape) half spectrum, eps an
(E, 1, ...) array, and every transform batches fields and members. RK4
runs as axpy operations on the stack, with positivity checked at every
stage and finiteness after every step; a failure names the member's
eps, the time, the field and, for positivity, the margin. Because the
stable dt does not depend on eps (the asymptotic-preserving property of
the exact substep), one dt serves all members of an eps sweep. The
dealiased theta^4 spectrum that closes one step also opens the next.
``step_eps`` advances one state, or one chunk of members, through this
kernel; ``step_batch`` splits a batch into chunks (LOCKSTEP_CELLS).
The limit system has no moments: ``step_limit`` is the same RK4 on its
(n+2, 1, *shape) stack, and the right-hand-side kernel forms the limit
flux of each stage's temperature from the theta^4 row of its own
product batch (six transform calls per stage, as for the eps system).

Viscous and heat terms ride inside the explicit RK4 stage with the
diffusive CFL bound; at desk-scale grids and mu, kappa <= 0.05 the dt
penalty is acceptable and the code stays matrix-free. This is the first
knob to revisit for fine grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, located
from .fluid import FluidParams, FluidState, _rhs_common, require_positive
from .radiation import RadiationMoments, emission_spectrum
from .spectral import Grid, SpectralField

__all__ = [
    "EpsBatch",
    "EpsState",
    "LimitState",
    "StepControl",
    "radiation_exact_substep",
    "step_batch",
    "step_eps",
    "step_limit",
    "cfl_bounds",
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


# Grid cells per lockstep chunk. The members of one chunk are transformed
# together, which saves per-call overhead on small grids; on large grids
# the batched working set leaves the per-core L2 cache and a chunk gets
# slower than its members one by one. Step time in ms of four members by
# members per chunk, median (range) of three runs, 2-core Xeon VM with
# 2 MB L2 per core, numpy 2.4:
#   grid    1 per chunk       2 per chunk       4 per chunk
#   1D/64     5.1 (4.5-5.6)     2.7 (2.5-2.9)     1.5 (1.4-1.6)
#   2D/32    14.2 (10.7-14.9)  11.6 (11.1-12.4)  10.1 (9.3-10.8)
#   2D/64    30.2 (28.0-32.5)  26.1 (22.4-27.7)  26.2 (25.2-28.4)
#   2D/128  115.3 (102-116)   113.9 (109-126)   156.9 (145-158)
# At 2D/64 two members per chunk step faster than one, but the doubled
# right-hand-side temporaries raise the peak memory of a 2D/64
# convergence study (t_end 0.1) from 38.0 to 41.4 MB, so the budget is
# 4096 cells: one member per chunk from 2D/64 up, all four together at
# 2D/32 and in 1D.
LOCKSTEP_CELLS = 4096


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
    source = emission_spectrum(grid, theta_frozen.values)[None]
    eps_member = np.full((1,) * (grid.n_dims + 1), float(eps))
    out = _substep(grid, rad.half_spectrum[:, None], source, eps_member, dt)
    return RadiationMoments.from_half_spectrum(grid, out[:, 0])


def _substep(grid, coeffs: np.ndarray, source: np.ndarray, eps: np.ndarray, dt: float):
    """The exact substep on (1+n, E, *half_shape) coefficients of (I0, I1).

    source is the (E, *half_shape) dealiased spectrum of theta^4 and eps
    an (E, 1, ...) array; every member advances by the same dt.
    """
    i0, i1 = coeffs[0], coeffs[1:]
    kappa = grid.half_k_abs
    khat = grid.half_k_unit[:, None]

    # Longitudinal component of I1 and the steady state of the 2x2 block.
    along = np.sum(khat * i1, axis=0)
    i0_star = source * grid.half_helmholtz
    along_star = -1j * kappa * i0_star

    tau = dt / eps
    decay = np.exp(-tau)
    cos_r = np.cos(kappa * tau)
    sin_r = np.sin(kappa * tau)

    d0 = i0 - i0_star
    da = along - along_star
    out = np.empty_like(coeffs)
    out[0] = i0_star + decay * (cos_r * d0 - 1j * sin_r * da)
    along_new = along_star + decay * (-1j * sin_r * d0 + cos_r * da)
    out[1:] = along_new * khat + decay * (i1 - along * khat)
    return out


def _rk4(y: np.ndarray, rhs, dt: float, eps, time: float) -> np.ndarray:
    """Classical RK4 as axpy operations on a (n+2, E, *shape) stack.

    Positivity is checked on the state of every stage; eps (the
    members' eps values, or None for the limit system) and the stage
    time name a failure.
    """

    def stage(z, offset):
        require_positive(z, eps, time + offset)
        return rhs(z)

    k1 = stage(y, 0.0)
    k2 = stage(y + k1 * (0.5 * dt), 0.5 * dt)
    k3 = stage(y + k2 * (0.5 * dt), 0.5 * dt)
    k4 = stage(y + k3 * dt, dt)
    return y + (k1 + (k2 + k3) * 2.0 + k4) * (dt / 6.0)


def _require_finite(fluid: np.ndarray, rad, eps, time: float) -> None:
    """BlowUp naming the first member and field with a non-finite value.

    fluid is (n+2, E, *shape); rad the (1+n, E, ...) radiation spectrum
    or None; eps the members' eps values, or None for the limit system.
    """
    if np.isfinite(fluid).all() and (rad is None or np.isfinite(rad).all()):
        return
    fields = [("rho", fluid[:1]), ("u", fluid[1:-1]), ("theta", fluid[-1:])]
    if rad is not None:
        fields += [("I0", rad[:1]), ("I1", rad[1:])]
    for e in range(fluid.shape[1]):
        for name, rows in fields:
            if not np.isfinite(rows[:, e]).all():
                member = None if eps is None else eps[e]
                raise BlowUp(
                    f"non-finite {name} ({located(member, time)})",
                    eps=member,
                    time=time,
                    field=name,
                )


@dataclass(frozen=True)
class EpsBatch:
    """E finite-eps states at one time, stacked on a member axis.

    fluid: (n+2, E, *shape) values of rho, u_1..u_n, theta.
    rad: (1+n, E, *half_shape) half spectra of I0, I1_1..I1_n.
    source: (E, *half_shape) dealiased spectrum of theta^4 of this fluid,
        or None when not yet computed; a step returns it, so the next
        step's first half substep reuses it.
    """

    grid: Grid
    eps: tuple[float, ...]
    fluid: np.ndarray
    rad: np.ndarray
    time: float
    source: np.ndarray | None = None

    def __post_init__(self):
        for eps in self.eps:
            if eps <= 0.0:
                raise ValueError(f"eps must be positive, got {eps}")

    @classmethod
    def from_states(cls, states, eps) -> "EpsBatch":
        """Batch of simultaneous states, one per entry of eps."""
        fluid = np.stack([s.fluid.stacked for s in states], axis=1)
        rad = np.stack([s.rad.half_spectrum for s in states], axis=1)
        return cls(states[0].grid, tuple(eps), fluid, rad, states[0].time)

    def member(self, e: int) -> EpsState:
        """Member e as a state viewing the batch arrays."""
        fluid = FluidState.from_stacked(self.grid, self.fluid[:, e])
        rad = RadiationMoments.from_half_spectrum(self.grid, self.rad[:, e])
        return EpsState(fluid=fluid, rad=rad, time=self.time)

    def _chunk(self, members: slice) -> "EpsBatch":
        source = None if self.source is None else self.source[members]
        return EpsBatch(
            self.grid,
            self.eps[members],
            self.fluid[:, members],
            self.rad[:, members],
            self.time,
            source,
        )


def _strang(b: EpsBatch, p: FluidParams, dt: float) -> EpsBatch:
    grid = b.grid
    eps = np.reshape(b.eps, (-1,) + (1,) * grid.n_dims)
    source = b.source if b.source is not None else emission_spectrum(grid, b.fluid[-1])
    rad_half = _substep(grid, b.rad, source, eps, 0.5 * dt)
    moments = grid.inverse(rad_half)
    fluid = _rk4(
        b.fluid,
        lambda y: _rhs_common(grid, y, p, rad=moments, eps=eps),
        dt,
        b.eps,
        b.time,
    )
    source = emission_spectrum(grid, fluid[-1])
    rad = _substep(grid, rad_half, source, eps, 0.5 * dt)
    time = b.time + dt
    _require_finite(fluid, rad, b.eps, time)
    return EpsBatch(grid, b.eps, fluid, rad, time, source)


def step_batch(b: EpsBatch, p: FluidParams, dt: float) -> EpsBatch:
    """One Strang step of every member of the batch, with one shared dt.

    Members are advanced in chunks of at most LOCKSTEP_CELLS grid cells
    (at least one member each), one ``step_eps`` call per chunk; the
    chunks share dt, so the result does not depend on the chunk size.
    """
    per_chunk = max(1, LOCKSTEP_CELLS // math.prod(b.grid.shape))
    if len(b.eps) <= per_chunk:
        return step_eps(b, p, b.eps, dt)
    fluid, rad = np.empty_like(b.fluid), np.empty_like(b.rad)
    source = np.empty(rad.shape[1:], dtype=complex)
    for a in range(0, len(b.eps), per_chunk):
        members = slice(a, a + per_chunk)
        part = step_eps(b._chunk(members), p, b.eps[members], dt)
        fluid[:, members], rad[:, members], source[members] = part.fluid, part.rad, part.source
    return EpsBatch(b.grid, b.eps, fluid, rad, part.time, source)


def step_eps(s, p: FluidParams, eps, dt: float):
    """One Strang step of the finite-eps system.

    Second-order accurate in dt uniformly as eps -> 0 for smooth data;
    the global constant equilibrium is an exact fixed point. s is one
    EpsState with its eps, or an EpsBatch whose members advance together
    as one array (eps then is the tuple of the members' values, s.eps);
    the result is of the same kind.
    """
    if isinstance(s, EpsBatch):
        if tuple(eps) != s.eps:
            raise ValueError(f"eps {eps!r} does not match the batch's {s.eps!r}")
        return _strang(s, p, dt)
    return _strang(EpsBatch.from_states([s], (eps,)), p, dt).member(0)


def step_limit(s: LimitState, p: FluidParams, dt: float) -> LimitState:
    """One RK4 step of the limit system.

    The flux is formed from the stage temperature inside every stage's
    right-hand side, so the limit flux equation holds to solver precision
    throughout.
    """
    grid = s.grid
    rhs = lambda y: _rhs_common(grid, y, p)
    fluid = _rk4(s.fluid.stacked[:, None], rhs, dt, None, s.time)
    time = s.time + dt
    _require_finite(fluid, None, None, time)
    return LimitState(fluid=FluidState.from_stacked(grid, fluid[:, 0]), time=time)


def cfl_bounds(grid: Grid, y: np.ndarray, p: FluidParams, c: StepControl) -> tuple[float, float]:
    """Advective and diffusive step bounds of a (n+2, E, *shape) stack.

    advective = cfl_adv * h / (max|u| + sqrt(max theta)),
    diffusive = cfl_diff * h^2 * min(rho) / max(mu, kappa),

    each the minimum over the E members. sqrt(theta) is the isothermal
    sound-speed proxy (unit gas constant). Pointwise maxima and minima
    only, no transforms.
    """
    spatial = tuple(range(1, y.ndim - 1))
    h = grid.spacing
    u_max = np.sqrt(np.sum(y[1:-1] ** 2, axis=0).max(axis=spatial))
    speed = u_max + np.sqrt(y[-1].max(axis=spatial))
    advective = c.cfl_advective * h / speed
    diffusive = c.cfl_diffusive * h**2 * y[0].min(axis=spatial) / max(p.mu, p.kappa)
    return float(advective.min()), float(diffusive.min())


def cfl_dt(s, p: FluidParams, c: StepControl, eps: float | None = None) -> float:
    """Stable time step: the smaller ``cfl_bounds``, the dt cap or the
    time remaining.

    The stiff radiation scale imposes no restriction (the substep is
    exact), so the result is independent of eps. For an EpsBatch it is
    the minimum over the members.
    """
    y = s.fluid if isinstance(s, EpsBatch) else s.fluid.stacked[:, None]
    return min(*cfl_bounds(s.grid, y, p, c), c.dt, c.t_end - s.time)
