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
the stacked half-spectrum coefficients of (I0, I1), which is how the
state stores the moments, so neither half substep needs a forward
transform of them.

Every state is a stack of arrays; there is no per-field object layer.
The Strang step is one array kernel over E members at once
(``EpsBatch``, ``step_batch``): the fluid state is a (n+2, E, *shape)
stack carried together with its (n+2, E, *half_shape) half spectrum,
the moments a (1+n, E, *half_shape) half spectrum, eps an (E, 1, ...)
array, and every transform batches fields and members. The spectrum is
built once from the initial values; after that RK4 runs as axpy
operations on it, the right-hand side returns the half spectrum of the
tendency, and each stage's values come from one inverse transform, so a
right-hand side costs 2 + 2 transform calls and a steady Strang step
9 forward + 13 inverse (8 + 12 for a limit step). Positivity is checked
on the values of every stage and finiteness after every step; a failure
names the member's eps, the time, the field and, for positivity, the
margin. Because the stable dt does not depend on eps (the
asymptotic-preserving property of the exact substep), one dt serves all
members of an eps sweep. The
dealiased theta^4 spectrum that closes one step also opens the next.
``step_eps`` advances one chunk of members through this kernel;
``step_batch`` splits a batch into chunks (LOCKSTEP_CELLS). The limit
system has no moments: its state (``LimitState``) is the (n+2, *shape)
stack of (rho, u, theta) in the same field order with its half
spectrum, ``step_limit`` is the same RK4 on it, and the right-hand-side
kernel forms the limit flux of each stage's temperature from the
theta^4 row of its own product batch (four transform calls per stage,
as for the eps system).

Viscous and heat terms ride inside the explicit RK4 stage under the
diffusive bound of ``cfl_bounds``, taken from the spectral radius of
the linear viscous and heat terms on the kept modes; at desk-scale
grids and mu, kappa <= 0.05 the dt penalty is acceptable and the code
stays matrix-free. This is the first knob to revisit for fine grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, located
from .fluid import FluidParams, _rhs_common, require_positive
from .radiation import emission_spectrum
from .spectral import Grid

__all__ = [
    "EpsBatch",
    "LimitState",
    "StepControl",
    "step_batch",
    "step_eps",
    "step_limit",
    "cfl_bounds",
    "cfl_dt",
]


@dataclass(frozen=True)
class LimitState:
    """Unknowns of the limit system at one time; the flux is derived,
    not stored.

    fluid: read-only (n+2, *shape) values of rho, u_1..u_n, theta, the
        field order of ``EpsBatch.fluid``.
    spectrum: read-only (n+2, *half_shape) half spectrum of fluid; built
        from the values when not given, carried by ``step_limit``.
    """

    grid: Grid
    fluid: np.ndarray
    time: float
    spectrum: np.ndarray | None = None

    def __post_init__(self):
        _carry_spectrum(self)


def _carry_spectrum(state) -> None:
    """Build a state's missing fluid spectrum and freeze both arrays."""
    if state.spectrum is None:
        object.__setattr__(state, "spectrum", state.grid.forward(state.fluid))
    state.fluid.setflags(write=False)
    state.spectrum.setflags(write=False)


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


def _substep(grid, coeffs: np.ndarray, source: np.ndarray, eps: np.ndarray, dt: float):
    """Advance the (1+n, E, *half_shape) coefficients of (I0, I1) exactly
    over [0, dt], theta frozen.

    Solves, per mode k with source t = the dealiased spectrum of theta^4,

        eps d(I0)/dt = t - I0 - i k . I1
        eps d(I1)/dt = -I1 - i k I0

    in closed form. The fixed point is the limit pair (Helmholtz-inverse
    intensity and its negative gradient); the deviation from it rotates at
    rate |k|/eps while decaying as exp(-dt/eps). A semigroup: two steps of
    dt/2 compose to one step of dt exactly. source is (E, *half_shape)
    and eps an (E, 1, ...) array; every member advances by the same dt.
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


def _rk4(grid, y: np.ndarray, y_hat: np.ndarray, rhs, dt: float, eps, time: float):
    """Classical RK4 on a (n+2, E, *shape) stack y, as axpy operations
    on its half spectrum y_hat.

    rhs maps the values and spectrum of a stage to the half spectrum of
    its tendency; the values of every later stage and of the result come
    from one inverse transform of their spectrum. Positivity is checked
    on the values of every stage; eps (the members' eps values, or None
    for the limit system) and the stage time name a failure. Returns the
    values and the spectrum of the new state.
    """

    def stage(z_hat, offset):
        z = grid.inverse(z_hat)
        require_positive(z, eps, time + offset)
        return rhs(z, z_hat)

    require_positive(y, eps, time)
    k1 = rhs(y, y_hat)
    k2 = stage(y_hat + k1 * (0.5 * dt), 0.5 * dt)
    k3 = stage(y_hat + k2 * (0.5 * dt), 0.5 * dt)
    k4 = stage(y_hat + k3 * dt, dt)
    out = y_hat + (k1 + (k2 + k3) * 2.0 + k4) * (dt / 6.0)
    return grid.inverse(out), out


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

    fluid: read-only (n+2, E, *shape) values of rho, u_1..u_n, theta.
    rad: (1+n, E, *half_shape) half spectra of I0, I1_1..I1_n.
    source: (E, *half_shape) dealiased spectrum of theta^4 of this fluid,
        or None when not yet computed; a step returns it, so the next
        step's first half substep reuses it.
    spectrum: read-only (n+2, E, *half_shape) half spectrum of fluid;
        built from the values when not given, carried by ``step_eps``.
    """

    grid: Grid
    eps: tuple[float, ...]
    fluid: np.ndarray
    rad: np.ndarray
    time: float
    source: np.ndarray | None = None
    spectrum: np.ndarray | None = None

    def __post_init__(self):
        for eps in self.eps:
            if eps <= 0.0:
                raise ValueError(f"eps must be positive, got {eps}")
        _carry_spectrum(self)

    def _chunk(self, members: slice) -> "EpsBatch":
        source = None if self.source is None else self.source[members]
        return EpsBatch(
            self.grid,
            self.eps[members],
            self.fluid[:, members],
            self.rad[:, members],
            self.time,
            source,
            self.spectrum[:, members],
        )


def step_batch(b: EpsBatch, p: FluidParams, dt: float) -> EpsBatch:
    """One Strang step of every member of the batch, with one shared dt.

    Members are advanced in chunks of at most LOCKSTEP_CELLS grid cells
    (at least one member each), one ``step_eps`` call per chunk; the
    chunks share dt, so the result does not depend on the chunk size.
    """
    per_chunk = max(1, LOCKSTEP_CELLS // math.prod(b.grid.shape))
    if len(b.eps) <= per_chunk:
        return step_eps(b, p, dt)
    fluid, rad, spectrum = np.empty_like(b.fluid), np.empty_like(b.rad), np.empty_like(b.spectrum)
    source = np.empty(rad.shape[1:], dtype=complex)
    for a in range(0, len(b.eps), per_chunk):
        members = slice(a, a + per_chunk)
        part = step_eps(b._chunk(members), p, dt)
        fluid[:, members], rad[:, members] = part.fluid, part.rad
        source[members], spectrum[:, members] = part.source, part.spectrum
    return EpsBatch(b.grid, b.eps, fluid, rad, part.time, source, spectrum)


def step_eps(b: EpsBatch, p: FluidParams, dt: float) -> EpsBatch:
    """One Strang step of the finite-eps system for every member of b,
    as one array.

    Second-order accurate in dt uniformly as eps -> 0 for smooth data;
    the global constant equilibrium is an exact fixed point.
    """
    grid = b.grid
    eps = np.reshape(b.eps, (-1,) + (1,) * grid.n_dims)
    source = b.source if b.source is not None else emission_spectrum(grid, b.fluid[-1])
    rad_half = _substep(grid, b.rad, source, eps, 0.5 * dt)
    moments = grid.inverse(rad_half)
    fluid, spectrum = _rk4(
        grid,
        b.fluid,
        b.spectrum,
        lambda y, y_hat: _rhs_common(grid, y, y_hat, p, rad=moments, eps=eps),
        dt,
        b.eps,
        b.time,
    )
    source = emission_spectrum(grid, fluid[-1])
    rad = _substep(grid, rad_half, source, eps, 0.5 * dt)
    time = b.time + dt
    _require_finite(fluid, rad, b.eps, time)
    return EpsBatch(grid, b.eps, fluid, rad, time, source, spectrum)


def step_limit(s: LimitState, p: FluidParams, dt: float) -> LimitState:
    """One RK4 step of the limit system.

    The flux is formed from the stage temperature inside every stage's
    right-hand side, so the limit flux equation holds to solver precision
    throughout.
    """
    grid = s.grid
    rhs = lambda y, y_hat: _rhs_common(grid, y, y_hat, p)
    fluid, spectrum = _rk4(grid, s.fluid[:, None], s.spectrum[:, None], rhs, dt, None, s.time)
    time = s.time + dt
    _require_finite(fluid, None, None, time)
    return LimitState(grid, fluid[:, 0], time, spectrum[:, 0])


# Real-axis stability interval of classical RK4: the amplification
# factor 1 + z + z^2/2 + z^3/6 + z^4/24 has modulus at most 1 for real z
# in [-R, 0], where -R is the real root of z^3 + 4 z^2 + 12 z + 24 = 0
# (Hairer & Wanner, Solving Ordinary Differential Equations II, Sect. IV.2).
RK4_REAL_STABILITY = 2.785293563405282


def cfl_bounds(grid: Grid, y: np.ndarray, p: FluidParams, c: StepControl) -> tuple[float, float]:
    """Advective and diffusive step bounds of a (n+2, *shape) or
    (n+2, E, *shape) stack.

    advective = cfl_adv * h / (max|u| + sqrt(max theta)),
    diffusive = cfl_diff * R * min(rho) / (max(mu, 2 mu + lam, kappa) * K2),

    each the minimum over the members. sqrt(theta) is the isothermal
    sound-speed proxy (unit gas constant). The diffusive bound keeps the
    spectral radius of the linear viscous and heat terms, divided by
    rho, inside the real-axis stability interval R of RK4
    (RK4_REAL_STABILITY): the stress symbol -mu|k|^2 u - (mu + lam) k(k.u)
    has the eigenvalues -mu|k|^2 and -(2 mu + lam)|k|^2, the heat symbol
    -kappa|k|^2, and K2 = n * floor(N/3)^2 is the largest |k|^2 the 2/3
    rule keeps. Pointwise maxima and minima only, no transforms.
    """
    spatial = grid.axes
    u_max = np.sqrt(np.sum(y[1:-1] ** 2, axis=0).max(axis=spatial))
    speed = u_max + np.sqrt(y[-1].max(axis=spatial))
    advective = c.cfl_advective * grid.spacing / speed
    k2_max = grid.n_dims * (grid.points_per_dim // 3) ** 2
    stiffness = max(p.mu, 2.0 * p.mu + p.lam, p.kappa) * k2_max
    diffusive = c.cfl_diffusive * RK4_REAL_STABILITY * y[0].min(axis=spatial) / stiffness
    return float(advective.min()), float(diffusive.min())


def cfl_dt(s, p: FluidParams, c: StepControl) -> float:
    """Stable time step of an EpsBatch or a LimitState: the smaller
    ``cfl_bounds``, the dt cap or the time remaining.

    The stiff radiation scale imposes no restriction (the substep is
    exact), so the result is independent of eps; for a batch it is the
    minimum over the members.
    """
    return min(*cfl_bounds(s.grid, s.fluid, p, c), c.dt, c.t_end - s.time)
