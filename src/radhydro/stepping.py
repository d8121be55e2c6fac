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

The scheme is uniformly stable in eps but not uniformly second order:
the error is of order 2 in dt while dt << eps and of order 1, bounded
independently of eps, once eps << dt. For one mode of amplitude 1e-7
(1D/32, k = 3, T = 0.5, mu = lam = kappa = 0.01), against the same
run at dt/32, the fluid error relative to the perturbation is 5.3e-5,
1.3e-5, 3.3e-6 and 8.2e-7 at eps = 0.1 for dt = 5e-3 down to 6.25e-4,
and 5.7e-4, 2.8e-4, 1.4e-4 and 6.9e-5 at both eps = 1e-6 and 1e-8.
After the first half substep the moments sit on the closure of the
step's initial temperature, so the RK4 stages see the heat source of
theta_n where the limit has that of theta(t): the order reduction of
Strang splitting with stiff relaxation (Jin 1995, J. Comput. Phys.
122:51). The default sweep keeps dt/eps <= 0.2, in the order-2 regime.
In the transition regime dt ~ eps neither order shows and the error is
not monotone in dt: at eps = 1e-3 the same self-convergence gives
7.4e-4, 2.1e-4, 3.2e-4 and 7.4e-5 for dt = 5e-3 down to 6.25e-4, and
the linear oracle of tests/test_linear_oracle.py (the mode's largest
component error against V exp(Lambda t) V^(-1)) 4.8e-4, 2.1e-3 and
6.6e-4 for dt = 5e-3, 2.5e-3 and 1.25e-3; the error there stays
bounded, and that is all the tests claim for it.

Per mode k the radiation subsystem splits into a longitudinal 2x2 block
(the zeroth moment and the component of the first moment along k), whose
matrix exponential is a damped rotation exp(-dt/eps) *
rot(|k| dt / eps), and transverse first-moment components that decay as
exp(-dt/eps). No linear solves appear anywhere. The substep works on
the stacked half-spectrum coefficients of (I0, I1), which is how the
state stores the moments, so neither half substep needs a forward
transform of them. Both half substeps of a step advance by dt/2, so
the step evaluates the propagator exp(-tau), cos(|k| tau), sin(|k| tau)
with tau = dt/(2 eps) once (``_propagator``) and hands it to both, and
each applies it as the plain formula of the damped rotation.

Every state is a stack of arrays; there is no per-field object layer.
The Strang step is one array kernel over E members at once
(``EpsBatch``, ``step_batch``): the fluid state is a (n+2, E, *shape)
stack carried together with its (n+2, E, *half_shape) half spectrum,
the moments a (1+n, E, *half_shape) half spectrum, eps an (E, 1, ...)
array, and every transform batches fields and members. The spectrum is
built once from the initial values; after that RK4 runs as axpy
operations on it, the right-hand side returns the half spectrum of the
tendency, and each stage's values come from one inverse transform, so a
right-hand side costs 2 + 2 transform calls and every Strang step
9 forward + 12 inverse, as does every limit step. The half-substepped
moments enter the right-hand side as spectra, added to its numerator
spectra before their inverse transform, so they are never inverted.
The RK4 stage spectra share one buffer (``_rk4``). Positivity is
checked on the values of every stage and finiteness after every step;
a failure names the member's eps, the time, the field and, for
positivity, the margin. Because the stable dt does not depend on eps
(the exact substep is stable for every eps), one dt serves all members
of an eps sweep. Every batch carries the dealiased theta^4 spectrum
of its temperatures; the one that closes a step opens the next.
``step_eps`` advances one chunk of members through this kernel;
``step_batch`` splits a batch into chunks (LOCKSTEP_CELLS).

The limit system is the member eps = 0, its moments the limit closure
of its temperature, alone or first in a batch of eps members that share
its dt; ``step_batch`` steps it as a chunk of its own. At eps = 0 no
substep is taken: the right-hand side forms the limit flux of each
stage's temperature from the theta^4 row of its own product batch
(four transform calls per stage, as for the eps system), and the step
closes with the limit closure of its new theta^4 spectrum
(``radiation.limit_closure``). A failure of that member names the limit
system (eps None).

Viscous and heat terms ride inside the explicit RK4 stage under the
diffusive bound of ``cfl_bounds``, taken from the spectral radius of
the linear viscous and heat terms on the kept modes; at desk-scale
grids and mu, kappa <= 0.05 the dt penalty is acceptable and the code
stays matrix-free. This is the first knob to revisit for fine grids.
``cfl_dt`` takes the dt cap and the two CFL safety factors as the
numbers the config parse validated; spreading the steps so that they
land on an output time is the runner's part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, located
from .fluid import FluidParams, _rhs_common, require_positive
from .radiation import emission_spectrum, limit_closure
from .spectral import Grid

__all__ = [
    "EpsBatch",
    "step_batch",
    "step_eps",
    "cfl_bounds",
    "cfl_dt",
]


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


def _propagator(grid, eps: np.ndarray, dt: float):
    """The exact radiation substep's propagator over dt, as the triple
    (exp(-tau), exp(-tau) cos(|k| tau), -i exp(-tau) sin(|k| tau)) with
    tau = dt/eps: (E, 1, ...) real, (E, *half_shape) real and complex.
    Both half substeps of a Strang step share one."""
    tau = dt / eps
    decay = np.exp(-tau)
    phase = grid.half_k_abs * tau
    return decay, decay * np.cos(phase), -1j * decay * np.sin(phase)


def _substep(grid, coeffs: np.ndarray, source: np.ndarray, propagator):
    """Advance the (1+n, E, *half_shape) coefficients of (I0, I1) exactly
    over [0, dt], theta frozen; propagator is ``_propagator(grid, eps,
    dt)``.

    Solves, per mode k with source t = the dealiased spectrum of theta^4,

        eps d(I0)/dt = t - I0 - i k . I1
        eps d(I1)/dt = -I1 - i k I0

    in closed form. The fixed point is the limit pair (Helmholtz-inverse
    intensity and its negative gradient); the deviation from it rotates at
    rate |k|/eps while decaying as exp(-dt/eps). A semigroup: two steps of
    dt/2 compose to one step of dt exactly. source is (E, *half_shape);
    every member advances by the same dt.

    Written as the plain formula. Against the former in-place form with
    one preallocated output, the step loop of a default study batch
    (median of 32 alternating in-process pairs, 2-core Xeon VM, numpy
    2.4) took 210 -> 201 ms at 1D/64 over 200 steps and 843 -> 840 ms
    at 2D/64 over 40 steps, the plain form faster in 13 and 14 pairs;
    two more 1D sets read 155 -> 166 and 155 -> 159 ms, so it costs at
    most a few percent in 1D.
    """
    decay, damped_cos, damped_sin = propagator
    i0, i1 = coeffs[0], coeffs[1:]
    khat = grid.half_k_unit[:, None]

    # Longitudinal component of I1 and the steady state of the 2x2 block.
    along = khat[0] * i1[0]
    for j in range(1, grid.n_dims):
        along += khat[j] * i1[j]
    i0_star = source * grid.half_helmholtz
    along_star = i0_star * grid.half_k_abs * -1j

    # The deviation (d0, da) from the steady state turns by the damped
    # rotation; the transverse part of I1 only decays:
    # I1 = decay * I1 + khat * (new along - decay * old along).
    d0 = i0 - i0_star
    da = along - along_star
    new_i0 = damped_cos * d0 + i0_star + damped_sin * da
    new_along = damped_sin * d0 + along_star + damped_cos * da
    return np.concatenate([new_i0[None], khat * (new_along - decay * along) + decay * i1])


def _rk4(grid, y: np.ndarray, y_hat: np.ndarray, rhs, dt: float, eps, time: float):
    """Classical RK4 on a (n+2, E, *shape) stack y, as axpy operations
    on its half spectrum y_hat.

    rhs maps the values and spectrum of a stage to a new array, the half
    spectrum of its tendency; the values of every later stage and of the
    result come from one inverse transform of their spectrum. The stage
    spectra share one buffer, and the combination
    y_hat + (k1 + (k2 + k3) * 2 + k4) * (dt / 6) accumulates in place in
    that operation order, so the result has the bits of the plain
    expression. Positivity is checked on the values of every stage; eps
    (the members' eps values, or None for the limit system) and the
    stage time name a failure. Returns the values and the spectrum of
    the new state.

    The buffer stays because the plain form (a new spectrum per stage,
    the combination as one expression) is slower in 2D: measured as for
    ``_substep``, 897 -> 982 and 709 -> 760 ms at 2D/64 (plain faster in
    8 and 9 of 32 pairs), 186 -> 184 ms at 1D/64 (15 of 32).
    """
    z_hat = np.empty_like(y_hat)

    def stage(k, offset):
        """Values of the stage y_hat + k * offset, its spectrum in z_hat."""
        np.add(y_hat, np.multiply(k, offset, out=z_hat), out=z_hat)
        z = grid.inverse(z_hat)
        require_positive(z, eps, time + offset)
        return z

    require_positive(y, eps, time)
    k1 = rhs(y, y_hat)
    k2 = rhs(stage(k1, 0.5 * dt), z_hat)
    k3 = rhs(stage(k2, 0.5 * dt), z_hat)
    z = stage(k3, dt)
    # k1 + (k2 + k3) * 2 is complete before the last tendency is formed,
    # so k1 and k3 are released first.
    out = k2
    out += k3
    out *= 2.0
    out += k1
    del k1, k3
    out += rhs(z, z_hat)
    out *= dt / 6.0
    out += y_hat
    return grid.inverse(out), out


def _require_finite(fluid: np.ndarray, rad, eps, time: float) -> None:
    """BlowUp naming the first member and field with a non-finite value.

    fluid is (n+2, E, *shape); rad the (1+n, E, ...) radiation spectrum;
    eps the members' eps values, or None for the limit system.
    """
    if np.isfinite(fluid).all() and np.isfinite(rad).all():
        return
    fields = [("rho", fluid[:1]), ("u", fluid[1:-1]), ("theta", fluid[-1:])]
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
    """E states at one time, stacked on a member axis: finite-eps
    members, after the limit system (eps = 0) when it is the first.

    fluid: read-only (n+2, E, *shape) values of rho, u_1..u_n, theta.
    rad: read-only (1+n, E, *half_shape) half spectra of I0,
        I1_1..I1_n; at eps = 0 the limit closure of theta.
    source: read-only (E, *half_shape) dealiased spectrum of theta^4 of
        fluid; built from the values when not given, carried by
        ``step_eps``.
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
        finite = self.eps[1:] if self.eps[:1] == (0.0,) else self.eps
        if not all(eps > 0.0 for eps in finite):
            raise ValueError(f"eps must be positive, or 0.0 first (the limit system): {self.eps}")
        if self.spectrum is None:
            object.__setattr__(self, "spectrum", self.grid.forward(self.fluid))
        if self.source is None:
            object.__setattr__(self, "source", emission_spectrum(self.grid, self.fluid[-1]))
        for array in (self.fluid, self.rad, self.source, self.spectrum):
            array.setflags(write=False)

    def _chunk(self, members: slice) -> "EpsBatch":
        return EpsBatch(
            self.grid,
            self.eps[members],
            self.fluid[:, members],
            self.rad[:, members],
            self.time,
            self.source[members],
            self.spectrum[:, members],
        )


def step_batch(b: EpsBatch, p: FluidParams, dt: float) -> EpsBatch:
    """One step of every member of the batch, with one shared dt.

    The limit member (eps = 0) is a chunk of its own; the eps members are
    advanced in chunks of at most LOCKSTEP_CELLS grid cells (at least
    one member each), one ``step_eps`` call per chunk; the chunks share
    dt, so the result does not depend on the chunk size.
    """
    per_chunk = max(1, LOCKSTEP_CELLS // math.prod(b.grid.shape))
    limit = b.eps[:1] == (0.0,)
    chunks = [slice(0, 1)] if limit else []
    chunks += [slice(a, a + per_chunk) for a in range(int(limit), len(b.eps), per_chunk)]
    if len(chunks) <= 1:
        return step_eps(b, p, dt)
    fluid, rad, source, spectrum = map(np.empty_like, (b.fluid, b.rad, b.source, b.spectrum))
    for members in chunks:
        part = step_eps(b._chunk(members), p, dt)
        fluid[:, members], rad[:, members] = part.fluid, part.rad
        source[members], spectrum[:, members] = part.source, part.spectrum
    return EpsBatch(b.grid, b.eps, fluid, rad, part.time, source, spectrum)


def step_eps(b: EpsBatch, p: FluidParams, dt: float) -> EpsBatch:
    """One Strang step of the finite-eps system for every member of b,
    as one array, or one RK4 step of the limit system (eps = 0).

    For smooth data, second-order accurate in dt while dt << eps and
    first order, with an error bounded uniformly in eps, once eps << dt;
    bounded but not monotone in dt while dt ~ eps (see the module
    docstring); stable for every eps. The global
    constant equilibrium is an exact fixed point. At eps = 0 the flux is
    formed from the stage temperature inside every stage's right-hand
    side, so the limit flux equation holds to solver precision
    throughout. The limit system steps alone, not beside eps > 0.
    """
    grid = b.grid
    eps = np.reshape(b.eps, (-1,) + (1,) * grid.n_dims)
    if 0.0 in b.eps and b.eps != (0.0,):
        raise ValueError(f"eps = 0 (the limit system) steps alone, not beside eps {b.eps[1:]}")
    if b.eps == (0.0,):
        members, coupling = None, None
    else:
        members = b.eps
        propagator = _propagator(grid, eps, 0.5 * dt)
        coupling = _substep(grid, b.rad, b.source, propagator)
    fluid, spectrum = _rk4(
        grid,
        b.fluid,
        b.spectrum,
        lambda y, y_hat: _rhs_common(grid, y, y_hat, p, rad=coupling, eps=eps),
        dt,
        members,
        b.time,
    )
    source = emission_spectrum(grid, fluid[-1])
    if members is None:
        rad = limit_closure(grid, source)
    else:
        rad = _substep(grid, coupling, source, propagator)
    time = b.time + dt
    _require_finite(fluid, rad, members, time)
    return EpsBatch(grid, b.eps, fluid, rad, time, source, spectrum)


# Real-axis stability interval of classical RK4: the amplification
# factor 1 + z + z^2/2 + z^3/6 + z^4/24 has modulus at most 1 for real z
# in [-R, 0], where -R is the real root of z^3 + 4 z^2 + 12 z + 24 = 0
# (Hairer & Wanner, Solving Ordinary Differential Equations II, Sect. IV.2).
RK4_REAL_STABILITY = 2.785293563405282
# Imaginary-axis stability interval of classical RK4: the amplification
# factor has modulus at most 1 for z = i y with |y| <= 2 sqrt(2) (same
# source).
RK4_IMAGINARY_STABILITY = 2.0 * math.sqrt(2.0)


def cfl_bounds(
    grid: Grid, y: np.ndarray, p: FluidParams, cfl_advective: float, cfl_diffusive: float
) -> tuple[float, float]:
    """Advective and diffusive step bounds of a (n+2, *shape) or
    (n+2, E, *shape) stack.

    advective = cfl_advective * I / (K * (max|u| + sqrt(2 max theta))),
    diffusive = cfl_diffusive * R * min(rho) / (max(mu, 2 mu + lam, kappa) * K2),

    each the minimum over the members, with K = sqrt(n) * floor(N/3) the
    largest |k| the 2/3 rule keeps and K2 = K^2. The advective bound
    keeps the spectral radius of the linearised advection and acoustic
    terms inside the imaginary-axis stability interval I of RK4
    (RK4_IMAGINARY_STABILITY): about rho = theta = const their symbol
    has the frequencies u.k and u.k +- sqrt(2 theta) |k|, the sound
    speed of the model being sqrt(2 theta) (unit gas constant and heat
    capacity, gamma = 2). The diffusive bound keeps the spectral radius
    of the linear viscous and heat terms, divided by rho, inside the
    real-axis stability interval R of RK4 (RK4_REAL_STABILITY): the
    stress symbol -mu|k|^2 u - (mu + lam) k(k.u) has the eigenvalues
    -mu|k|^2 and -(2 mu + lam)|k|^2, the heat symbol -kappa|k|^2.
    Pointwise maxima and minima only, no transforms.
    """
    spatial = grid.axes
    u_max = np.sqrt(np.sum(y[1:-1] ** 2, axis=0).max(axis=spatial))
    speed = u_max + np.sqrt(2.0 * y[-1].max(axis=spatial))
    k2_max = grid.n_dims * (grid.points_per_dim // 3) ** 2
    advective = cfl_advective * RK4_IMAGINARY_STABILITY / (math.sqrt(k2_max) * speed)
    stiffness = max(p.mu, 2.0 * p.mu + p.lam, p.kappa) * k2_max
    diffusive = cfl_diffusive * RK4_REAL_STABILITY * y[0].min(axis=spatial) / stiffness
    return float(advective.min()), float(diffusive.min())


def cfl_dt(
    s, p: FluidParams, dt_max: float, cfl_advective: float, cfl_diffusive: float
) -> float:
    """Stable time step of an EpsBatch: the smaller ``cfl_bounds`` or
    the dt cap dt_max.

    The stiff radiation scale imposes no restriction (the substep is
    exact), so the result is independent of eps; for a batch it is the
    minimum over the members.
    """
    return min(*cfl_bounds(s.grid, s.fluid, p, cfl_advective, cfl_diffusive), dt_max)
