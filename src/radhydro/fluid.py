"""Hydrodynamic state and the fluid-equation right-hand sides.

Primitive-variable (rho, u, theta) form of the compressible
Navier-Stokes-Fourier equations with a perfect-gas closure P = rho*theta
and unit gas constant and heat capacity. Two couplings are provided: the
finite-eps form, where the radiation moments feed a momentum source
eps*I1 and a temperature source I0 - theta^4, and the limit form, where
the temperature equation instead carries -div q of the equilibrium flux.

Divisions by rho are pointwise in physical space (there is no spectral
symbol for a quotient) and are guarded by a positivity floor: the
relevant solution regime stays near a positive background, so an
approach to vacuum signals a broken run rather than physics.

The right-hand sides are one array kernel over the stacked state
(rho, u_1..u_n, theta) of E members at once, shape (n+2, E, *shape), and
half-spectrum transforms batched over fields and members (see
``radhydro.spectral``); every product and quotient is dealiased by the
2/3 rule. The public right-hand sides are its E = 1 calls; the limit
stepper calls it without a coupling argument, and the kernel then forms
the limit flux divergence from the theta^4 row of its own product batch,
so a limit right-hand side costs the same six transform calls as an eps
one. ``strain``, ``viscous_stress`` and ``dissipation`` give the same
quantities as fields, for analysis and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonPositiveState, located
from .radiation import RadiationMoments
from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    dealias,
    div,
    grad,
    unstack,
)

__all__ = [
    "POSITIVITY_FLOOR",
    "FluidParams",
    "FluidState",
    "strain",
    "viscous_stress",
    "dissipation",
    "fluid_rhs_eps",
    "fluid_rhs_limit",
]

POSITIVITY_FLOOR = 1e-6


@dataclass(frozen=True)
class FluidParams:
    """Constant transport coefficients.

    Attributes:
        mu: Shear viscosity, mu > 0.
        lam: Second (bulk-related) viscosity; 2*mu + n*lam must be positive.
        kappa: Heat conductivity, kappa > 0.
    """

    mu: float
    lam: float
    kappa: float

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")

    def validate_for(self, n_dims: int) -> None:
        if 2.0 * self.mu + n_dims * self.lam <= 0.0:
            raise ValueError(
                f"2*mu + n*lam must be positive, got {2.0 * self.mu + n_dims * self.lam}"
            )


@dataclass(frozen=True)
class FluidState:
    """Density, velocity and temperature on a shared grid."""

    rho: SpectralField
    u: VectorField
    theta: SpectralField

    def __post_init__(self):
        if not (self.rho.grid == self.u.grid == self.theta.grid):
            raise ValueError("fluid fields live on different grids")

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    def is_finite(self) -> bool:
        return self.rho.is_finite() and self.u.is_finite() and self.theta.is_finite()

    @classmethod
    def from_stacked(cls, grid: Grid, y: np.ndarray) -> "FluidState":
        """State viewing the rows (rho, u_1..u_n, theta) of y, without a copy."""
        rows = unstack(grid, y)
        state = cls(rho=rows[0], u=VectorField(rows[1:-1]), theta=rows[-1])
        state.__dict__["stacked"] = y  # seeds the cached_property below
        return state

    @cached_property
    def stacked(self) -> np.ndarray:
        """Read-only (n+2, *shape) array of rho, the u components and theta."""
        y = np.stack([self.rho.values, *(c.values for c in self.u), self.theta.values])
        y.setflags(write=False)
        return y


def require_positive(y: np.ndarray, eps=None, time=None) -> None:
    """Hard positivity guard on rho and theta of a (n+2, E, *shape) stack.

    eps holds the E members' eps values (None for the limit system).
    Raises NonPositiveState naming the first failing member, the time
    when known, the field and its minimum. NaN compares false and is
    left to the finiteness check.
    """
    if y[0].min() >= POSITIVITY_FLOOR and y[-1].min() >= POSITIVITY_FLOOR:
        return
    spatial = tuple(range(1, y.ndim - 1))
    lows = np.stack([y[0].min(axis=spatial), y[-1].min(axis=spatial)])
    failing = np.flatnonzero((lows < POSITIVITY_FLOOR).any(axis=0))
    if failing.size:
        e = failing[0]
        row = 0 if lows[0, e] < POSITIVITY_FLOOR else 1
        field, low = ("rho", "theta")[row], float(lows[row, e])
        member = None if eps is None else float(eps[e])
        raise NonPositiveState(
            f"positivity lost ({located(member, time)}): min {field} = {low:.3e}"
            f" is below the floor {POSITIVITY_FLOOR:g}",
            eps=member,
            time=time,
            field=field,
            minimum=low,
            floor=POSITIVITY_FLOOR,
        )


def strain(u: VectorField) -> list[list[SpectralField]]:
    """Symmetric strain-rate tensor D_ij = (d_i u_j + d_j u_i) / 2."""
    n = len(u)
    grads = [grad(c) for c in u]  # grads[j][i] = d_i u_j
    tensor = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = (grads[j][i] + grads[i][j]) * 0.5
            tensor[i][j] = d
            tensor[j][i] = d
    return tensor


def viscous_stress(u: VectorField, p: FluidParams) -> list[list[SpectralField]]:
    """Stress tensor 2*mu*D(u) + lam*(div u)*identity."""
    p.validate_for(u.grid.n_dims)
    d = strain(u)
    trace = div(u)
    n = len(u)
    psi = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            entry = d[i][j] * (2.0 * p.mu)
            if i == j:
                entry = entry + trace * p.lam
            psi[i][j] = entry
    return psi


def dissipation(u: VectorField, p: FluidParams) -> SpectralField:
    """Viscous heating 2*mu*|D(u)|^2 + lam*(div u)^2, dealiased.

    Pointwise nonnegative for lam >= 0; for lam < 0 with 2*mu + n*lam > 0
    only the integral is sign-definite.
    """
    p.validate_for(u.grid.n_dims)
    d = strain(u)
    n = len(u)
    total = SpectralField.zeros(u.grid)
    for i in range(n):
        for j in range(n):
            total = total + d[i][j] * d[i][j]
    trace = div(u)
    total = total * (2.0 * p.mu) + trace * trace * p.lam
    return dealias(total)


def _rhs_common(
    grid: Grid,
    y: np.ndarray,
    p: FluidParams,
    rad: np.ndarray | None = None,
    eps: np.ndarray | None = None,
    q0: np.ndarray | None = None,
) -> np.ndarray:
    """Tendencies of E stacked states, as one (n+2, E, *shape) array.

    y is (n+2, E, *shape): the field axis first, then the member axis,
    then space; every transform below batches fields and members. The
    eps coupling passes rad, the (1+n, E, *shape) values of (I0, I1), and
    eps, an (E, 1, ...) array (momentum source eps*I1, heat source
    I0 - theta^4). An arbitrary flux q0 passes its (n, E, *shape) values
    (heat source -div q0). With neither, the heat source is that of the
    limit flux q0 = -grad (I - Lap)^(-1) theta^4, formed from the
    dealiased theta^4 spectrum: -div q0 = -|k|^2 (1 + |k|^2)^(-1) theta^4.
    The caller checks positivity.

    Six batched half-spectrum transforms: (1) spectra of u, theta (and
    q0 values); (2) grad u and grad theta; (3) the products rho*u,
    rho*theta, the dissipation (and theta^4 unless q0 is given),
    dealiased together; (4) the numerators div Psi(u) - grad(rho theta)
    and kappa*Lap theta + dissipation + heat source, each summed in
    Fourier space; (5) the quotients by rho minus the advection terms,
    dealiased together; (6) the tendencies. Dealiasing is linear, so
    dealiasing a sum equals summing the dealiased terms.
    """
    n = grid.n_dims
    p.validate_for(n)
    ik = grid.half_ik[:, None]  # (n, 1, *half): broadcasts over members
    k_sq, mask = grid.half_k_squared, grid.half_dealias_mask
    members = y.shape[1]
    half = (members, *grid.half_shape)
    rho, u, theta = y[0], y[1:-1], y[-1]

    spec = grid.forward(y[1:] if q0 is None else np.concatenate([y[1:], q0]))
    u_hat, theta_hat = spec[:n], spec[n]

    grads = np.empty((n * n + n, *half), dtype=complex)
    np.multiply(ik[None], u_hat[:, None], out=grads[: n * n].reshape(n, n, *half))
    np.multiply(ik, theta_hat, out=grads[n * n :])
    grads = grid.inverse(grads)
    grad_u = grads[: n * n].reshape(n, n, *rho.shape)  # [i, j] = d_j u_i
    grad_theta = grads[n * n :]

    div_u = np.trace(grad_u)
    strain = (grad_u + grad_u.swapaxes(0, 1)) * 0.5
    products = np.empty((n + 2 + (q0 is None), *rho.shape))
    np.multiply(rho, u, out=products[:n])
    np.multiply(rho, theta, out=products[n])
    shear_heating = np.sum(strain * strain, axis=(0, 1)) * (2.0 * p.mu)
    products[n + 1] = shear_heating + div_u * div_u * p.lam
    if q0 is None:
        products[n + 2] = theta**4
    prod_hat = grid.forward(products)
    prod_hat *= mask

    # div Psi(u) = mu Lap u + (mu + lam) grad div u, a linear symbol.
    div_u_hat = np.sum(ik * u_hat, axis=0)
    numer = np.empty((n + 1, *half), dtype=complex)
    numer[:n] = -p.mu * k_sq * u_hat + ik * ((p.mu + p.lam) * div_u_hat - prod_hat[n])
    numer[n] = -p.kappa * k_sq * theta_hat + prod_hat[n + 1]
    if rad is not None:
        numer[n] -= prod_hat[n + 2]
    elif q0 is None:
        numer[n] -= k_sq * grid.half_helmholtz * prod_hat[n + 2]
    else:
        numer[n] -= np.sum(ik * spec[n + 1 :], axis=0)
    numer = grid.inverse(numer)
    if rad is not None:
        numer[:n] += rad[1:] * eps
        numer[n] += rad[0]

    quotients = numer / rho
    quotients[:n] -= np.sum(u * grad_u, axis=1)
    quotients[n] -= np.sum(u * grad_theta, axis=0) + theta * div_u
    quot_hat = grid.forward(quotients)

    tend = np.empty((n + 2, *half), dtype=complex)
    tend[0] = -np.sum(ik * prod_hat[:n], axis=0)
    np.multiply(quot_hat, mask, out=tend[1:])
    return grid.inverse(tend)


def _tendency_fields(grid: Grid, tend: np.ndarray):
    rows = unstack(grid, tend[:, 0])
    return rows[0], VectorField(rows[1:-1]), rows[-1]


def _one_member(f: FluidState) -> np.ndarray:
    """The state as a (n+2, 1, *shape) stack, positivity checked."""
    y = f.stacked[:, None]
    require_positive(y)
    return y


def fluid_rhs_eps(
    f: FluidState, rad: RadiationMoments, eps: float, p: FluidParams
) -> tuple[SpectralField, VectorField, SpectralField]:
    """Fluid tendencies with finite-eps radiation coupling.

    d(rho)/dt  = -div(rho u)
    d(u)/dt    = -(u.grad)u + [div Psi(u) - grad(rho theta) + eps*I1] / rho
    d(theta)/dt= -u.grad theta - theta div u
                 + [kappa*Lap theta + Psi(u):grad u + I0 - theta^4] / rho

    Raises NonPositiveState if rho or theta touch the positivity floor.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if rad.grid != f.grid:
        raise ValueError("radiation and fluid grids differ")
    grid = f.grid
    moments = np.stack([rad.I0.values, *(c.values for c in rad.I1)])[:, None]
    eps_member = np.full((1,) * (grid.n_dims + 1), float(eps))
    tend = _rhs_common(grid, _one_member(f), p, rad=moments, eps=eps_member)
    return _tendency_fields(grid, tend)


def fluid_rhs_limit(
    f: FluidState, q0: VectorField, p: FluidParams
) -> tuple[SpectralField, VectorField, SpectralField]:
    """Fluid tendencies of the limit system with a given flux q0.

    Identical to the finite-eps form except the radiation coupling: no
    momentum source, and the temperature source is -div q0. The flux
    values are transformed with u and theta. The limit stepper forms the
    flux of its own temperature inside the kernel instead (see
    ``_rhs_common``).
    """
    if q0.grid != f.grid:
        raise ValueError("flux and fluid grids differ")
    grid = f.grid
    q0_values = np.stack([c.values for c in q0])[:, None]
    return _tendency_fields(grid, _rhs_common(grid, _one_member(f), p, q0=q0_values))
