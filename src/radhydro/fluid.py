"""Fluid parameters, the positivity guard and the fluid right-hand side.

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

The right-hand side is one array kernel, ``_rhs_common``, over the
stacked state (rho, u_1..u_n, theta) of E members at once, shape
(n+2, E, *shape), with half-spectrum transforms batched over fields and
members (see ``radhydro.spectral``); every product and quotient is
dealiased by the 2/3 rule. The steppers in ``radhydro.stepping`` are
its only callers: the eps stepper passes the radiation moments, the
limit stepper passes none, and the kernel then forms the limit flux
divergence from the theta^4 row of its own product batch, so a limit
right-hand side costs the same six transform calls as an eps one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveState, located
from .spectral import Grid

__all__ = ["POSITIVITY_FLOOR", "FluidParams"]

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


def _rhs_common(
    grid: Grid,
    y: np.ndarray,
    p: FluidParams,
    rad: np.ndarray | None = None,
    eps: np.ndarray | None = None,
) -> np.ndarray:
    """Tendencies of E stacked states, as one (n+2, E, *shape) array:

    d(rho)/dt   = -div(rho u)
    d(u)/dt     = -(u.grad)u + [div Psi(u) - grad(rho theta) + eps*I1] / rho
    d(theta)/dt = -u.grad theta - theta div u
                  + [kappa*Lap theta + Psi(u):grad u + heat source] / rho

    with the eps*I1 term in the finite-eps coupling only. y is
    (n+2, E, *shape): the field axis first, then the member axis, then
    space; every transform below batches fields and members. The eps
    coupling passes rad, the (1+n, E, *shape) values of (I0, I1), and
    eps, an (E, 1, ...) array (momentum source eps*I1, heat source
    I0 - theta^4). Without them, the heat source is that of the limit
    flux q0 = -grad (I - Lap)^(-1) theta^4, formed from the dealiased
    theta^4 spectrum: -div q0 = -|k|^2 (1 + |k|^2)^(-1) theta^4. The
    caller checks positivity (``require_positive``).

    Six batched half-spectrum transforms: (1) spectra of u and theta;
    (2) grad u and grad theta; (3) the products rho*u, rho*theta, the
    dissipation 2 mu |D(u)|^2 + lam (div u)^2 and theta^4, dealiased
    together; (4) the numerators div Psi(u) - grad(rho theta)
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

    spec = grid.forward(y[1:])
    u_hat, theta_hat = spec[:n], spec[n]

    grads = np.empty((n * n + n, *half), dtype=complex)
    np.multiply(ik[None], u_hat[:, None], out=grads[: n * n].reshape(n, n, *half))
    np.multiply(ik, theta_hat, out=grads[n * n :])
    grads = grid.inverse(grads)
    grad_u = grads[: n * n].reshape(n, n, *rho.shape)  # [i, j] = d_j u_i
    grad_theta = grads[n * n :]

    div_u = np.trace(grad_u)
    strain = (grad_u + grad_u.swapaxes(0, 1)) * 0.5
    products = np.empty((n + 3, *rho.shape))
    np.multiply(rho, u, out=products[:n])
    np.multiply(rho, theta, out=products[n])
    shear_heating = np.sum(strain * strain, axis=(0, 1)) * (2.0 * p.mu)
    products[n + 1] = shear_heating + div_u * div_u * p.lam
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
    else:
        numer[n] -= k_sq * grid.half_helmholtz * prod_hat[n + 2]
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

