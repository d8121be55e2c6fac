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
dealiased by the 2/3 rule. It takes the state's values together with
their half spectrum and returns the half spectrum of the tendency, so
neither end of it transforms the state: a right-hand side costs four
transform calls, two forward and two inverse. The steppers in
``radhydro.stepping`` are its only callers and carry the spectrum from
stage to stage: the stepper passes the half spectra of the radiation
moments for eps > 0 and none for the limit system (eps = 0), and the
kernel then forms the limit flux divergence from the theta^4 row of its
own product batch, so a limit right-hand side costs the same four
transform calls as an eps one.

Between the transforms the kernel is elementwise work on small arrays,
where the number of numpy calls and temporaries sets the cost. Its
Fourier symbols (-mu|k|^2, -kappa|k|^2, (mu + lam) i k, the masked
-i k and the masked limit heat symbol) are built once per grid and
parameters (``_symbols``, cached; both key classes are frozen and
hashable) with the 2/3 mask folded into the symbols that consume a
product spectrum, so no separate dealias pass over the products is
made. The dissipation is formed from the gradient components directly,
theta^4 as (theta^2)^2 (``radiation.fourth_power``), and the division by
rho and the advection terms run in place on the numerator values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveState, located
from .radiation import fourth_power
from .spectral import Grid, sobolev_squares

__all__ = ["POSITIVITY_FLOOR", "FluidParams", "limit_rhs_residual"]

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


@functools.lru_cache(maxsize=16)
def _symbols(grid: Grid, p: FluidParams) -> tuple[np.ndarray, ...]:
    """Fourier symbols of ``_rhs_common`` for one grid and one set of
    coefficients, built once and read-only:

    (mask, -mu |k|^2, (mu + lam) i k, -i k * mask, -kappa |k|^2,
     -|k|^2 (1 + |k|^2)^(-1) * mask)

    with mask the 2/3 rule. The vector symbols are (n, 1, *half_shape),
    broadcasting over members. Every symbol is complex, so that a product
    with a spectrum needs no cast; a real symbol times a spectrum gives
    the same bits either way.
    """
    k_sq = grid.half_k_squared
    mask = grid.half_dealias_mask.astype(complex)
    ik = grid.half_ik[:, None]
    symbols = (
        mask,
        (-p.mu * k_sq).astype(complex),
        (p.mu + p.lam) * ik,
        -ik * mask,
        (-p.kappa * k_sq).astype(complex),
        -k_sq * grid.half_helmholtz * mask,
    )
    for symbol in symbols:
        symbol.setflags(write=False)
    return symbols


def _rhs_common(
    grid: Grid,
    y: np.ndarray,
    y_hat: np.ndarray,
    p: FluidParams,
    rad: np.ndarray | None = None,
    eps: np.ndarray | None = None,
) -> np.ndarray:
    """Half spectra of the tendencies of E stacked states, as one
    (n+2, E, *half_shape) array:

    d(rho)/dt   = -div(rho u)
    d(u)/dt     = -(u.grad)u + [div Psi(u) - grad(rho theta) + eps*I1] / rho
    d(theta)/dt = -u.grad theta - theta div u
                  + [kappa*Lap theta + Psi(u):grad u + heat source] / rho

    with the eps*I1 term in the finite-eps coupling only. y is
    (n+2, E, *shape): the field axis first, then the member axis, then
    space; y_hat is its half spectrum, (n+2, E, *half_shape). Every
    transform below batches fields and members. The eps coupling passes
    rad, the (1+n, E, *half_shape) half spectra of (I0, I1), and eps, an
    (E, 1, ...) array (momentum source eps*I1, heat source
    I0 - theta^4); both sources join the numerator spectra before
    their inverse transform, so the moments need no transform. Without
    them, the heat source is that of the limit flux
    q0 = -grad (I - Lap)^(-1) theta^4, formed from the dealiased theta^4
    spectrum: -div q0 = -|k|^2 (1 + |k|^2)^(-1) theta^4. The caller
    checks positivity (``require_positive``).

    Four batched half-spectrum transforms: (1) the gradients of u and
    theta, inverse; (2) the products rho*u, rho*theta, the dissipation
    2 mu |D(u)|^2 + lam (div u)^2 and theta^4, forward; (3) the
    numerators div Psi(u) - grad(rho theta) (+ eps*I1) and
    kappa*Lap theta + dissipation + heat source, each summed in Fourier
    space, inverse;
    (4) the quotients by rho minus the advection terms, forward. The
    product spectra are dealiased where they are consumed, through the
    masked symbols of ``_symbols``, and the quotient spectra on output.
    Dealiasing is linear, so dealiasing a sum equals summing the
    dealiased terms, and the returned spectrum is zero outside the 2/3
    band. The pointwise work fills the transform batches in place, term
    by term from the gradient components: no (n, n, ...) strain tensor or
    broadcast product is formed.
    """
    n = grid.n_dims
    p.validate_for(n)
    mask, viscous, grad_div, neg_ik, conduction, limit_heat = _symbols(grid, p)
    rho, theta = y[0], y[-1]

    # [i, j] = d_j f_i for the fields f = (u_1, ..., u_n, theta).
    grads_hat = grid.half_ik[:, None] * y_hat[1:, None]
    grads = grid.inverse(grads_hat.reshape(n * n + n, *y_hat.shape[1:]))
    grads = grads.reshape(n + 1, n, *rho.shape)
    # div u and its spectrum, the traces (views of the diagonal in 1D).
    div_u_hat = sum((grads_hat[i, i] for i in range(1, n)), grads_hat[0, 0])
    div_u = sum((grads[i, i] for i in range(1, n)), grads[0, 0])
    del grads_hat  # not needed past here (in 1D div_u_hat is a view of it)

    products = np.empty((n + 3, *rho.shape))
    np.multiply(rho, y[1:], out=products[: n + 1])
    # 2 mu |D(u)|^2 + lam (div u)^2, D(u) the symmetric part of grad u,
    # from the components: (2 mu + lam) sum_i (d_i u_i)^2
    # + sum_{i>j} [2 lam d_i u_i d_j u_j + mu (d_j u_i + d_i u_j)^2].
    heating = products[n + 1]
    np.square(grads[0, 0], out=heating)
    for i in range(1, n):
        heating += np.square(grads[i, i])
    heating *= 2.0 * p.mu + p.lam
    for i in range(n):
        for j in range(i):
            term = grads[i, i] * grads[j, j]
            term *= 2.0 * p.lam
            heating += term
            term = grads[i, j] + grads[j, i]
            np.square(term, out=term)
            term *= p.mu
            heating += term
    fourth_power(theta, products[n + 2])
    prod_hat = grid.forward(products)

    # div Psi(u) = mu Lap u + (mu + lam) grad div u, a linear symbol.
    numer = np.empty((n + 1, *y_hat.shape[1:]), dtype=complex)
    momentum, heat = numer[:n], numer[n]
    np.multiply(grad_div, div_u_hat, out=momentum)
    momentum += viscous * y_hat[1:-1]
    momentum += neg_ik * prod_hat[n]
    if rad is not None:
        np.subtract(prod_hat[n + 1], prod_hat[n + 2], out=heat)
        heat *= mask
    else:
        np.multiply(limit_heat, prod_hat[n + 2], out=heat)
        heat += mask * prod_hat[n + 1]
    heat += conduction * y_hat[-1]
    if rad is not None:
        momentum += rad[1:] * eps
        heat += rad[0]
    quotients = grid.inverse(numer)

    quotients /= rho
    for j in range(n):
        quotients -= y[1 + j] * grads[:, j]
    quotients[n] -= theta * div_u
    quot_hat = grid.forward(quotients)

    tend = np.empty((n + 2, *quot_hat.shape[1:]), dtype=complex)
    np.multiply(neg_ik[0], prod_hat[0], out=tend[0])
    for j in range(1, n):
        tend[0] += neg_ik[j] * prod_hat[j]
    np.multiply(quot_hat, mask, out=tend[1:])
    return tend


def limit_rhs_residual(grid: Grid, y, y_hat, rad, p: FluidParams) -> float:
    """H^0 norm of the limit right-hand side minus the eps one at eps = 0
    with the moments rad (arguments as for ``_rhs_common``). The two heat
    sources share no code, so the norm is roundoff when rad is the limit
    closure of the temperature and the limit heat symbol is right."""
    diff = _rhs_common(grid, y, y_hat, p) - _rhs_common(grid, y, y_hat, p, rad, eps=0.0)
    return float(np.sqrt(sobolev_squares(grid, diff, (0,)).sum()))
