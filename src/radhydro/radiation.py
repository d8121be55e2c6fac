"""P1 radiation moments, gray emission and the limit closure.

The moment pair (I0, I1) relaxes on the fast 1/eps time scale toward the
local equilibrium determined by the fluid temperature; ``radhydro.stepping``
advances that relaxation exactly per Fourier mode. As eps -> 0 the pair
collapses onto the nonlocal closure

    I0 = (I - Laplacian)^(-1) theta^4,      I1 = -grad I0,

which is computed here by an exact spectral solve. The equilibrium
intensity is always obtained through the Helmholtz inverse; a literal
inverse Laplacian is never formed (it would be singular at k = 0 on the
torus, while the composite quantity it feeds equals the Helmholtz solve
identically).

Every function here works on arrays: temperatures are (..., *shape)
values, and the limit pair (``limit_closure``) and its residual are
half spectra made from the dealiased theta^4 spectrum every state
carries; ``grid.inverse`` of the flux rows gives the values of q.
"""

from __future__ import annotations

import numpy as np

from .spectral import Grid, sobolev_squares

__all__ = [
    "emission_spectrum",
    "fourth_power",
    "limit_closure",
    "limit_closure_residual",
]


def fourth_power(theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise theta^4 of an array as (theta^2)^2, two squarings
    (``theta**4`` calls pow per entry, several times slower); written
    into out when given."""
    out = np.square(theta, out=out)
    return np.square(out, out=out)


def emission_spectrum(grid: Grid, theta: np.ndarray) -> np.ndarray:
    """Dealiased half spectrum of the gray emission theta^4 for a stack
    of temperatures.

    theta has shape (..., *grid.shape); the result (..., *half_shape).
    """
    source = grid.forward(fourth_power(theta))
    source *= grid.half_dealias_mask
    return source


def limit_closure(grid: Grid, source: np.ndarray) -> np.ndarray:
    """Half spectrum of the limit pair (I0, q), (1+n, E, *half_shape),
    from the (E, *half_shape) dealiased theta^4 (``emission_spectrum``).

    I0 = (I - Laplacian)^(-1) theta^4 and q = -grad I0. mean(I0) =
    mean(theta^4) and the Helmholtz identity holds to roundoff.
    """
    i0 = source * grid.half_helmholtz
    return np.concatenate([i0[None], -grid.half_ik[:, None] * i0])


def limit_closure_residual(grid: Grid, source: np.ndarray, q_hat: np.ndarray) -> float:
    """L^2 residual of the limit flux equation.

    Measures || -grad(div q) + q + grad(theta^4) ||_0 from the
    (*half_shape) dealiased spectrum source of theta^4 and the
    (n, *half_shape) half spectrum q_hat of q; zero (to roundoff)
    exactly when q is the limit flux of theta. Nothing is transformed.
    """
    ik = grid.half_ik
    residual = q_hat + ik * (source - np.sum(ik * q_hat, axis=0))
    return float(np.sqrt(sobolev_squares(grid, residual, (0,)).sum()))
