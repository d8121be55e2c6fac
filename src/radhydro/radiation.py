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
values and the limit pair is returned as a half spectrum
(``limit_spectrum``); ``grid.inverse`` of its flux rows gives the
(n, *shape) values of q.
"""

from __future__ import annotations

import numpy as np

from .spectral import Grid, sobolev_squares

__all__ = [
    "emission_spectrum",
    "fourth_power",
    "limit_spectrum",
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


def limit_spectrum(grid: Grid, theta: np.ndarray) -> np.ndarray:
    """Half spectrum of the limit pair (I0, q) of one temperature field.

    I0 = (I - Laplacian)^(-1) theta^4 (dealiased) and q = -grad I0, as
    a (1+n, *half_shape) stack. mean(I0) = mean(theta^4) and the
    Helmholtz identity holds to roundoff.
    """
    i0 = emission_spectrum(grid, theta) * grid.half_helmholtz
    return np.concatenate([i0[None], -grid.half_ik * i0])


def limit_closure_residual(grid: Grid, theta: np.ndarray, q: np.ndarray) -> float:
    """L^2 residual of the limit flux equation.

    Measures || -grad(div q) + q + grad(theta^4) ||_0 (theta^4 dealiased)
    for the (*shape) values of theta and the (n, *shape) values of q;
    zero (to solver precision) exactly when q is the limit flux of
    theta. The values of theta^4 and of q are transformed in one batch,
    so the check sees q as sampled, not a spectrum it was built from.
    """
    spectra = grid.forward(np.concatenate([fourth_power(theta)[None], q]))
    source, q_hat = spectra[0] * grid.half_dealias_mask, spectra[1:]
    ik = grid.half_ik
    residual = q_hat + ik * (source - np.sum(ik * q_hat, axis=0))
    return float(np.sqrt(sobolev_squares(grid, residual, (0,)).sum()))
