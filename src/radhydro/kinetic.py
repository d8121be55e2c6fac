"""Discrete-ordinates gray transport and the moment machinery behind P1.

The intensity is sampled on grid x direction nodes. In 2D the ordinates
are equally spaced points on the unit circle with equal weights, which
integrates trigonometric polynomials of degree <= count-1 exactly; in 1D
the two directions {-1, +1} with unit weights make the two-moment closure
exact. The moment extraction returns the unique coefficients (I0, I1)
such that I0 + I1.omega is the direction-space L^2 projection of the
intensity onto the affine-in-direction subspace, and
``moment_system_check`` quantifies how well the moments of the kinetic
tendency match the two-moment balance laws

    eps d(I0)/dt = theta^4 - sigma_a I0 - (1/n) div I1
    eps d(I1)/dt = -(sigma_a + sigma_s |S|) I1 - grad I0

obtained by direction-averaging the transport equation (|S| is the
measure of the unit sphere). Absorbing 1/n, |S| and the emission constant
into unity recovers the unit-coefficient moment system the fluid solver
couples to; the check must run with the factors in place or its residual
is spuriously nonzero.

An intensity is a ``(basis, values)`` pair of a (count, k) matrix and
(k, *shape) values: slab j is basis[j] @ values. The P1 intensity
I0 + omega_j . I1 is the pair (``p1_basis(ords)``, values of (I0, I1));
any (count, *shape) array I is the pair (np.eye(count), I). Since every
slab is a row of the basis times the values, every sum over the
ordinates re-associates onto the (count, k) basis, and every field
operation acts on the k value fields, whatever the ordinate count. With
R the (1+n, count) weight rows w/|S| and (n/|S|) w omega:

- ``moments`` is (R @ basis) @ values.
- ``transport_term`` (T = omega . grad I) is the pair of the rows
  omega_ja basis_jb over the n k derivatives d_a values_b: one forward
  and one batched inverse transform.
- ``kinetic_rhs`` returns the moments of the tendency
  (-(sigma_a + sigma_s |S|) I - T + theta^4 + sigma_s |S| <<I>>)/eps as
  (R @ [damping basis + sigma_s |S| 1 (R[0] @ basis), -T rows, 1]) @
  [values, derivatives, theta^4], divided by eps after the product.
- ``p1_projection_residual`` is the weighted norm of B' @ values with
  B' = basis - p1_basis (R @ basis), the basis projected off P1 before
  any field is touched; sqrt(w) B' is reduced to its triangular factor
  (k x k when count >= k), which is applied to the values. A difference of norms, or a
  Gram form of the unprojected basis, would cancel to about 1e-8 of |I|
  on exact P1 data, the size of ``P1_RESIDUAL_LIMIT``.

The transport term does not depend on (sigma_a, sigma_s), so one
closure check evaluates it once, together with the emission theta^4,
the moments of I, the P1 projection residual and the sigma-free parts
of the predicted tendencies, and shares them across every pair; each
pair costs one ``kinetic_rhs``. The check takes the predicted
tendencies, the dealiased theta^4 and the residual norms from half
spectra: one forward transform of the stacked moments of I and theta^4
gives div I1 / n, grad I0 and the emission (through ``Grid.half_ik`` and
the 2/3 mask), one forward transform per pair gives the spectra of the
tendency's moments, and ``sobolev_squares`` the norms of the
differences.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import NotInP1Subspace
from .radiation import emission_spectrum, fourth_power
from .spectral import Grid, sobolev_squares

__all__ = [
    "OrdinateSet",
    "make_ordinates",
    "p1_basis",
    "transport_term",
    "kinetic_rhs",
    "moments",
    "p1_projection_residual",
    "moment_system_check",
]

P1_RESIDUAL_LIMIT = 1e-8


@dataclass(frozen=True)
class OrdinateSet:
    """Quadrature nodes on the unit sphere.

    Attributes:
        directions: Unit vectors, shape (count, n_dims).
        weights: Positive quadrature weights, shape (count,); they sum to
            the sphere measure (2 for n = 1, 2pi for n = 2).
    """

    directions: np.ndarray
    weights: np.ndarray

    @property
    def n_dims(self) -> int:
        return self.directions.shape[1]

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    @property
    def surface_measure(self) -> float:
        return float(self.weights.sum())


def make_ordinates(n_dims: int, count: int) -> OrdinateSet:
    """Build the ordinate set for the given dimension.

    2D: ``count`` equally spaced angles with equal weights 2pi/count.
    1D: the two directions -1, +1 with weights 1 each (count collapses
    to 2; the requested count is still validated).

    Raises:
        ValueError: if count is odd or below 4.
    """
    if count % 2 != 0:
        raise ValueError(f"ordinate count must be even, got {count}")
    if count < 4:
        raise ValueError(f"ordinate count must be at least 4, got {count}")
    if n_dims == 1:
        directions = np.array([[-1.0], [1.0]])
        weights = np.array([1.0, 1.0])
    elif n_dims == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        directions = np.column_stack([np.cos(angles), np.sin(angles)])
        weights = np.full(count, 2.0 * np.pi / count)
    else:
        raise ValueError(f"n_dims must be 1 or 2, got {n_dims}")
    directions.setflags(write=False)
    weights.setflags(write=False)
    return OrdinateSet(directions, weights)


def p1_basis(ords: OrdinateSet) -> np.ndarray:
    """(count, 1+n) rows (1, omega_j): with the (1+n, *shape) values of
    (I0, I1) they make the pair form of the P1 intensity I0 + omega_j . I1."""
    return np.column_stack([np.ones(ords.count), ords.directions])


def transport_term(grid: Grid, ords: OrdinateSet, I) -> tuple[np.ndarray, np.ndarray]:
    """omega . grad I per ordinate of the (basis, values) pair I with k
    values: the pair of the (count, n k) rows omega_ja basis_jb and the
    (n k, *shape) derivatives d_a values_b, from one forward and one
    batched inverse transform, whatever the ordinate count.
    """
    basis, values = I
    rows = (ords.directions[:, :, None] * basis[:, None, :]).reshape(ords.count, -1)
    derivatives = grid.inverse(grid.half_ik[:, None] * grid.forward(values))
    return rows, derivatives.reshape(-1, *grid.shape)


def kinetic_rhs(
    grid: Grid,
    ords: OrdinateSet,
    I,
    theta: np.ndarray,
    eps: float,
    sigma_a: float,
    sigma_s: float,
    transport=None,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """The (1+n, *shape) ``moments`` of the transport tendency of the
    (basis, values) pair I,

    dI/dt = [-omega.grad I + theta^4 - sigma_a I
             + sigma_s |S| (<<I>> - I)] / eps

    with <<I>> the direction average, for the (*shape) values of theta.
    The emission constant is one. ``transport`` is ``transport_term``
    of I and ``source`` the values of the dealiased theta^4 (the inverse
    of ``emission_spectrum``) when the caller already has them; each is
    computed here otherwise. Every ordinate sum is taken on the basis:
    the weight rows times the (count, k + n k + 1) rows
    (damping basis_j + sigma_s |S| <<basis>>, -transport rows_j, 1) give
    the coefficients of the values of I, of T and of theta^4.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if sigma_a <= 0.0:
        raise ValueError(f"sigma_a must be positive, got {sigma_a}")
    if sigma_s < 0.0:
        raise ValueError(f"sigma_s must be nonnegative, got {sigma_s}")
    if transport is None:
        transport = transport_term(grid, ords, I)
    if source is None:
        source = grid.inverse(emission_spectrum(grid, theta))
    (basis, values), (t_basis, t_values) = I, transport
    measure = ords.surface_measure
    rows = _moment_rows(ords)
    damping = -(sigma_a + sigma_s * measure)
    scattered = damping * basis + (sigma_s * measure) * (rows[0] @ basis)
    coefficients = rows @ np.column_stack([scattered, -t_basis, np.ones(ords.count)])
    fields = np.concatenate([values, t_values, source[None]])
    # Divided by eps last: the damping term times max|I| is finite
    # (config.py admits no pair otherwise), damping / eps may not be.
    tendency = np.tensordot(coefficients, fields, axes=1)
    return np.divide(tendency, eps, out=tendency)


def moments(ords: OrdinateSet, I) -> np.ndarray:
    """Project the (basis, values) pair I onto the affine-in-direction
    subspace.

    I0 = (1/|S|) sum_j w_j I_j,  I1 = (n/|S|) sum_j w_j omega_j I_j,

    as (R @ basis) @ values with R the (1+n, count) weight rows; returns
    the (1+n, *shape) values of I0, I1_1..I1_n.
    """
    basis, values = I
    return np.tensordot(_moment_rows(ords) @ basis, values, axes=1)


def _moment_rows(ords: OrdinateSet) -> np.ndarray:
    """(1+n, count) weight rows w/|S| and (n/|S|) w omega of ``moments``."""
    w = ords.weights / ords.surface_measure
    return np.vstack([w, ords.n_dims * (w * ords.directions.T)])


def p1_projection_residual(grid: Grid, ords: OrdinateSet, I) -> float:
    """Weighted L^2(grid x ordinates) distance of the (basis, values)
    pair I from the P1 subspace.

    sqrt(sum_j w_j ||I_j - I0 - omega_j . I1||^2) with (I0, I1) the
    ``moments`` of I. The slabs of the difference are the rows of
    B' = basis - p1_basis (R @ basis) times the values, so the sum is the
    squared norm of F @ values with F the triangular factor of
    sqrt(w) B'. Zero exactly when the intensity is affine in the
    direction at every grid node; invariant under adding any
    affine-in-direction field.
    """
    basis, values = I
    projected = basis - p1_basis(ords) @ (_moment_rows(ords) @ basis)
    factor = np.linalg.qr(np.sqrt(ords.weights)[:, None] * projected, mode="r")
    difference = np.tensordot(factor, values, axes=1).ravel()
    # Summed by einsum, not a BLAS dot: at 128^2 cells OpenBLAS runs the
    # dot on its thread pool and waits for it, 8 ms against 0.03 ms
    # (measured on a 2-core VM, OpenBLAS 0.3.31).
    return float(np.sqrt(np.einsum("i,i->", difference, difference) * grid.cell_volume))


def moment_system_check(
    grid: Grid,
    ords: OrdinateSet,
    I,
    theta: np.ndarray,
    eps: float,
    sigma_pairs: Iterable[tuple[float, float]],
    enforce_p1: bool = True,
) -> tuple[float, list[tuple[float, float]]]:
    """Residuals of the two-moment balance against the kinetic tendency
    of the (basis, values) pair I.

    For each (sigma_a, sigma_s) in ``sigma_pairs``, extracts the moments
    of ``kinetic_rhs`` and subtracts the tendencies the moment system
    predicts from the moments of I and the (*shape) values of theta; the
    L^2 norms of the differences are (r0, r1). Both vanish to quadrature
    precision for intensities in the P1 subspace on at least 4
    ordinates. The projection residual, the moments of I, the transport
    term, the emission and the sigma-free parts of the prediction are
    computed once and shared by every pair; the differences are taken
    between half spectra.

    Args:
        enforce_p1: When True (default), reject intensities whose
            projection residual exceeds 1e-8 -- the balance is only a
            closure statement on the P1 subspace. Pass False to measure
            the closure defect of data outside the subspace.

    Returns:
        The P1 projection residual of I and one (r0, r1) per pair, in
        the order given.

    Raises:
        ValueError: if the ordinates and the grid differ in dimension or
            I is not a (count, k) basis with (k, *grid.shape) values.
        NotInP1Subspace: if enforcement is on and I is too far from P1.
    """
    basis, values = I
    shape = (len(basis), *values.shape[1:]) if basis.shape[1:] == values.shape[:1] else None
    expected = (ords.count, *grid.shape)
    if ords.n_dims != grid.n_dims or shape != expected:
        raise ValueError(
            f"intensity of shape {shape} on {ords.n_dims}D ordinates does not fit"
            f" the {grid.n_dims}D grid: expected shape {expected}"
        )
    rad = moments(ords, I)
    residual = p1_projection_residual(grid, ords, I)
    if enforce_p1 and residual > P1_RESIDUAL_LIMIT:
        raise NotInP1Subspace(
            f"projection residual {residual:.3e} exceeds {P1_RESIDUAL_LIMIT:.0e}"
        )
    n = ords.n_dims
    measure = ords.surface_measure
    transport = transport_term(grid, ords, I)
    spectra = grid.forward(np.concatenate([rad, fourth_power(theta)[None]]))
    rad_hat, source_hat = spectra[:-1], spectra[-1] * grid.half_dealias_mask
    source = grid.inverse(source_hat)
    # eps times the predicted tendencies without their damping terms:
    # theta^4 - (1/n) div I1 and -grad I0.
    ik = grid.half_ik
    free = np.concatenate(
        [(source_hat - np.sum(ik * rad_hat[1:], axis=0) * (1.0 / n))[None], -ik * rad_hat[0]]
    )

    pairs = []
    for sigma_a, sigma_s in sigma_pairs:
        tend = kinetic_rhs(grid, ords, I, theta, eps, sigma_a, sigma_s, transport, source)
        # Transformed and squared at the power-of-two scale that brings the
        # tendency below one, so no admitted sigma overflows; exact.
        scale = np.ldexp(1.0, -max(0, int(np.frexp(np.abs(tend).max())[1])))
        tend = grid.forward(tend * scale)
        tend[0] -= (free[0] - sigma_a * rad_hat[0]) * (scale / eps)
        tend[1:] -= (free[1:] - (sigma_a + sigma_s * measure) * rad_hat[1:]) * (scale / eps)
        squares = sobolev_squares(grid, tend, (0,))[0]
        pairs.append(tuple(float(np.sqrt(q) / scale) for q in (squares[0], squares[1:].sum())))
    return residual, pairs
