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

An intensity is a ``(basis, spectra)`` pair of a (count, k) matrix and
(k, *half_shape) half spectra: slab j is basis[j] @ spectra. The P1
intensity I0 + omega_j . I1 is the pair (``p1_basis(ords)``, half spectra
of (I0, I1)); any (count, *shape) array I is the pair
(np.eye(count), grid.forward(I)). Since every slab is a row of the basis
times the spectra, every sum over the ordinates re-associates onto the
(count, k) basis, and every field operation acts on the k spectra,
whatever the ordinate count. With R the (1+n, count) weight rows w/|S|
and (n/|S|) w omega:

- ``moments`` is (R @ basis) @ spectra.
- ``transport_term`` (T = omega . grad I) gives the (count, n k) rows
  omega_ja basis_jb, which weigh the derivative spectra i k_a spectra_b.
- ``kinetic_rhs`` returns the spectra of the moments of the tendency
  (-(sigma_a + sigma_s |S|) I - T + theta^4 + sigma_s |S| <<I>>)/eps.
  The coefficients R @ [damping basis + sigma_s |S| 1 (R[0] @ basis),
  -T rows, 1] weigh [spectra, derivative spectra, theta^4]. Since i k_a
  is diagonal, the derivative block of axis a is applied to the spectra
  and the product multiplied by i k_a: no derivative spectrum and no
  stack of fields is formed. The sum is divided by eps last.
- ``p1_projection_residual`` is the weighted norm of B' @ spectra with
  B' = basis - p1_basis (R @ basis), the basis projected off P1 before
  any field is touched; sqrt(w) B' is reduced to its triangular factor
  (k x k when count >= k), which is applied to the spectra. A difference
  of norms, or a Gram form of the unprojected basis, would cancel to
  about 1e-8 of |I| on exact P1 data, the size of ``P1_RESIDUAL_LIMIT``.

Every (small real matrix) x (spectra) product is one real GEMM on the
contiguous (re, im) float view of the half spectra: a real matrix maps
real and imaginary parts alike, and a complex product of the same
matrix costs several times as much (numpy 2.4, 2D/128 at 512 ordinates:
20-50 us against 180 us). Every sum over the ordinates and the
transport term are linear, so the moments of the tendency of the
spectra are the spectra of the moments of the tendency, and every norm
is a Parseval sum (``sobolev_squares``): nothing here is transformed.
One closure check evaluates the moments of I, the P1 projection
residual and the sigma-free parts of the predicted tendencies once and
shares them across every pair; each pair costs one ``kinetic_rhs``,
whose result the predicted tendency is subtracted from in place.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import NotInP1Subspace
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
    """(count, 1+n) rows (1, omega_j): with the (1+n, *half_shape) spectra
    of (I0, I1) they make the pair form of the P1 intensity
    I0 + omega_j . I1."""
    return np.column_stack([np.ones(ords.count), ords.directions])


def transport_term(ords: OrdinateSet, I) -> np.ndarray:
    """omega . grad I per ordinate of the (basis, spectra) pair I with k
    spectra: the (count, n k) rows omega_ja basis_jb that weigh the
    derivative spectra i k_a spectra_b, whatever the ordinate count.
    Column a k + b goes with spectrum b differentiated along axis a.
    """
    basis, _ = I
    return (ords.directions[:, :, None] * basis[:, None, :]).reshape(ords.count, -1)


def kinetic_rhs(
    grid: Grid,
    ords: OrdinateSet,
    I,
    source: np.ndarray,
    eps: float,
    sigma_a: float,
    sigma_s: float,
) -> np.ndarray:
    """The (1+n, *half_shape) spectra of the ``moments`` of the transport
    tendency of the (basis, spectra) pair I,

    dI/dt = [-omega.grad I + theta^4 - sigma_a I
             + sigma_s |S| (<<I>> - I)] / eps

    with <<I>> the direction average and source the (*half_shape)
    dealiased spectrum of theta^4 (``emission_spectrum``). The emission
    constant is one. Every ordinate sum is taken on the basis: the weight
    rows times the (count, k + n k + 1) rows (damping basis_j + sigma_s
    |S| <<basis>>, -transport rows_j, 1) give the coefficients of the
    spectra of I, of the derivative spectra and of theta^4. Since i k_a
    is diagonal, block a of the derivative coefficients is applied to
    the spectra first and the product is multiplied by i k_a, so no
    derivative spectrum is formed.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if sigma_a <= 0.0:
        raise ValueError(f"sigma_a must be positive, got {sigma_a}")
    if sigma_s < 0.0:
        raise ValueError(f"sigma_s must be nonnegative, got {sigma_s}")
    basis, spectra = I
    t_basis = transport_term(ords, I)
    measure = ords.surface_measure
    rows = _moment_rows(ords)
    damping = -(sigma_a + sigma_s * measure)
    scattered = damping * basis + (sigma_s * measure) * (rows[0] @ basis)
    coefficients = rows @ np.column_stack([scattered, -t_basis, np.ones(ords.count)])
    k = len(spectra)
    tendency = _apply(coefficients[:, :k], spectra)
    work = np.empty_like(tendency)
    for a, ik in enumerate(grid.half_ik, start=1):
        _apply(coefficients[:, a * k : (a + 1) * k], spectra, out=work)
        for row in work:  # by rows: numpy copies a broadcast in-place operand
            row *= ik
        tendency += work
    for row, c in zip(tendency, coefficients[:, -1]):
        row += np.multiply(source, c, out=work[0])
    # Divided by eps last: the damping term times max|I| is finite
    # (config.py admits no pair otherwise), damping / eps may not be.
    return np.divide(tendency, eps, out=tendency)


def _apply(matrix: np.ndarray, fields: np.ndarray, out=None) -> np.ndarray:
    """The real (m, k) matrix times the (k, ...) stack of fields, as one
    real GEMM: complex fields are read as their contiguous (re, im) view,
    whose columns the real matrix maps independently."""
    fields = np.ascontiguousarray(fields)
    if out is None:
        out = np.empty((len(matrix), *fields.shape[1:]), fields.dtype)
    flat = lambda a: a.view(float).reshape(len(a), -1)
    np.matmul(matrix, flat(fields), out=flat(out))
    return out


def moments(ords: OrdinateSet, I) -> np.ndarray:
    """Project the (basis, spectra) pair I onto the affine-in-direction
    subspace.

    I0 = (1/|S|) sum_j w_j I_j,  I1 = (n/|S|) sum_j w_j omega_j I_j,

    as (R @ basis) @ spectra with R the (1+n, count) weight rows; returns
    the (1+n, *half_shape) spectra of I0, I1_1..I1_n. Being linear, it
    takes values to values as well.
    """
    basis, spectra = I
    return _apply(_moment_rows(ords) @ basis, spectra)


def _moment_rows(ords: OrdinateSet) -> np.ndarray:
    """(1+n, count) weight rows w/|S| and (n/|S|) w omega of ``moments``."""
    w = ords.weights / ords.surface_measure
    return np.vstack([w, ords.n_dims * (w * ords.directions.T)])


def p1_projection_residual(grid: Grid, ords: OrdinateSet, I) -> float:
    """Weighted L^2(grid x ordinates) distance of the (basis, spectra)
    pair I from the P1 subspace.

    sqrt(sum_j w_j ||I_j - I0 - omega_j . I1||^2) with (I0, I1) the
    ``moments`` of I. The slabs of the difference are the rows of
    B' = basis - p1_basis (R @ basis) times the spectra, so the sum is the
    squared norm of F @ spectra with F the triangular factor of
    sqrt(w) B', a Parseval sum. Zero exactly when the intensity is affine
    in the direction at every grid node; invariant under adding any
    affine-in-direction field.
    """
    basis, spectra = I
    projected = basis - p1_basis(ords) @ (_moment_rows(ords) @ basis)
    factor = np.linalg.qr(np.sqrt(ords.weights)[:, None] * projected, mode="r")
    difference = _apply(factor, spectra)
    return float(np.sqrt(sobolev_squares(grid, difference, (0,)).sum()))


def moment_system_check(
    grid: Grid,
    ords: OrdinateSet,
    I,
    source: np.ndarray,
    eps: float,
    sigma_pairs: Iterable[tuple[float, float]],
    enforce_p1: bool = True,
) -> tuple[float, list[tuple[float, float]]]:
    """Residuals of the two-moment balance against the kinetic tendency
    of the (basis, spectra) pair I.

    For each (sigma_a, sigma_s) in ``sigma_pairs``, extracts the moments
    of ``kinetic_rhs`` and subtracts the tendencies the moment system
    predicts from the moments of I and the (*half_shape) dealiased
    spectrum source of theta^4 (``emission_spectrum``); the L^2 norms of
    the differences are (r0, r1). Both vanish to quadrature precision
    for intensities in the P1 subspace on at least 4 ordinates. The
    projection residual, the moments of I and the sigma-free parts of
    the prediction are computed once and shared by every pair; each
    pair costs one ``kinetic_rhs``, and nothing is transformed.

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
            I is not a (count, k) basis with (k, *grid.half_shape)
            spectra.
        NotInP1Subspace: if enforcement is on and I is too far from P1.
    """
    basis, spectra = I
    shape = (len(basis), *spectra.shape[1:]) if basis.shape[1:] == spectra.shape[:1] else None
    expected = (ords.count, *grid.half_shape)
    if ords.n_dims != grid.n_dims or shape != expected:
        raise ValueError(
            f"intensity of shape {shape} on {ords.n_dims}D ordinates does not fit"
            f" the {grid.n_dims}D grid: expected shape {expected}"
        )
    rad_hat = moments(ords, I)
    residual = p1_projection_residual(grid, ords, I)
    if enforce_p1 and residual > P1_RESIDUAL_LIMIT:
        raise NotInP1Subspace(
            f"projection residual {residual:.3e} exceeds {P1_RESIDUAL_LIMIT:.0e}"
        )
    n = ords.n_dims
    measure = ords.surface_measure
    # eps times the predicted tendencies without their damping terms:
    # theta^4 - (1/n) div I1 and -grad I0.
    ik = grid.half_ik
    free = np.concatenate(
        [(source - np.sum(ik * rad_hat[1:], axis=0) * (1.0 / n))[None], -ik * rad_hat[0]]
    )
    predicted = np.empty_like(source)

    pairs = []
    for sigma_a, sigma_s in sigma_pairs:
        tend = kinetic_rhs(grid, ords, I, source, eps, sigma_a, sigma_s)
        # Squared at the power-of-two scale that brings every real and
        # imaginary part of the tendency below one, so no admitted sigma
        # overflows; exact.
        top = max(tend.view(float).max(), -tend.view(float).min())
        scale = np.ldexp(1.0, -max(0, int(np.frexp(top)[1])))
        tend *= scale
        # The predicted tendency, scaled alike, subtracted in place.
        for i, damping in enumerate([sigma_a] + [sigma_a + sigma_s * measure] * n):
            np.multiply(rad_hat[i], damping, out=predicted)
            np.subtract(free[i], predicted, out=predicted)
            predicted *= scale / eps
            tend[i] -= predicted
        squares = sobolev_squares(grid, tend, (0,))[0]
        del tend  # not alive while the next pair's tendency is built
        pairs.append(tuple(float(np.sqrt(q) / scale) for q in (squares[0], squares[1:].sum())))
    return residual, pairs
