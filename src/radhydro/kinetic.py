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

Pass structure. An intensity is a (count, *shape) array, 67 MB at 128^2
cells and 512 ordinates, so the kernels are written to pass over each
such array once per use rather than once per moment or per term:

- ``moments`` is one (1+n, count) x (count, cells) matrix product: the
  weight rows w/|S| and (n/|S|) w omega times I viewed as a matrix, a
  single read of I, returned as the (1+n, *shape) values of (I0, I1).
- ``kinetic_rhs`` forms the sigma-dependent field
  c = theta^4 + sigma_s |S| <<I>> once (<<I>> from one weights @ I
  product) and then forms (-(sigma_a + sigma_s |S|) I - T + c)/eps one
  chunk of ordinates at a time, so each chunk of I, of T and of the
  result stays in cache for the whole expression. The chunk goes in
  place into the output or, for the closure check, into one reused
  buffer summed into the moments, so no (count, *shape) tendency is built.
- ``p1_intensity`` and the projection residual sample
  I0 + omega . I1 as products of the (count, 1+n) rows (1, omega_j)
  with the (1+n, cells) values of (I0, I1): ``p1_intensity`` in one
  product that writes the intensity once, the residual one chunk of
  ordinates at a time, each chunk subtracted from I, squared and
  weighted while in cache, so no reconstruction of the full array is
  built.
- ``transport_term`` (T = omega . grad I) stays per ordinate on the
  half spectrum of ``spectral``: one forward and one inverse transform
  per slab, with the symbol omega . ``half_ik`` summed from its
  components. Transforms batched over chunks of 4 to 16 slabs were no
  faster at 128^2 x 512 ordinates (204 to 232 ms against 214 ms), so
  the spectral work space stays one slab.

A chunk holds CHUNK_CELLS grid cells x ordinates (at least one
ordinate). The transport term does not depend on (sigma_a, sigma_s), so
one closure check evaluates it once, together with the emission
theta^4, the moments of I, the P1 projection residual and the sigma-free
parts of the predicted tendencies, and shares them across every
(sigma_a, sigma_s) pair it is given; each pair costs one ``kinetic_rhs``
on the whole field, reduced to its moments as it is formed.

Everything here is arrays: temperatures are (*shape) values, moment
pairs (1+n, *shape) values, intensities (count, *shape); the kernels
take the grid and the ordinate set beside them. The check
takes the predicted tendencies, the dealiased theta^4 and the residual
norms from half spectra: one forward transform of the stacked moments
of I and theta^4 gives div I1 / n, grad I0 and the emission (through
``Grid.half_ik`` and the 2/3 mask), one forward transform per pair gives
the spectra of the tendency's moments, and ``sobolev_squares`` the
norms of the differences.
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
    "p1_intensity",
    "transport_term",
    "kinetic_rhs",
    "moments",
    "p1_projection_residual",
    "moment_system_check",
]

P1_RESIDUAL_LIMIT = 1e-8

# Grid cells x ordinates per chunk of the kernels that pass over a whole
# (count, *shape) array (at least one ordinate per chunk): 512 kB of
# float64, so that the chunks of I, of the transport term and of the
# output that one expression touches fit together in a 2 MB per-core L2
# cache. At 128^2 cells that is 4 ordinates per chunk. Measured at
# 128^2 x 512 ordinates (2-core Xeon VM, numpy 2.4, one BLAS thread):
# kinetic_rhs 51 ms chunked against 57 ms in one pass over the whole
# array, the moments and the projection residual 26 ms against 56 ms;
# chunks of 2 to 16 ordinates time alike within the spread of the runs.
CHUNK_CELLS = 1 << 16


def _chunks(count: int, cells: int) -> list[slice]:
    """Slices of the ordinate axis, each at most CHUNK_CELLS cells."""
    step = max(1, CHUNK_CELLS // cells)
    return [slice(a, min(a + step, count)) for a in range(0, count, step)]


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


def p1_intensity(ords: OrdinateSet, rad: np.ndarray) -> np.ndarray:
    """The read-only (count, *shape) intensity I0 + omega_j . I1 sampled
    on the ordinates from the (1+n, *shape) values of (I0, I1): one
    (count, 1+n) x (1+n, cells) product, a single write."""
    vals = _p1_basis(ords) @ rad.reshape(len(rad), -1)
    vals = vals.reshape(ords.count, *rad.shape[1:])
    vals.setflags(write=False)
    return vals


def _p1_basis(ords: OrdinateSet) -> np.ndarray:
    """(count, 1+n) rows (1, omega_j): times the (1+n, cells) values of
    (I0, I1) they give I0 + omega_j . I1."""
    return np.column_stack([np.ones(ords.count), ords.directions])


def transport_term(grid: Grid, ords: OrdinateSet, I: np.ndarray) -> np.ndarray:
    """omega . grad I per ordinate of the (count, *shape) intensity I,
    shape (count, *shape).

    One half-spectrum transform pair per ordinate slab, so the spectral
    work space stays at one slab's spectrum; the symbol omega . i k is
    summed from its components.
    """
    ik = grid.half_ik
    out = np.empty_like(I)
    symbol = np.empty(grid.half_shape, dtype=complex)
    for j, omega in enumerate(ords.directions):
        np.multiply(ik[0], omega[0], out=symbol)
        for axis in range(1, grid.n_dims):
            symbol += ik[axis] * omega[axis]
        spectrum = grid.forward(I[j])
        spectrum *= symbol
        out[j] = grid.inverse(spectrum)
    return out


def kinetic_rhs(
    grid: Grid,
    ords: OrdinateSet,
    I: np.ndarray,
    theta: np.ndarray,
    eps: float,
    sigma_a: float,
    sigma_s: float,
    transport: np.ndarray | None = None,
    source: np.ndarray | None = None,
    as_moments: bool = False,
) -> np.ndarray:
    """Transport tendency per ordinate of the (count, *shape) intensity I.

    dI/dt = [-omega.grad I + theta^4 - sigma_a I
             + sigma_s |S| (<<I>> - I)] / eps

    with <<I>> the direction average, for the (*shape) values of theta.
    The emission constant is one. ``transport`` is ``transport_term``
    of I and ``source`` the values of the dealiased theta^4 (the inverse
    of ``emission_spectrum``) when the caller already has them; each is
    computed here otherwise. Evaluated as
    (-(sigma_a + sigma_s |S|) I - T + c)/eps with the field
    c = theta^4 + sigma_s |S| <<I>> formed once, written in place into
    the read-only (count, *shape) output one chunk of ordinates at a
    time; with ``as_moments``, the (1+n, *shape) ``moments`` of the
    tendency, summed chunk by chunk.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if sigma_a <= 0.0:
        raise ValueError(f"sigma_a must be positive, got {sigma_a}")
    if sigma_s < 0.0:
        raise ValueError(f"sigma_s must be nonnegative, got {sigma_s}")
    if transport is None:
        transport = transport_term(grid, ords, I)
    measure = ords.surface_measure
    if source is None:
        source = grid.inverse(emission_spectrum(grid, theta))
    rows = _moment_rows(ords)
    average = rows[0] @ I.reshape(ords.count, -1)
    field = source + (sigma_s * measure) * average.reshape(source.shape)
    damping = -(sigma_a + sigma_s * measure)
    chunks = _chunks(ords.count, field.size)
    out = np.empty((chunks[0].stop, *field.shape) if as_moments else I.shape)
    sums, product = np.zeros((2, len(rows), field.size))
    for s in chunks:
        part = out[: s.stop - s.start] if as_moments else out[s]
        np.multiply(I[s], damping, out=part)
        part -= transport[s]
        part += field
        part /= eps
        if as_moments:
            sums += np.matmul(rows[:, s], part.reshape(len(part), -1), out=product)
    out.setflags(write=False)
    return sums.reshape(len(rows), *field.shape) if as_moments else out


def moments(ords: OrdinateSet, I: np.ndarray) -> np.ndarray:
    """Project the (count, *shape) intensity I onto the
    affine-in-direction subspace.

    I0 = (1/|S|) sum_j w_j I_j,  I1 = (n/|S|) sum_j w_j omega_j I_j,

    as one (1+n, count) weight matrix times I viewed as (count, cells);
    returns the (1+n, *shape) values of I0, I1_1..I1_n.
    """
    rows = _moment_rows(ords) @ I.reshape(ords.count, -1)
    return rows.reshape(len(rows), *I.shape[1:])


def _moment_rows(ords: OrdinateSet) -> np.ndarray:
    """(1+n, count) weight rows w/|S| and (n/|S|) w omega of ``moments``."""
    w = ords.weights / ords.surface_measure
    return np.vstack([w, ords.n_dims * (w * ords.directions.T)])


def p1_projection_residual(grid: Grid, ords: OrdinateSet, I: np.ndarray, rad: np.ndarray) -> float:
    """Weighted L^2(grid x ordinates) distance of the (count, *shape)
    intensity I from the P1 subspace, given its ``moments`` rad.

    sqrt(sum_j w_j ||I_j - I0 - omega_j . I1||^2), one chunk of
    ordinates at a time: the chunk's P1 samples are formed, subtracted
    from I, squared and weighted while in cache. Zero exactly when the
    intensity is affine in the direction at every grid node; invariant
    under adding any affine-in-direction field.
    """
    basis, rows = _p1_basis(ords), rad.reshape(len(rad), -1)
    cells = rows.shape[1]
    intensity = I.reshape(ords.count, cells)
    chunks = _chunks(ords.count, cells)
    work = np.empty((chunks[0].stop, cells))
    total = 0.0
    for s in chunks:
        diff = work[: s.stop - s.start]
        np.matmul(basis[s], rows, out=diff)
        np.subtract(intensity[s], diff, out=diff)
        total += ords.weights[s] @ np.einsum("jc,jc->j", diff, diff)
    return float(np.sqrt(total * grid.cell_volume))


def moment_system_check(
    grid: Grid,
    ords: OrdinateSet,
    I: np.ndarray,
    theta: np.ndarray,
    eps: float,
    sigma_pairs: Iterable[tuple[float, float]],
    enforce_p1: bool = True,
) -> tuple[float, list[tuple[float, float]]]:
    """Residuals of the two-moment balance against the kinetic tendency
    of the (count, *shape) intensity I.

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
            I is not of shape (count, *grid.shape).
        NotInP1Subspace: if enforcement is on and I is too far from P1.
    """
    expected = (ords.count, *grid.shape)
    if ords.n_dims != grid.n_dims or I.shape != expected:
        raise ValueError(
            f"intensity of shape {I.shape} on {ords.n_dims}D ordinates does not fit"
            f" the {grid.n_dims}D grid: expected shape {expected}"
        )
    rad = moments(ords, I)
    residual = p1_projection_residual(grid, ords, I, rad)
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
        tend = kinetic_rhs(
            grid, ords, I, theta, eps, sigma_a, sigma_s, transport, source, as_moments=True
        )
        # Transformed and squared at the power-of-two scale that brings the
        # tendency below one, so no admitted sigma overflows; exact.
        scale = np.ldexp(1.0, -max(0, int(np.frexp(np.abs(tend).max())[1])))
        tend = grid.forward(tend * scale)
        tend[0] -= (free[0] - sigma_a * rad_hat[0]) * (scale / eps)
        tend[1:] -= (free[1:] - (sigma_a + sigma_s * measure) * rad_hat[1:]) * (scale / eps)
        squares = sobolev_squares(grid, tend, (0,))[0]
        pairs.append(tuple(float(np.sqrt(q) / scale) for q in (squares[0], squares[1:].sum())))
    return residual, pairs
