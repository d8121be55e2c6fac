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

Two forms of an intensity. The kernels take an intensity either as a
(count, *shape) array, one slab per ordinate, or as a ``(basis,
values)`` pair of a (count, k) matrix and (k, *shape) values, whose
slab j is basis[j] @ values. The P1 intensity I0 + omega_j . I1 is the
pair (``p1_basis(ords)``, values of (I0, I1)), and ``p1_intensity``
writes out its array. The closure check runs on the pair; the tests
use the array as the per-ordinate reference. A tuple is a pair: the
shape never decides, as in 1D count = 2 = 1+n.

Pass structure. Every kernel walks the (count, cells) rows of an
intensity in chunks of at most CHUNK_CELLS values, ordinates within
blocks of cells, and forms a chunk's rows while the chunk is in cache: a
view of an array, or one (rows, k) x (k, block) product of a pair, so no
kernel builds a (count, *shape) array from a pair.

- ``moments`` sums the products of the weight rows w/|S| and
  (n/|S|) w omega with each chunk's rows.
- ``p1_projection_residual`` forms each chunk of I minus the P1
  samples of the given moments (of a pair: as the rows of one pair),
  squares and weights it.
- ``transport_term`` (T = omega . grad I) of an array is the per-slab
  reference, one half-spectrum transform pair per ordinate with the
  symbol omega . ``Grid.half_ik``. T is linear in I, so of a pair it is
  the pair of the rows omega_ja basis_jb over the n k derivatives
  d_a values_b: one forward and one batched inverse transform, whatever
  the ordinate count.
- ``kinetic_rhs`` forms the field c = theta^4 + sigma_s |S| <<I>> once
  and then every ordinate's tendency row
  (-(sigma_a + sigma_s |S|) I - T + c)/eps on every cell, chunk by
  chunk, into the output or, for the closure check, into one chunk
  buffer reduced to the moments. Of two pairs the tendency is itself a
  pair, one product per chunk; of arrays the chunks of I and T are
  combined in place.

The transport term does not depend on (sigma_a, sigma_s), so one
closure check evaluates it once, together with the emission theta^4,
the moments of I, the P1 projection residual and the sigma-free parts
of the predicted tendencies, and shares them across every pair; each
pair costs one ``kinetic_rhs`` on the whole field. The check takes the
predicted tendencies, the dealiased theta^4 and the residual norms from
half spectra: one forward transform of the stacked moments of I and
theta^4 gives div I1 / n, grad I0 and the emission (through
``Grid.half_ik`` and the 2/3 mask), one forward transform per pair
gives the spectra of the tendency's moments, and ``sobolev_squares``
the norms of the differences.
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
    "p1_intensity",
    "transport_term",
    "kinetic_rhs",
    "moments",
    "p1_projection_residual",
    "moment_system_check",
]

P1_RESIDUAL_LIMIT = 1e-8

# Grid cells x ordinates per chunk of the kernels that pass over an
# intensity: 512 kB of float64, so that the chunks of I, of the transport
# term and of the output that one expression touches fit together in a
# 2 MB per-core L2 cache. Cells come in blocks of at most a quarter of
# it, so a chunk spans at least 4 ordinates (count permitting) and the
# block of a pair's values (10 fields in 2D) stays in that cache too. At
# 128^2 cells that is one block and 4 ordinates per chunk. Measured at
# 128^2 x 512 ordinates (2-core Xeon VM, numpy 2.4, one BLAS thread): on
# arrays, kinetic_rhs 51 ms chunked against 57 ms in one pass over the
# whole array, the moments and the projection residual 26 ms against
# 56 ms; on the P1 pair, the two-pair check 66 ms at 4 ordinates per
# chunk and 63 to 65 ms at 8 to 64, but 95 ms at 2 and 334 ms at 1. At
# 256^2 x 64 ordinates the pair check took 0.31 s in whole-grid chunks
# of one ordinate and 0.084 s in blocks of 16384 cells.
CHUNK_CELLS = 1 << 16


def _chunks(count: int, cells: int) -> list[tuple[slice, slice]]:
    """(ordinates, cells) slices of at most CHUNK_CELLS values that tile
    the (count, cells) rows of an intensity: blocks of at most a quarter
    of CHUNK_CELLS cells, so that the block of a pair's values that every
    chunk's product reads stays in cache, each walked over the ordinates
    (at least one per chunk)."""
    block = max(1, min(cells, CHUNK_CELLS // 4))
    step = max(1, CHUNK_CELLS // block)
    return [
        (slice(a, min(a + step, count)), slice(c, min(c + block, cells)))
        for c in range(0, cells, block)
        for a in range(0, count, step)
    ]


def _rows(I, s: slice, c: slice, out: np.ndarray | None = None) -> np.ndarray:
    """Rows s on cells c of the intensity I as a matrix: a view of a
    (count, *shape) array, or a (basis, values) pair's product
    basis[s] @ values[:, c], written into ``out`` when given."""
    if isinstance(I, tuple):
        basis, values = I
        return np.matmul(basis[s], values.reshape(len(values), -1)[:, c], out=out)
    return I.reshape(len(I), -1)[s, c]


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


def p1_intensity(ords: OrdinateSet, rad: np.ndarray) -> np.ndarray:
    """The read-only (count, *shape) array of the P1 intensity
    I0 + omega_j . I1 sampled on the ordinates from the (1+n, *shape)
    values of (I0, I1): one (count, 1+n) x (1+n, cells) product."""
    vals = p1_basis(ords) @ rad.reshape(len(rad), -1)
    vals = vals.reshape(ords.count, *rad.shape[1:])
    vals.setflags(write=False)
    return vals


def transport_term(grid: Grid, ords: OrdinateSet, I):
    """omega . grad I per ordinate, in the form of the intensity I.

    Of a (count, *shape) array, the (count, *shape) array: one
    half-spectrum transform pair per ordinate slab, so the spectral work
    space stays at one slab's spectrum; the symbol omega . i k is summed
    from its components. Of a (basis, values) pair with k values, the
    pair of the (count, n k) rows omega_ja basis_jb and the (n k, *shape)
    derivatives d_a values_b: one forward and one batched inverse
    transform, whatever the ordinate count.
    """
    ik = grid.half_ik
    if isinstance(I, tuple):
        basis, values = I
        rows = (ords.directions[:, :, None] * basis[:, None, :]).reshape(ords.count, -1)
        derivatives = grid.inverse(ik[:, None] * grid.forward(values))
        return rows, derivatives.reshape(-1, *grid.shape)
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
    I,
    theta: np.ndarray,
    eps: float,
    sigma_a: float,
    sigma_s: float,
    transport=None,
    source: np.ndarray | None = None,
    as_moments: bool = False,
) -> np.ndarray:
    """Transport tendency per ordinate of the intensity I, an array or a
    (basis, values) pair.

    dI/dt = [-omega.grad I + theta^4 - sigma_a I
             + sigma_s |S| (<<I>> - I)] / eps

    with <<I>> the direction average, for the (*shape) values of theta.
    The emission constant is one. ``transport`` is ``transport_term``
    of I (in either form) and ``source`` the values of the dealiased
    theta^4 (the inverse of ``emission_spectrum``) when the caller
    already has them; each is computed here otherwise. Evaluated as
    (-(sigma_a + sigma_s |S|) I - T + c)/eps with the field
    c = theta^4 + sigma_s |S| <<I>> formed once, one chunk of ordinates
    at a time into the read-only (count, *shape) output; with
    ``as_moments``, the (1+n, *shape) ``moments`` of the tendency,
    summed chunk by chunk.
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
    field = source + (sigma_s * measure) * moments(ords, I)[0]
    damping = -(sigma_a + sigma_s * measure)
    tendency = None
    if isinstance(I, tuple) and isinstance(transport, tuple):
        # Of two pairs, eps times the tendency is a pair: the rows
        # (damping basis_j, -transport basis_j, 1) over the values of I,
        # of T and c, so that one product forms a chunk's rows.
        (basis, values), (t_basis, t_values) = I, transport
        tendency = (
            np.column_stack([damping * basis, -t_basis, np.ones(ords.count)]),
            np.concatenate([values, t_values, field[None]]),
        )
    field = field.reshape(-1)
    chunks = _chunks(ords.count, field.size)
    s, c = chunks[0]
    out = np.empty((s.stop, c.stop) if as_moments else (ords.count, field.size))
    sums, product = np.zeros((2, len(rows), field.size))
    for s, c in chunks:
        part = out[: s.stop - s.start, : c.stop - c.start] if as_moments else out[s, c]
        if tendency is not None:
            _rows(tendency, s, c, out=part)
        else:
            np.multiply(_rows(I, s, c), damping, out=part)
            part -= _rows(transport, s, c)
            part += field[c]
        if as_moments:
            sums[:, c] += np.matmul(rows[:, s], part, out=product[:, c])
    # Divided by eps last: the damping term times max|I| is finite
    # (config.py admits no pair otherwise), damping / eps may not be.
    if as_moments:
        return np.divide(sums, eps, out=sums).reshape(len(rows), *source.shape)
    out = np.divide(out, eps, out=out).reshape(ords.count, *source.shape)
    out.setflags(write=False)
    return out


def moments(ords: OrdinateSet, I) -> np.ndarray:
    """Project the intensity I, an array or a (basis, values) pair, onto
    the affine-in-direction subspace.

    I0 = (1/|S|) sum_j w_j I_j,  I1 = (n/|S|) sum_j w_j omega_j I_j,

    as the (1+n, count) weight rows times I's rows, summed one chunk of
    ordinates at a time; returns the (1+n, *shape) values of I0,
    I1_1..I1_n.
    """
    shape = (I[1] if isinstance(I, tuple) else I).shape[1:]
    rows = _moment_rows(ords)
    cells = int(np.prod(shape))
    sums, product = np.zeros((2, len(rows), cells))
    for s, c in _chunks(ords.count, cells):
        sums[:, c] += np.matmul(rows[:, s], _rows(I, s, c), out=product[:, c])
    return sums.reshape(len(rows), *shape)


def _moment_rows(ords: OrdinateSet) -> np.ndarray:
    """(1+n, count) weight rows w/|S| and (n/|S|) w omega of ``moments``."""
    w = ords.weights / ords.surface_measure
    return np.vstack([w, ords.n_dims * (w * ords.directions.T)])


def p1_projection_residual(grid: Grid, ords: OrdinateSet, I, rad: np.ndarray) -> float:
    """Weighted L^2(grid x ordinates) distance of the intensity I, an
    array or a (basis, values) pair, from the P1 subspace, given its
    ``moments`` rad.

    sqrt(sum_j w_j ||I_j - I0 - omega_j . I1||^2), one chunk of
    ordinates at a time: the chunk's P1 samples are formed, subtracted
    from the chunk of I, squared and weighted while in cache. Zero
    exactly when the intensity is affine in the direction at every grid
    node; invariant under adding any affine-in-direction field.
    """
    p1 = (p1_basis(ords), rad)
    pair = isinstance(I, tuple)
    if pair:
        # The difference of a pair from P1 is a pair: one product forms a
        # chunk of P1 - I.
        p1 = (np.column_stack([p1[0], -I[0]]), np.concatenate([rad, I[1]]))
    total = 0.0
    for s, c in _chunks(ords.count, rad[0].size):
        diff = _rows(p1, s, c)
        if not pair:
            np.subtract(_rows(I, s, c), diff, out=diff)
        total += ords.weights[s] @ np.einsum("jc,jc->j", diff, diff)
    return float(np.sqrt(total * grid.cell_volume))


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
    of the intensity I, a (count, *shape) array or a (basis, values) pair.

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
            I is not of shape (count, *grid.shape) (a pair: a (count, k)
            basis and (k, *grid.shape) values).
        NotInP1Subspace: if enforcement is on and I is too far from P1.
    """
    if isinstance(I, tuple):
        basis, values = I
        shape = (len(basis), *values.shape[1:]) if basis.shape[1:] == values.shape[:1] else None
    else:
        shape = I.shape
    expected = (ords.count, *grid.shape)
    if ords.n_dims != grid.n_dims or shape != expected:
        raise ValueError(
            f"intensity of shape {shape} on {ords.n_dims}D ordinates does not fit"
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
