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

The transport term omega . grad I (``transport_term``) is taken per
ordinate on the half spectrum of ``spectral`` (``Grid.forward``/
``Grid.inverse`` with the symbol omega . ``half_ik``), one slab at a
time. It does not depend on (sigma_a, sigma_s), so one closure check
evaluates it once, together with the moments of I, the P1 projection
residual and the sigma-free parts of the predicted tendencies, and
shares them across every (sigma_a, sigma_s) pair it is given.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import NotInP1Subspace
from .radiation import RadiationMoments, emission
from .spectral import Grid, SpectralField, VectorField, div, grad, sobolev_norm

__all__ = [
    "OrdinateSet",
    "KineticField",
    "make_ordinates",
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


@dataclass(frozen=True)
class KineticField:
    """Radiation intensity sampled on grid nodes x ordinate directions."""

    grid: Grid
    ordinates: OrdinateSet
    intensity: np.ndarray  # shape (count, *grid.shape)

    def __post_init__(self):
        expected = (self.ordinates.count, *self.grid.shape)
        if self.intensity.shape != expected:
            raise ValueError(
                f"intensity shape {self.intensity.shape} != {expected}"
            )
        if self.ordinates.n_dims != self.grid.n_dims:
            raise ValueError("ordinate and grid dimensions differ")

    @classmethod
    def from_p1(cls, rad: RadiationMoments, ords: OrdinateSet) -> "KineticField":
        """Sample I0 + I1.omega on the ordinates."""
        i1 = np.stack([c.values for c in rad.I1])
        vals = np.tensordot(ords.directions, i1, axes=1)
        vals += rad.I0.values
        vals.setflags(write=False)
        return cls(rad.grid, ords, vals)


def transport_term(I: KineticField) -> np.ndarray:
    """omega . grad I per ordinate, shape (count, *grid.shape).

    One half-spectrum transform pair per ordinate slab, so the spectral
    work space stays at one slab's spectrum.
    """
    grid = I.grid
    out = np.empty_like(I.intensity)
    for j, omega in enumerate(I.ordinates.directions):
        symbol = np.tensordot(omega, grid.half_ik, axes=1)
        out[j] = grid.inverse(symbol * grid.forward(I.intensity[j]))
    return out


def kinetic_rhs(
    I: KineticField,
    theta: SpectralField,
    eps: float,
    sigma_a: float,
    sigma_s: float,
    transport: np.ndarray | None = None,
) -> KineticField:
    """Transport tendency per ordinate.

    dI/dt = [-omega.grad I + theta^4 - sigma_a I
             + sigma_s |S| (<<I>> - I)] / eps

    with <<I>> the direction average. The emission constant is one.
    ``transport`` is ``transport_term(I)`` when the caller already has
    it; it is computed here otherwise.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if sigma_a <= 0.0:
        raise ValueError(f"sigma_a must be positive, got {sigma_a}")
    if sigma_s < 0.0:
        raise ValueError(f"sigma_s must be nonnegative, got {sigma_s}")
    if transport is None:
        transport = transport_term(I)
    ords = I.ordinates
    measure = ords.surface_measure
    average = np.tensordot(ords.weights, I.intensity, axes=(0, 0)) / measure
    source = emission(theta).values
    out = np.empty_like(I.intensity)
    for j, slab in enumerate(I.intensity):
        out[j] = (
            -transport[j]
            + source
            - sigma_a * slab
            + sigma_s * measure * (average - slab)
        ) / eps
    out.setflags(write=False)
    return KineticField(I.grid, ords, out)


def moments(I: KineticField, ords: OrdinateSet) -> RadiationMoments:
    """Project the intensity onto the affine-in-direction subspace.

    I0 = (1/|S|) sum_j w_j I_j,  I1 = (n/|S|) sum_j w_j omega_j I_j.
    """
    if ords.count != I.ordinates.count or ords.n_dims != I.ordinates.n_dims:
        raise ValueError("ordinate set does not match the kinetic field")
    measure = ords.surface_measure
    n = ords.n_dims
    i0_vals = np.tensordot(ords.weights, I.intensity, axes=(0, 0)) / measure
    i1_comps = []
    for axis in range(n):
        w = ords.weights * ords.directions[:, axis]
        i1_comps.append(
            SpectralField.from_values(
                I.grid, (n / measure) * np.tensordot(w, I.intensity, axes=(0, 0))
            )
        )
    return RadiationMoments(
        SpectralField.from_values(I.grid, i0_vals), VectorField(i1_comps)
    )


def p1_projection_residual(I: KineticField, ords: OrdinateSet) -> float:
    """Weighted L^2(grid x ordinates) distance from the P1 subspace.

    Zero exactly when the intensity is affine in the direction at every
    grid node; invariant under adding any affine-in-direction field.
    """
    return _projection_residual(I, moments(I, ords))


def _projection_residual(I: KineticField, rad: RadiationMoments) -> float:
    """sqrt(sum_j w_j ||I_j - I0 - omega_j . I1||^2) for the moments rad
    of I, accumulated one ordinate slab at a time."""
    ords = I.ordinates
    i0 = rad.I0.values
    i1 = np.stack([c.values for c in rad.I1])
    total = 0.0
    for w, omega, slab in zip(ords.weights, ords.directions, I.intensity):
        diff = slab - (i0 + np.tensordot(omega, i1, axes=1))
        total += w * np.vdot(diff, diff)
    return float(np.sqrt(total * I.grid.cell_volume))


def moment_system_check(
    I: KineticField,
    theta: SpectralField,
    eps: float,
    sigma_pairs: Iterable[tuple[float, float]],
    enforce_p1: bool = True,
) -> tuple[float, list[tuple[float, float]]]:
    """Residuals of the two-moment balance against the kinetic tendency.

    For each (sigma_a, sigma_s) in ``sigma_pairs``, extracts the moments
    of ``kinetic_rhs`` and subtracts the tendencies the moment system
    predicts from the moments of I; the L^2 norms of the differences are
    (r0, r1). Both vanish to quadrature precision for intensities in the
    P1 subspace on at least 4 ordinates. The projection residual, the
    moments of I, the transport term and the sigma-free parts of the
    prediction are computed once and shared by every pair.

    Args:
        enforce_p1: When True (default), reject intensities whose
            projection residual exceeds 1e-8 -- the balance is only a
            closure statement on the P1 subspace. Pass False to measure
            the closure defect of data outside the subspace.

    Returns:
        The P1 projection residual of I and one (r0, r1) per pair, in
        the order given.

    Raises:
        NotInP1Subspace: if enforcement is on and I is too far from P1.
    """
    ords = I.ordinates
    rad = moments(I, ords)
    residual = _projection_residual(I, rad)
    if enforce_p1 and residual > P1_RESIDUAL_LIMIT:
        raise NotInP1Subspace(
            f"projection residual {residual:.3e} exceeds {P1_RESIDUAL_LIMIT:.0e}"
        )
    n = ords.n_dims
    measure = ords.surface_measure
    transport = transport_term(I)
    source = emission(theta)
    flux_div = div(rad.I1) * (1.0 / n)
    grad_i0 = grad(rad.I0)

    pairs = []
    for sigma_a, sigma_s in sigma_pairs:
        tend = moments(kinetic_rhs(I, theta, eps, sigma_a, sigma_s, transport), ords)
        predicted_I0 = (source - rad.I0 * sigma_a - flux_div) * (1.0 / eps)
        damping = sigma_a + sigma_s * measure
        predicted_I1 = (rad.I1 * (-damping) - grad_i0) * (1.0 / eps)
        pairs.append(
            (sobolev_norm(tend.I0 - predicted_I0, 0), sobolev_norm(tend.I1 - predicted_I1, 0))
        )
    return residual, pairs
