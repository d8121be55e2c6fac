"""Shared helpers: deterministic smooth random fields, stacked states,
one-member calls of the array kernels and test-local oracles."""

import numpy as np
import pytest

from radhydro.fluid import _rhs_common, require_positive
from radhydro.radiation import emission_spectrum
from radhydro.spectral import Grid, SpectralField, VectorField, dealias, div, grad
from radhydro.stepping import EpsBatch, LimitState, _substep


def smooth_field(grid, rng, kmax=3, amp=0.1):
    """Band-limited random field: a handful of low modes, fixed by rng."""
    coords = grid.coordinates()
    vals = np.zeros(grid.shape)
    for _ in range(4):
        k = rng.integers(-kmax, kmax + 1, grid.n_dims)
        phase = sum(ki * xi for ki, xi in zip(k, coords))
        vals += amp * (rng.normal() * np.sin(phase) + rng.normal() * np.cos(phase))
    return SpectralField.from_values(grid, vals)


def smooth_vector(grid, rng, kmax=3, amp=0.1):
    return VectorField([smooth_field(grid, rng, kmax, amp) for _ in range(grid.n_dims)])


def _values(x):
    """Values of a SpectralField, the rows of a VectorField, or an array."""
    if isinstance(x, SpectralField):
        return x.values
    if isinstance(x, VectorField):
        return np.stack([c.values for c in x])
    return np.asarray(x, dtype=float)


def stack(grid, *parts):
    """(m, *shape) stack of fields, vector fields, arrays and constants.

    A scalar stands for a constant field; a vector field adds n rows.
    """
    rows = []
    for part in parts:
        if np.isscalar(part):
            rows.append(np.full(grid.shape, float(part)))
        else:
            v = _values(part)
            rows.extend(v if v.ndim > grid.n_dims else [v])
    return np.stack(rows)


def fields(grid, y):
    """(rho, u, theta) fields of a (n+2, *shape) fluid stack, or (I0, I1)
    of a (1+n, *shape) moment stack."""
    rows = [SpectralField.from_values(grid, r) for r in y]
    if len(rows) == grid.n_dims + 2:
        return rows[0], VectorField(rows[1:-1]), rows[-1]
    return rows[0], VectorField(rows[1:])


def fluid_rhs(grid, fluid, p, rad=None, eps=None):
    """Fluid tendencies of one state through the array kernel.

    fluid is the (n+2, *shape) stack of (rho, u, theta). With rad, the
    (1+n, *shape) values of (I0, I1), and eps the finite-eps coupling
    applies; without them the limit coupling, whose flux the kernel forms
    from theta. Positivity is checked first, as in the steppers.
    """
    y = np.asarray(fluid, dtype=float)[:, None]
    require_positive(y)
    if rad is None:
        tend = _rhs_common(grid, y, grid.forward(y), p)
    else:
        eps_member = np.full((1,) * (grid.n_dims + 1), float(eps))
        tend = _rhs_common(grid, y, grid.forward(y), p, rad=np.asarray(rad)[:, None], eps=eps_member)
    return grid.inverse(tend[:, 0])


def eps_batch(grid, eps, fluids, rads, time=0.0):
    """EpsBatch of members given as (n+2, *shape) fluid and (1+n, *shape)
    moment value stacks, one per entry of eps."""
    fluid = np.stack([np.asarray(f, dtype=float) for f in fluids], axis=1)
    rad = grid.forward(np.stack([np.asarray(r, dtype=float) for r in rads], axis=1))
    return EpsBatch(grid, tuple(eps), fluid, rad, time)


def member(b, e=0):
    """(fluid values, moment values) of member e of a batch."""
    return b.fluid[:, e], b.grid.inverse(b.rad[:, e])


def limit_state(grid, fluid, time=0.0):
    return LimitState(grid, np.array(fluid, dtype=float), time)


def substep(grid, rad, theta, eps, dt):
    """Exact radiation substep of (1+n, *shape) moment values over dt with
    theta (values) frozen; returns the moment values."""
    source = emission_spectrum(grid, _values(theta))[None]
    eps_member = np.full((1,) * (grid.n_dims + 1), float(eps))
    out = _substep(grid, grid.forward(_values(rad))[:, None], source, eps_member, dt)
    return grid.inverse(out[:, 0])


def radiation_rhs(i0, i1, theta, eps):
    """Relaxation tendencies of the moment pair, field by field:

    d(I0)/dt = [theta^4 - I0 - div I1] / eps,  d(I1)/dt = [-I1 - grad I0] / eps.
    """
    d_i0 = (dealias(theta**4) - i0 - div(i1)) * (1.0 / eps)
    d_i1 = (-i1 - grad(i0)) * (1.0 / eps)
    return d_i0, d_i1


def l2_inner(a, b) -> float:
    """L^2 inner product on the torus of two scalar fields or two vector
    fields, by Parseval over the half spectrum with the Hermitian weights
    ``Grid.half_multiplicity``."""
    if isinstance(a, VectorField):
        return sum(l2_inner(x, y) for x, y in zip(a, b))
    products = (np.conj(a.coefficients) * b.coefficients).real
    return float(np.sum(a.grid.half_multiplicity * products) * a.grid.volume)


@pytest.fixture
def grid1d():
    return Grid(n_dims=1, points_per_dim=64)


@pytest.fixture
def grid2d():
    return Grid(n_dims=2, points_per_dim=32)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
