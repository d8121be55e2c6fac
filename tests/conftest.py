"""Shared helpers: deterministic smooth random fields, stacked states,
one-member calls of the array kernels and test-local oracles.

Fields are numpy arrays of values, shape grid.shape; a vector field is
an (n, *shape) stack of its components."""

import numpy as np
import pytest

from radhydro.analysis import batch_error_squares
from radhydro.fluid import _rhs_common, require_positive
from radhydro.radiation import emission_spectrum, limit_closure
from radhydro.spectral import Grid, sobolev_squares
from radhydro.stepping import EpsBatch, _propagator, _substep


def smooth_field(grid, rng, kmax=3, amp=0.1):
    """Band-limited random field values: a handful of low modes, fixed by rng."""
    coords = grid.coordinates()
    vals = np.zeros(grid.shape)
    for _ in range(4):
        k = rng.integers(-kmax, kmax + 1, grid.n_dims)
        phase = sum(ki * xi for ki, xi in zip(k, coords))
        vals += amp * (rng.normal() * np.sin(phase) + rng.normal() * np.cos(phase))
    return vals


def smooth_vector(grid, rng, kmax=3, amp=0.1):
    """(n, *shape) stack of smooth fields, one per axis."""
    return np.stack([smooth_field(grid, rng, kmax, amp) for _ in range(grid.n_dims)])


def stack(grid, *parts):
    """(m, *shape) stack of field values, (n, *shape) vectors and constants.

    A scalar stands for a constant field; a vector adds n rows.
    """
    rows = []
    for part in parts:
        if np.isscalar(part):
            rows.append(np.full(grid.shape, float(part)))
        else:
            v = np.asarray(part, dtype=float)
            rows.extend(v if v.ndim > grid.n_dims else [v])
    return np.stack(rows)


# Reference operators on values: each is the Grid symbol product of one
# forward and one inverse transform. Vectors are (n, *shape) stacks.
def grad(grid, f):
    """Gradient of one field, symbol i*k_j; (n, *shape) values."""
    return grid.inverse(grid.half_ik * grid.forward(f))


def div(grid, v):
    """Divergence of a vector, sum_j i*k_j vhat_j."""
    return grid.inverse(np.sum(grid.half_ik * grid.forward(v), axis=0))


def laplacian(grid, f):
    """Laplacian, symbol -|k|^2."""
    return grid.inverse(-grid.half_k_squared * grid.forward(f))


def helmholtz_inverse(grid, f):
    """Exact inverse of (I - Laplacian), symbol 1/(1 + |k|^2)."""
    return grid.inverse(grid.half_helmholtz * grid.forward(f))


def dealias(grid, f):
    """2/3-rule truncation: every mode with some |k_j| > N/3 zeroed."""
    return grid.inverse(grid.half_dealias_mask * grid.forward(f))


def sobolev_norm(grid, f, s):
    """H^s norm of field values; the rows of a stack add their squares."""
    return float(np.sqrt(sobolev_squares(grid, grid.forward(f), (s,)).sum()))


def fluid_rhs(grid, fluid, p, rad=None, eps=None):
    """Fluid tendencies of one state through the array kernel.

    fluid is the (n+2, *shape) stack of (rho, u, theta). With rad, the
    (1+n, *shape) values of (I0, I1), and eps the finite-eps coupling
    applies (the kernel takes the moments' half spectra); without them the limit coupling, whose flux the kernel forms
    from theta. Positivity is checked first, as in the steppers.
    """
    y = np.asarray(fluid, dtype=float)[:, None]
    require_positive(y)
    if rad is None:
        tend = _rhs_common(grid, y, grid.forward(y), p)
    else:
        eps_member = np.full((1,) * (grid.n_dims + 1), float(eps))
        rad_hat = grid.forward(np.asarray(rad, dtype=float))[:, None]
        tend = _rhs_common(grid, y, grid.forward(y), p, rad=rad_hat, eps=eps_member)
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


def limit_spectrum(grid, theta):
    """(1+n, *half_shape) half spectrum of the limit pair (I0, q) of one
    temperature field, through ``limit_closure``."""
    return limit_closure(grid, emission_spectrum(grid, theta)[None])[:, 0]


def limit_state(grid, fluid, time=0.0):
    """The limit system at the (n+2, *shape) fluid values: the one-member
    batch eps = 0, its moments the limit closure of its temperature."""
    fluid = np.array(fluid, dtype=float)
    return EpsBatch(grid, (0.0,), fluid[:, None], limit_spectrum(grid, fluid[-1])[:, None], time)


def substep(grid, rad, theta, eps, dt):
    """Exact radiation substep of (1+n, *shape) moment values over dt with
    theta (values) frozen; returns the moment values."""
    source = emission_spectrum(grid, theta)[None]
    eps_member = np.full((1,) * (grid.n_dims + 1), float(eps))
    out = _substep(grid, grid.forward(rad)[:, None], source, _propagator(grid, eps_member, dt))
    return grid.inverse(out[:, 0])


def with_limit(limit, batch):
    """The batch whose member 0 is the limit state limit (the one-member
    batch eps = 0) and whose later members are those of batch, at the
    time of batch."""
    joined = lambda a, b: np.concatenate([a, b], axis=1)
    return EpsBatch(
        batch.grid, (0.0, *batch.eps), joined(limit.fluid, batch.fluid),
        joined(limit.rad, batch.rad), batch.time, spectrum=joined(limit.spectrum, batch.spectrum),
    )


def prepared_deviation(batch, s):
    """The well-preparedness functional of every eps member of batch
    against its member 0, the limit state, ||fluid diff||_s + sqrt(eps)
    ||radiation diff||_s, from ``batch_error_squares``."""
    fluid, rad = np.sqrt(batch_error_squares(batch, (s,))[0])
    return fluid + np.sqrt(batch.eps[1:]) * rad


def emission_field(grid, theta):
    """Dealiased theta^4 of temperature values, as values."""
    return grid.inverse(emission_spectrum(grid, theta))


def limit_pair(grid, theta):
    """(I0, q) values of the limit closure of temperature values:
    I0 = (I - Lap)^(-1) theta^4 and q = -grad I0, (n, *shape)."""
    i0, *q = grid.inverse(limit_spectrum(grid, theta))
    return i0, np.stack(q)


def radiation_rhs(grid, i0, i1, theta, eps):
    """Relaxation tendencies of the moment pair, written with the
    reference operators:

    d(I0)/dt = [theta^4 - I0 - div I1] / eps,  d(I1)/dt = [-I1 - grad I0] / eps.
    """
    d_i0 = (dealias(grid, theta**4) - i0 - div(grid, i1)) * (1.0 / eps)
    d_i1 = (-i1 - grad(grid, i0)) * (1.0 / eps)
    return d_i0, d_i1


def l2_inner(grid, a, b) -> float:
    """L^2 inner product on the torus of two fields or two vectors, by
    Parseval over the half spectrum with the Hermitian weights
    ``Grid.half_multiplicity``."""
    products = (np.conj(grid.forward(a)) * grid.forward(b)).real
    return float(np.sum(grid.half_multiplicity * products) * grid.volume)


@pytest.fixture
def grid1d():
    return Grid(n_dims=1, points_per_dim=64)


@pytest.fixture
def grid2d():
    return Grid(n_dims=2, points_per_dim=32)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
