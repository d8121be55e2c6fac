"""Property-based checks of the half-spectrum transforms and symbols.

Each example is a white-noise field (every mode populated, Nyquist
included) on a random grid, 1D or 2D with 8..128 points per axis.
Tolerances follow from double precision: sums and transforms lose a few
units of roundoff per term, and the Helmholtz round trip loses roundoff
times the largest symbol, 1 + |k|^2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radhydro.spectral import Grid

from conftest import div, grad, helmholtz_inverse, l2_inner, laplacian, sobolev_norm

EXAMPLES = settings(max_examples=50, deadline=None)
TOL = 1e-12

grids = st.builds(
    Grid,
    n_dims=st.sampled_from([1, 2]),
    points_per_dim=st.sampled_from([8, 16, 32, 64, 128]),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _noise(grid, rng, *rows):
    return rng.standard_normal((*rows, *grid.shape))


@EXAMPLES
@given(grid=grids, seed=seeds)
def test_grad_and_div_are_adjoint(grid, seed):
    rng = np.random.default_rng(seed)
    f = _noise(grid, rng)
    v = _noise(grid, rng, grid.n_dims)
    scale = sobolev_norm(grid, f, 1) * sobolev_norm(grid, v, 0)
    assert abs(l2_inner(grid, grad(grid, f), v) + l2_inner(grid, f, div(grid, v))) <= TOL * scale


@EXAMPLES
@given(grid=grids, seed=seeds)
def test_parseval(grid, seed):
    f = _noise(grid, np.random.default_rng(seed))
    inner = l2_inner(grid, f, f)
    assert inner == pytest.approx(sobolev_norm(grid, f, 0) ** 2, rel=TOL)
    assert inner == pytest.approx(np.sum(f**2) * grid.spacing ** grid.n_dims, rel=TOL)


@EXAMPLES
@given(grid=grids, seed=seeds)
def test_helmholtz_inverts_identity_minus_laplacian(grid, seed):
    f = _noise(grid, np.random.default_rng(seed))
    back = helmholtz_inverse(grid, f - laplacian(grid, f))
    largest_symbol = 1.0 + grid.n_dims * (grid.points_per_dim / 2) ** 2
    assert np.abs(back - f).max() <= TOL * largest_symbol * np.abs(f).max()


@EXAMPLES
@given(grid=grids, seed=seeds)
def test_mean_is_average_of_values(grid, seed):
    f = _noise(grid, np.random.default_rng(seed))
    mean = grid.forward(f)[(0,) * grid.n_dims].real
    assert mean == pytest.approx(f.mean(), abs=TOL * np.abs(f).max())


@EXAMPLES
@given(grid=grids, seed=seeds)
def test_coefficient_round_trip(grid, seed):
    f = _noise(grid, np.random.default_rng(seed))
    coefficients = grid.forward(f)
    assert coefficients.shape == grid.half_shape
    assert np.abs(grid.inverse(coefficients) - f).max() <= TOL * np.abs(f).max()
