"""Property-based checks of the half-spectrum field operators.

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

from radhydro.spectral import (
    Grid,
    SpectralField,
    VectorField,
    div,
    grad,
    helmholtz_inverse,
    laplacian,
    sobolev_norm,
)

from conftest import l2_inner

EXAMPLES = settings(max_examples=50, deadline=None)
TOL = 1e-12

grids = st.builds(
    Grid,
    n_dims=st.sampled_from([1, 2]),
    points_per_dim=st.sampled_from([8, 16, 32, 64, 128]),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _noise(grid, rng):
    return SpectralField.from_values(grid, rng.standard_normal(grid.shape))


@EXAMPLES
@given(grid=grids, seed=seeds)
def test_grad_and_div_are_adjoint(grid, seed):
    rng = np.random.default_rng(seed)
    f = _noise(grid, rng)
    v = VectorField([_noise(grid, rng) for _ in range(grid.n_dims)])
    scale = sobolev_norm(f, 1) * sobolev_norm(v, 0)
    assert abs(l2_inner(grad(f), v) + l2_inner(f, div(v))) <= TOL * scale


@EXAMPLES
@given(grid=grids, seed=seeds)
def test_parseval(grid, seed):
    f = _noise(grid, np.random.default_rng(seed))
    inner = l2_inner(f, f)
    assert inner == pytest.approx(sobolev_norm(f, 0) ** 2, rel=TOL)
    assert inner == pytest.approx(np.sum(f.values**2) * grid.cell_volume, rel=TOL)


@EXAMPLES
@given(grid=grids, seed=seeds)
def test_helmholtz_inverts_identity_minus_laplacian(grid, seed):
    f = _noise(grid, np.random.default_rng(seed))
    back = helmholtz_inverse(f - laplacian(f)).values
    largest_symbol = 1.0 + grid.n_dims * (grid.points_per_dim / 2) ** 2
    assert np.abs(back - f.values).max() <= TOL * largest_symbol * np.abs(f.values).max()


@EXAMPLES
@given(grid=grids, seed=seeds)
def test_mean_is_average_of_values(grid, seed):
    f = _noise(grid, np.random.default_rng(seed))
    assert f.mean == pytest.approx(f.values.mean(), abs=TOL * np.abs(f.values).max())


@EXAMPLES
@given(grid=grids, seed=seeds)
def test_coefficient_round_trip(grid, seed):
    f = _noise(grid, np.random.default_rng(seed))
    back = SpectralField.from_coefficients(grid, f.coefficients)
    assert back.coefficients.shape == grid.half_shape
    assert np.abs(back.values - f.values).max() <= TOL * np.abs(f.values).max()
