"""Radiation moments: relaxation tendencies and the limit closure.

The relaxation tendencies are the test-local field-by-field oracle
(``conftest.radiation_rhs``) that the exact substep is checked against;
the tests here hold the oracle itself to the equations. The limit pair
comes from the array functions (``limit_spectrum``, ``limit_q``) and is
checked through the public field operators.
"""

import numpy as np
import pytest

from radhydro.radiation import emission_spectrum, limit_closure_residual, limit_q
from radhydro.spectral import (
    SpectralField,
    VectorField,
    dealias,
    grad,
    laplacian,
    sobolev_norm,
)
from radhydro.stepping import EpsBatch

from conftest import emission_field, limit_pair, radiation_rhs, smooth_field, stack


def _theta_bump(grid, amp=0.1):
    x = grid.coordinates()[0]
    return SpectralField.from_values(grid, 1 + amp * np.cos(x))


def _q_field(grid, q):
    return VectorField([SpectralField.from_values(grid, c) for c in q])


class TestRadiationRhs:
    def test_equilibrium(self, grid1d):
        one = SpectralField.constant(grid1d, 1.0)
        d0, d1 = radiation_rhs(one, VectorField.zeros(grid1d), one, 1.0)
        assert np.abs(d0.values).max() < 1e-14
        assert np.abs(d1[0].values).max() < 1e-14

    def test_direct_substitution(self, grid1d):
        x = grid1d.coordinates()[0]
        one = SpectralField.constant(grid1d, 1.0)
        i0 = SpectralField.from_values(grid1d, 1 + np.cos(x))
        d0, d1 = radiation_rhs(i0, VectorField.zeros(grid1d), one, 1.0)
        assert np.abs(d0.values + np.cos(x)).max() < 1e-13
        assert np.abs(d1[0].values - np.sin(x)).max() < 1e-13

    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
    def test_limit_pair_is_steady(self, grid1d, eps):
        theta = _theta_bump(grid1d)
        d0, d1 = radiation_rhs(*limit_pair(theta), theta, eps)
        assert sobolev_norm(d0, 0) < 1e-10
        assert sobolev_norm(d1, 0) < 1e-10

    def test_eps_scaling(self, grid1d, rng):
        theta = SpectralField.constant(grid1d, 1.0) + smooth_field(grid1d, rng)
        i0 = smooth_field(grid1d, rng) + SpectralField.constant(grid1d, 1.0)
        i1 = VectorField([smooth_field(grid1d, rng)])
        d0a, d1a = radiation_rhs(i0, i1, theta, 0.05)
        d0b, d1b = radiation_rhs(i0, i1, theta, 0.1)
        assert np.abs(d0a.values - 2 * d0b.values).max() < 1e-12
        assert np.abs(d1a[0].values - 2 * d1b[0].values).max() < 1e-12

    def test_rejects_nonpositive_eps(self, grid1d):
        # The relaxation rate is 1/eps: a solver state rejects eps <= 0.
        fluid = stack(grid1d, 1.0, 0.0, 1.0)[:, None]
        rad = grid1d.forward(stack(grid1d, 1.0, 0.0))[:, None]
        with pytest.raises(ValueError, match="eps"):
            EpsBatch(grid1d, (0.0,), fluid, rad, 0.0)


class TestLimitI0:
    def test_constant(self, grid1d):
        theta = SpectralField.constant(grid1d, 1.0)
        assert np.abs(limit_pair(theta)[0].values - 1.0).max() < 1e-13

    def test_single_mode_symbol(self, grid1d):
        # Synthetic source 1 + cos x: the k = 1 symbol is 1/2.
        x = grid1d.coordinates()[0]
        theta4 = SpectralField.from_values(grid1d, 1 + np.cos(x))
        theta = SpectralField.from_values(grid1d, theta4.values ** 0.25)
        out = limit_pair(theta)[0]
        expected = 1 + np.cos(x) / 2
        # theta^4 reconstructed from the quarter power is exact to roundoff
        assert np.abs(out.values - expected).max() < 1e-10

    def test_residual_of_helmholtz_solve(self, grid1d):
        theta = _theta_bump(grid1d)
        i0, q = limit_pair(theta)
        residual = i0 - laplacian(i0) - emission_field(theta)
        assert sobolev_norm(residual, 0) < 1e-12
        assert i0.mean == pytest.approx(emission_field(theta).mean, abs=1e-14)
        assert sobolev_norm(q + grad(i0), 0) == 0.0

    def test_emission_is_the_dealiased_fourth_power(self, grid2d, rng):
        theta = SpectralField.constant(grid2d, 1.0) + smooth_field(grid2d, rng, kmax=8)
        want = dealias(theta**4)
        assert sobolev_norm(emission_field(theta) - want, 0) < 1e-14 * sobolev_norm(want, 0)
        assert np.all(emission_spectrum(grid2d, theta.values)[~grid2d.half_dealias_mask] == 0.0)


class TestLimitQ:
    def test_constant_theta(self, grid1d):
        q = limit_q(grid1d, np.full(grid1d.shape, 2.0))
        assert q.shape == (1, *grid1d.shape)
        assert np.abs(q).max() < 1e-13

    def test_single_mode(self, grid1d):
        x = grid1d.coordinates()[0]
        theta4 = SpectralField.from_values(grid1d, 1 + np.cos(x))
        theta = SpectralField.from_values(grid1d, theta4.values ** 0.25)
        q = limit_q(grid1d, theta.values)
        assert np.abs(q[0] - np.sin(x) / 2).max() < 1e-10

    def test_curl_free_2d(self, grid2d, rng):
        theta = SpectralField.constant(grid2d, 1.0) + smooth_field(grid2d, rng)
        q = _q_field(grid2d, limit_q(grid2d, theta.values))
        curl = grad(q[1])[0] - grad(q[0])[1]
        assert sobolev_norm(curl, 0) < 1e-12


class TestClosureResidual:
    def test_limit_flux_is_exact(self, grid2d, rng):
        theta = 1.0 + smooth_field(grid2d, rng).values
        assert limit_closure_residual(grid2d, theta, limit_q(grid2d, theta)) < 1e-11

    def test_zero_flux_leaves_emission_gradient(self, grid1d):
        theta = _theta_bump(grid1d)
        residual = limit_closure_residual(grid1d, theta.values, np.zeros((1, *grid1d.shape)))
        expected = sobolev_norm(grad(dealias(theta**4)), 0)
        assert residual == pytest.approx(expected, rel=1e-12)
        assert residual > 0.1

    def test_linearity_in_perturbation(self, grid1d):
        # The residual operator is affine in q, so a perturbation around
        # the exact flux contributes exactly its own residual norm.
        x = grid1d.coordinates()[0]
        theta = _theta_bump(grid1d)
        bump = SpectralField.from_values(grid1d, 0.01 * np.sin(x))
        perturbed = limit_q(grid1d, theta.values) + bump.values
        own = sobolev_norm(-grad(grad(bump)[0])[0] + bump, 0)
        assert limit_closure_residual(grid1d, theta.values, perturbed) == pytest.approx(own, abs=1e-6)
