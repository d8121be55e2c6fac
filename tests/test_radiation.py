"""Radiation moments: relaxation tendencies and the limit closure.

The relaxation tendencies are the test-local oracle
(``conftest.radiation_rhs``) that the exact substep is checked against;
the tests here hold the oracle itself to the equations. The limit pair
comes from ``limit_closure`` (through ``conftest.limit_spectrum``) and
is checked through the reference operators of ``conftest``; the flux
is taken as the values of the spectrum's flux rows, and the closure
residual takes spectra, as the limit run does.
"""

import numpy as np
import pytest

from radhydro.errors import BlowUp, NonPositiveState
from radhydro.fluid import FluidParams
from radhydro.radiation import emission_spectrum, limit_closure_residual
from radhydro.spectral import Grid
from radhydro.stepping import EpsBatch, step_batch, step_eps

from conftest import (
    dealias, emission_field, grad, laplacian, limit_pair, limit_spectrum, limit_state, radiation_rhs,
    smooth_field, sobolev_norm, stack,
)


def _theta_bump(grid, amp=0.1):
    x = grid.coordinates()[0]
    return 1 + amp * np.cos(x)


def _limit_flux(grid, theta):
    """(n, *shape) values of the limit flux."""
    return grid.inverse(limit_spectrum(grid, theta)[1:])


class TestRadiationRhs:
    def test_equilibrium(self, grid1d):
        one = np.ones(grid1d.shape)
        d0, d1 = radiation_rhs(grid1d, one, np.zeros((1, *grid1d.shape)), one, 1.0)
        assert np.abs(d0).max() < 1e-14
        assert np.abs(d1[0]).max() < 1e-14

    def test_direct_substitution(self, grid1d):
        x = grid1d.coordinates()[0]
        one = np.ones(grid1d.shape)
        d0, d1 = radiation_rhs(grid1d, 1 + np.cos(x), np.zeros((1, *grid1d.shape)), one, 1.0)
        assert np.abs(d0 + np.cos(x)).max() < 1e-13
        assert np.abs(d1[0] - np.sin(x)).max() < 1e-13

    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
    def test_limit_pair_is_steady(self, grid1d, eps):
        theta = _theta_bump(grid1d)
        d0, d1 = radiation_rhs(grid1d, *limit_pair(grid1d, theta), theta, eps)
        assert sobolev_norm(grid1d, d0, 0) < 1e-10
        assert sobolev_norm(grid1d, d1, 0) < 1e-10

    def test_eps_scaling(self, grid1d, rng):
        theta = 1.0 + smooth_field(grid1d, rng)
        i0 = smooth_field(grid1d, rng) + 1.0
        i1 = smooth_field(grid1d, rng)[None]
        d0a, d1a = radiation_rhs(grid1d, i0, i1, theta, 0.05)
        d0b, d1b = radiation_rhs(grid1d, i0, i1, theta, 0.1)
        assert np.abs(d0a - 2 * d0b).max() < 1e-12
        assert np.abs(d1a[0] - 2 * d1b[0]).max() < 1e-12

    # The relaxation rate is 1/eps: a solver state rejects eps < 0, and
    # eps = 0 except as its first member, the limit system, which
    # step_eps steps only alone and step_batch as a chunk of its own.
    def test_rejects_negative_eps(self, grid1d):
        fluid = stack(grid1d, 1.0, 0.0, 1.0)[:, None]
        rad = grid1d.forward(stack(grid1d, 1.0, 0.0))[:, None]
        with pytest.raises(ValueError, match="eps"):
            EpsBatch(grid1d, (-0.1,), fluid, rad, 0.0)

    def test_rejects_zero_beside_positive_eps(self, grid1d):
        fluid = np.repeat(stack(grid1d, 1.0, 0.0, 1.0)[:, None], 2, axis=1)
        rad = np.repeat(grid1d.forward(stack(grid1d, 1.0, 0.0))[:, None], 2, axis=1)
        with pytest.raises(ValueError, match="eps"):
            EpsBatch(grid1d, (0.1, 0.0), fluid, rad, 0.0)
        batch = EpsBatch(grid1d, (0.0, 0.1), fluid, rad, 0.0)
        params = FluidParams(mu=0.01, lam=0.01, kappa=0.01)
        with pytest.raises(ValueError, match="eps"):
            step_eps(batch, params, 0.01)
        stepped = step_batch(batch, params, 0.01)
        assert stepped.eps == (0.0, 0.1) and stepped.time == 0.01
        for e, eps in enumerate(batch.eps):
            one = slice(e, e + 1)
            alone = step_eps(EpsBatch(grid1d, (eps,), fluid[:, one], rad[:, one], 0.0), params, 0.01)
            assert (stepped.fluid[:, one] == alone.fluid).all()
            assert (stepped.rad[:, one] == alone.rad).all()


class TestLimitBatchFailure:
    # A failure of the limit system, the batch eps = 0, names no eps.
    PARAMS = FluidParams(mu=0.01, lam=0.01, kappa=0.01)

    def test_positivity_loss_names_limit_system(self):
        # Density 1.2e-6 at x = 3pi/2, where the flow diverges at rate 50:
        # the later RK stages of the first step take it below the floor.
        grid = Grid(1, 32)
        x = grid.coordinates()[0]
        thin = stack(grid, 1.0 + (1.0 - 1.2e-6) * np.sin(x), 50.0 * np.cos(x), 1.0)
        with pytest.raises(NonPositiveState) as info:
            step_eps(limit_state(grid, thin, time=0.25), self.PARAMS, 0.01)
        exc = info.value
        assert exc.eps is None and exc.field == "rho" and 0.25 < exc.time <= 0.26
        assert exc.margin < 0.0
        assert "limit system" in str(exc) and "eps" not in str(exc)

    def test_blowup_names_limit_system(self):
        grid = Grid(1, 32)
        broken = stack(grid, 1.0, np.nan, 1.0)
        with pytest.raises(BlowUp) as info:
            step_eps(limit_state(grid, broken), self.PARAMS, 0.01)
        exc = info.value
        assert exc.eps is None and exc.time == pytest.approx(0.01)
        assert exc.field in ("rho", "u", "theta", "I0", "I1")
        assert "limit system" in str(exc) and "eps" not in str(exc)


class TestLimitI0:
    def test_constant(self, grid1d):
        theta = np.ones(grid1d.shape)
        assert np.abs(limit_pair(grid1d, theta)[0] - 1.0).max() < 1e-13

    def test_single_mode_symbol(self, grid1d):
        # Synthetic source 1 + cos x: the k = 1 symbol is 1/2.
        x = grid1d.coordinates()[0]
        theta = (1 + np.cos(x)) ** 0.25
        out = limit_pair(grid1d, theta)[0]
        expected = 1 + np.cos(x) / 2
        # theta^4 reconstructed from the quarter power is exact to roundoff
        assert np.abs(out - expected).max() < 1e-10

    def test_residual_of_helmholtz_solve(self, grid1d):
        theta = _theta_bump(grid1d)
        spectrum = limit_spectrum(grid1d, theta)
        i0 = grid1d.inverse(spectrum[0])
        residual = i0 - laplacian(grid1d, i0) - emission_field(grid1d, theta)
        assert sobolev_norm(grid1d, residual, 0) < 1e-12
        assert spectrum[0, 0].real == pytest.approx(emission_spectrum(grid1d, theta)[0].real, abs=1e-14)
        # q = -grad I0 holds on the coefficients, exactly.
        assert np.all(spectrum[1:] + grid1d.half_ik * spectrum[0] == 0.0)

    def test_emission_is_the_dealiased_fourth_power(self, grid2d, rng):
        theta = 1.0 + smooth_field(grid2d, rng, kmax=8)
        want = dealias(grid2d, theta**4)
        gap = sobolev_norm(grid2d, emission_field(grid2d, theta) - want, 0)
        assert gap < 1e-14 * sobolev_norm(grid2d, want, 0)
        assert np.all(emission_spectrum(grid2d, theta)[~grid2d.half_dealias_mask] == 0.0)


class TestLimitQ:
    def test_constant_theta(self, grid1d):
        q = _limit_flux(grid1d, np.full(grid1d.shape, 2.0))
        assert q.shape == (1, *grid1d.shape)
        assert np.abs(q).max() < 1e-13

    def test_single_mode(self, grid1d):
        x = grid1d.coordinates()[0]
        q = _limit_flux(grid1d, (1 + np.cos(x)) ** 0.25)
        assert np.abs(q[0] - np.sin(x) / 2).max() < 1e-10

    def test_curl_free_2d(self, grid2d, rng):
        q = _limit_flux(grid2d, 1.0 + smooth_field(grid2d, rng))
        curl = grad(grid2d, q[1])[0] - grad(grid2d, q[0])[1]
        assert sobolev_norm(grid2d, curl, 0) < 1e-12


class TestClosureResidual:
    # The residual takes the theta^4 spectrum and the flux spectrum.
    def test_limit_flux_is_exact(self, grid2d, rng):
        theta = 1.0 + smooth_field(grid2d, rng)
        source, q_hat = emission_spectrum(grid2d, theta), limit_spectrum(grid2d, theta)[1:]
        assert limit_closure_residual(grid2d, source, q_hat) < 1e-11

    def test_zero_flux_leaves_emission_gradient(self, grid1d):
        theta = _theta_bump(grid1d)
        zero = np.zeros((1, *grid1d.half_shape), dtype=complex)
        residual = limit_closure_residual(grid1d, emission_spectrum(grid1d, theta), zero)
        expected = sobolev_norm(grid1d, grad(grid1d, dealias(grid1d, theta**4)), 0)
        assert residual == pytest.approx(expected, rel=1e-12)
        assert residual > 0.1

    def test_linearity_in_perturbation(self, grid1d):
        # The residual operator is affine in q, so a perturbation around
        # the exact flux contributes exactly its own residual norm.
        x = grid1d.coordinates()[0]
        theta = _theta_bump(grid1d)
        bump = 0.01 * np.sin(x)
        perturbed = grid1d.forward(_limit_flux(grid1d, theta) + bump)
        own = sobolev_norm(grid1d, -grad(grid1d, grad(grid1d, bump)[0])[0] + bump, 0)
        residual = limit_closure_residual(grid1d, emission_spectrum(grid1d, theta), perturbed)
        assert residual == pytest.approx(own, abs=1e-6)
