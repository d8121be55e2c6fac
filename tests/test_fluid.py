"""Fluid parameters and the fluid right-hand-side kernel: stress,
dissipation, both couplings, positivity."""

import numpy as np
import pytest

from radhydro.errors import NonPositiveState
from radhydro.fluid import FluidParams, limit_rhs_residual
from conftest import (
    dealias, div, emission_field, fluid_rhs, grad, laplacian, limit_pair, limit_spectrum, smooth_field,
    smooth_vector, sobolev_norm, stack,
)


def _params(mu=1.0, lam=0.0, kappa=1.0):
    return FluidParams(mu=mu, lam=lam, kappa=kappa)


def _at_rest(grid, u):
    """Unit density and temperature with the (n, *shape) velocity u."""
    return stack(grid, 1.0, u, 1.0)


def _dissipation(grid, u, p):
    """Viscous heating as the kernel sees it: at unit density and
    temperature d_theta = dissipation - div u, so the heating is
    d_theta + div u (div u is band-limited here)."""
    tend = fluid_rhs(grid, _at_rest(grid, u), p, rad=stack(grid, 1.0, np.zeros(u.shape)), eps=1.0)
    return tend[-1] + div(grid, u)


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="mu"):
            FluidParams(mu=0.0, lam=0.0, kappa=1.0)
        with pytest.raises(ValueError, match="kappa"):
            FluidParams(mu=1.0, lam=0.0, kappa=-1.0)

    def test_bulk_combination(self):
        p = FluidParams(mu=1.0, lam=-1.5, kappa=1.0)
        p.validate_for(1)  # 2 - 1.5 > 0
        with pytest.raises(ValueError, match="2\\*mu"):
            p.validate_for(2)  # 2 - 3 < 0


class TestStrain:
    # The strain rate D_ij = (d_i u_j + d_j u_i) / 2 enters the kernel
    # through the heating 2 mu |D|^2 + lam (div u)^2.
    def test_zero_velocity(self, grid2d):
        heat = _dissipation(grid2d, np.zeros((2, *grid2d.shape)), _params(lam=0.5))
        assert np.abs(heat).max() < 1e-14

    def test_1d_sin(self, grid1d):
        # D = cos x, so the heating is 2 mu cos^2 x at lam = 0.
        x = grid1d.coordinates()[0]
        heat = _dissipation(grid1d, np.sin(x)[None], _params(mu=0.3, lam=0.0))
        assert np.abs(heat - 0.6 * np.cos(x) ** 2).max() < 1e-13

    def test_2d_shear(self, grid2d):
        # u = (sin y, 0): D_01 = D_10 = cos(y)/2, D_00 = D_11 = 0, so the
        # heating is 2 mu (2 cos^2(y) / 4) = mu cos^2 y, whatever lam.
        X, Y = grid2d.coordinates()
        u = np.stack([np.sin(Y), np.zeros_like(Y)])
        heat = _dissipation(grid2d, u, _params(mu=1.0, lam=0.7))
        assert np.abs(heat - np.cos(Y) ** 2).max() < 1e-13


class TestViscousStress:
    # div Psi(u) = mu Lap u + (mu + lam) grad div u enters the momentum
    # tendency; at unit density and temperature with no radiation push,
    # d_u = div Psi(u) - (u.grad) u.
    def test_1d_formula(self, grid1d):
        # Psi = 3 cos x at mu = lam = 1, so div Psi = -3 sin x.
        x = grid1d.coordinates()[0]
        u = np.sin(x)[None]
        tend = fluid_rhs(grid1d, _at_rest(grid1d, u), _params(mu=1.0, lam=1.0),
                         rad=stack(grid1d, 1.0, 0.0), eps=1.0)
        oracle = -3.0 * np.sin(x) - np.sin(x) * np.cos(x)
        assert np.abs(tend[1] - oracle).max() < 1e-12

    def test_trace_tracks_divergence(self, grid2d, rng):
        # trace(Psi) = (2 mu + n lam) div u: for a divergence-free flow
        # the lam part of the stress vanishes, so lam drops out.
        X, Y = grid2d.coordinates()
        u = np.stack([np.sin(Y), np.cos(X)])
        rad = stack(grid2d, 1.0, 0.0, 0.0)
        a = fluid_rhs(grid2d, _at_rest(grid2d, u), _params(mu=1.0, lam=0.7), rad=rad, eps=1.0)
        b = fluid_rhs(grid2d, _at_rest(grid2d, u), _params(mu=1.0, lam=0.0), rad=rad, eps=1.0)
        assert np.abs(a[1:-1] - b[1:-1]).max() < 1e-13


class TestDissipation:
    def test_zero(self, grid2d):
        heat = _dissipation(grid2d, np.zeros((2, *grid2d.shape)), _params())
        assert np.abs(heat).max() < 1e-14

    def test_1d_closed_form(self, grid1d):
        x = grid1d.coordinates()[0]
        heat = _dissipation(grid1d, np.sin(x)[None], _params(mu=1.0, lam=0.0))
        assert np.abs(heat - 2 * np.cos(x) ** 2).max() < 1e-13

    def test_nonnegative_up_to_dealias(self, grid2d, rng):
        # Oracle: the same quadratic form evaluated pointwise without
        # dealiasing is nonnegative by construction.
        u = smooth_vector(grid2d, rng)
        grads = [grad(grid2d, c) for c in u]  # grads[j][i] = d_i u_j
        raw = sum(((grads[j][i] + grads[i][j]) / 2) ** 2 for i in range(2) for j in range(2))
        assert raw.min() >= 0.0
        heat = _dissipation(grid2d, u, _params(mu=1.0, lam=0.0))
        assert heat.min() >= -1e-10

    def test_integral_sign_with_negative_lam(self, grid2d, rng):
        # 2 mu |D|^2 + lam (tr D)^2 integrates nonnegative whenever
        # 2 mu + n lam > 0, even though the integrand may change sign.
        u = smooth_vector(grid2d, rng)
        heat = _dissipation(grid2d, u, _params(mu=1.0, lam=-0.8))  # 2 - 1.6 > 0
        assert heat.mean() * grid2d.volume >= -1e-10


class TestFluidRhsEps:
    def test_equilibrium_is_stationary(self, grid1d):
        tend = fluid_rhs(grid1d, stack(grid1d, 1.0, 0.0, 1.0), _params(),
                         rad=stack(grid1d, 1.0, 0.0), eps=0.1)
        assert np.abs(tend).max() < 1e-14

    def test_constant_radiation_push(self, grid1d):
        tend = fluid_rhs(grid1d, stack(grid1d, 1.0, 0.0, 1.0), _params(),
                         rad=stack(grid1d, 1.0, 3.0), eps=0.1)
        assert np.abs(tend[1] - 0.3).max() < 1e-13
        assert np.abs(tend[0]).max() < 1e-14
        assert np.abs(tend[2]).max() < 1e-14

    def test_pressure_gradient_against_pointwise_oracle(self, grid1d):
        x = grid1d.coordinates()[0]
        fluid = stack(grid1d, 1 + 0.1 * np.sin(x), 0.0, 1.0)
        tend = fluid_rhs(grid1d, fluid, _params(), rad=stack(grid1d, 1.0, 0.0), eps=0.1)
        oracle = -0.1 * np.cos(x) / (1 + 0.1 * np.sin(x))
        assert np.abs(tend[1] - oracle).max() < 1e-12
        assert np.abs(tend[0]).max() < 1e-14
        assert np.abs(tend[2]).max() < 1e-14

    def test_positivity_guard(self, grid1d):
        x = grid1d.coordinates()[0]
        fluid = stack(grid1d, 1 + 1.5 * np.sin(x), 0.0, 1.0)
        with pytest.raises(NonPositiveState, match="min rho"):
            fluid_rhs(grid1d, fluid, _params(), rad=stack(grid1d, 1.0, 0.0), eps=0.1)

    def test_mass_tendency_has_zero_mean(self, grid2d, rng):
        rho = 1.0 + smooth_field(grid2d, rng)
        theta = 1.0 + smooth_field(grid2d, rng)
        u = smooth_vector(grid2d, rng)
        rad = stack(grid2d, emission_field(grid2d, theta), 0.0, 0.0)
        tend = fluid_rhs(grid2d, stack(grid2d, rho, u, theta), _params(mu=0.01, kappa=0.01),
                         rad=rad, eps=0.1)
        assert abs(tend[0].mean()) < 1e-12

    def test_translation_equivariance(self, grid1d, rng):
        rho = 1.0 + smooth_field(grid1d, rng)
        theta = 1.0 + smooth_field(grid1d, rng)
        u = smooth_vector(grid1d, rng)
        rad = stack(grid1d, emission_field(grid1d, theta), smooth_vector(grid1d, rng))
        fluid = stack(grid1d, rho, u, theta)
        p = _params(mu=0.01, kappa=0.01)
        shift = 5
        base = fluid_rhs(grid1d, fluid, p, rad=rad, eps=0.1)
        moved = fluid_rhs(grid1d, np.roll(fluid, shift, axis=-1), p,
                          rad=np.roll(rad, shift, axis=-1), eps=0.1)
        assert np.abs(np.roll(base, shift, axis=-1) - moved).max() < 1e-12


class TestFluidRhsLimit:
    def test_constant_theta_gives_equilibrium(self, grid1d):
        tend = fluid_rhs(grid1d, stack(grid1d, 1.0, 0.0, 1.0), _params())
        assert np.abs(tend).max() < 1e-14

    def test_agrees_with_eps_form_when_coupling_cancels(self, grid2d, rng):
        # With I1 = 0 and I0 the limit intensity (I - Lap)^(-1) theta^4 the
        # eps heat source I0 - theta^4 equals the limit one, -div q0 =
        # -|k|^2 (1 + |k|^2)^(-1) theta^4, and the momentum source is zero.
        rho = 1.0 + smooth_field(grid2d, rng)
        theta = 1.0 + smooth_field(grid2d, rng)
        u = smooth_vector(grid2d, rng)
        fluid = stack(grid2d, rho, u, theta)
        p = _params(mu=0.01, kappa=0.01)
        rad = stack(grid2d, limit_pair(grid2d, theta)[0], 0.0, 0.0)
        a = fluid_rhs(grid2d, fluid, p, rad=rad, eps=0.7)
        b = fluid_rhs(grid2d, fluid, p)
        assert np.abs(a - b).max() < 1e-12

    def test_limit_rhs_residual_measures_the_heat_source_gap(self, grid2d, rng):
        # The limit right-hand side against the eps one at eps = 0: roundoff
        # on the limit closure; with I0 raised by a constant c the eps heat
        # source gains c, so the gap is the norm of the dealiased c / rho.
        rho = 1.0 + smooth_field(grid2d, rng)
        fluid = stack(grid2d, rho, smooth_vector(grid2d, rng), 1.0 + smooth_field(grid2d, rng))
        y = fluid[:, None]
        y_hat = grid2d.forward(y)
        closure = limit_spectrum(grid2d, fluid[-1])[:, None]
        p = _params(mu=0.01, kappa=0.01)
        assert limit_rhs_residual(grid2d, y, y_hat, closure, p) < 1e-12
        c = 0.01
        raised = closure.copy()
        raised[(0, 0) + (0,) * grid2d.n_dims] += c
        gap = sobolev_norm(grid2d, dealias(grid2d, c / rho), 0)
        assert limit_rhs_residual(grid2d, y, y_hat, raised, p) == pytest.approx(gap, rel=1e-10)

    def test_conduction_with_limit_flux(self, grid1d):
        # 1D temperature bump: d_theta = [kappa lap theta - div q0]/rho.
        x = grid1d.coordinates()[0]
        theta = 1 + 0.1 * np.cos(x)
        kappa = 0.02
        tend = fluid_rhs(grid1d, stack(grid1d, 1.0, 0.0, theta), _params(kappa=kappa))
        heat = laplacian(grid1d, theta) * kappa - div(grid1d, limit_pair(grid1d, theta)[1])
        oracle = dealias(grid1d, heat)
        assert np.abs(tend[-1] - oracle).max() < 1e-12
        assert np.abs(tend[0]).max() < 1e-14
