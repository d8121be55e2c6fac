"""Spectral substrate: transforms, operators, norms, dealiasing."""

import numpy as np
import pytest

from radhydro.spectral import Grid

from conftest import (
    dealias, div, grad, helmholtz_inverse, l2_inner, laplacian, smooth_field, smooth_vector,
    sobolev_norm,
)

ALL_GRIDS = [(1, 32), (1, 64), (2, 32), (2, 64)]


class TestGrid:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="n_dims"):
            Grid(n_dims=3, points_per_dim=32)

    @pytest.mark.parametrize("n", [7, 12, 48, 4])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError, match="power of two"):
            Grid(n_dims=1, points_per_dim=n)

    def test_geometry(self):
        g = Grid(n_dims=2, points_per_dim=16)
        assert g.shape == (16, 16)
        assert g.spacing == pytest.approx(2 * np.pi / 16)
        assert g.volume == pytest.approx((2 * np.pi) ** 2)


class TestTransformRoundTrip:
    @pytest.mark.parametrize("n_dims,n", ALL_GRIDS)
    def test_roundtrip_random(self, n_dims, n):
        rng = np.random.default_rng(7)
        g = Grid(n_dims=n_dims, points_per_dim=n)
        vals = rng.standard_normal(g.shape)
        back = g.inverse(g.forward(vals))
        assert np.abs(back - vals).max() <= 1e-12 * np.abs(vals).max()

    def test_conjugate_symmetry(self, grid1d, grid2d):
        # Half layout: the k_last = 0 and Nyquist columns hold both k and
        # -k of the other axes, so each column is Hermitian along them
        # (in 1D, a single real entry).
        rng = np.random.default_rng(3)
        for grid in (grid1d, grid2d):
            c = grid.forward(rng.standard_normal(grid.shape))
            assert c.shape == grid.half_shape
            neg = -np.arange(grid.points_per_dim) % grid.points_per_dim
            for col in (c[..., 0], c[..., -1]):
                mirrored = np.conj(col[(neg,) * col.ndim])
                assert np.abs(col - mirrored).max() < 1e-13

    def test_mean_is_zero_mode(self, grid1d):
        x = grid1d.coordinates()[0]
        mean = grid1d.forward(2.5 + np.sin(3 * x))[0].real
        assert mean == pytest.approx(2.5, abs=1e-14)


class TestGrad:
    def test_sin_derivative(self, grid1d):
        x = grid1d.coordinates()[0]
        g = grad(grid1d, np.sin(x))
        assert np.abs(g[0] - np.cos(x)).max() < 1e-13

    def test_constant_gives_zero(self, grid1d):
        g = grad(grid1d, np.full(grid1d.shape, 4.0))
        assert np.abs(g[0]).max() < 1e-13

    def test_matches_finite_differences_2d(self):
        # Independent oracle: 8th-order centered differences on the same
        # samples. Stencil weights for f': [4/5, -1/5, 4/105, -1/280].
        g = Grid(n_dims=2, points_per_dim=64)
        X, Y = g.coordinates()
        vals = np.sin(2 * X) * np.cos(3 * Y)

        def fd8(arr, axis, h):
            w = [4 / 5, -1 / 5, 4 / 105, -1 / 280]
            out = np.zeros_like(arr)
            for m, c in enumerate(w, start=1):
                out += c * (np.roll(arr, -m, axis) - np.roll(arr, m, axis))
            return out / h

        gf = grad(g, vals)
        for axis in range(2):
            oracle = fd8(vals, axis, g.spacing)
            assert np.abs(gf[axis] - oracle).max() < 1e-6

    def test_spectral_accuracy_beats_any_polynomial_order(self):
        # exp(3 sin x) is analytic: refining 32 -> 64 must shrink the grad
        # error far faster than a fixed 8th-order method would.
        errors = {}
        for n in (32, 64):
            g = Grid(n_dims=1, points_per_dim=n)
            x = g.coordinates()[0]
            exact = 3 * np.cos(x) * np.exp(3 * np.sin(x))
            errors[n] = np.abs(grad(g, np.exp(3 * np.sin(x)))[0] - exact).max()
        assert errors[32] > 1e-11  # resolvable, not yet at roundoff
        assert errors[64] < errors[32] * 0.5**8


class TestDiv:
    def test_1d_sin(self, grid1d):
        x = grid1d.coordinates()[0]
        assert np.abs(div(grid1d, np.sin(x)[None]) - np.cos(x)).max() < 1e-13

    def test_div_grad_is_laplacian(self, grid2d, rng):
        f = smooth_field(grid2d, rng)
        lhs = div(grid2d, grad(grid2d, f))
        rhs = laplacian(grid2d, f)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_divergence_integrates_to_zero(self, grid2d, rng):
        v = smooth_vector(grid2d, rng)
        one = np.ones(grid2d.shape)
        assert abs(l2_inner(grid2d, div(grid2d, v), one)) < 1e-12


class TestLaplacian:
    def test_single_modes(self, grid1d):
        x = grid1d.coordinates()[0]
        assert np.abs(laplacian(grid1d, np.sin(x)) + np.sin(x)).max() < 1e-12
        assert np.abs(laplacian(grid1d, np.cos(2 * x)) + 4 * np.cos(2 * x)).max() < 1e-12
        assert np.abs(laplacian(grid1d, np.full(grid1d.shape, 3.0))).max() < 1e-13


class TestHelmholtzInverse:
    def test_constant_fixed_point(self, grid1d):
        f = np.full(grid1d.shape, 2.0)
        assert np.abs(helmholtz_inverse(grid1d, f) - 2.0).max() < 1e-13

    def test_cos_mode(self, grid1d):
        x = grid1d.coordinates()[0]
        assert np.abs(helmholtz_inverse(grid1d, np.cos(x)) - np.cos(x) / 2).max() < 1e-13

    @pytest.mark.parametrize("n_dims,n", ALL_GRIDS)
    def test_inverse_identity(self, n_dims, n):
        rng = np.random.default_rng(5)
        g = Grid(n_dims=n_dims, points_per_dim=n)
        f = smooth_field(g, rng)
        forward = f - laplacian(g, f)
        assert np.abs(helmholtz_inverse(g, forward) - f).max() < 1e-12


class TestSobolevNorm:
    def test_constant(self, grid2d):
        f = np.full(grid2d.shape, 3.0)
        for s in range(4):
            assert sobolev_norm(grid2d, f, s) == pytest.approx(3.0 * (2 * np.pi), rel=1e-13)

    def test_sin_l2(self, grid1d):
        x = grid1d.coordinates()[0]
        assert sobolev_norm(grid1d, np.sin(x), 0) == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_sin_h1_against_quadrature(self, grid1d):
        # Oracle: rectangle-rule quadrature of f^2 + f'^2 with the analytic
        # derivative; exact for trigonometric polynomials on this grid.
        x = grid1d.coordinates()[0]
        h1, l2 = (sobolev_norm(grid1d, np.sin(x), s) for s in (1, 0))
        quadrature = np.sum(np.sin(x) ** 2 + np.cos(x) ** 2) * grid1d.spacing
        assert quadrature == pytest.approx(2 * np.pi, rel=1e-14)
        assert h1**2 == pytest.approx(quadrature, rel=1e-13)
        assert h1**2 == pytest.approx(2 * l2**2, rel=1e-13)

    def test_monotone_in_s(self, grid2d, rng):
        f = smooth_field(grid2d, rng)
        norms = [sobolev_norm(grid2d, f, s) for s in range(7)]
        assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))

    def test_vector_sums_component_squares(self, grid2d, rng):
        v = smooth_vector(grid2d, rng)
        expected = np.sqrt(sum(sobolev_norm(grid2d, c, 2) ** 2 for c in v))
        assert sobolev_norm(grid2d, v, 2) == pytest.approx(expected, rel=1e-14)


class TestDealias:
    def test_low_modes_unchanged(self, grid1d):
        x = grid1d.coordinates()[0]
        f = np.sin(5 * x) + np.cos(21 * x)
        assert np.abs(dealias(grid1d, f) - f).max() < 1e-13

    def test_nyquist_mode_removed(self, grid1d):
        x = grid1d.coordinates()[0]
        assert np.abs(dealias(grid1d, np.cos(32 * x))).max() < 1e-13

    def test_idempotent(self, grid2d, rng):
        once = dealias(grid2d, rng.standard_normal(grid2d.shape))
        twice = dealias(grid2d, once)
        assert np.abs(once - twice).max() < 1e-14


class TestAdjointness:
    @pytest.mark.parametrize("n_dims,n", ALL_GRIDS)
    def test_grad_div_adjoint(self, n_dims, n):
        rng = np.random.default_rng(11)
        g = Grid(n_dims=n_dims, points_per_dim=n)
        f = smooth_field(g, rng)
        v = smooth_vector(g, rng)
        assert abs(l2_inner(g, grad(g, f), v) + l2_inner(g, f, div(g, v))) < 1e-10

