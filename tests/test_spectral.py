"""Spectral substrate: transforms, operators, norms, dealiasing."""

import numpy as np
import pytest

from radhydro.spectral import (
    Grid,
    SpectralField,
    VectorField,
    dealias,
    div,
    grad,
    helmholtz_inverse,
    laplacian,
    sobolev_norm,
)

from conftest import l2_inner, smooth_field, smooth_vector

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
        f = SpectralField.from_values(g, vals)
        back = SpectralField.from_coefficients(g, f.coefficients).values
        assert np.abs(back - vals).max() <= 1e-12 * np.abs(vals).max()

    def test_conjugate_symmetry(self, grid1d, grid2d):
        # Half layout: the k_last = 0 and Nyquist columns hold both k and
        # -k of the other axes, so each column is Hermitian along them
        # (in 1D, a single real entry).
        rng = np.random.default_rng(3)
        for grid in (grid1d, grid2d):
            c = SpectralField.from_values(grid, rng.standard_normal(grid.shape)).coefficients
            assert c.shape == grid.half_shape
            neg = -np.arange(grid.points_per_dim) % grid.points_per_dim
            for col in (c[..., 0], c[..., -1]):
                mirrored = np.conj(col[(neg,) * col.ndim])
                assert np.abs(col - mirrored).max() < 1e-13

    def test_rejects_full_layout(self, grid2d):
        f = SpectralField.constant(grid2d, 1.0)
        with pytest.raises(ValueError, match="half-spectrum shape"):
            SpectralField.from_coefficients(grid2d, np.zeros(grid2d.shape, dtype=complex))
        assert SpectralField.from_coefficients(grid2d, f.coefficients).mean == 1.0

    def test_mean_is_zero_mode(self, grid1d):
        x = grid1d.coordinates()[0]
        f = SpectralField.from_values(grid1d, 2.5 + np.sin(3 * x))
        assert f.mean == pytest.approx(2.5, abs=1e-14)


class TestGrad:
    def test_sin_derivative(self, grid1d):
        x = grid1d.coordinates()[0]
        g = grad(SpectralField.from_values(grid1d, np.sin(x)))
        assert np.abs(g[0].values - np.cos(x)).max() < 1e-13

    def test_constant_gives_zero(self, grid1d):
        g = grad(SpectralField.constant(grid1d, 4.0))
        assert np.abs(g[0].values).max() < 1e-13

    def test_matches_finite_differences_2d(self):
        # Independent oracle: 8th-order centered differences on the same
        # samples. Stencil weights for f': [4/5, -1/5, 4/105, -1/280].
        g = Grid(n_dims=2, points_per_dim=64)
        X, Y = g.coordinates()
        vals = np.sin(2 * X) * np.cos(3 * Y)
        f = SpectralField.from_values(g, vals)

        def fd8(arr, axis, h):
            w = [4 / 5, -1 / 5, 4 / 105, -1 / 280]
            out = np.zeros_like(arr)
            for m, c in enumerate(w, start=1):
                out += c * (np.roll(arr, -m, axis) - np.roll(arr, m, axis))
            return out / h

        gf = grad(f)
        for axis in range(2):
            oracle = fd8(vals, axis, g.spacing)
            assert np.abs(gf[axis].values - oracle).max() < 1e-6

    def test_spectral_accuracy_beats_any_polynomial_order(self):
        # exp(3 sin x) is analytic: refining 32 -> 64 must shrink the grad
        # error far faster than a fixed 8th-order method would.
        errors = {}
        for n in (32, 64):
            g = Grid(n_dims=1, points_per_dim=n)
            x = g.coordinates()[0]
            f = SpectralField.from_values(g, np.exp(3 * np.sin(x)))
            exact = 3 * np.cos(x) * np.exp(3 * np.sin(x))
            errors[n] = np.abs(grad(f)[0].values - exact).max()
        assert errors[32] > 1e-11  # resolvable, not yet at roundoff
        assert errors[64] < errors[32] * 0.5**8


class TestDiv:
    def test_1d_sin(self, grid1d):
        x = grid1d.coordinates()[0]
        v = VectorField([SpectralField.from_values(grid1d, np.sin(x))])
        assert np.abs(div(v).values - np.cos(x)).max() < 1e-13

    def test_div_grad_is_laplacian(self, grid2d, rng):
        f = smooth_field(grid2d, rng)
        lhs = div(grad(f))
        rhs = laplacian(f)
        assert np.abs(lhs.values - rhs.values).max() < 1e-12

    def test_divergence_integrates_to_zero(self, grid2d, rng):
        v = smooth_vector(grid2d, rng)
        one = SpectralField.constant(grid2d, 1.0)
        assert abs(l2_inner(div(v), one)) < 1e-12


class TestLaplacian:
    def test_single_modes(self, grid1d):
        x = grid1d.coordinates()[0]
        f = SpectralField.from_values(grid1d, np.sin(x))
        assert np.abs(laplacian(f).values + np.sin(x)).max() < 1e-12
        f2 = SpectralField.from_values(grid1d, np.cos(2 * x))
        assert np.abs(laplacian(f2).values + 4 * np.cos(2 * x)).max() < 1e-12
        c = SpectralField.constant(grid1d, 3.0)
        assert np.abs(laplacian(c).values).max() < 1e-13


class TestHelmholtzInverse:
    def test_constant_fixed_point(self, grid1d):
        f = SpectralField.constant(grid1d, 2.0)
        assert np.abs(helmholtz_inverse(f).values - 2.0).max() < 1e-13

    def test_cos_mode(self, grid1d):
        x = grid1d.coordinates()[0]
        f = SpectralField.from_values(grid1d, np.cos(x))
        assert np.abs(helmholtz_inverse(f).values - np.cos(x) / 2).max() < 1e-13

    @pytest.mark.parametrize("n_dims,n", ALL_GRIDS)
    def test_inverse_identity(self, n_dims, n):
        rng = np.random.default_rng(5)
        g = Grid(n_dims=n_dims, points_per_dim=n)
        f = smooth_field(g, rng)
        forward = f - laplacian(f)
        assert np.abs(helmholtz_inverse(forward).values - f.values).max() < 1e-12


class TestSobolevNorm:
    def test_constant(self, grid2d):
        f = SpectralField.constant(grid2d, 3.0)
        for s in range(4):
            assert sobolev_norm(f, s) == pytest.approx(3.0 * (2 * np.pi), rel=1e-13)

    def test_sin_l2(self, grid1d):
        x = grid1d.coordinates()[0]
        f = SpectralField.from_values(grid1d, np.sin(x))
        assert sobolev_norm(f, 0) == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_sin_h1_against_quadrature(self, grid1d):
        # Oracle: rectangle-rule quadrature of f^2 + f'^2 with the analytic
        # derivative; exact for trigonometric polynomials on this grid.
        x = grid1d.coordinates()[0]
        f = SpectralField.from_values(grid1d, np.sin(x))
        quadrature = np.sum(np.sin(x) ** 2 + np.cos(x) ** 2) * grid1d.spacing
        assert quadrature == pytest.approx(2 * np.pi, rel=1e-14)
        assert sobolev_norm(f, 1) ** 2 == pytest.approx(quadrature, rel=1e-13)
        assert sobolev_norm(f, 1) ** 2 == pytest.approx(2 * sobolev_norm(f, 0) ** 2, rel=1e-13)

    def test_monotone_in_s(self, grid2d, rng):
        f = smooth_field(grid2d, rng)
        norms = [sobolev_norm(f, s) for s in range(7)]
        assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))

    def test_vector_sums_component_squares(self, grid2d, rng):
        v = smooth_vector(grid2d, rng)
        expected = np.sqrt(sum(sobolev_norm(c, 2) ** 2 for c in v.components))
        assert sobolev_norm(v, 2) == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_index(self, grid1d):
        f = SpectralField.constant(grid1d, 1.0)
        with pytest.raises(ValueError):
            sobolev_norm(f, 7)
        with pytest.raises(ValueError):
            sobolev_norm(f, -1)


class TestDealias:
    def test_low_modes_unchanged(self, grid1d):
        x = grid1d.coordinates()[0]
        f = SpectralField.from_values(grid1d, np.sin(5 * x) + np.cos(21 * x))
        assert np.abs(dealias(f).values - f.values).max() < 1e-13

    def test_nyquist_mode_removed(self, grid1d):
        x = grid1d.coordinates()[0]
        f = SpectralField.from_values(grid1d, np.cos(32 * x))
        assert np.abs(dealias(f).values).max() < 1e-13

    def test_idempotent(self, grid2d, rng):
        f = SpectralField.from_values(grid2d, rng.standard_normal(grid2d.shape))
        once = dealias(f)
        twice = dealias(once)
        assert np.abs(once.values - twice.values).max() < 1e-14


class TestAdjointness:
    @pytest.mark.parametrize("n_dims,n", ALL_GRIDS)
    def test_grad_div_adjoint(self, n_dims, n):
        rng = np.random.default_rng(11)
        g = Grid(n_dims=n_dims, points_per_dim=n)
        f = smooth_field(g, rng)
        v = smooth_vector(g, rng)
        assert abs(l2_inner(grad(f), v) + l2_inner(f, div(v))) < 1e-10


class TestFieldArithmetic:
    def test_mismatched_grids_rejected(self):
        a = SpectralField.constant(Grid(1, 32), 1.0)
        b = SpectralField.constant(Grid(1, 64), 1.0)
        with pytest.raises(ValueError, match="grids"):
            _ = a + b

    def test_pointwise_ops(self, grid1d):
        x = grid1d.coordinates()[0]
        f = SpectralField.from_values(grid1d, np.sin(x))
        h = 2.0 * f + f * f - f / 2.0
        expected = 2 * np.sin(x) + np.sin(x) ** 2 - np.sin(x) / 2
        assert np.abs(h.values - expected).max() < 1e-14
        assert np.abs((f**3).values - np.sin(x) ** 3).max() < 1e-14

    def test_values_are_read_only(self, grid1d):
        f = SpectralField.constant(grid1d, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0
