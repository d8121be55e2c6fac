"""Discrete ordinates: quadrature, moments, and the closure check."""

from collections import Counter

import numpy as np
import pytest

from radhydro.errors import NotInP1Subspace
from radhydro.kinetic import (
    KineticField,
    kinetic_rhs,
    make_ordinates,
    moment_system_check,
    moments,
    p1_projection_residual,
    transport_term,
)
from radhydro.radiation import RadiationMoments
from radhydro.spectral import Grid, SpectralField, VectorField, grad, sobolev_norm

from conftest import smooth_field, smooth_vector


def _isotropic(f, ords):
    """Kinetic field equal to f in every direction."""
    values = np.broadcast_to(f.values, (ords.count, *f.grid.shape)).copy()
    return KineticField(f.grid, ords, values)


def _p1_field(grid, ords, i0_vals, i1_vals_list):
    rad = RadiationMoments(
        I0=SpectralField.from_values(grid, i0_vals),
        I1=VectorField(
            [SpectralField.from_values(grid, v) for v in i1_vals_list]
        ),
    )
    return KineticField.from_p1(rad, ords)


def _full_array_projection_residual(field, ords):
    """The projection residual built from whole (count, *shape) arrays:
    reconstruction, difference and its square."""
    rad = moments(field, ords)
    recon = np.stack(
        [rad.I0.values + sum(w * c.values for w, c in zip(om, rad.I1)) for om in ords.directions]
    )
    per_node = np.tensordot(ords.weights, (field.intensity - recon) ** 2, axes=(0, 0))
    return float(np.sqrt(per_node.sum() * field.grid.cell_volume))


class TestOrdinates:
    def test_two_point_set_in_1d(self):
        o = make_ordinates(1, 8)
        assert o.count == 2
        assert sorted(o.directions[:, 0]) == [-1.0, 1.0]
        assert list(o.weights) == [1.0, 1.0]
        assert o.surface_measure == 2.0

    def test_four_point_symmetry_2d(self):
        o = make_ordinates(2, 4)
        # angles 0, pi/2, pi, 3pi/2 with weights pi/2
        assert np.allclose(o.weights, np.pi / 2)
        second = np.einsum("j,ji,jk->ik", o.weights, o.directions, o.directions)
        assert np.abs(second - np.pi * np.eye(2)).max() < 1e-14

    @pytest.mark.parametrize("count", [4, 8, 16])
    def test_quadrature_invariants(self, count):
        o = make_ordinates(2, count)
        assert abs(o.weights.sum() - 2 * np.pi) < 1e-14
        assert np.abs(o.weights @ o.directions).max() < 1e-12
        second = np.einsum("j,ji,jk->ik", o.weights, o.directions, o.directions)
        assert np.abs(second - np.pi * np.eye(2)).max() < 1e-12

    def test_rejects_odd_or_small_counts(self):
        with pytest.raises(ValueError, match="even"):
            make_ordinates(2, 5)
        with pytest.raises(ValueError, match="at least 4"):
            make_ordinates(2, 2)


class TestKineticRhs:
    def test_isotropic_equilibrium(self, grid1d):
        one = SpectralField.constant(grid1d, 1.0)
        ords = make_ordinates(1, 4)
        field = _isotropic(one, ords)
        tend = kinetic_rhs(field, one, 1.0, 1.0, 0.0)
        assert np.abs(tend.intensity).max() < 1e-14

    def test_scattering_vanishes_for_isotropic_data(self, grid2d, rng):
        f = SpectralField.constant(grid2d, 2.0) + smooth_field(grid2d, rng)
        ords = make_ordinates(2, 8)
        field = _isotropic(f, ords)
        with_scatter = kinetic_rhs(field, f, 1.0, 1.0, 5.0)
        without = kinetic_rhs(field, f, 1.0, 1.0, 0.0)
        assert np.abs(with_scatter.intensity - without.intensity).max() < 1e-12

    def test_scattering_conserves_photon_number(self, grid2d, rng):
        # zeroth moment of the scattering operator vanishes for any I
        ords = make_ordinates(2, 8)
        vals = rng.standard_normal((ords.count, *grid2d.shape))
        field = KineticField(grid2d, ords, vals)
        theta = SpectralField.constant(grid2d, 1.0)
        eps, sigma_a = 1.0, 1.0
        base = kinetic_rhs(field, theta, eps, sigma_a, 0.0)
        scat = kinetic_rhs(field, theta, eps, sigma_a, 3.0)
        scattering_part = KineticField(
            grid2d, ords, scat.intensity - base.intensity
        )
        m = moments(scattering_part, ords)
        assert sobolev_norm(m.I0, 0) < 1e-12

    def test_p1_field_tendency_matches_moment_system(self, grid1d):
        x = grid1d.coordinates()[0]
        ords = make_ordinates(1, 4)
        field = _p1_field(grid1d, ords, 1 + 0.1 * np.sin(x), [0.1 * np.cos(x)])
        theta = SpectralField.from_values(grid1d, 1 + 0.05 * np.cos(x))
        _, [(r0, r1)] = moment_system_check(field, theta, 1.0, [(1.0, 0.0)])
        assert r0 < 1e-10 and r1 < 1e-10

    @pytest.mark.parametrize("n_dims", [1, 2])
    def test_precomputed_transport_is_bitwise_equal(self, n_dims, rng):
        grid = Grid(n_dims, 16)
        ords = make_ordinates(n_dims, 8)
        field = KineticField(grid, ords, rng.standard_normal((ords.count, *grid.shape)))
        theta = SpectralField.constant(grid, 1.0) + smooth_field(grid, rng)
        transport = transport_term(field)
        assert transport.shape == field.intensity.shape
        given = kinetic_rhs(field, theta, 0.5, 1.0, 2.0, transport=transport)
        computed = kinetic_rhs(field, theta, 0.5, 1.0, 2.0)
        assert np.array_equal(given.intensity, computed.intensity)

    def test_nonnegativity_over_short_run(self, grid1d):
        # explicit RK4 on the kinetic tendency from isotropic data
        x = grid1d.coordinates()[0]
        theta = SpectralField.from_values(grid1d, 1 + 0.1 * np.cos(x))
        ords = make_ordinates(1, 4)
        field = _isotropic(theta**4, ords)
        eps, dt = 0.5, 0.01

        def rhs(vals):
            return kinetic_rhs(
                KineticField(grid1d, ords, vals), theta, eps, 1.0, 0.5
            ).intensity

        vals = field.intensity
        for _ in range(10):
            k1 = rhs(vals)
            k2 = rhs(vals + 0.5 * dt * k1)
            k3 = rhs(vals + 0.5 * dt * k2)
            k4 = rhs(vals + dt * k3)
            vals = vals + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert vals.min() >= -1e-10


class TestMoments:
    def test_isotropic(self, grid2d):
        f = SpectralField.constant(grid2d, 5.0)
        ords = make_ordinates(2, 8)
        m = moments(_isotropic(f, ords), ords)
        assert np.abs(m.I0.values - 5.0).max() < 1e-13
        assert np.abs(m.I1[0].values).max() < 1e-13

    def test_affine_data_recovered_exactly(self, grid2d):
        ords = make_ordinates(2, 8)
        vals = np.empty((ords.count, *grid2d.shape))
        for j, om in enumerate(ords.directions):
            vals[j] = 2.0 + 3.0 * om[0]
        m = moments(KineticField(grid2d, ords, vals), ords)
        assert np.abs(m.I0.values - 2.0).max() < 1e-13
        assert np.abs(m.I1[0].values - 3.0).max() < 1e-13
        assert np.abs(m.I1[1].values).max() < 1e-13

    def test_projection_property(self, grid2d, rng):
        ords = make_ordinates(2, 8)
        i0 = smooth_field(grid2d, rng)
        i1 = [smooth_field(grid2d, rng).values for _ in range(2)]
        field = _p1_field(grid2d, ords, i0.values, i1)
        m = moments(field, ords)
        assert np.abs(m.I0.values - i0.values).max() < 1e-13
        for c, expected in zip(m.I1.components, i1):
            assert np.abs(c.values - expected).max() < 1e-13

    def test_quadratic_direction_dependence(self, grid2d):
        # I = omega_x^2: the direction average over the circle is 1/2 and
        # the first moment vanishes by parity.
        ords = make_ordinates(2, 8)
        vals = np.empty((ords.count, *grid2d.shape))
        for j, om in enumerate(ords.directions):
            vals[j] = om[0] ** 2
        m = moments(KineticField(grid2d, ords, vals), ords)
        assert np.abs(m.I0.values - 0.5).max() < 1e-13
        assert np.abs(m.I1[0].values).max() < 1e-13


class TestProjectionResidual:
    def test_p1_data_has_zero_residual(self, grid2d, rng):
        ords = make_ordinates(2, 8)
        field = _p1_field(
            grid2d,
            ords,
            2 + smooth_field(grid2d, rng).values,
            [smooth_field(grid2d, rng).values for _ in range(2)],
        )
        assert p1_projection_residual(field, ords) < 1e-12

    def test_quadratic_component_detected(self, grid2d):
        ords = make_ordinates(2, 8)
        vals = np.empty((ords.count, *grid2d.shape))
        for j, om in enumerate(ords.directions):
            vals[j] = om[0] ** 2
        field = KineticField(grid2d, ords, vals)
        residual = p1_projection_residual(field, ords)
        # Oracle: || omega_x^2 - 1/2 ||^2 = integral of cos^2(2 phi)/4 = pi/4
        # per grid node, times the domain measure (2 pi)^2.
        expected = np.sqrt(np.pi / 4 * (2 * np.pi) ** 2)
        assert residual == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("count", [4, 8, 16])
    def test_matches_full_array_formula(self, grid2d, count, rng):
        # Random data on more than two directions is far from P1 (in 1D
        # the two directions make every intensity affine).
        ords = make_ordinates(2, count)
        field = KineticField(grid2d, ords, rng.standard_normal((count, *grid2d.shape)))
        want = _full_array_projection_residual(field, ords)
        assert want > 1.0
        assert p1_projection_residual(field, ords) == pytest.approx(want, rel=1e-12)

    def test_invariant_under_adding_p1_element(self, grid2d, rng):
        ords = make_ordinates(2, 8)
        vals = np.empty((ords.count, *grid2d.shape))
        for j, om in enumerate(ords.directions):
            vals[j] = om[1] ** 2
        base = KineticField(grid2d, ords, vals)
        extra = _p1_field(
            grid2d,
            ords,
            smooth_field(grid2d, rng).values,
            [smooth_field(grid2d, rng).values for _ in range(2)],
        )
        combined = KineticField(grid2d, ords, vals + extra.intensity)
        r_base = p1_projection_residual(base, ords)
        r_combined = p1_projection_residual(combined, ords)
        assert r_combined == pytest.approx(r_base, rel=1e-12)


class TestMomentSystemCheck:
    @pytest.mark.parametrize("sigma", [(1.0, 0.0), (1.0, 1.0)])
    @pytest.mark.parametrize("count", [4, 8])
    def test_p1_residuals_vanish(self, grid2d, rng, sigma, count):
        ords = make_ordinates(2, count)
        field = _p1_field(
            grid2d,
            ords,
            1 + smooth_field(grid2d, rng).values,
            [smooth_field(grid2d, rng).values for _ in range(2)],
        )
        theta = SpectralField.constant(grid2d, 1.0) + smooth_field(grid2d, rng)
        _, [(r0, r1)] = moment_system_check(field, theta, 1.0, [sigma])
        assert r0 < 1e-10 and r1 < 1e-10

    def test_exactly_zero_at_constant_equilibrium(self, grid1d):
        one = SpectralField.constant(grid1d, 1.0)
        ords = make_ordinates(1, 4)
        field = _isotropic(one, ords)
        _, [(r0, r1)] = moment_system_check(field, one, 1.0, [(1.0, 0.0)])
        assert r0 == 0.0 and r1 == 0.0

    def test_rejects_non_p1_data(self, grid2d):
        ords = make_ordinates(2, 8)
        vals = np.empty((ords.count, *grid2d.shape))
        for j, om in enumerate(ords.directions):
            vals[j] = om[0] ** 2
        field = KineticField(grid2d, ords, vals)
        theta = SpectralField.constant(grid2d, 1.0)
        with pytest.raises(NotInP1Subspace):
            moment_system_check(field, theta, 1.0, [(1.0, 0.0)])

    def test_quadratic_defect_matches_analytic_oracle(self, grid2d):
        # I = g(x) omega_x^2 with g = sin x. Direction integrals on the
        # circle give a zeroth-moment defect of zero (odd transport
        # moment) and a first-moment transport of -(3/4) g' against the
        # predicted -(1/2) g', so r1 = (1/4) ||g'||_0 / eps.
        ords = make_ordinates(2, 8)
        X, _ = grid2d.coordinates()
        gfun = SpectralField.from_values(grid2d, np.sin(X))
        vals = np.empty((ords.count, *grid2d.shape))
        for j, om in enumerate(ords.directions):
            vals[j] = gfun.values * om[0] ** 2
        field = KineticField(grid2d, ords, vals)
        theta = SpectralField.constant(grid2d, 1.0)
        eps = 0.5
        _, [(r0, r1)] = moment_system_check(field, theta, eps, [(1.0, 0.0)], enforce_p1=False)
        expected_r1 = 0.25 * sobolev_norm(grad(gfun), 0) / eps
        assert r0 < 1e-12
        assert r1 == pytest.approx(expected_r1, rel=1e-12)

    def test_first_moment_damping_rate(self, grid1d):
        # With scattering on, the first moment damps at sigma_a + sigma_s
        # times the sphere measure; a wrong rate shows up as an r1 defect.
        x = grid1d.coordinates()[0]
        ords = make_ordinates(1, 4)
        field = _p1_field(grid1d, ords, np.ones_like(x), [0.2 * np.sin(x)])
        theta = SpectralField.constant(grid1d, 1.0)
        _, [(r0, r1)] = moment_system_check(field, theta, 1.0, [(1.0, 2.0)])
        assert r0 < 1e-12 and r1 < 1e-12

    def test_pairs_share_the_check(self, grid2d):
        # Off the P1 subspace, so every r1 is O(1): one check over
        # three pairs gives what three one-pair checks give, exactly.
        ords = make_ordinates(2, 8)
        X, Y = grid2d.coordinates()
        vals = np.stack([np.sin(X) * om[0] ** 2 + np.cos(Y) * om[1] for om in ords.directions])
        field = KineticField(grid2d, ords, vals)
        theta = SpectralField.from_values(grid2d, 1 + 0.1 * np.cos(X + Y))
        pairs = [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)]
        residual, got = moment_system_check(field, theta, 0.5, pairs, enforce_p1=False)
        singles = [moment_system_check(field, theta, 0.5, [p], enforce_p1=False) for p in pairs]
        assert got == [r for _, (r,) in singles]
        assert all(res == residual for res, _ in singles)
        assert residual == p1_projection_residual(field, ords)
        assert all(r1 > 0.1 for _, r1 in got)

    @pytest.mark.parametrize("n_pairs", [1, 3])
    def test_transform_budget(self, n_pairs, rng, monkeypatch):
        # One transform pair per ordinate slab (8 + 8), once per check.
        # The rest: emission, div I1 and grad I0 once (4 + 4), the
        # emission shared with kinetic_rhs; per pair, the three norms of
        # r0, r1 (3 + 0).
        grid = Grid(2, 16)
        ords = make_ordinates(2, 8)
        rad = RadiationMoments(
            I0=SpectralField.constant(grid, 1.0) + smooth_field(grid, rng),
            I1=smooth_vector(grid, rng),
        )
        field = KineticField.from_p1(rad, ords)
        theta = SpectralField.constant(grid, 1.0) + smooth_field(grid, rng)
        calls = Counter()
        for name in ("rfftn", "irfftn"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        pairs = [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)][:n_pairs]
        moment_system_check(field, theta, 0.5, pairs)
        assert calls == Counter(rfftn=8 + 4 + 3 * n_pairs, irfftn=8 + 4)
