"""Discrete ordinates: quadrature, moments, and the closure check."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import radhydro.kinetic
from radhydro.errors import NotInP1Subspace
from radhydro.kinetic import (
    kinetic_rhs,
    make_ordinates,
    moment_system_check,
    moments,
    p1_basis,
    p1_projection_residual,
    transport_term,
)
from radhydro.radiation import emission_spectrum
from radhydro.spectral import Grid

from conftest import grad, smooth_field, sobolev_norm


def _isotropic(f, ords):
    """Intensity equal to the values f in every direction: one column of
    ones over one value field."""
    return np.ones((ords.count, 1)), f[None]


def _p1_field(ords, i0_vals, i1_vals_list):
    return p1_basis(ords), np.stack([i0_vals, *i1_vals_list])


def _ordinate_field(ords, grid, fun):
    """The (count, *shape) array of fun(omega_j) per ordinate, as the pair
    (eye, array) that holds one value field per ordinate."""
    vals = np.stack([np.broadcast_to(fun(om), grid.shape) for om in ords.directions])
    return np.eye(ords.count), vals


def _moment_pair(grid, rng):
    """(1+n, *shape) values of a smooth moment pair about I0 = 1."""
    return np.stack([1.0 + smooth_field(grid, rng)]
                    + [smooth_field(grid, rng) for _ in range(grid.n_dims)])


def _theta(grid, rng):
    return 1.0 + smooth_field(grid, rng)


def _hat(grid, I):
    """The (basis, values) pair I as the (basis, spectra) pair the
    kinetic kernels take."""
    basis, values = I
    return basis, grid.forward(values)


def _full_array_projection_residual(grid, ords, I):
    """The projection residual built from whole (count, *shape) arrays:
    reconstruction, difference and its square."""
    rad = _formula_moments(ords, I)
    recon = np.stack([rad[0] + sum(w * c for w, c in zip(om, rad[1:])) for om in ords.directions])
    per_node = np.tensordot(ords.weights, (I - recon) ** 2, axes=(0, 0))
    return float(np.sqrt(per_node.sum() * grid.spacing**grid.n_dims))


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
        one = np.ones(grid1d.shape)
        ords = make_ordinates(1, 4)
        field, source = _hat(grid1d, _isotropic(one, ords)), emission_spectrum(grid1d, one)
        tend = kinetic_rhs(grid1d, ords, field, source, 1.0, 1.0, 0.0)
        assert tend.shape == (2, *grid1d.half_shape)
        assert np.abs(grid1d.inverse(tend)).max() < 1e-14

    def test_scattering_vanishes_for_isotropic_data(self, grid2d, rng):
        f = 2.0 + smooth_field(grid2d, rng)
        ords = make_ordinates(2, 8)
        field, source = _hat(grid2d, _isotropic(f, ords)), emission_spectrum(grid2d, f)
        with_scatter = kinetic_rhs(grid2d, ords, field, source, 1.0, 1.0, 5.0)
        without = kinetic_rhs(grid2d, ords, field, source, 1.0, 1.0, 0.0)
        assert np.abs(grid2d.inverse(with_scatter - without)).max() < 1e-12

    def test_scattering_conserves_photon_number(self, grid2d, rng):
        # zeroth moment of the scattering operator vanishes for any I
        ords = make_ordinates(2, 8)
        field = np.eye(ords.count), grid2d.forward(rng.standard_normal((ords.count, *grid2d.shape)))
        source = emission_spectrum(grid2d, np.ones(grid2d.shape))
        eps, sigma_a = 1.0, 1.0
        base = kinetic_rhs(grid2d, ords, field, source, eps, sigma_a, 0.0)
        scat = kinetic_rhs(grid2d, ords, field, source, eps, sigma_a, 3.0)
        assert sobolev_norm(grid2d, grid2d.inverse(scat[0] - base[0]), 0) < 1e-12

    def test_p1_field_tendency_matches_moment_system(self, grid1d):
        x = grid1d.coordinates()[0]
        ords = make_ordinates(1, 4)
        field = _hat(grid1d, _p1_field(ords, 1 + 0.1 * np.sin(x), [0.1 * np.cos(x)]))
        source = emission_spectrum(grid1d, 1 + 0.05 * np.cos(x))
        _, [(r0, r1)] = moment_system_check(grid1d, ords, field, source, 1.0, [(1.0, 0.0)])
        assert r0 < 1e-10 and r1 < 1e-10

    def test_nonnegativity_over_short_run(self, grid1d):
        # explicit RK4 on the kinetic tendency from isotropic data. In 1D
        # the two ordinates make p1_basis invertible: the moments hold the
        # intensity, and p1_basis times the moments of the tendency is the
        # tendency per ordinate. The RK4 stages are taken on the spectra.
        x = grid1d.coordinates()[0]
        theta = 1 + 0.1 * np.cos(x)
        source = emission_spectrum(grid1d, theta)
        ords = make_ordinates(1, 4)
        basis = p1_basis(ords)
        eps, dt = 0.5, 0.01

        def rhs(vals):
            return kinetic_rhs(grid1d, ords, (basis, vals), source, eps, 1.0, 0.5)

        vals = grid1d.forward(np.stack([theta**4, np.zeros_like(x)]))
        for _ in range(10):
            k1 = rhs(vals)
            k2 = rhs(vals + 0.5 * dt * k1)
            k3 = rhs(vals + 0.5 * dt * k2)
            k4 = rhs(vals + dt * k3)
            vals = vals + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert grid1d.inverse(np.tensordot(basis, vals, axes=1)).min() >= -1e-10


class TestMoments:
    def test_isotropic(self, grid2d):
        ords = make_ordinates(2, 8)
        m = moments(ords, _isotropic(np.full(grid2d.shape, 5.0), ords))
        assert m.shape == (3, *grid2d.shape)
        assert np.abs(m[0] - 5.0).max() < 1e-13
        assert np.abs(m[1]).max() < 1e-13

    def test_affine_data_recovered_exactly(self, grid2d):
        ords = make_ordinates(2, 8)
        m = moments(ords, _ordinate_field(ords, grid2d, lambda om: 2.0 + 3.0 * om[0]))
        assert np.abs(m[0] - 2.0).max() < 1e-13
        assert np.abs(m[1] - 3.0).max() < 1e-13
        assert np.abs(m[2]).max() < 1e-13

    def test_projection_property(self, grid2d, rng):
        ords = make_ordinates(2, 8)
        i0 = smooth_field(grid2d, rng)
        i1 = [smooth_field(grid2d, rng) for _ in range(2)]
        m = moments(ords, _p1_field(ords, i0, i1))
        assert np.abs(m[0] - i0).max() < 1e-13
        for c, expected in zip(m[1:], i1):
            assert np.abs(c - expected).max() < 1e-13

    def test_quadratic_direction_dependence(self, grid2d):
        # I = omega_x^2: the direction average over the circle is 1/2 and
        # the first moment vanishes by parity.
        ords = make_ordinates(2, 8)
        m = moments(ords, _ordinate_field(ords, grid2d, lambda om: om[0] ** 2))
        assert np.abs(m[0] - 0.5).max() < 1e-13
        assert np.abs(m[1]).max() < 1e-13


class TestProjectionResidual:
    def test_p1_data_has_zero_residual(self, grid2d, rng):
        ords = make_ordinates(2, 8)
        field = _p1_field(
            ords,
            2 + smooth_field(grid2d, rng),
            [smooth_field(grid2d, rng) for _ in range(2)],
        )
        assert p1_projection_residual(grid2d, ords, _hat(grid2d, field)) < 1e-12

    def test_quadratic_component_detected(self, grid2d):
        ords = make_ordinates(2, 8)
        field = _hat(grid2d, _ordinate_field(ords, grid2d, lambda om: om[0] ** 2))
        residual = p1_projection_residual(grid2d, ords, field)
        # Oracle: || omega_x^2 - 1/2 ||^2 = integral of cos^2(2 phi)/4 = pi/4
        # per grid node, times the domain measure (2 pi)^2.
        expected = np.sqrt(np.pi / 4 * (2 * np.pi) ** 2)
        assert residual == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("count", [4, 8, 16])
    def test_matches_full_array_formula(self, grid2d, count, rng):
        # Random data on more than two directions is far from P1 (in 1D
        # the two directions make every intensity affine).
        ords = make_ordinates(2, count)
        field = rng.standard_normal((count, *grid2d.shape))
        want = _full_array_projection_residual(grid2d, ords, field)
        assert want > 1.0
        got = p1_projection_residual(grid2d, ords, (np.eye(count), grid2d.forward(field)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_invariant_under_adding_p1_element(self, grid2d, rng):
        # The sum of two pairs: their bases side by side over their values.
        ords = make_ordinates(2, 8)
        basis, vals = _ordinate_field(ords, grid2d, lambda om: om[1] ** 2)
        p1, extra = _p1_field(
            ords,
            smooth_field(grid2d, rng),
            [smooth_field(grid2d, rng) for _ in range(2)],
        )
        r_base = p1_projection_residual(grid2d, ords, _hat(grid2d, (basis, vals)))
        combined = np.column_stack([basis, p1]), np.concatenate([vals, extra])
        r_combined = p1_projection_residual(grid2d, ords, _hat(grid2d, combined))
        assert r_combined == pytest.approx(r_base, rel=1e-12)

    def test_p1_pair_at_the_ordinate_cap(self, rng):
        # 128^2 cells x 4096 ordinates, the most a config admits. The
        # residual of exact P1 data is roundoff of the values, below 1e-13
        # of their L^2 norm: the basis is projected off P1 before any field
        # is touched. A difference of norms, or a Gram form of the
        # unprojected basis, leaves about 1e-8 of it.
        grid = Grid(2, 128)
        ords = make_ordinates(2, 4096)
        rad = _moment_pair(grid, rng)
        norm = np.sqrt(np.vdot(rad, rad) * grid.spacing**grid.n_dims)
        assert p1_projection_residual(grid, ords, (p1_basis(ords), grid.forward(rad))) < 1e-13 * norm


class TestMomentSystemCheck:
    @pytest.mark.parametrize("sigma", [(1.0, 0.0), (1.0, 1.0)])
    @pytest.mark.parametrize("count", [4, 8])
    def test_p1_residuals_vanish(self, grid2d, rng, sigma, count):
        ords = make_ordinates(2, count)
        field = _p1_field(
            ords,
            1 + smooth_field(grid2d, rng),
            [smooth_field(grid2d, rng) for _ in range(2)],
        )
        source = emission_spectrum(grid2d, _theta(grid2d, rng))
        _, [(r0, r1)] = moment_system_check(grid2d, ords, _hat(grid2d, field), source, 1.0, [sigma])
        assert r0 < 1e-10 and r1 < 1e-10

    def test_exactly_zero_at_constant_equilibrium(self, grid1d):
        one = np.ones(grid1d.shape)
        ords = make_ordinates(1, 4)
        field, source = _hat(grid1d, _isotropic(one, ords)), emission_spectrum(grid1d, one)
        _, [(r0, r1)] = moment_system_check(grid1d, ords, field, source, 1.0, [(1.0, 0.0)])
        assert r0 == 0.0 and r1 == 0.0

    def test_rejects_non_p1_data(self, grid2d):
        ords = make_ordinates(2, 8)
        field = _hat(grid2d, _ordinate_field(ords, grid2d, lambda om: om[0] ** 2))
        source = emission_spectrum(grid2d, np.ones(grid2d.shape))
        with pytest.raises(NotInP1Subspace):
            moment_system_check(grid2d, ords, field, source, 1.0, [(1.0, 0.0)])

    def test_rejects_an_intensity_that_does_not_fit(self, grid1d, grid2d):
        # The ordinate count, the grid's half-spectrum shape and the
        # dimension of the ordinates and the grid must all match the
        # intensity, and the basis its spectra; values are refused.
        ords = make_ordinates(2, 8)
        one = lambda grid: np.ones((3, *grid.shape))
        source = lambda grid: emission_spectrum(grid, np.ones(grid.shape))
        basis, spectra = p1_basis(ords), grid2d.forward(one(grid2d))
        moment_system_check(grid2d, ords, (basis, spectra), source(grid2d), 1.0, [(1.0, 0.0)])
        for grid, bad in [
            (grid2d, (basis[:-1], spectra)),
            (grid2d, (basis[:, :-1], spectra)),
            (grid2d, (basis, spectra[:, :-1])),
            (grid2d, (basis, one(grid2d))),
            (grid1d, (basis, grid1d.forward(one(grid1d)))),
        ]:
            with pytest.raises(ValueError, match="does not fit"):
                moment_system_check(grid, ords, bad, source(grid), 1.0, [(1.0, 0.0)])

    def test_quadratic_defect_matches_analytic_oracle(self, grid2d):
        # I = g(x) omega_x^2 with g = sin x. Direction integrals on the
        # circle give a zeroth-moment defect of zero (odd transport
        # moment) and a first-moment transport of -(3/4) g' against the
        # predicted -(1/2) g', so r1 = (1/4) ||g'||_0 / eps.
        # The intensity is the pair of the one column omega_x^2 over g.
        ords = make_ordinates(2, 8)
        X, _ = grid2d.coordinates()
        gfun = np.sin(X)
        field = ords.directions[:, :1] ** 2, grid2d.forward(gfun[None])
        source = emission_spectrum(grid2d, np.ones(grid2d.shape))
        eps = 0.5
        _, [(r0, r1)] = moment_system_check(grid2d, ords, field, source, eps, [(1.0, 0.0)], enforce_p1=False)
        expected_r1 = 0.25 * sobolev_norm(grid2d, grad(grid2d, gfun), 0) / eps
        assert r0 < 1e-12
        assert r1 == pytest.approx(expected_r1, rel=1e-12)

    def test_first_moment_damping_rate(self, grid1d):
        # With scattering on, the first moment damps at sigma_a + sigma_s
        # times the sphere measure; a wrong rate shows up as an r1 defect.
        x = grid1d.coordinates()[0]
        ords = make_ordinates(1, 4)
        field = _hat(grid1d, _p1_field(ords, np.ones_like(x), [0.2 * np.sin(x)]))
        source = emission_spectrum(grid1d, np.ones(grid1d.shape))
        _, [(r0, r1)] = moment_system_check(grid1d, ords, field, source, 1.0, [(1.0, 2.0)])
        assert r0 < 1e-12 and r1 < 1e-12

    def test_pairs_share_the_check(self, grid2d):
        # Off the P1 subspace, so every r1 is O(1): one check over
        # three pairs gives what three one-pair checks give, exactly.
        ords = make_ordinates(2, 8)
        X, Y = grid2d.coordinates()
        array = np.stack([np.sin(X) * om[0] ** 2 + np.cos(Y) * om[1] for om in ords.directions])
        field = np.eye(ords.count), grid2d.forward(array)
        source = emission_spectrum(grid2d, 1 + 0.1 * np.cos(X + Y))
        pairs = [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)]
        check = lambda pairs: moment_system_check(grid2d, ords, field, source, 0.5, pairs, enforce_p1=False)
        residual, got = check(pairs)
        singles = [check([p]) for p in pairs]
        assert got == [r for _, (r,) in singles]
        assert all(res == residual for res, _ in singles)
        assert residual == p1_projection_residual(grid2d, ords, field)
        assert all(r1 > 0.1 for _, r1 in got)
        # The same intensity as a pair of two columns: the same residuals.
        basis = np.column_stack([ords.directions[:, 0] ** 2, ords.directions[:, 1]])
        pair = (basis, grid2d.forward(np.stack([np.sin(X), np.cos(Y)])))
        pair_residual, pair_got = moment_system_check(grid2d, ords, pair, source, 0.5, pairs, enforce_p1=False)
        assert pair_residual == pytest.approx(residual, rel=1e-13)
        for g, w in zip(np.ravel(pair_got), np.ravel(got)):
            assert g == pytest.approx(w, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("n_pairs", [1, 3])
    def test_transform_budget(self, n_pairs, rng, monkeypatch):
        # None, whatever the ordinate and pair counts: the check takes the
        # spectra of the intensity and of theta^4, every ordinate sum and
        # the transport term are linear in the spectra, and the norms are
        # Parseval sums.
        grid = Grid(2, 16)
        rad = grid.forward(_moment_pair(grid, rng))
        source = emission_spectrum(grid, _theta(grid, rng))
        calls = Counter()
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                     "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                     "hfft", "ihfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        pairs = [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)][:n_pairs]
        for count in (8, 64):
            ords = make_ordinates(2, count)
            calls.clear()
            moment_system_check(grid, ords, (p1_basis(ords), rad), source, 0.5, pairs)
            assert calls == Counter()


# Test-local per-ordinate references: one tensordot per moment, per
# ordinate symbol and per sampled slab, and the per-slab tendency.
def _formula_moments(ords, I):
    measure, n = ords.surface_measure, ords.n_dims
    rows = [np.tensordot(ords.weights, I, axes=(0, 0)) / measure]
    for axis in range(n):
        w = ords.weights * ords.directions[:, axis]
        rows.append((n / measure) * np.tensordot(w, I, axes=(0, 0)))
    return np.stack(rows)


def _formula_transport(grid, ords, I):
    out = np.empty_like(I)
    for j, omega in enumerate(ords.directions):
        symbol = np.tensordot(omega, grid.half_ik, axes=1)
        out[j] = grid.inverse(symbol * grid.forward(I[j]))
    return out


def _formula_rhs(ords, I, source, eps, sigma_a, sigma_s, transport):
    measure = ords.surface_measure
    average = np.tensordot(ords.weights, I, axes=(0, 0)) / measure
    out = np.empty_like(I)
    for j, slab in enumerate(I):
        out[j] = (
            -transport[j] + source - sigma_a * slab + sigma_s * measure * (average - slab)
        ) / eps
    return out


def _formula_from_p1(rows, ords):
    vals = np.tensordot(ords.directions, rows[1:], axes=1)
    vals += rows[0]
    return vals


def _formula_residual(grid, ords, I, rows):
    total = 0.0
    for w, omega, slab in zip(ords.weights, ords.directions, I):
        diff = slab - (rows[0] + np.tensordot(omega, rows[1:], axes=1))
        total += w * np.vdot(diff, diff)
    return float(np.sqrt(total * grid.spacing**grid.n_dims))


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestKernelsAgainstFormulas:
    """The kernels, which take every ordinate sum on the basis, against
    the per-ordinate formulas, to 1e-13 of the reference's largest entry:
    on random data as the pair (eye, I), which is off the P1 subspace in
    2D, and on the P1 pair against its sampled array. The kernels take
    the spectra of the values; their results are compared as values."""

    @pytest.fixture(params=[(1, 256), (2, 16)], ids=["1d", "2d"])
    def data(self, request):
        n_dims, points = request.param
        grid = Grid(n_dims, points)
        rng = np.random.default_rng(61 + n_dims)
        ords = make_ordinates(n_dims, 12)
        field = 1.0 + rng.standard_normal((ords.count, *grid.shape))
        theta = _theta(grid, rng)
        return grid, ords, field, theta, _moment_pair(grid, rng)

    def test_moments(self, data):
        grid, ords, field, _, rad = data
        got = moments(ords, (np.eye(ords.count), field))
        assert _relative_gap(got, _formula_moments(ords, field)) <= 1e-13
        want = _formula_moments(ords, _formula_from_p1(rad, ords))
        assert _relative_gap(moments(ords, (p1_basis(ords), rad)), want) <= 1e-13

    def test_transport_term(self, data):
        # The transport rows over the derivative spectra i k_a spectra_b
        # against the per-slab transport of the array.
        grid, ords, field, _, rad = data
        for basis, values, array in [
            (np.eye(ords.count), field, field),
            (p1_basis(ords), rad, _formula_from_p1(rad, ords)),
        ]:
            spectra = grid.forward(values)
            rows = transport_term(ords, (basis, spectra))
            assert rows.shape == (ords.count, ords.n_dims * len(values))
            derivatives = (grid.half_ik[:, None] * spectra).reshape(-1, *grid.half_shape)
            got = grid.inverse(np.tensordot(rows, derivatives, axes=1))
            assert _relative_gap(got, _formula_transport(grid, ords, array)) <= 1e-13

    @pytest.mark.parametrize("sigma", [(1.0, 0.0), (2.0, 0.5)])
    def test_kinetic_rhs(self, data, sigma):
        # The moments of the tendency against the moments of the
        # per-slab tendency of the array.
        grid, ords, field, theta, rad = data
        source = emission_spectrum(grid, theta)
        for basis, values, array in [
            (np.eye(ords.count), field, field),
            (p1_basis(ords), rad, _formula_from_p1(rad, ords)),
        ]:
            transport = _formula_transport(grid, ords, array)
            want = _formula_rhs(ords, array, grid.inverse(source), 0.3, *sigma, transport)
            got = kinetic_rhs(grid, ords, (basis, grid.forward(values)), source, 0.3, *sigma)
            assert got.shape == (1 + ords.n_dims, *grid.half_shape)
            assert _relative_gap(grid.inverse(got), _formula_moments(ords, want)) <= 1e-13

    def test_projection_residual(self, data):
        # In 1D every intensity is affine in the direction, so both
        # residuals are roundoff; the gap is measured against the
        # weighted norm of the data, the residual's scale.
        grid, ords, field, _, rad = data
        want = _formula_residual(grid, ords, field, _formula_moments(ords, field))
        scale = np.sqrt(np.tensordot(ords.weights, field**2, axes=(0, 0)).sum() * grid.spacing**grid.n_dims)
        got = p1_projection_residual(grid, ords, (np.eye(ords.count), grid.forward(field)))
        assert abs(got - want) <= 1e-13 * scale
        if ords.n_dims == 2:
            assert want > 0.1 * scale
        # A pair off the P1 subspace (one more row, omega_1^2) against
        # its array.
        basis = np.column_stack([p1_basis(ords), ords.directions[:, 0] ** 2])
        values = np.concatenate([rad, rad[:1]])
        array = np.tensordot(basis, values, axes=1)
        want = _formula_residual(grid, ords, array, _formula_moments(ords, array))
        scale = np.sqrt(np.tensordot(ords.weights, array**2, axes=(0, 0)).sum() * grid.spacing**grid.n_dims)
        assert abs(p1_projection_residual(grid, ords, (basis, grid.forward(values))) - want) <= 1e-13 * scale


class TestCheckPasses:
    def _check_input(self, rng, count=64):
        grid = Grid(2, 32)
        ords = make_ordinates(2, count)
        rad, source = grid.forward(_moment_pair(grid, rng)), emission_spectrum(grid, _theta(grid, rng))
        return grid, ords, (p1_basis(ords), rad), source

    def test_peak_memory(self, rng):
        # Every field operation acts on the k spectra of the pair, and
        # every ordinate sum on its (count, k) basis, so the peak does not
        # grow with the ordinate count: at 8 and at 512 ordinates it stays
        # within one budget of 28 fields (14.3 and 22.2 with numpy 2.4, a
        # margin of about 6), and the larger basis adds the size of a few
        # fields (7.9 with numpy 2.4, the (count, k + n k + 1) coefficient
        # rows of kinetic_rhs; allowed for as 8), where a (count, *shape)
        # array would add 512. A first, untraced call caches the grid's
        # symbols and the lazy imports.
        pairs = [(1.0, 0.0), (1.0, 1.0)]
        peaks = []
        for count in (8, 512):
            grid, ords, field, source = self._check_input(rng, count)
            moment_system_check(grid, ords, field, source, 0.5, pairs)
            tracemalloc.start()
            try:
                moment_system_check(grid, ords, field, source, 0.5, pairs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        field_bytes = grid.shape[0] * grid.shape[1] * 8
        assert max(peaks) <= 28 * field_bytes
        assert abs(peaks[1] - peaks[0]) <= 8 * field_bytes

    def test_one_whole_field_rhs_per_pair(self, rng, monkeypatch):
        # On the P1 pair and on the same intensity as (eye, array).
        grid, ords, field, source = self._check_input(rng)
        seen = []
        original = radhydro.kinetic.kinetic_rhs

        def spy(grid, ords, I, *args, **kwargs):
            seen.append(I)
            return original(grid, ords, I, *args, **kwargs)

        monkeypatch.setattr(radhydro.kinetic, "kinetic_rhs", spy)
        array = np.eye(ords.count), np.tensordot(*field, axes=1)
        for intensity in (field, array):
            seen.clear()
            moment_system_check(grid, ords, intensity, source, 0.5, [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)])
            assert len(seen) == 3 and all(I is intensity for I in seen)
