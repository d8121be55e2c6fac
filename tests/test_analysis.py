"""Error norms, the energy functional, prepared data, rate fits."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from radhydro.analysis import batch_error_squares, fit_rate, well_prepared_init
from radhydro.config import parse_config
from radhydro.errors import DegenerateFit, NonPositiveState
from radhydro.fluid import POSITIVITY_FLOOR
from radhydro.spectral import Grid
from radhydro.stepping import EpsBatch

from conftest import (
    limit_pair,
    limit_spectrum,
    limit_state,
    prepared_deviation,
    smooth_field,
    smooth_vector,
    sobolev_norm,
    stack,
    with_limit,
)


def _base_state(grid):
    x = grid.coordinates()[0]
    return limit_state(grid, stack(grid, 1 + 0.1 * np.sin(x), 0.1 * np.sin(x), 1 + 0.1 * np.cos(x)))


def _config_shapes(grid, **raw):
    """The perturbation shapes of a simulate-eps config on grid: the
    defaults, or those of the perturbation_shapes in raw."""
    grid_raw = {"n_dims": grid.n_dims, "points": grid.points_per_dim}
    return parse_config({"mode": "simulate-eps", "grid": grid_raw, **raw}).shapes


def _offset_batch(grid, base, d_fluid=0.0, d_rad=0.0, eps=0.1):
    """The batch of the limit state base and one member at base plus
    d_fluid and at the limit closure's half spectrum plus that of d_rad:
    the member's differences from base are (d_fluid, d_rad)."""
    d_rad = np.broadcast_to(d_rad, (1 + grid.n_dims, *grid.shape))
    rad = limit_spectrum(grid, base.fluid[-1, 0]) + grid.forward(d_rad)
    fluid = (base.fluid[:, 0] + d_fluid)[:, None]
    return with_limit(base, EpsBatch(grid, (eps,), fluid, rad[:, None], 0.0))


def _energies(fluid_sq, rad_sq, eps):
    """The energy columns of an error row from one member's squares:
    fluid_energy, full_energy and gamma = fluid_sq + eps * rad_sq."""
    gamma = fluid_sq + eps * rad_sq
    return SimpleNamespace(fluid_energy=math.sqrt(fluid_sq), full_energy=math.sqrt(gamma), gamma=gamma)


def _energy(grid, base, d_fluid, d_rad, s, eps):
    squares = batch_error_squares(_offset_batch(grid, base, d_fluid, d_rad, eps), (s,))
    return _energies(*squares[0, :, 0].tolist(), eps)


def _random_differences(grid, rng):
    d_fluid = stack(grid, smooth_field(grid, rng), smooth_vector(grid, rng), smooth_field(grid, rng))
    d_rad = stack(grid, smooth_field(grid, rng), smooth_vector(grid, rng))
    return d_fluid, d_rad


class TestErrorFields:
    def test_consistent_states_give_zero(self, grid1d):
        base = _base_state(grid1d)
        squares = batch_error_squares(_offset_batch(grid1d, base), (0, 3))
        assert np.all(squares == 0.0)

    def test_single_perturbation_is_linear(self, grid1d):
        base = _base_state(grid1d)
        x = grid1d.coordinates()[0]
        bump = 0.03 * np.sin(x)
        d_fluid = stack(grid1d, bump, 0.0, 0.0)
        batch = _offset_batch(grid1d, base, d_fluid)
        (fluid_sq, rad_sq), = batch_error_squares(batch, (2,))[:, :, 0]
        assert fluid_sq == pytest.approx(sobolev_norm(grid1d, bump, 2) ** 2, rel=1e-12)
        assert rad_sq == 0.0

    def test_member_zero_must_be_the_limit(self, grid1d):
        base = _base_state(grid1d)
        batch = _offset_batch(grid1d, base)
        assert batch_error_squares(batch, (0,)).shape == (1, 2, 1)
        assert batch_error_squares(base, (0,)).shape == (1, 2, 0)
        members = EpsBatch(grid1d, (0.1,), batch.fluid[:, 1:], batch.rad[:, 1:], 0.0)
        with pytest.raises(ValueError, match="limit system"):
            batch_error_squares(members, (0,))


class TestEnergy:
    def test_zero_fields(self, grid1d):
        rec = _energy(grid1d, _base_state(grid1d), 0.0, 0.0, 3, 0.1)
        assert rec.fluid_energy == 0.0
        assert rec.full_energy == 0.0
        assert rec.gamma == 0.0

    def test_single_fluid_component(self, grid1d):
        x = grid1d.coordinates()[0]
        d_fluid = stack(grid1d, np.sin(x), 0.0, 0.0)
        rec = _energy(grid1d, _base_state(grid1d), d_fluid, 0.0, 0, 0.1)
        assert rec.fluid_energy == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert rec.full_energy == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_eps_weighting_of_radiation_part(self, grid1d):
        x = grid1d.coordinates()[0]
        d_rad = stack(grid1d, 0.0, np.sin(x))
        rec = _energy(grid1d, _base_state(grid1d), 0.0, d_rad, 0, 0.25)
        assert rec.fluid_energy == 0.0
        assert rec.full_energy == pytest.approx(math.sqrt(0.25 * math.pi), rel=1e-13)
        assert rec.full_energy == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)

    def test_degree_two_homogeneity(self, grid1d, rng):
        base = _base_state(grid1d)
        d_fluid, d_rad = _random_differences(grid1d, rng)
        a = _energy(grid1d, base, d_fluid, d_rad, 2, 0.1)
        b = _energy(grid1d, base, 3.0 * d_fluid, 3.0 * d_rad, 2, 0.1)
        assert b.gamma == pytest.approx(9.0 * a.gamma, rel=1e-12)
        assert b.full_energy >= b.fluid_energy >= 0.0

    def test_monotone_in_s(self, grid1d, rng):
        base = _base_state(grid1d)
        d_fluid, d_rad = _random_differences(grid1d, rng)
        gammas = [_energy(grid1d, base, d_fluid, d_rad, s, 0.1).gamma for s in range(5)]
        assert all(a <= b + 1e-12 for a, b in zip(gammas, gammas[1:]))


class TestWellPreparedInit:
    def test_amp_zero_is_exactly_consistent(self, grid1d):
        base = _base_state(grid1d)
        batch = well_prepared_init(base, (0.05,), 0.0, _config_shapes(grid1d))
        squares = batch_error_squares(batch, (3,))[0, :, 0]
        rec = _energies(*squares.tolist(), 0.05)
        assert rec.full_energy < 1e-13
        assert prepared_deviation(batch, 3)[0] < 1e-13

    def test_scaling_arithmetic_at_amp_one(self, grid1d):
        # radiation deviation norm is sqrt(eps)*amp*||shape||, so the
        # weighted term contributes exactly eps*amp*||shape|| to the
        # deviation functional.
        base = _base_state(grid1d)
        eps = 0.04
        s = 3
        shapes = _config_shapes(grid1d)
        batch = well_prepared_init(base, (eps,), 1.0, shapes)
        limit = stack(grid1d, *limit_pair(grid1d, base.fluid[-1, 0]))
        rad_norm = sobolev_norm(grid1d, grid1d.inverse(batch.rad[:, 1]) - limit, s)
        shape_norm = sobolev_norm(grid1d, shapes[3:], s)
        assert rad_norm == pytest.approx(math.sqrt(eps) * shape_norm, rel=1e-12)
        assert math.sqrt(eps) * rad_norm == pytest.approx(eps * shape_norm, rel=1e-12)

    @pytest.mark.parametrize("n_dims", [1, 2])
    def test_deviations_have_the_sign_of_the_shapes(self, n_dims):
        # Member e is the base plus eps*amp times the fluid shapes and the
        # limit closure plus +sqrt(eps)*amp times the radiation shapes,
        # entry by entry: a norm of the deviation cannot see its sign.
        grid = Grid(n_dims, 16)
        x = grid.coordinates()
        u = np.stack([0.1 * np.cos(x[-1] + a) for a in range(n_dims)])
        base = limit_state(grid, stack(grid, 1 + 0.1 * np.sin(x[0]), u, 1 + 0.1 * np.cos(sum(x))))
        shapes, amp, sweep = _config_shapes(grid), 0.5, (0.04, 0.01)
        batch = well_prepared_init(base, sweep, amp, shapes)
        closure = stack(grid, *limit_pair(grid, base.fluid[-1, 0]))
        for e, eps in enumerate(sweep, start=1):
            fluid_gap = batch.fluid[:, e] - base.fluid[:, 0] - eps * amp * shapes[: n_dims + 2]
            rad_gap = grid.inverse(batch.rad[:, e]) - closure - math.sqrt(eps) * amp * shapes[n_dims + 2 :]
            assert np.abs(fluid_gap).max() < 1e-14
            assert np.abs(rad_gap).max() < 1e-13

    @pytest.mark.parametrize("amp", [0.0, 1.0])
    def test_deviation_over_eps_is_eps_independent(self, grid1d, amp):
        base = _base_state(grid1d)
        sweep = (0.1, 0.05, 0.025)
        batch = well_prepared_init(base, sweep, amp, _config_shapes(grid1d))
        # The base is member 0, bit for bit.
        assert batch.eps == (0.0, *sweep) and batch.time == base.time
        for name in ("fluid", "spectrum", "rad"):
            assert (getattr(batch, name)[:, :1] == getattr(base, name)).all()
        ratios = prepared_deviation(batch, 3) / np.array(sweep)
        if amp == 0.0:
            assert max(ratios) < 1e-10
        else:
            assert max(ratios) / min(ratios) < 1.0 + 1e-10

    @pytest.mark.parametrize("n_dims", [1, 2])
    def test_default_shapes_are_unit_rows_in_state_order(self, n_dims):
        # One (2n+3, *shape) array: rho, u, theta, I0, I1, each of unit
        # L^2 norm; rho is sin(x) in 1D and sin(x + y) in 2D.
        grid = Grid(n_dims, 16)
        shapes = _config_shapes(grid)
        assert shapes.shape == (2 * n_dims + 3, *grid.shape)
        norms = [sobolev_norm(grid, row, 0) for row in shapes]
        assert norms == pytest.approx([1.0] * len(shapes), rel=1e-14)
        x = grid.coordinates()
        rho = np.sin(sum(x))
        assert np.abs(shapes[0] - rho / np.sqrt(np.sum(rho**2) * grid.spacing ** grid.n_dims)).max() < 1e-14
        # The defaults are the table of profile specs below, written out
        # as a config, bit for bit.
        wave = lambda kind, *k: {"modes": [{"amplitude": 1.0, "wavenumber": list(k), "kind": kind}]}
        if n_dims == 1:
            rows = wave("sin", 1), [wave("cos", 1)], wave("sin", 2), wave("cos", 2), [wave("sin", 3)]
        else:
            rows = (
                wave("sin", 1, 1), [wave("cos", 1, 0), wave("sin", 0, 1)], wave("sin", 2, 0),
                wave("cos", 1, 1), [wave("sin", 0, 1), wave("cos", 2, 0)],
            )
        table = dict(zip(("rho", "u", "theta", "I0", "I1"), rows))
        assert np.array_equal(shapes, _config_shapes(grid, perturbation_shapes=table))

    def test_positivity_guard(self, grid1d):
        base = _base_state(grid1d)
        with pytest.raises(NonPositiveState, match="eps = 0.25"):
            well_prepared_init(base, (0.01, 0.25), 30.0, _config_shapes(grid1d))

    def test_positivity_guard_names_field_and_margin(self, grid1d):
        # Like a solver failure: the member's eps, the time, the field and
        # how far its minimum fell below the floor.
        base = _base_state(grid1d)
        shapes = _config_shapes(grid1d)
        with pytest.raises(NonPositiveState) as info:
            well_prepared_init(base, (0.01, 0.25), 30.0, shapes)
        exc = info.value
        low = (base.fluid[0] + 0.25 * 30.0 * shapes[0]).min()
        assert (exc.eps, exc.time, exc.field, exc.minimum) == (0.25, 0.0, "rho", low)
        assert exc.margin == low - POSITIVITY_FLOOR < 0.0
        assert f"min rho = {low:.3e}" in str(exc)


class TestFitRate:
    def test_exact_linear_law(self):
        eps = [0.1, 0.05, 0.025, 0.0125]
        fit = fit_rate([(e, 3 * e) for e in eps])
        assert fit["slope"] == pytest.approx(1.0, abs=1e-12)
        assert fit["intercept"] == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert fit["eps_values"] == eps and fit["errors"] == [3 * e for e in eps]

    def test_square_root_law(self):
        eps = [0.1, 0.05, 0.025]
        fit = fit_rate([(e, e**0.5) for e in eps])
        assert fit["slope"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("slope", [0.5, 1.0, 2.0])
    def test_recovers_planted_slopes(self, slope):
        eps = [0.2, 0.1, 0.05, 0.025]
        fit = fit_rate([(e, 1.7 * e**slope) for e in eps])
        assert fit["slope"] == pytest.approx(slope, abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFit, match="3 pairs"):
            fit_rate([(0.1, 1.0), (0.05, 0.5)])
        with pytest.raises(DegenerateFit, match="positive"):
            fit_rate([(0.1, 1.0), (0.05, 0.0), (0.025, 0.2)])
        with pytest.raises(DegenerateFit, match="equal"):
            fit_rate([(0.1, 1.0), (0.1, 0.5), (0.1, 0.2)])
        with pytest.raises(DegenerateFit, match="distinct"):
            fit_rate([(0.1, 1.0), (0.05, 0.5), (0.05, 0.2)])

