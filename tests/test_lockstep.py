"""The eps sweep in lockstep: member-batched Strang step, shared dt,
chunking, batched error norms and the naming of a failing member."""

import os

import numpy as np
import pytest

import radhydro.stepping
from radhydro.analysis import batch_error_squares
from radhydro.config import parse_config
from radhydro.errors import BlowUp, NonPositiveState
from radhydro.fluid import POSITIVITY_FLOOR, FluidParams, _rhs_common
from radhydro.radiation import limit_I0, limit_q
from radhydro.runner import _sampled, run
from radhydro.spectral import Grid, SpectralField, sobolev_norm
from radhydro.stepping import EpsBatch, StepControl, cfl_dt, step_batch, step_eps, step_limit

from conftest import eps_batch, fields, limit_state, member, smooth_field, smooth_vector, stack

PARAMS = FluidParams(mu=0.01, lam=0.01, kappa=0.01)
SWEEP = (0.1, 0.05, 0.025, 0.0125)


def _state(grid, rng, u_amp=0.05):
    """(fluid, moments) value stacks of one smooth state."""
    one = SpectralField.constant(grid, 1.0)
    theta = one + smooth_field(grid, rng, amp=0.05)
    rho = one + smooth_field(grid, rng, amp=0.05)
    u = smooth_vector(grid, rng, amp=u_amp)
    i0 = limit_I0(theta) + smooth_field(grid, rng, amp=0.02)
    i1 = limit_q(theta) + smooth_vector(grid, rng, amp=0.02)
    return stack(grid, rho, u, theta), stack(grid, i0, i1)


def _batch(grid, states, eps, time=0.0):
    return eps_batch(grid, eps, [f for f, _ in states], [r for _, r in states], time)


def _error_squares(grid, fluid, rad, limit_fluid, s):
    """Field-by-field squared H^s norms of one member's differences from
    the limit state: fluid (rho, u, theta) and radiation (I0, I1) against
    the limit closure of the limit temperature."""
    rho, u, theta = fields(grid, fluid)
    i0, i1 = fields(grid, rad)
    rho_l, u_l, theta_l = fields(grid, limit_fluid)
    i0_ref = limit_I0(theta_l)
    q_ref = limit_q(theta_l)
    fluid_sq = (
        sobolev_norm(rho - rho_l, s) ** 2
        + sobolev_norm(u - u_l, s) ** 2
        + sobolev_norm(theta - theta_l, s) ** 2
    )
    rad_sq = sobolev_norm(i0 - i0_ref, s) ** 2 + sobolev_norm(i1 - q_ref, s) ** 2
    return fluid_sq, rad_sq


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
def test_lockstep_matches_serial_step_eps(n_dims, n):
    grid = Grid(n_dims, n)
    rng = np.random.default_rng(31)
    states = [_state(grid, rng) for _ in SWEEP]
    batch = _batch(grid, states, SWEEP)
    singles = [_batch(grid, [s], (eps,)) for s, eps in zip(states, SWEEP)]
    dt = 0.01
    for _ in range(10):
        batch = step_batch(batch, PARAMS, dt)
        singles = [step_eps(s, PARAMS, dt) for s in singles]
    for e, s in enumerate(singles):
        assert batch.time == s.time
        assert _relative_gap(batch.fluid[:, e], s.fluid[:, 0]) <= 1e-13
        assert _relative_gap(batch.rad[:, e], s.rad[:, 0]) <= 1e-13


def test_reused_emission_spectrum_is_bitwise_the_same():
    # A step hands the theta^4 spectrum of its new temperature to the next
    # step; recomputing it instead must give the same bits. Both batches
    # carry the same fluid spectrum, so only the source is recomputed.
    grid = Grid(2, 16)
    rng = np.random.default_rng(32)
    reused = _batch(grid, [_state(grid, rng) for _ in SWEEP[:3]], SWEEP[:3])
    fresh = reused
    for _ in range(3):
        reused = step_batch(reused, PARAMS, 0.01)
        fresh = EpsBatch(grid, fresh.eps, fresh.fluid, fresh.rad, fresh.time, spectrum=fresh.spectrum)
        fresh = step_batch(fresh, PARAMS, 0.01)
    assert np.array_equal(reused.fluid, fresh.fluid)
    assert np.array_equal(reused.rad, fresh.rad)
    assert np.array_equal(reused.source, fresh.source)


def test_step_eps_advances_a_batch_with_its_own_eps():
    grid = Grid(1, 16)
    rng = np.random.default_rng(37)
    batch = _batch(grid, [_state(grid, rng) for _ in SWEEP[:2]], SWEEP[:2])
    stepped = step_eps(batch, PARAMS, 0.01)
    assert stepped.eps == SWEEP[:2]
    assert np.array_equal(stepped.fluid, step_batch(batch, PARAMS, 0.01).fluid)


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
class TestCarriedSpectrum:
    # Every state carries the half spectrum of its fluid values; the
    # steppers advance the spectrum and take the values from it.
    @pytest.mark.parametrize("chunk_cells", [1, 4096])
    def test_batch_spectrum_matches_its_values(self, n_dims, n, chunk_cells, monkeypatch):
        monkeypatch.setattr(radhydro.stepping, "LOCKSTEP_CELLS", chunk_cells)
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(41)
        b = _batch(grid, [_state(grid, rng) for _ in SWEEP], SWEEP)
        for _ in range(6):
            b = step_batch(b, PARAMS, 0.01)
        assert b.time == pytest.approx(0.06)
        assert _relative_gap(b.spectrum, grid.forward(b.fluid)) <= 1e-13

    def test_limit_spectrum_matches_its_values(self, n_dims, n):
        grid = Grid(n_dims, n)
        s = limit_state(grid, _state(grid, np.random.default_rng(42))[0])
        for _ in range(6):
            s = step_limit(s, PARAMS, 0.01)
        assert _relative_gap(s.spectrum, grid.forward(s.fluid)) <= 1e-13

    @pytest.mark.parametrize("coupled", [False, True])
    def test_tendency_vanishes_outside_the_two_thirds_band(self, n_dims, n, coupled):
        # White noise on the state puts every mode into the products, so
        # only the dealiasing keeps the band edge clean, and exactly.
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(43)
        fluid, rad = _state(grid, rng)
        y = (fluid + 0.01 * rng.standard_normal(fluid.shape))[:, None]
        coupling = {}
        if coupled:
            coupling = {"rad": rad[:, None], "eps": np.full((1,) * (n_dims + 1), 0.1)}
        tend = _rhs_common(grid, y, grid.forward(y), PARAMS, **coupling)
        mask = grid.half_dealias_mask
        assert np.all(tend[..., ~mask] == 0.0)
        assert np.all(np.abs(tend[..., mask]).max(axis=-1) > 0.0)

    @pytest.mark.parametrize("chunk_cells", [1, 4096])
    def test_steps_return_fresh_frozen_arrays(self, n_dims, n, chunk_cells, monkeypatch):
        monkeypatch.setattr(radhydro.stepping, "LOCKSTEP_CELLS", chunk_cells)
        grid = Grid(n_dims, n)
        rng = np.random.default_rng(44)
        b = step_batch(_batch(grid, [_state(grid, rng) for _ in SWEEP], SWEEP), PARAMS, 0.01)
        s = limit_state(grid, _state(grid, rng)[0])
        for old, new in ((b, step_batch(b, PARAMS, 0.01)), (b, step_eps(b, PARAMS, 0.01)),
                         (s, step_limit(s, PARAMS, 0.01))):
            names = [name for name in ("fluid", "spectrum", "rad", "source") if hasattr(old, name)]
            for a in names:
                for c in names:
                    assert not np.shares_memory(getattr(new, a), getattr(old, c)), (a, c)
            assert not new.fluid.flags.writeable and not new.spectrum.flags.writeable


def _study(out_dir):
    return parse_config(
        {
            "mode": "convergence-study",
            "grid": {"n_dims": 2, "points": 16},
            "t_end": 0.05,
            "output_interval": 0.025,
            "eps_list": [0.1, 0.05, 0.025],
            "perturbation_amp": 1.0,
            "out_dir": str(out_dir),
        }
    )


def test_chunk_size_does_not_change_outputs(tmp_path, monkeypatch):
    cells = 16 * 16
    monkeypatch.setattr(radhydro.stepping, "LOCKSTEP_CELLS", cells)  # one member per chunk
    one = run(_study(tmp_path / "one"))
    monkeypatch.setattr(radhydro.stepping, "LOCKSTEP_CELLS", 3 * cells)  # all in one chunk
    all_ = run(_study(tmp_path / "all"))
    assert sorted(os.listdir(tmp_path / "one")) == sorted(os.listdir(tmp_path / "all"))
    for name in os.listdir(tmp_path / "one"):
        if name.endswith(".csv"):
            a = np.loadtxt(tmp_path / "one" / name, delimiter=",", skiprows=1)
            b = np.loadtxt(tmp_path / "all" / name, delimiter=",", skiprows=1)
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)
    for key, fit in one.rate_fits.items():
        assert fit["slope"] == pytest.approx(all_.rate_fits[key]["slope"], rel=1e-12)
    assert one.gamma["per_eps"] == pytest.approx(all_.gamma["per_eps"], rel=1e-12)


def test_fast_member_sets_the_shared_dt():
    grid = Grid(1, 64)
    rng = np.random.default_rng(33)
    slow = _state(grid, rng)
    fast = _state(grid, rng, u_amp=1.0)
    control = StepControl(t_end=1.0, dt=1.0)
    dt_slow = cfl_dt(_batch(grid, [slow], (0.1,)), PARAMS, control)
    dt_fast = cfl_dt(_batch(grid, [fast], (0.05,)), PARAMS, control)
    assert dt_fast < dt_slow / 2
    batch = _batch(grid, [slow, fast, slow], (0.1, 0.05, 0.025))
    assert cfl_dt(batch, PARAMS, control) == dt_fast

    # Marching the batch to the first output time takes as many steps as
    # the fast member alone.
    t_out = 0.1
    config = parse_config(
        {"mode": "convergence-study", "dt_max": 1.0, "t_end": 2 * t_out, "output_interval": t_out}
    )
    steps = []

    def counting(b, dt):
        steps.append(dt)
        return step_batch(b, PARAMS, dt)

    samples = _sampled(batch, counting, PARAMS, config, "eps sweep")
    next(samples)
    assert next(samples).time == t_out
    assert len(steps) == int(np.ceil(t_out / dt_fast - 1e-9))
    assert len(steps) > np.ceil(t_out / dt_slow)


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
def test_batched_error_squares_match_error_fields(n_dims, n):
    grid = Grid(n_dims, n)
    rng = np.random.default_rng(34)
    members = [_state(grid, rng) for _ in range(3)]
    limit = limit_state(grid, _state(grid, rng)[0])
    batch = _batch(grid, members, (0.1, 0.05, 0.025))
    indices = (0, 3, 4)
    got = batch_error_squares(batch, limit, indices)
    assert got.shape == (3, 2, 3)
    for e in range(len(members)):
        fluid, rad = member(batch, e)
        for i, s in enumerate(indices):
            want = _error_squares(grid, fluid, rad, limit.fluid, s)
            np.testing.assert_allclose(got[i, :, e], want, rtol=1e-12)


def test_failing_member_is_named_with_time_field_and_margin():
    grid = Grid(1, 32)
    rng = np.random.default_rng(35)
    x = grid.coordinates()[0]
    good = _state(grid, rng)
    # Density 1.2e-6 at x = 3pi/2, where the flow diverges at rate 50:
    # the later RK stages of the first step take it below the floor.
    thin = (
        stack(grid, 1.0 + (1.0 - 1.2e-6) * np.sin(x), 50.0 * np.cos(x), 1.0),
        stack(grid, 1.0, 0.0),
    )
    batch = _batch(grid, [good, thin, good], (0.1, 0.05, 0.025), time=0.25)
    with pytest.raises(NonPositiveState) as info:
        step_batch(batch, PARAMS, 0.01)
    exc = info.value
    assert exc.eps == 0.05
    assert exc.field == "rho"
    assert 0.25 < exc.time <= 0.26
    assert exc.minimum < POSITIVITY_FLOOR
    assert exc.margin == exc.minimum - POSITIVITY_FLOOR < 0.0
    assert "eps = 0.05" in str(exc) and "rho" in str(exc)


def test_non_finite_member_is_named():
    grid = Grid(1, 32)
    rng = np.random.default_rng(36)
    good = _state(grid, rng)
    broken = (good[0], stack(grid, np.nan, 0.0))
    batch = _batch(grid, [good, good, broken], (0.1, 0.05, 0.025))
    with pytest.raises(BlowUp) as info:
        step_batch(batch, PARAMS, 0.01)
    assert info.value.eps == 0.025
    assert info.value.time == pytest.approx(0.01)
    assert info.value.field in ("rho", "u", "theta", "I0", "I1")
    assert "eps = 0.025" in str(info.value)


@pytest.mark.parametrize("n_dims,n", [(1, 32), (2, 16)])
def test_solver_path_builds_no_field_objects(n_dims, n, monkeypatch):
    # Every solver state is a stack of arrays: from prepared data to the
    # error norms, nothing constructs a SpectralField.
    from radhydro.analysis import default_perturbation_shapes, hypothesis_deviation, well_prepared_init
    from radhydro.stepping import step_limit

    grid = Grid(n_dims, n)
    base = limit_state(grid, _state(grid, np.random.default_rng(38))[0])
    shapes = default_perturbation_shapes(grid)
    control = StepControl(t_end=1.0, dt=0.01)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("SpectralField constructed")

    monkeypatch.setattr(SpectralField, "__init__", forbidden)
    batch = well_prepared_init(base, SWEEP, 1.0, shapes)
    assert hypothesis_deviation(batch, base, 3).shape == (len(SWEEP),)
    dt = cfl_dt(batch, PARAMS, control)
    assert dt == cfl_dt(base, PARAMS, control)
    batch = step_eps(step_batch(batch, PARAMS, dt), PARAMS, dt)
    limit = step_limit(step_limit(base, PARAMS, dt), PARAMS, dt)
    assert batch_error_squares(batch, limit, (0, 3)).shape == (2, 2, len(SWEEP))
