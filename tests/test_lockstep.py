"""The eps sweep in lockstep: member-batched Strang step, shared dt,
chunking, batched error norms and the naming of a failing member."""

import os

import numpy as np
import pytest

import radhydro.stepping
from radhydro.analysis import batch_error_squares, error_fields, error_squares
from radhydro.config import parse_config
from radhydro.errors import BlowUp, NonPositiveState
from radhydro.fluid import POSITIVITY_FLOOR, FluidParams, FluidState
from radhydro.radiation import RadiationMoments, limit_I0, limit_q
from radhydro.runner import _sampled, run
from radhydro.spectral import Grid, SpectralField, VectorField
from radhydro.stepping import EpsBatch, EpsState, LimitState, StepControl, cfl_dt, step_batch, step_eps

from conftest import smooth_field, smooth_vector

PARAMS = FluidParams(mu=0.01, lam=0.01, kappa=0.01)
SWEEP = (0.1, 0.05, 0.025, 0.0125)


def _state(grid, rng, u_amp=0.05):
    one = SpectralField.constant(grid, 1.0)
    theta = one + smooth_field(grid, rng, amp=0.05)
    fluid = FluidState(
        rho=one + smooth_field(grid, rng, amp=0.05),
        u=smooth_vector(grid, rng, amp=u_amp),
        theta=theta,
    )
    rad = RadiationMoments(
        I0=limit_I0(theta) + smooth_field(grid, rng, amp=0.02),
        I1=limit_q(theta) + smooth_vector(grid, rng, amp=0.02),
    )
    return EpsState(fluid=fluid, rad=rad, time=0.0)


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
def test_lockstep_matches_serial_step_eps(n_dims, n):
    grid = Grid(n_dims, n)
    rng = np.random.default_rng(31)
    states = [_state(grid, rng) for _ in SWEEP]
    batch = EpsBatch.from_states(states, SWEEP)
    dt = 0.01
    for _ in range(10):
        batch = step_batch(batch, PARAMS, dt)
        states = [step_eps(s, PARAMS, eps, dt) for s, eps in zip(states, SWEEP)]
    for e, s in enumerate(states):
        assert batch.time == s.time
        assert _relative_gap(batch.fluid[:, e], s.fluid.stacked) <= 1e-13
        assert _relative_gap(batch.rad[:, e], s.rad.half_spectrum) <= 1e-13


def test_reused_emission_spectrum_is_bitwise_the_same():
    # A step hands the theta^4 spectrum of its new temperature to the next
    # step; recomputing it instead must give the same bits.
    grid = Grid(2, 16)
    rng = np.random.default_rng(32)
    reused = EpsBatch.from_states([_state(grid, rng) for _ in SWEEP[:3]], SWEEP[:3])
    fresh = reused
    for _ in range(3):
        reused = step_batch(reused, PARAMS, 0.01)
        fresh = step_batch(EpsBatch(grid, fresh.eps, fresh.fluid, fresh.rad, fresh.time), PARAMS, 0.01)
    assert np.array_equal(reused.fluid, fresh.fluid)
    assert np.array_equal(reused.rad, fresh.rad)
    assert np.array_equal(reused.source, fresh.source)


def test_step_eps_advances_a_batch_with_its_own_eps():
    grid = Grid(1, 16)
    rng = np.random.default_rng(37)
    batch = EpsBatch.from_states([_state(grid, rng) for _ in SWEEP[:2]], SWEEP[:2])
    stepped = step_eps(batch, PARAMS, SWEEP[:2], 0.01)
    assert np.array_equal(stepped.fluid, step_batch(batch, PARAMS, 0.01).fluid)
    with pytest.raises(ValueError, match="does not match"):
        step_eps(batch, PARAMS, SWEEP[1:3], 0.01)


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
    dt_slow = cfl_dt(slow, PARAMS, control)
    dt_fast = cfl_dt(fast, PARAMS, control)
    assert dt_fast < dt_slow / 2
    batch = EpsBatch.from_states([slow, fast, slow], (0.1, 0.05, 0.025))
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
    limit = LimitState(fluid=_state(grid, rng).fluid, time=0.0)
    batch = EpsBatch.from_states(members, (0.1, 0.05, 0.025))
    indices = (0, 3, 4)
    got = batch_error_squares(batch, limit, indices)
    assert got.shape == (3, 2, 3)
    for e, member in enumerate(members):
        err = error_fields(member, limit)
        for i, s in enumerate(indices):
            np.testing.assert_allclose(got[i, :, e], error_squares(err, s), rtol=1e-12)


def test_failing_member_is_named_with_time_field_and_margin():
    grid = Grid(1, 32)
    rng = np.random.default_rng(35)
    x = grid.coordinates()[0]
    good = _state(grid, rng)
    one = SpectralField.constant(grid, 1.0)
    # Density 1.2e-6 at x = 3pi/2, where the flow diverges at rate 50:
    # the later RK stages of the first step take it below the floor.
    thin = EpsState(
        fluid=FluidState(
            rho=SpectralField.from_values(grid, 1.0 + (1.0 - 1.2e-6) * np.sin(x)),
            u=VectorField([SpectralField.from_values(grid, 50.0 * np.cos(x))]),
            theta=one,
        ),
        rad=RadiationMoments(I0=one, I1=VectorField.zeros(grid)),
        time=0.25,
    )
    good = EpsState(fluid=good.fluid, rad=good.rad, time=0.25)
    batch = EpsBatch.from_states([good, thin, good], (0.1, 0.05, 0.025))
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
    broken = EpsState(
        fluid=good.fluid,
        rad=RadiationMoments(
            I0=SpectralField.constant(grid, np.nan), I1=VectorField.zeros(grid)
        ),
        time=0.0,
    )
    batch = EpsBatch.from_states([good, good, broken], (0.1, 0.05, 0.025))
    with pytest.raises(BlowUp) as info:
        step_batch(batch, PARAMS, 0.01)
    assert info.value.eps == 0.025
    assert info.value.time == pytest.approx(0.01)
    assert info.value.field in ("rho", "u", "theta", "I0", "I1")
    assert "eps = 0.025" in str(info.value)
