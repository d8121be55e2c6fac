"""Time integration: exact radiation substep, splitting, CFL control."""

import math

import numpy as np
import pytest

import radhydro.stepping
from radhydro.config import parse_config
from radhydro.errors import BlowUp
from radhydro.fluid import FluidParams
from radhydro.spectral import Grid
from radhydro.stepping import (
    RK4_IMAGINARY_STABILITY,
    RK4_REAL_STABILITY,
    cfl_bounds,
    cfl_dt,
    step_eps,
)
from radhydro.analysis import fit_rate
from radhydro.runner import _sampled, run

from conftest import (
    eps_batch,
    limit_pair,
    limit_state,
    radiation_rhs,
    smooth_field,
    smooth_vector,
    sobolev_norm,
    stack,
    substep,
)

PARAMS = FluidParams(mu=0.01, lam=0.01, kappa=0.01)


def _wavy_member(grid, rng, amp=0.05, rad_amp=0.02):
    """(fluid, moments) value stacks near equilibrium: smooth perturbations
    of a unit state, and moments near the limit closure of theta."""
    rho = 1.0 + smooth_field(grid, rng, amp=amp)
    theta = 1.0 + smooth_field(grid, rng, amp=amp)
    u = smooth_vector(grid, rng, amp=amp)
    i0_limit, q_limit = limit_pair(grid, theta)
    i0 = i0_limit + smooth_field(grid, rng, amp=rad_amp)
    i1 = q_limit + smooth_vector(grid, rng, amp=rad_amp)
    return stack(grid, rho, u, theta), stack(grid, i0, i1)


def _equilibrium_eps(grid, eps=0.05):
    return eps_batch(grid, (eps,), [stack(grid, 1.0, 0.0, 1.0)], [stack(grid, 1.0, 0.0)])


def _wavy_state(grid, rng, eps=0.1):
    fluid, rad = _wavy_member(grid, rng)
    return eps_batch(grid, (eps,), [fluid], [rad])


def _state_distance(a, b):
    """L^2 distance of two batches (fluid and moments) or two limit states
    (fluid; their moments follow from theta)."""
    total = sobolev_norm(a.grid, a.fluid - b.fluid, 0) ** 2
    if a.eps != (0.0,):
        total += sobolev_norm(a.grid, a.grid.inverse(a.rad - b.rad), 0) ** 2
    return math.sqrt(total)


class TestRadiationExactSubstep:
    def test_zero_mode_closed_form(self, grid1d):
        # At k = 0 the moments decouple: I0 relaxes to the source mean,
        # I1 decays by exp(-dt/eps).
        a, b = 1.7, 1.2
        theta = np.full(grid1d.shape, b**0.25)
        eps, dt = 0.2, 0.3
        out = substep(grid1d, stack(grid1d, a, 0.5), theta, eps, dt)
        decay = math.exp(-dt / eps)
        assert np.abs(out[0] - (b + (a - b) * decay)).max() < 1e-12
        assert np.abs(out[1] - 0.5 * decay).max() < 1e-12

    def test_dt_zero_is_identity(self, grid1d, rng):
        fluid, rad = _wavy_member(grid1d, rng)
        out = substep(grid1d, rad, fluid[-1], 0.1, 0.0)
        assert np.abs(out - rad).max() < 1e-14

    def test_long_time_reaches_limit_pair(self, grid1d):
        x = grid1d.coordinates()[0]
        theta = 1 + 0.1 * np.cos(x)
        eps = 0.05
        out = substep(grid1d, stack(grid1d, 1.0, 0.0), theta, eps, 30 * eps)
        dev = sobolev_norm(grid1d, out - stack(grid1d, *limit_pair(grid1d, theta)), 0)
        assert dev < 1e-8

    def test_against_fine_step_ode_oracle(self):
        # Independent oracle: explicit RK4 on the relaxation tendencies
        # with theta frozen, at a dt far below the relaxation time.
        grid = Grid(n_dims=1, points_per_dim=32)
        x = grid.coordinates()[0]
        theta = 1 + 0.2 * np.sin(x)
        i0 = 1 + 0.1 * np.cos(x)
        i1 = 0.1 * np.sin(2 * x)[None]
        eps, t_final = 0.5, 0.25
        exact = substep(grid, stack(grid, i0, i1), theta, eps, t_final)

        n_steps = 2000
        dt = t_final / n_steps
        for _ in range(n_steps):
            k1 = radiation_rhs(grid, i0, i1, theta, eps)
            k2 = radiation_rhs(grid, i0 + k1[0] * (dt / 2), i1 + k1[1] * (dt / 2), theta, eps)
            k3 = radiation_rhs(grid, i0 + k2[0] * (dt / 2), i1 + k2[1] * (dt / 2), theta, eps)
            k4 = radiation_rhs(grid, i0 + k3[0] * dt, i1 + k3[1] * dt, theta, eps)
            i0 = i0 + (k1[0] + k2[0] * 2 + k3[0] * 2 + k4[0]) * (dt / 6)
            i1 = i1 + (k1[1] + k2[1] * 2 + k3[1] * 2 + k4[1]) * (dt / 6)
        assert sobolev_norm(grid, exact[0] - i0, 0) < 1e-10
        assert sobolev_norm(grid, exact[1:] - i1, 0) < 1e-10

    def test_semigroup_property(self, grid1d, rng):
        fluid, rad = _wavy_member(grid1d, rng)
        theta = fluid[-1]
        eps, dt = 0.07, 0.11
        one = substep(grid1d, rad, theta, eps, dt)
        two = substep(grid1d, substep(grid1d, rad, theta, eps, dt / 2), theta, eps, dt / 2)
        assert np.abs(one - two).max() < 1e-12


class TestStepEps:
    def test_equilibrium_fixed_point(self, grid1d):
        out = step_eps(_equilibrium_eps(grid1d), PARAMS, 0.02)
        assert np.abs(out.fluid[[0, -1]] - 1).max() < 1e-13
        assert np.abs(out.fluid[1]).max() < 1e-13
        rad = grid1d.inverse(out.rad)
        assert np.abs(rad[0] - 1).max() < 1e-13
        assert np.abs(rad[1]).max() < 1e-13

    def test_local_self_convergence_order(self, grid1d, rng):
        state = _wavy_state(grid1d, rng)
        dts = [1 / 64, 1 / 128, 1 / 256]
        gaps = []
        for dt in dts:
            one = step_eps(state, PARAMS, dt)
            two = step_eps(step_eps(state, PARAMS, dt / 2), PARAMS, dt / 2)
            gaps.append(_state_distance(one, two))
        fit = fit_rate(list(zip(dts, gaps)))
        assert fit["slope"] >= 2.7

    def test_translation_equivariance(self, grid1d, rng):
        fluid, rad = _wavy_member(grid1d, rng)
        shift = 3
        eps, dt = 0.05, 0.01
        roll = lambda y: np.roll(y, shift, axis=-1)
        a = step_eps(eps_batch(grid1d, (eps,), [fluid], [rad]), PARAMS, dt)
        b = step_eps(eps_batch(grid1d, (eps,), [roll(fluid)], [roll(rad)]), PARAMS, dt)
        assert np.abs(roll(a.fluid[0]) - b.fluid[0]).max() < 1e-12
        rad_a, rad_b = grid1d.inverse(a.rad), grid1d.inverse(b.rad)
        assert np.abs(roll(rad_a[0]) - rad_b[0]).max() < 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025, 0.0125])
    def test_uniform_in_eps_stability(self, grid1d, rng, eps):
        # same grid and dt for every eps: the splitting neither rejects
        # nor loses stability as the relaxation stiffens
        state = _wavy_state(grid1d, rng, eps)
        dt = 0.02
        start_norm = sobolev_norm(grid1d, state.fluid[-1], 0)
        for _ in range(25):
            state = step_eps(state, PARAMS, dt)
        assert np.isfinite(state.fluid).all()
        assert sobolev_norm(grid1d, state.fluid[-1], 0) < 2 * start_norm

    def test_mass_conservation_over_run(self, grid1d, rng):
        state = _wavy_state(grid1d, rng, 0.05)
        mass0 = state.fluid[0].mean() * grid1d.volume
        for _ in range(50):
            state = step_eps(state, PARAMS, 0.01)
        mass1 = state.fluid[0].mean() * grid1d.volume
        assert abs(mass1 - mass0) / abs(mass0) < 1e-10

    def test_blowup_detection(self, grid1d):
        state = eps_batch(
            grid1d, (0.1,), [stack(grid1d, 1.0, 0.0, 1.0)], [stack(grid1d, np.nan, 0.0)]
        )
        with pytest.raises(BlowUp):
            step_eps(state, PARAMS, 0.01)


class TestStepLimit:
    def test_constant_state_unchanged(self, grid1d):
        out = step_eps(limit_state(grid1d, stack(grid1d, 1.0, 0.0, 1.0)), PARAMS, 0.02)
        assert np.abs(out.fluid[0] - 1).max() < 1e-13
        assert np.abs(out.fluid[-1] - 1).max() < 1e-13

    def test_local_self_convergence_order(self, grid1d, rng):
        state = limit_state(grid1d, _wavy_member(grid1d, rng)[0])
        dts = [1 / 16, 1 / 32, 1 / 64]
        gaps = []
        for dt in dts:
            one = step_eps(state, PARAMS, dt)
            two = step_eps(step_eps(state, PARAMS, dt / 2), PARAMS, dt / 2)
            gaps.append(_state_distance(one, two))
        fit = fit_rate(list(zip(dts, gaps)))
        assert fit["slope"] >= 3.7

    def test_closure_residual_enforced_throughout(self, grid1d, rng):
        from radhydro.radiation import limit_closure_residual

        state = limit_state(grid1d, _wavy_member(grid1d, rng)[0])
        for _ in range(10):
            state = step_eps(state, PARAMS, 0.01)
            assert limit_closure_residual(grid1d, state.source[0], state.rad[1:, 0]) < 1e-10

    def test_state_is_a_read_only_stack(self, grid1d):
        out = step_eps(limit_state(grid1d, stack(grid1d, 1.0, 0.0, 1.0)), PARAMS, 0.02)
        assert out.fluid.shape == (3, 1, *grid1d.shape)
        assert not out.fluid.flags.writeable


class TestCflDt:
    def test_advective_bound_at_rest(self, grid1d):
        state = limit_state(grid1d, stack(grid1d, 1.0, 0.0, 1.0))
        # At rest the speed is the sound speed sqrt(2 theta) = sqrt(2); the
        # largest kept |k| on 64 points is 21 and RK4's imaginary-axis
        # interval 2 sqrt(2). The diffusive bound is huge.
        expected = 0.5 * 2 * np.sqrt(2) / (21 * np.sqrt(2))
        assert cfl_dt(state, PARAMS, math.inf, 0.5, 0.5) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n_dims,points,u,k_max", [
        (1, 64, [0.5], 21.0), (2, 32, [0.3, 0.4], 10.0 * math.sqrt(2.0)),
    ])
    def test_advective_bound_away_from_unit_temperature(self, n_dims, points, u, k_max):
        # At theta = 4 the sound speed sqrt(2 theta) is 2 sqrt(2), so the
        # speed is max|u| + 2 sqrt(2) with |u| = 0.5; at theta = 1 the
        # sound speed cannot tell sqrt(2 theta) from sqrt(2 / theta).
        grid = Grid(n_dims, points)
        y = stack(grid, 1.0, np.multiply.outer(u, np.ones(grid.shape)), 4.0)
        advective, _ = cfl_bounds(grid, y, PARAMS, 0.5, 0.5)
        expected = 0.5 * RK4_IMAGINARY_STABILITY / (k_max * (0.5 + 2.0 * math.sqrt(2.0)))
        assert advective == pytest.approx(expected, rel=1e-13)

    def test_diffusive_bound_dominates_for_large_kappa(self, grid1d):
        state = limit_state(grid1d, stack(grid1d, 1.0, 0.0, 1.0))
        p = FluidParams(mu=0.01, lam=0.0, kappa=5.0)
        # The largest kept |k|^2 on 64 points is 21^2, and kappa dominates
        # mu and 2 mu + lam.
        expected = 0.4 * 2.785293563405282 * 1.0 / (5.0 * 21**2)
        assert cfl_dt(state, p, math.inf, 0.4, 0.4) == pytest.approx(expected, rel=1e-13)

    def test_independent_of_eps(self, grid1d, rng):
        fluid, rad = _wavy_member(grid1d, rng)
        stable_dt = lambda s: cfl_dt(s, PARAMS, math.inf, 0.4, 0.4)
        a = stable_dt(eps_batch(grid1d, (0.1,), [fluid], [rad]))
        b = stable_dt(eps_batch(grid1d, (0.05,), [fluid], [rad]))
        assert a == b == stable_dt(limit_state(grid1d, fluid))

    def test_remaining_time_caps(self, grid1d):
        # The runner spreads its steps so that they land on the output
        # time: at t = 0.995 the state at rest could step by more than
        # 0.03, yet one step of 0.005 takes it to the output at t = 1.
        config = parse_config({"mode": "simulate-limit", "t_end": 1.0, "output_interval": 1.0})
        state = limit_state(grid1d, stack(grid1d, 1.0, 0.0, 1.0), time=0.995)
        assert cfl_dt(state, PARAMS, config.dt_max, 0.4, 0.4) > 0.03
        steps = []

        def stepper(s, dt):
            steps.append(dt)
            return step_eps(s, PARAMS, dt)

        samples = _sampled(state, stepper, PARAMS, config, "limit run")
        assert next(samples) is state
        assert next(samples).time == 1.0
        assert steps == [pytest.approx(0.005, abs=1e-15)]

    def test_rk4_real_stability_interval(self):
        # |1 + z + z^2/2 + z^3/6 + z^4/24| = 1 at z = -R and stays below 1
        # on (-R, 0).
        amplification = lambda z: 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert amplification(-RK4_REAL_STABILITY) == pytest.approx(1.0, abs=1e-14)
        z = np.linspace(-RK4_REAL_STABILITY, 0.0, 1001)[1:-1]
        assert np.all(np.abs(amplification(z)) < 1.0)
        assert abs(amplification(-RK4_REAL_STABILITY * 1.001)) > 1.0

    def test_rk4_imaginary_stability_interval(self):
        # |R(i y)|^2 = 1 - y^6/72 + y^8/576 for the RK4 polynomial R, even
        # in y: 1 at y = 2 sqrt(2), at most 1 below, above 1 beyond.
        amplification = lambda z: 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert abs(amplification(1j * RK4_IMAGINARY_STABILITY)) == pytest.approx(1.0, abs=1e-14)
        y = np.linspace(0.0, RK4_IMAGINARY_STABILITY, 1001)[:-1]
        assert np.all(np.abs(amplification(1j * y)) <= 1.0)
        assert abs(amplification(1j * RK4_IMAGINARY_STABILITY * 1.001)) > 1.0


def _acoustic_config(n_dims, points, wavenumber, factor, t_end):
    """A resting unit state with one rho mode of amplitude 1e-3 near the
    band edge, nearly inviscid, under a dt cap far above the CFL bound."""
    rest = {"base": 0.0, "modes": []}
    return parse_config(
        {
            "mode": "simulate-limit",
            "grid": {"n_dims": n_dims, "points": points},
            "fluid": {"mu": 1e-5, "lambda": 0.0, "kappa": 1e-5},
            "t_end": t_end,
            "dt_max": 1.0,
            "output_interval": 5.0,
            "cfl_advective": factor,
            "profiles": {
                "rho": {"base": 1.0, "modes": [{"amplitude": 1e-3, "wavenumber": wavenumber, "kind": "cos"}]},
                "u": [rest] * n_dims,
                "theta": {"base": 1.0, "modes": []},
            },
        }
    )


def _former_advective_bound(grid, y, cfl_advective):
    """The advective bound before the spectral-radius form:
    cfl * h / (max|u| + sqrt(max theta))."""
    spatial = grid.axes
    speed = np.sqrt(np.sum(y[1:-1] ** 2, axis=0).max(axis=spatial)) + np.sqrt(y[-1].max(axis=spatial))
    return float((cfl_advective * grid.spacing / speed).min())


class TestAdvectiveBound:
    # Under the former bound both runs exit 0 while the mode's velocity
    # grows (1D at factor 1.0: u_h0 3.2e-4 at t = 15; 2D at factor 0.8:
    # 0.196 at t = 30); the factors are the largest the parser accepts
    # and one inside the former bound's unstable range.
    @pytest.mark.parametrize(
        "n_dims,points,wavenumber,factor,t_end",
        [(1, 64, [21], 1.0, 15.0), (2, 32, [10, 10], 0.8, 30.0)],
        ids=["1d64", "2d32"],
    )
    def test_band_edge_sound_wave_decays(self, n_dims, points, wavenumber, factor, t_end, tmp_path):
        summary = run(_acoustic_config(n_dims, points, wavenumber, factor, t_end), str(tmp_path))
        assert summary.exit_status == 0
        data = np.genfromtxt(tmp_path / "limit_series.csv", delimiter=",", names=True)
        assert data["time"][-1] == t_end
        assert np.all(data["u_h0"] <= 1e-6)

    def test_dt_cap_stays_active_on_the_benchmark_workloads(self, monkeypatch, tmp_path):
        # The default-physics workloads of perfbench/workloads.py (the
        # closure check takes no steps): at every step the dt cap lies
        # below both the former and the present advective bound and the
        # diffusive bound, so the change of the bound leaves their dt
        # sequences, and hence their outputs, as they were.
        workloads = {
            "sweep-2d64": {"mode": "convergence-study", "grid": {"n_dims": 2, "points": 64}, "t_end": 0.1},
            "limit-2d128": {"mode": "simulate-limit", "grid": {"n_dims": 2, "points": 128}, "t_end": 0.1},
            "dense-1d64": {
                "mode": "convergence-study",
                "grid": {"n_dims": 1, "points": 64},
                "output_interval": 0.0025,
                "dt_max": 0.0025,
            },
        }
        bounds = radhydro.stepping.cfl_bounds
        seen = []

        def spy(grid, y, p, cfl_advective, cfl_diffusive):
            advective, diffusive = bounds(grid, y, p, cfl_advective, cfl_diffusive)
            former = _former_advective_bound(grid, y, cfl_advective)
            seen.append(min(advective, diffusive, former) / config.dt_max)
            return advective, diffusive

        monkeypatch.setattr(radhydro.stepping, "cfl_bounds", spy)
        for name, raw in workloads.items():
            seen.clear()
            config = parse_config(raw)
            run(config, str(tmp_path / name))
            assert len(seen) > 10 and min(seen) > 1.0, name
