"""The eps sweep in lockstep: member-batched Strang step, shared dt,
chunking, batched error norms and the naming of a failing member."""

import ast
import inspect
import os
from pathlib import Path

import numpy as np
import pytest

import radhydro
import radhydro.stepping
from radhydro.analysis import batch_error_squares
from radhydro.config import MODE_KEYS, parse_config
from radhydro.errors import BlowUp, NonPositiveState
from radhydro.fluid import POSITIVITY_FLOOR, FluidParams, _rhs_common
from radhydro.runner import _sampled, run
from radhydro.spectral import Grid
from radhydro.stepping import EpsBatch, cfl_dt, step_batch, step_eps

from conftest import (
    eps_batch, limit_pair, limit_state, member, prepared_deviation, smooth_field, smooth_vector,
    sobolev_norm, stack, with_limit,
)

PARAMS = FluidParams(mu=0.01, lam=0.01, kappa=0.01)
SWEEP = (0.1, 0.05, 0.025, 0.0125)


def _state(grid, rng, u_amp=0.05):
    """(fluid, moments) value stacks of one smooth state."""
    theta = 1.0 + smooth_field(grid, rng, amp=0.05)
    rho = 1.0 + smooth_field(grid, rng, amp=0.05)
    u = smooth_vector(grid, rng, amp=u_amp)
    i0_limit, q_limit = limit_pair(grid, theta)
    i0 = i0_limit + smooth_field(grid, rng, amp=0.02)
    i1 = q_limit + smooth_vector(grid, rng, amp=0.02)
    return stack(grid, rho, u, theta), stack(grid, i0, i1)


def _batch(grid, states, eps, time=0.0):
    return eps_batch(grid, eps, [f for f, _ in states], [r for _, r in states], time)


def _error_squares(grid, fluid, rad, limit_fluid, s):
    """Squared H^s norms of one member's differences from the limit state,
    from their values: fluid (rho, u, theta) and radiation (I0, I1)
    against the limit closure of the limit temperature."""
    closure = stack(grid, *limit_pair(grid, limit_fluid[-1]))
    return sobolev_norm(grid, fluid - limit_fluid, s) ** 2, sobolev_norm(grid, rad - closure, s) ** 2


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
            s = step_eps(s, PARAMS, 0.01)
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
            coupling = {"rad": grid.forward(rad)[:, None], "eps": np.full((1,) * (n_dims + 1), 0.1)}
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
                         (s, step_eps(s, PARAMS, 0.01))):
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
    stable_dt = lambda b: cfl_dt(b, PARAMS, 1.0, 0.4, 0.4)
    dt_slow = stable_dt(_batch(grid, [slow], (0.1,)))
    dt_fast = stable_dt(_batch(grid, [fast], (0.05,)))
    assert dt_fast < dt_slow / 2
    batch = _batch(grid, [slow, fast, slow], (0.1, 0.05, 0.025))
    assert stable_dt(batch) == dt_fast

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


def test_limit_run_takes_the_sweeps_dt(tmp_path, monkeypatch):
    # One clock: the limit run is member 0 of the batch a study marches,
    # so it steps with the sweep's dt. At amp 1 the members' lower
    # density puts their diffusive bound below the limit run's own, which
    # alone would reach t_end in 18 steps where the members take 20.
    raw = {
        "mode": "convergence-study",
        "grid": {"n_dims": 1, "points": 64},
        "fluid": {"mu": 0.05, "lambda": 0.0, "kappa": 0.05},
        "dt_max": 1,
        "t_end": 0.4,
        "output_interval": 0.2,
        "perturbation_amp": 1,
        "out_dir": str(tmp_path),
    }
    cfg = parse_config(raw)
    stable_dt = lambda b: cfl_dt(b, cfg.params, cfg.dt_max, cfg.cfl_advective, cfg.cfl_diffusive)
    assert stable_dt(cfg.prepared) < stable_dt(cfg.limit_initial)
    steps = {"limit": 0, "members": 0}
    step = radhydro.stepping.step_eps

    def counting(b, p, dt):
        steps["limit" if b.eps == (0.0,) else "members"] += 1
        return step(b, p, dt)

    monkeypatch.setattr(radhydro.stepping, "step_eps", counting)
    run(cfg)
    assert steps == {"limit": 20, "members": 20}


@pytest.mark.parametrize("n_dims,n", [(1, 64), (2, 32)])
def test_batched_error_squares_match_error_fields(n_dims, n):
    grid = Grid(n_dims, n)
    rng = np.random.default_rng(34)
    members = [_state(grid, rng) for _ in range(3)]
    limit = limit_state(grid, _state(grid, rng)[0])
    batch = _batch(grid, members, (0.1, 0.05, 0.025))
    indices = (0, 3, 4)
    got = batch_error_squares(with_limit(limit, batch), indices)
    assert got.shape == (3, 2, 3)
    for e in range(len(members)):
        fluid, rad = member(batch, e)
        for i, s in enumerate(indices):
            want = _error_squares(grid, fluid, rad, limit.fluid[:, 0], s)
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


RETIRED = {
    "SpectralField", "VectorField", "grad", "div", "laplacian", "helmholtz_inverse", "dealias",
    "sobolev_norm", "limit_q", "emit_series", "KineticField", "StepControl", "p1_intensity",
    "CHUNK_CELLS", "_chunks", "_rows", "LimitState", "step_limit",
    "default_perturbation_shapes", "PositivityLost", "limit_spectrum",
}


def _top_level_names(tree):
    """Names a module binds at its top level: defs, classes, assignments
    and imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


@pytest.mark.parametrize("n_dims,n", [(1, 32), (2, 16)])
def test_solver_path_builds_no_field_objects(n_dims, n, tmp_path):
    # Every state is a stack of arrays: from prepared data to the error
    # norms, and in every mode of runner.run (on a 16-point grid, each
    # mode given the keys it reads: the closure check on 8 ordinates, the
    # eps modes with configured perturbation shapes). The package has no
    # per-field layer to build: no module of it imports the test helpers,
    # binds a retired name (of the per-field layer, of the closure
    # check's chunked array path, of the limit system's own state class,
    # stepper and closure from temperatures, or of the hand-written
    # default shapes and the prepared data's own positivity exception)
    # at top level or defines a class of that name anywhere, and
    # kinetic_rhs takes no as_moments keyword, since it only returns
    # moments.
    for path in sorted(Path(radhydro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] in ("conftest", "tests") for a in node.names), path
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] not in ("conftest", "tests"), path
            elif isinstance(node, ast.ClassDef):
                assert node.name not in RETIRED, (path, node.name)
        assert not RETIRED & set(_top_level_names(tree)), path
    assert "as_moments" not in inspect.signature(radhydro.kinetic.kinetic_rhs).parameters

    from radhydro.analysis import well_prepared_init

    grid = Grid(n_dims, n)
    base = limit_state(grid, _state(grid, np.random.default_rng(38))[0])
    shape = {"base": 0.0, "modes": [{"amplitude": 1.0, "wavenumber": [1] * n_dims, "kind": "sin"}]}
    raw = {
        "grid": {"n_dims": n_dims, "points": 16},
        "t_end": 0.05,
        "output_interval": 0.025,
        "eps_list": [0.1, 0.05, 0.025],
        "ordinates": 8,
        "perturbation_shapes": {"rho": shape},
    }
    configs = {
        mode: parse_config(
            {k: v for k, v in raw.items() if k in MODE_KEYS[mode]}
            | {"out_dir": str(tmp_path / mode)},
            mode=mode,
        )
        for mode in ("convergence-study", "simulate-eps", "simulate-limit", "closure-check")
    }

    shapes = parse_config({"mode": "simulate-limit", "grid": {"n_dims": n_dims, "points": n}}).shapes
    batch = well_prepared_init(base, SWEEP, 1.0, shapes)
    assert prepared_deviation(batch, 3).shape == (len(SWEEP),)
    dt = cfl_dt(batch, PARAMS, 0.01, 0.4, 0.4)
    assert dt == cfl_dt(base, PARAMS, 0.01, 0.4, 0.4)
    batch = step_batch(step_batch(batch, PARAMS, dt), PARAMS, dt)
    assert batch_error_squares(batch, (0, 3)).shape == (2, 2, len(SWEEP))
    for mode, config in configs.items():
        summary = run(config)
        assert summary.mode == mode
        assert os.path.isfile(os.path.join(config.out_dir, "summary.json"))
