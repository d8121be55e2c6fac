"""Run orchestration, emitters, CLI surface, determinism."""

import dataclasses
import filecmp
import json
import os

import numpy as np
import pytest

import radhydro.cli
import radhydro.runner
from radhydro.cli import main
from radhydro.config import parse_config
from radhydro.errors import TimeMismatch
from radhydro.runner import _state_row, emit_series, run
from radhydro.spectral import Grid, SpectralField, VectorField, sobolev_norm


def _fast_study(**overrides):
    payload = {
        "mode": "convergence-study",
        "t_end": 0.1,
        "output_interval": 0.05,
        "eps_list": [0.1, 0.05, 0.025],
    }
    payload.update(overrides)
    return parse_config(payload)


class TestEmitSeries:
    def test_header_only_for_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_series(path, ["time", "a", "b"], [])
        assert path.read_text(encoding="utf-8") == "time,a,b\n"

    def test_float_format_and_lf_endings(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_series(path, ["time", "v"], [[0.05, 1.0 / 3.0]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        line = raw.decode().splitlines()[1]
        t, v = line.split(",")
        assert float(t) == 0.05
        assert float(v) == 1.0 / 3.0
        assert "e" in v  # 17-significant-digit scientific form


class TestSimulateModes:
    def test_equilibrium_eps_run_is_static(self, tmp_path):
        cfg = parse_config(
            {
                "mode": "simulate-eps",
                "eps": 0.1,
                "t_end": 0.1,
                "output_interval": 0.05,
                "profiles": {
                    "rho": {"base": 1.0, "modes": []},
                    "u": [{"base": 0.0, "modes": []}],
                    "theta": {"base": 1.0, "modes": []},
                },
                "out_dir": str(tmp_path),
            }
        )
        summary = run(cfg)
        assert summary.exit_status == 0
        data = np.genfromtxt(tmp_path / "eps_series.csv", delimiter=",", names=True)
        for name in data.dtype.names:
            if name == "time":
                continue
            col = np.atleast_1d(data[name])
            assert np.abs(col - col[0]).max() < 1e-12

    def test_limit_run_reports_closure_residual(self, tmp_path):
        cfg = parse_config(
            {
                "mode": "simulate-limit",
                "t_end": 0.1,
                "output_interval": 0.05,
                "out_dir": str(tmp_path),
            }
        )
        summary = run(cfg)
        assert summary.exit_status == 0
        data = np.genfromtxt(tmp_path / "limit_series.csv", delimiter=",", names=True)
        assert np.atleast_1d(data["closure_residual"]).max() < 1e-10
        assert (tmp_path / "summary.json").exists()


    def test_overshooting_stepper_raises_time_mismatch(self, tmp_path, monkeypatch):
        # A stepper that jumps one time unit past the step it was asked
        # for misses the output time; the run must fail loudly (also under
        # python -O) and name the eps value, the target and the time reached.
        step = radhydro.runner.step_eps

        def overshoot(state, p, dt):
            out = step(state, p, dt)
            return dataclasses.replace(out, time=state.time + dt + 1.0)

        monkeypatch.setattr(radhydro.runner, "step_eps", overshoot)
        cfg = parse_config(
            {
                "mode": "simulate-eps",
                "eps": 0.1,
                "grid": {"n_dims": 1, "points": 8},
                "t_end": 0.05,
                "output_interval": 0.05,
                "out_dir": str(tmp_path),
            }
        )
        message = r"eps = 0\.1: stepping to t = 0\.05 reached t = 1\.00"
        with pytest.raises(TimeMismatch, match=message):
            run(cfg)


class TestConvergenceStudy:
    def test_emits_one_rate_fit_block_per_family(self, tmp_path):
        cfg = _fast_study()
        summary = run(cfg, out_dir=str(tmp_path))
        expected = {"fluid_s0", "radiation_s0", "fluid_s3", "radiation_s3"}
        assert set(summary.rate_fits) == expected
        written = json.loads((tmp_path / "summary.json").read_text())
        assert set(written["rate_fits"]) == expected
        for eps in ("0.1", "0.05", "0.025"):
            assert (tmp_path / f"errors_eps_{eps}.csv").exists()

    def test_summary_excludes_wall_time(self, tmp_path):
        cfg = _fast_study()
        summary = run(cfg, out_dir=str(tmp_path))
        assert summary.wall_time_s > 0
        written = json.loads((tmp_path / "summary.json").read_text())
        assert "wall_time_s" not in written

    def test_threaded_sweep_matches_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        threaded_dir = tmp_path / "threaded"
        cfg = _fast_study()
        run(cfg, out_dir=str(serial_dir))
        run(cfg, out_dir=str(threaded_dir), threads=3)
        for name in os.listdir(serial_dir):
            assert filecmp.cmp(serial_dir / name, threaded_dir / name, shallow=False), name


class TestClosureCheckMode:
    def test_residuals_reported_and_small(self, tmp_path):
        cfg = parse_config(
            {"mode": "closure-check", "ordinates": 8, "out_dir": str(tmp_path)}
        )
        summary = run(cfg)
        assert summary.exit_status == 0
        assert summary.closure["ordinates"] == 8
        for pair in summary.closure["moment_residuals"].values():
            assert pair["r0"] < 1e-10
            assert pair["r1"] < 1e-10


class TestCli:
    def test_full_invocation_and_env_override(self, tmp_path, monkeypatch, capsys):
        config = {
            "mode": "simulate-limit",
            "t_end": 0.05,
            "output_interval": 0.05,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("RADHYDRO_OUT", str(env_dir))
        code = main(
            ["simulate-limit", "--config", str(cfg_path), "--out", str(tmp_path / "flag_out")]
        )
        assert code == 0
        assert (env_dir / "summary.json").exists()
        assert not (tmp_path / "flag_out").exists()

    def test_bad_config_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"mode": "simulate-limit", "junk": 1}', encoding="utf-8")
        assert main(["simulate-limit", "--config", str(cfg_path)]) == 2

    def test_unbounded_sample_count_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"output_interval": 1e-300}', encoding="utf-8")
        assert main(["convergence-study", "--config", str(cfg_path)]) == 2
        assert "output_interval" in capsys.readouterr().err

    def test_threads_flag_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        monkeypatch.setattr(radhydro.cli, "run", lambda *a, **k: pytest.fail("run started"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"mode": "simulate-limit"}', encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main(["simulate-limit", "--config", str(cfg_path), "--threads", "2"])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_strict_exit_reflects_bound_miss(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        config = {
            "mode": "simulate-limit",
            "t_end": 0.05,
            "output_interval": 0.05,
            "bounds": {"closure_residual_max": 1e-30},  # unsatisfiable
            "out_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate-limit", "--config", str(cfg_path)]) == 1
        assert main(["simulate-limit", "--config", str(cfg_path), "--no-strict"]) == 0


_SHORT = {"t_end": 0.1, "output_interval": 0.05}
_MODE_CONFIGS = {
    "convergence-study": {"eps_list": [0.1, 0.05, 0.025], **_SHORT},
    "simulate-eps": {"perturbation_amp": 0.5, **_SHORT},
    "simulate-limit": _SHORT,
    "closure-check": {"ordinates": 8},
}


class TestDeterminism:
    @pytest.mark.parametrize("mode", sorted(_MODE_CONFIGS))
    def test_repeat_runs_are_byte_identical(self, tmp_path, mode):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        cfg = parse_config({"mode": mode, **_MODE_CONFIGS[mode]})
        run(cfg, out_dir=str(dir_a))
        run(cfg, out_dir=str(dir_b))
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        for name in names:
            assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name


@pytest.mark.parametrize("n_dims,n", [(1, 8), (1, 64), (2, 8), (2, 32)])
@pytest.mark.parametrize("with_radiation", [False, True])
def test_state_row_matches_per_field_sobolev_norms(n_dims, n, with_radiation):
    grid = Grid(n_dims, n)
    rng = np.random.default_rng(5)
    groups = [1, n_dims, 1] + ([1, n_dims] if with_radiation else [])
    values = rng.standard_normal((sum(groups), *grid.shape))
    indices = (0, 2, 4)
    row = _state_row(grid, 0.25, values, indices)
    fields = [SpectralField.from_values(grid, v) for v in values]
    starts = np.cumsum([0] + groups[:-1])
    want = [0.25]
    for s in indices:
        for a, size in zip(starts, groups):
            x = fields[a] if size == 1 else VectorField(fields[a : a + size])
            want.append(sobolev_norm(x, s))
    assert len(row) == len(want)
    assert row[0] == 0.25
    np.testing.assert_allclose(row[1:], want[1:], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "fluid",
    [{"mu": 0.5, "lambda": 0.5, "kappa": 0.5}, {"mu": 0.01, "lambda": 1.0, "kappa": 0.01}],
)
def test_viscous_configs_run_to_t_end(tmp_path, monkeypatch, fluid):
    # Both need the 2 mu + lam coefficient and the RK4 stability interval
    # in the diffusive bound: under h^2 min(rho) / max(mu, kappa) the limit
    # run loses positivity (at t = 0.032 and at t = 0.045).
    monkeypatch.delenv("RADHYDRO_OUT", raising=False)
    config = {"grid": {"n_dims": 1, "points": 128}, "fluid": fluid, "t_end": 0.1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["convergence-study", "--config", str(cfg_path), "--out", str(out)]) == 0
    data = np.genfromtxt(out / "limit_series.csv", delimiter=",", names=True)
    assert data["time"][-1] == 0.1
