"""Run orchestration, emitters, CLI surface, determinism."""

import dataclasses
import filecmp
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

import radhydro.cli
import radhydro.runner
from radhydro.cli import main
from radhydro.analysis import hypothesis_deviation, well_prepared_init
from radhydro.config import build_limit_initial, build_shapes, parse_config
from radhydro.errors import BlowUp, TimeMismatch
from radhydro.runner import _sampled, _state_row, emit_series, run
from radhydro.stepping import step_batch, step_limit
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
        step = radhydro.runner.step_batch

        def overshoot(state, p, dt):
            out = step(state, p, dt)
            return dataclasses.replace(out, time=state.time + dt + 1.0)

        monkeypatch.setattr(radhydro.runner, "step_batch", overshoot)
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


_STREAM_SWEEP = {"eps_list": [0.1, 0.05, 0.025]}
_STREAM_SERIES = {
    "convergence-study": [
        "limit_series.csv", "errors_eps_0.1.csv", "errors_eps_0.05.csv", "errors_eps_0.025.csv",
    ],
    "simulate-eps": ["eps_series.csv", "errors_series.csv"],
}


class TestStreaming:
    """The series are written as the samples pass; nothing is kept per
    sample."""

    @pytest.mark.parametrize("mode", sorted(_STREAM_SERIES))
    def test_failed_run_keeps_completed_rows(self, mode, tmp_path, monkeypatch, capsys):
        # A member that fails on its way to the third output sample: the
        # run exits 3, writes no summary, and every series holds its
        # header and the rows of the two completed samples, the same
        # bytes as the first rows of a run that does not fail.
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        config = {"grid": {"n_dims": 1, "points": 8}, "t_end": 0.2, "output_interval": 0.05}
        if mode == "convergence-study":
            config.update(_STREAM_SWEEP)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main([mode, "--config", str(cfg_path), "--out", str(tmp_path / "full")]) == 0

        step = radhydro.runner.step_batch

        def failing(b, p, dt):
            if b.time >= 0.05:
                raise BlowUp("injected failure", eps=b.eps[0], time=b.time, field="rho")
            return step(b, p, dt)

        monkeypatch.setattr(radhydro.runner, "step_batch", failing)
        out = tmp_path / "failed"
        assert main([mode, "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "injected failure" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == sorted(_STREAM_SERIES[mode])
        for name in _STREAM_SERIES[mode]:
            lines = (out / name).read_text(encoding="utf-8").splitlines(keepends=True)
            full = (tmp_path / "full" / name).read_text(encoding="utf-8").splitlines(keepends=True)
            assert len(full) == 6
            assert lines == full[:3], name
            assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.05]

    @pytest.mark.parametrize("mode,files", [("simulate-limit", 1), ("convergence-study", 4)])
    def test_peak_memory_does_not_grow_with_samples(self, mode, files, tmp_path):
        # Ten times the samples may add only what the open files buffer:
        # the binary buffer of each file and the text layer's pending
        # chunk (8192 characters) with one more row.
        def peak(samples):
            cfg = parse_config(
                {
                    "mode": mode,
                    "grid": {"n_dims": 1, "points": 8},
                    "t_end": 0.5,
                    "output_interval": 0.5 / samples,
                    "dt_max": 0.5 / samples,
                    **_STREAM_SWEEP,
                }
            )
            tracemalloc.start()
            try:
                run(cfg, out_dir=str(tmp_path / str(samples)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(_fast_study(mode=mode, grid={"n_dims": 1, "points": 8}), out_dir=str(tmp_path / "warm"))
        os.makedirs(tmp_path / "probe")
        blksize = os.stat(tmp_path / "probe").st_blksize
        buffers = files * (max(blksize, io.DEFAULT_BUFFER_SIZE) + 8192 + 1024)
        few, many = peak(10), peak(100)
        assert many <= few + buffers, (few, many, buffers)

    def test_summary_matches_series_read_back(self, tmp_path):
        # %.16e round-trips doubles, so the summary's sup-in-time values
        # equal the maxima of the columns read back, exactly; the drifts
        # and the prepared-data report equal a reduction over every kept
        # state of the same runs.
        cfg = _fast_study(
            grid={"n_dims": 1, "points": 16}, output_interval=0.02, perturbation_amp=0.5
        )
        summary = run(cfg, out_dir=str(tmp_path))
        read = lambda name: np.genfromtxt(tmp_path / name, delimiter=",", names=True)
        limit = read("limit_series.csv")
        errors = {eps: read(f"errors_eps_{eps:g}.csv") for eps in cfg.eps_list}
        assert len(limit) == 6

        for eps, data in errors.items():
            assert summary.gamma["per_eps"][f"{eps:g}"] == data["gamma"].max() / eps**2
        for key, fit in summary.rate_fits.items():
            family, s = key.split("_s")
            column = {"fluid": "fluid_err", "radiation": "rad_err"}[family] + f"_h{s}"
            assert fit["eps_values"] == list(cfg.eps_list)
            assert fit["errors"] == [errors[eps][column].max() for eps in cfg.eps_list], key

        params, grid = cfg.params, cfg.grid
        base = build_limit_initial(cfg)
        init = well_prepared_init(base, cfg.eps_list, cfg.perturbation_amp, build_shapes(cfg))
        lhs = hypothesis_deviation(init, base, cfg.acceptance_index) / cfg.eps_list
        limit_states = list(
            _sampled(base, lambda s, dt: step_limit(s, params, dt), params, cfg, "limit")
        )
        batches = _sampled(init, lambda b, dt: step_batch(b, params, dt), params, cfg, "sweep")
        mass = lambda rho: rho.mean(axis=grid.axes) * grid.volume
        limit_m = np.array([mass(s.fluid[0]) for s in limit_states])
        sweep_m = np.array([mass(b.fluid[0]) for b in batches])
        drift = lambda m: np.abs(m - m[0]).max(axis=0) / np.abs(m[0])
        tags = [f"{eps:g}" for eps in cfg.eps_list]
        assert summary.hypothesis["per_eps"] == dict(zip(tags, lhs.tolist()))
        assert summary.conservation == {
            "per_eps": dict(zip(tags, drift(sweep_m).tolist())),
            "limit_run": float(drift(limit_m)),
        }

        gammas = list(summary.gamma["per_eps"].values())
        values = {b["name"]: b["value"] for b in summary.bounds_report}
        assert values == {
            "fluid_slope": summary.rate_fits["fluid_s3"]["slope"],
            "fluid_r_squared": summary.rate_fits["fluid_s3"]["r_squared"],
            "radiation_slope": summary.rate_fits["radiation_s3"]["slope"],
            "gamma_over_eps2_max": max(gammas),
            "gamma_halving_ratio": summary.gamma["max_halving_ratio"],
            "hypothesis_spread": summary.hypothesis["spread"],
            "closure_residual": limit["closure_residual"].max(),
            "mass_drift": max(*drift(sweep_m).tolist(), float(drift(limit_m))),
        }
        # At amp 0.5 the default shapes put gamma / eps^2 near 316 from
        # t = 0, over the window of 100: that bound, and only it, misses.
        failed = [b["name"] for b in summary.bounds_report if not b["passed"]]
        assert failed == ["gamma_over_eps2_max"] and summary.exit_status == 1
        assert max(gammas) > cfg.bounds["gamma_limit"]


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
    row = _state_row(grid, 0.25, grid.forward(values), indices)
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
