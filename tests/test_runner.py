"""Run orchestration, emitters, CLI surface, determinism."""

import dataclasses
import filecmp
import io
import json
import math
import os
import tracemalloc
import warnings
from contextlib import ExitStack

import numpy as np
import pytest

import radhydro.analysis
import radhydro.cli
import radhydro.config
import radhydro.kinetic
import radhydro.runner
from radhydro.cli import main
from radhydro.analysis import well_prepared_init
from radhydro.config import BOUNDS, MODE_BOUNDS, MODES, parse_config, window
from radhydro.errors import BlowUp, TimeMismatch
from radhydro.fluid import limit_rhs_residual
from radhydro.runner import _open_series, _row, _sampled, _state_row, run
from radhydro.stepping import step_batch
from radhydro.spectral import Grid

from conftest import CFL_STUDY, prepared_deviation, sobolev_norm


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
        with ExitStack() as stack:
            _open_series(stack, path, ["time", "a", "b"])
        assert path.read_text(encoding="utf-8") == "time,a,b\n"

    def test_float_format_and_lf_endings(self, tmp_path):
        path = tmp_path / "rows.csv"
        with ExitStack() as stack:
            _open_series(stack, path, ["time", "v"]).write(_row([0.05, 1.0 / 3.0]))
        raw = path.read_bytes()
        assert b"\r" not in raw
        line = raw.decode().splitlines()[1]
        t, v = line.split(",")
        assert float(t) == 0.05
        assert float(v) == 1.0 / 3.0
        assert "e" in v  # 17-significant-digit scientific form


class TestEmitSummary:
    @pytest.mark.parametrize("mode", ["convergence-study", "closure-check"])
    def test_bytes_match_a_deep_copy_dumped_in_chunks(self, tmp_path, mode):
        # summary.json is one json.dumps of the fields by name: the same
        # bytes as a deep copy of the summary (dataclasses.asdict) without
        # wall_time_s, written chunk by chunk with json.dump.
        if mode == "convergence-study":
            cfg = _fast_study(out_dir=str(tmp_path))
        else:
            cfg = parse_config({"mode": mode, "grid": {"n_dims": 2, "points": 16}, "out_dir": str(tmp_path)})
        summary = run(cfg)
        reference = dataclasses.asdict(summary)
        del reference["wall_time_s"]
        buffer = io.StringIO()
        json.dump(reference, buffer, indent=2, sort_keys=True)
        buffer.write("\n")
        assert (tmp_path / "summary.json").read_bytes() == buffer.getvalue().encode("utf-8")
        assert summary.to_json_dict() == reference


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
        # python -O) and name the target, the time reached and the one
        # batch it marches: by its eps member, the sweep, or the limit run
        # when it marches no member.
        step = radhydro.runner.step_batch

        def overshoot(state, p, dt):
            return dataclasses.replace(step(state, p, dt), time=state.time + dt + 1.0)

        monkeypatch.setattr(radhydro.runner, "step_batch", overshoot)
        raw = {
            "grid": {"n_dims": 1, "points": 8},
            "t_end": 0.05,
            "output_interval": 0.05,
            "out_dir": str(tmp_path),
        }
        for mode, extra, name in [("simulate-eps", {"eps": 0.1}, r"eps = 0\.1"),
                                  ("simulate-limit", {}, "limit run"),
                                  ("convergence-study", {}, "eps sweep")]:
            message = name + r": stepping to t = 0\.05 reached t = 1\.00"
            with pytest.raises(TimeMismatch, match=message):
                run(parse_config({**raw, **extra, "mode": mode}))

    @pytest.mark.parametrize("shift", [0.0, -1.0], ids=["stalled", "backward"])
    def test_step_that_does_not_advance_raises_time_mismatch(self, tmp_path, monkeypatch, shift):
        # A stepper that leaves the time where it was, or moves it back,
        # would step toward the output time forever; the first such step
        # fails the run and names the batch, dt and both times.
        def stuck(state, p, dt):
            return dataclasses.replace(state, time=state.time + shift * dt)

        monkeypatch.setattr(radhydro.runner, "step_batch", stuck)
        raw = {"grid": {"n_dims": 1, "points": 8}, "t_end": 0.05, "output_interval": 0.05,
               "out_dir": str(tmp_path)}
        for mode, extra, name in [("simulate-eps", {"eps": 0.1}, r"eps = 0\.1"),
                                  ("simulate-limit", {}, "limit run"),
                                  ("convergence-study", {}, "eps sweep")]:
            message = name + r": a step of dt = \S+ from t = 0\.0 reached t = "
            with pytest.raises(TimeMismatch, match=message):
                run(parse_config({**raw, **extra, "mode": mode}))

    @pytest.mark.parametrize("t_end,interval", [(1e-10, 1e-12), (1e-13, 1e-13)])
    def test_tiny_output_interval_is_stepped(self, t_end, interval, tmp_path, monkeypatch):
        # Output times are landed relative to the interval: every sample
        # but t = 0 follows at least one step into its interval, and the
        # last one is t_end.
        step_times = []

        def recording(state, p, dt):
            out = step_batch(state, p, dt)
            step_times.append(out.time)
            return out

        # simulate-limit steps the limit run alone, the batch eps = 0.
        monkeypatch.setattr(radhydro.runner, "step_batch", recording)
        raw = {"t_end": t_end, "output_interval": interval, "out_dir": str(tmp_path)}
        run(parse_config({"mode": "simulate-limit", **raw}))
        data = np.genfromtxt(tmp_path / "limit_series.csv", delimiter=",", skip_header=1, ndmin=2)
        times = data[:, 0]
        assert len(times) == round(t_end / interval) + 1 and times[-1] == t_end
        for start, end in zip(times, times[1:]):
            assert any(start < t <= end * (1 + 1e-9) for t in step_times)
        assert not any(np.array_equal(a[1:], b[1:]) for a, b in zip(data, data[1:]))


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

    @pytest.mark.parametrize(
        "sweep, values, want",
        [
            ((0.1, 0.05, 0.025), (1.0, 1.5, 3.0), 2.0),
            ((0.1, 0.01, 1e-3), (1.0, 10.0, 100.0), 2.0),
            ((0.1, 0.1 * (1.0 - 1e-15)), (1.0, 2.0), math.inf),
        ],
        ids=["halvings", "decades", "near-equal-eps"],
    )
    def test_halving_ratio_is_per_halving(self, sweep, values, want):
        # On a sweep of halvings the ratio is its own; a ratio of 10 over
        # a decade is 10^(1/log2 10) = 2 per halving; a ratio of 2 between
        # eps values 1e-15 apart is beyond float range per halving.
        assert radhydro.runner._halving_ratio(sweep, values) == pytest.approx(want, rel=1e-14)

    def test_sweep_numpy_cannot_fit_fails_its_slope(self, tmp_path):
        # Strictly decreasing, but the log(eps) values agree to a few ulps:
        # np.polyfit warned RankWarning four times and the study passed a
        # fluid_slope of 1.11 at R^2 = 1.
        sweep = [0.1, 0.09999999999999999, 0.09999999999999998]
        cfg = _fast_study(grid={"n_dims": 1, "points": 16}, t_end=0.05, output_interval=0.025,
                          eps_list=sweep)
        summary = run(cfg, out_dir=str(tmp_path))
        assert all(set(fit) == {"error"} for fit in summary.rate_fits.values())
        bound = next(b for b in summary.bounds_report if b["name"] == "fluid_slope")
        assert bound["value"] is None and not bound["passed"] and summary.exit_status == 1

    def test_summary_excludes_wall_time(self, tmp_path):
        cfg = _fast_study()
        summary = run(cfg, out_dir=str(tmp_path))
        assert summary.wall_time_s > 0
        written = json.loads((tmp_path / "summary.json").read_text())
        assert "wall_time_s" not in written

    def test_energy_columns_are_the_formula_of_the_row(self, tmp_path):
        # fluid_energy, full_energy and gamma of every error row are
        # sqrt(f), sqrt(f + eps r) and f + eps r of the squares f, r of
        # the same row's norms at the acceptance index (the row holds the
        # norms, so the squares agree with the run's to roundoff).
        cfg = _fast_study(grid={"n_dims": 1, "points": 16}, perturbation_amp=0.5)
        run(cfg, out_dir=str(tmp_path))
        s = cfg.acceptance_index
        for eps in cfg.eps_list:
            data = np.genfromtxt(tmp_path / f"errors_eps_{eps:g}.csv", delimiter=",", names=True)
            fluid_sq, rad_sq = data[f"fluid_err_h{s}"] ** 2, data[f"rad_err_h{s}"] ** 2
            gamma = fluid_sq + eps * rad_sq
            assert (data["fluid_energy"] == data[f"fluid_err_h{s}"]).all()
            np.testing.assert_allclose(data["gamma"], gamma, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(data["full_energy"], np.sqrt(gamma), rtol=1e-14, atol=0.0)
            assert (data["gamma"] > 0.0).all()

    def test_hypothesis_is_the_t0_functional(self, tmp_path):
        # summary.hypothesis.per_eps is (||fluid diff||_s + sqrt(eps)
        # ||radiation diff||_s) / eps at t = 0, the first error row:
        # %.16e round-trips the norms, so the values agree exactly.
        cfg = _fast_study(grid={"n_dims": 1, "points": 16}, perturbation_amp=0.5)
        summary = run(cfg, out_dir=str(tmp_path))
        s = cfg.acceptance_index
        for eps in cfg.eps_list:
            data = np.genfromtxt(tmp_path / f"errors_eps_{eps:g}.csv", delimiter=",", names=True)
            first = data[0]
            assert first["time"] == 0.0
            expected = (first[f"fluid_err_h{s}"] + np.sqrt(eps) * first[f"rad_err_h{s}"]) / eps
            assert summary.hypothesis["per_eps"][f"{eps:g}"] == expected

    def test_prepared_data_is_built_once_per_config(self, tmp_path, monkeypatch):
        # The parse builds the prepared batch and checks it; the run
        # marches from that batch, so parse plus run prepare it once.
        calls = []
        prepare = radhydro.analysis.well_prepared_init

        def counted(*args, **kwargs):
            calls.append(args[1])
            return prepare(*args, **kwargs)

        for module in (radhydro, radhydro.analysis, radhydro.config, radhydro.runner):
            monkeypatch.setattr(module, "well_prepared_init", counted, raising=False)
        cfg = _fast_study(grid={"n_dims": 1, "points": 16})
        run(cfg, out_dir=str(tmp_path))
        run(cfg, out_dir=str(tmp_path))
        assert calls == [cfg.eps_list]

    def test_time_error_is_small_against_the_model_error(self, tmp_path):
        # The fitted rates measure model error, not dt error: halving the
        # default dt_max (2.5e-3) of the default 1D/64 study moves the
        # smallest member's H^0 sup errors by 0.19 % (fluid, 1.367888e-3
        # against 1.365244e-3) and 0.02 % (radiation), well inside 1 %.
        # The fluid error alone cannot see the splitting: with first-order
        # (Lie) splitting it is the same to 13 digits, while the
        # radiation error moves by 5 %.
        errors = []
        for dt_max in (2.5e-3, 1.25e-3):
            config = parse_config({"dt_max": dt_max}, mode="convergence-study")
            fits = run(config, out_dir=str(tmp_path / f"dt_{dt_max:g}")).rate_fits
            smallest = int(np.argmin(fits["fluid_s0"]["eps_values"]))
            errors.append([fits[name]["errors"][smallest] for name in ("fluid_s0", "radiation_s0")])
        coarse, fine = np.array(errors)
        assert (np.abs(coarse - fine) < 0.01 * fine).all(), (coarse, fine)

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
        sweep = _STREAM_SWEEP if mode == "convergence-study" else {}

        def peak(samples):
            cfg = parse_config(
                {
                    "mode": mode,
                    "grid": {"n_dims": 1, "points": 8},
                    "t_end": 0.5,
                    "output_interval": 0.5 / samples,
                    "dt_max": 0.5 / samples,
                    **sweep,
                }
            )
            tracemalloc.start()
            try:
                run(cfg, out_dir=str(tmp_path / str(samples)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        warm = {"grid": {"n_dims": 1, "points": 8}, "t_end": 0.1, "output_interval": 0.05}
        run(parse_config({**warm, **sweep}, mode=mode), out_dir=str(tmp_path / "warm"))
        os.makedirs(tmp_path / "probe")
        blksize = os.stat(tmp_path / "probe").st_blksize
        buffers = files * (max(blksize, io.DEFAULT_BUFFER_SIZE) + 8192 + 1024)
        few, many = peak(10), peak(100)
        assert many <= few + buffers, (few, many, buffers)

    def test_summary_matches_series_read_back(self, tmp_path):
        # %.16e round-trips doubles, so the summary's sup-in-time values
        # equal the maxima of the columns read back, exactly; the drifts
        # and the prepared-data report equal a reduction over every kept
        # state of the same runs. The closure bound is the larger of the
        # column's maximum and the right-hand-side check of the limit
        # initial state.
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
        init = well_prepared_init(cfg.limit_initial, cfg.eps_list, cfg.perturbation_amp, cfg.shapes)
        lhs = prepared_deviation(init, cfg.acceptance_index) / cfg.eps_list
        step = lambda b, dt: step_batch(b, params, dt)
        mass = lambda rho: rho.mean(axis=grid.axes) * grid.volume
        m = np.array([mass(b.fluid[0]) for b in _sampled(init, step, params, cfg, "sweep")])
        limit_drift, *drift = (np.abs(m - m[0]).max(axis=0) / np.abs(m[0])).tolist()
        tags = [f"{eps:g}" for eps in cfg.eps_list]
        assert summary.hypothesis["per_eps"] == dict(zip(tags, lhs.tolist()))
        assert summary.conservation == {"per_eps": dict(zip(tags, drift)), "limit_run": limit_drift}

        gammas = list(summary.gamma["per_eps"].values())
        base = cfg.limit_initial
        rhs_check = limit_rhs_residual(grid, base.fluid, base.spectrum, base.rad, params)
        values = {b["name"]: b["value"] for b in summary.bounds_report}
        assert values == {
            "fluid_slope": summary.rate_fits["fluid_s3"]["slope"],
            "fluid_r_squared": summary.rate_fits["fluid_s3"]["r_squared"],
            "radiation_slope": summary.rate_fits["radiation_s3"]["slope"],
            "gamma_over_eps2_max": max(gammas),
            "gamma_halving_ratio": summary.gamma["max_halving_ratio"],
            "hypothesis_spread": summary.hypothesis["spread"],
            "closure_residual": max(limit["closure_residual"].max(), rhs_check),
            "mass_drift": max(*drift, limit_drift),
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
        assert summary.closure["ordinates"] == 2  # the default grid is 1D
        for pair in summary.closure["moment_residuals"].values():
            assert pair["r0"] < 1e-10
            assert pair["r1"] < 1e-10

    @pytest.mark.parametrize("n_dims,used", [(1, 2), (2, 512)])
    def test_reports_the_ordinates_it_used(self, tmp_path, n_dims, used):
        # 1D always uses the two directions -1, +1: summary.json reports
        # them, and its config echo the count the config asked for.
        raw = {"grid": {"n_dims": n_dims, "points": 16}, "ordinates": 512, "out_dir": str(tmp_path)}
        run(parse_config(raw, mode="closure-check"))
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["closure"]["ordinates"] == used
        assert summary["config"]["ordinates"] == 512


    def test_nan_pair_residual_fails_the_bound(self, tmp_path, monkeypatch):
        # The worst pair residual must carry a NaN: max(0.0, nan) keeps
        # 0.0, which once reported a pass.
        cfg = parse_config({"mode": "closure-check", "ordinates": 8, "out_dir": str(tmp_path)})
        check = radhydro.runner.moment_system_check

        def nan_second_pair(*args):
            residual, pairs = check(*args)
            return residual, [pairs[0], (pairs[1][0], math.nan)]

        monkeypatch.setattr(radhydro.runner, "moment_system_check", nan_second_pair)
        summary = run(cfg)
        bound = next(b for b in summary.bounds_report if b["name"] == "moment_residual")
        assert math.isnan(bound["value"]) and not bound["passed"]
        assert summary.exit_status == 1


class TestMomentResidualBound:
    """The bound scales with kappa = max(1, (sigma_a + sigma_s |S|) /
    (eps (1 + |S|))), the size of the damping term the residuals are
    roundoff of, and each pair's tendency moments are squared at a
    power-of-two scale."""

    def _closure(self, tmp_path, sigma_pairs=None):
        payload = {"mode": "closure-check", "grid": {"n_dims": 2, "points": 16}, "ordinates": 8}
        if sigma_pairs is not None:
            payload["sigma_pairs"] = sigma_pairs
        return parse_config({**payload, "out_dir": str(tmp_path)})

    def test_large_sigma_passes(self, tmp_path):
        # At 1e6 the larger residual is about 6e-10, over the absolute
        # bound of 1e-10.
        summary = run(self._closure(tmp_path, [[1e5, 0.0]]))
        assert summary.exit_status == 0
        summary = run(self._closure(tmp_path, [[1e6, 0.0]]))
        assert summary.exit_status == 0
        (pair,) = summary.closure["moment_residuals"].values()
        assert max(pair.values()) > 1e-10

    @pytest.mark.parametrize("sigma_a", [1e300, 1e307])
    def test_huge_sigma_residuals_are_finite(self, tmp_path, sigma_a):
        # 1e300 overflowed the squares of the norms, 1e307 the forward
        # transform of the tendency's moments.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run(self._closure(tmp_path, [[sigma_a, 0.0]]))
        (pair,) = summary.closure["moment_residuals"].values()
        assert all(math.isfinite(r) for r in pair.values())
        assert summary.exit_status == 0

    @pytest.mark.parametrize("sigma_pairs", [None, [[1e5, 0.0]]], ids=["defaults", "sigma-1e5"])
    def test_tendency_off_by_1e_6_fails(self, tmp_path, monkeypatch, sigma_pairs):
        original = radhydro.kinetic.kinetic_rhs

        def scaled(*args, **kwargs):
            return original(*args, **kwargs) * (1.0 + 1e-6)

        monkeypatch.setattr(radhydro.kinetic, "kinetic_rhs", scaled)
        summary = run(self._closure(tmp_path, sigma_pairs))
        bound = next(b for b in summary.bounds_report if b["name"] == "moment_residual")
        assert not bound["passed"] and summary.exit_status == 1


class TestCli:
    def test_full_invocation_out_flag_overrides_out_dir(self, tmp_path):
        config = {
            "mode": "simulate-limit",
            "t_end": 0.05,
            "output_interval": 0.05,
            "out_dir": str(tmp_path / "config_out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        code = main(
            ["simulate-limit", "--config", str(cfg_path), "--out", str(tmp_path / "flag_out")]
        )
        assert code == 0
        assert (tmp_path / "flag_out" / "summary.json").exists()
        assert not (tmp_path / "config_out").exists()

    def test_bad_config_exits_2(self, exits):
        exits(2, "simulate-limit", {"mode": "simulate-limit", "junk": 1})

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
    def test_unreadable_config_exits_2(self, kind, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf-8":
            path.write_bytes(b'{"mode": "simulate-limit", "out_dir": "\xff"}')
        assert main(["simulate-limit", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("radhydro: ") and str(path) in err

    def test_out_under_a_regular_file_exits_3(self, tmp_path, exits):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        raw, out = {"t_end": 0.05, "output_interval": 0.05}, str(blocker / "out")
        assert "radhydro: run failed: " in exits(3, "simulate-limit", raw, "--out", out)

    def test_unbounded_sample_count_exits_2(self, exits):
        assert "output_interval" in exits(2, "convergence-study", {"output_interval": 1e-300})

    def test_threads_flag_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(radhydro.cli, "run", lambda *a, **k: pytest.fail("run started"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"mode": "simulate-limit"}', encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main(["simulate-limit", "--config", str(cfg_path), "--threads", "2"])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_strict_exit_reflects_bound_miss(self, exits):
        config = {
            "t_end": 0.05,
            "output_interval": 0.05,
            "bounds": {"closure_residual_max": 1e-30},  # unsatisfiable
        }
        exits(1, "simulate-limit", config)
        exits(0, "simulate-limit", config, "--no-strict")


_SHORT = {"t_end": 0.1, "output_interval": 0.05}
# A config per mode, and under other names configs that set their mode.
_MODE_CONFIGS = {
    "convergence-study": {"eps_list": [0.1, 0.05, 0.025], **_SHORT},
    "simulate-eps": {"perturbation_amp": 0.5, **_SHORT},
    "simulate-limit": _SHORT,
    "closure-check": {"ordinates": 8},
    "closure-check-2d16": {"mode": "closure-check", "grid": {"n_dims": 2, "points": 16}, "ordinates": 8},
    # The largest check a config admits: 128^2 grid cells x 4096 ordinates, the cap.
    "closure-check-cap": {"mode": "closure-check", "grid": {"n_dims": 2, "points": 128}, "ordinates": 4096},
    "convergence-study-cfl": CFL_STUDY,
}


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(_MODE_CONFIGS))
    def test_repeat_runs_are_byte_identical(self, tmp_path, name):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        cfg = parse_config({"mode": name, **_MODE_CONFIGS[name]})
        run(cfg, out_dir=str(dir_a))
        run(cfg, out_dir=str(dir_b))
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        for name in names:
            assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name


@pytest.mark.parametrize("mode", MODES)
def test_each_mode_reports_exactly_the_bounds_it_reads(tmp_path, mode):
    # One row per bound the mode reads, in BOUNDS order, in the window
    # the parse checks; the closure check adds its fixed quadrature row.
    cfg = parse_config({"mode": mode, **_MODE_CONFIGS[mode]})
    report = run(cfg, out_dir=str(tmp_path)).bounds_report
    keys = [key for key in BOUNDS if key in MODE_BOUNDS[mode]]
    names = [BOUNDS[key][1] for key in keys]
    assert [b["name"] for b in report] == names + ["quadrature_defect"] * (mode == "closure-check")
    assert [b["window"] for b in report[: len(keys)]] == [window(k, cfg.bounds[k]) for k in keys]
    if mode == "convergence-study":  # R^2 is at most 1
        assert (report[1]["name"], report[1]["window"]) == ("fluid_r_squared", [0.98, 1.0])


@pytest.mark.parametrize("n_dims,n", [(1, 8), (1, 64), (2, 8), (2, 32)])
@pytest.mark.parametrize("with_radiation", [False, True])
def test_state_row_matches_per_field_sobolev_norms(n_dims, n, with_radiation):
    grid = Grid(n_dims, n)
    rng = np.random.default_rng(5)
    groups = [1, n_dims, 1] + ([1, n_dims] if with_radiation else [])
    values = rng.standard_normal((sum(groups), *grid.shape))
    indices = (0, 2, 4)
    row = _state_row(grid, 0.25, grid.forward(values), indices)
    starts = np.cumsum([0] + groups[:-1])
    want = [0.25]
    for s in indices:
        for a, size in zip(starts, groups):
            want.append(sobolev_norm(grid, values[a : a + size], s))
    assert len(row) == len(want)
    assert row[0] == 0.25
    np.testing.assert_allclose(row[1:], want[1:], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "fluid",
    [{"mu": 0.5, "lambda": 0.5, "kappa": 0.5}, {"mu": 0.01, "lambda": 1.0, "kappa": 0.01}],
)
def test_viscous_configs_run_to_t_end(tmp_path, fluid):
    # Both need the 2 mu + lam coefficient and the RK4 stability interval
    # in the diffusive bound: under h^2 min(rho) / max(mu, kappa) the limit
    # run loses positivity (at t = 0.032 and at t = 0.045).
    config = {"grid": {"n_dims": 1, "points": 128}, "fluid": fluid, "t_end": 0.1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["convergence-study", "--config", str(cfg_path), "--out", str(out)]) == 0
    data = np.genfromtxt(out / "limit_series.csv", delimiter=",", names=True)
    assert data["time"][-1] == 0.1


def test_2d_data_on_both_axes_runs_to_t_end(tmp_path):
    # The products of modes [1, 1] and [0, 2] fill the 2D spectrum up to
    # the corner of the kept band, where |k|^2 = 2 floor(N/3)^2. At
    # cfl_diffusive 0.9 and with a dt cap that never binds, a diffusive
    # bound without the factor n_dims in K2 takes twice the stable step
    # there, and the limit run loses positivity at t = 0.237.
    mode = lambda amp, k, kind: {"amplitude": amp, "wavenumber": k, "kind": kind}
    both = lambda base, first, second: {
        "base": base,
        "modes": [mode(0.1, [1, 1], first), mode(0.1, [0, 2], second)],
    }
    config = {
        "grid": {"n_dims": 2, "points": 32},
        "fluid": {"mu": 0.5, "lambda": 0.5, "kappa": 0.5},
        "t_end": 0.5,
        "output_interval": 0.25,
        "dt_max": 0.25,
        "cfl_diffusive": 0.9,
        "profiles": {
            "rho": both(1.0, "sin", "cos"),
            "u": [both(0.0, "sin", "cos"), both(0.0, "cos", "sin")],
            "theta": both(1.0, "cos", "sin"),
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    # The strongly viscous study misses its gamma bounds; only the run
    # to t_end is checked here.
    assert main(["convergence-study", "--config", str(cfg_path), "--out", str(out), "--no-strict"]) == 0
    for name in ("limit_series.csv", *(f"errors_eps_{e}.csv" for e in ("0.1", "0.05", "0.025", "0.0125"))):
        data = np.genfromtxt(out / name, delimiter=",", names=True)
        assert data["time"][-1] == 0.5
        assert np.isfinite(data.view(float)).all()
