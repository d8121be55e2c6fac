"""Config loading: strict schema, defaults, profile construction."""

import json
import re

import numpy as np
import pytest

import radhydro.cli
from radhydro.cli import main
from radhydro.config import MODES, build_limit_initial, build_shapes, load_config, parse_config
from radhydro.errors import ParseError, ValidationError
from radhydro.spectral import sobolev_norm


def _write(tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_minimal_convergence_study_fills_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, {"mode": "convergence-study"}))
        assert cfg.cfl_advective == 0.4
        assert cfg.cfl_diffusive == 0.4
        assert cfg.t_end == 0.5
        assert cfg.sobolev_indices == (0, 3)  # 1D default
        assert cfg.eps_list == (0.1, 0.05, 0.025, 0.0125)
        assert cfg.params.mu == 0.01
        assert cfg.echo["mode"] == "convergence-study"

    def test_2d_default_indices(self, tmp_path):
        cfg = load_config(
            _write(tmp_path, {"mode": "simulate-limit", "grid": {"n_dims": 2, "points": 32}})
        )
        assert cfg.sobolev_indices == (0, 4)
        assert cfg.acceptance_index == 4

    def test_eps_list_must_strictly_decrease(self, tmp_path):
        path = _write(
            tmp_path, {"mode": "convergence-study", "eps_list": [0.1, 0.1, 0.05]}
        )
        with pytest.raises(ValidationError, match="strictly decreasing"):
            load_config(path)

    def test_unknown_field_is_named(self, tmp_path):
        path = _write(tmp_path, {"mode": "simulate-eps", "wibble": 3})
        with pytest.raises(ValidationError, match="wibble"):
            load_config(path)

    def test_nested_unknown_field_is_named(self, tmp_path):
        path = _write(
            tmp_path, {"mode": "simulate-eps", "fluid": {"mu": 0.01, "xi": 1.0}}
        )
        with pytest.raises(ValidationError, match="xi"):
            load_config(path)

    def test_parse_error_carries_line_context(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": "simulate-eps",\n  broken\n}', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_config(path)

    def test_mode_subcommand_mismatch(self, tmp_path):
        path = _write(tmp_path, {"mode": "simulate-eps"})
        with pytest.raises(ValidationError, match="subcommand"):
            load_config(path, mode="simulate-limit")

    def test_mode_from_subcommand_when_absent(self, tmp_path):
        cfg = load_config(_write(tmp_path, {}), mode="simulate-limit")
        assert cfg.mode == "simulate-limit"

    def test_grid_validation_propagates(self, tmp_path):
        path = _write(tmp_path, {"mode": "simulate-eps", "grid": {"points": 48}})
        with pytest.raises(ValidationError, match="power of two"):
            load_config(path)

    def test_default_dt_cap_tracks_output_interval(self, tmp_path):
        cfg = load_config(_write(tmp_path, {"mode": "simulate-limit"}))
        assert cfg.dt_max == pytest.approx(cfg.output_interval / 10)
        explicit = load_config(
            _write(tmp_path, {"mode": "simulate-limit", "dt_max": 0.004})
        )
        assert explicit.dt_max == 0.004


class TestProfiles:
    def test_default_profiles_match_reference_setup(self):
        cfg = parse_config({"mode": "convergence-study"})
        state = build_limit_initial(cfg)
        x = cfg.grid.coordinates()[0]
        assert np.abs(state.fluid.rho.values - (1 + 0.1 * np.sin(x))).max() < 1e-14
        assert np.abs(state.fluid.u[0].values - 0.1 * np.sin(x)).max() < 1e-14
        assert np.abs(state.fluid.theta.values - (1 + 0.1 * np.cos(x))).max() < 1e-14

    def test_custom_profile_modes(self):
        cfg = parse_config(
            {
                "mode": "simulate-limit",
                "profiles": {
                    "theta": {
                        "base": 2.0,
                        "modes": [
                            {"amplitude": 0.5, "wavenumber": [2], "kind": "cos"}
                        ],
                    }
                },
            }
        )
        state = build_limit_initial(cfg)
        x = cfg.grid.coordinates()[0]
        assert np.abs(state.fluid.theta.values - (2 + 0.5 * np.cos(2 * x))).max() < 1e-14

    def test_nonpositive_profile_rejected(self):
        cfg = parse_config(
            {
                "mode": "simulate-limit",
                "profiles": {
                    "rho": {
                        "base": 1.0,
                        "modes": [{"amplitude": 2.0, "wavenumber": [1], "kind": "sin"}],
                    }
                },
            }
        )
        with pytest.raises(ValidationError, match="positive"):
            build_limit_initial(cfg)

    def test_shape_overrides_are_unit_normalized(self):
        cfg = parse_config(
            {
                "mode": "convergence-study",
                "perturbation_shapes": {
                    "rho": {
                        "base": 0.0,
                        "modes": [{"amplitude": 7.0, "wavenumber": [2], "kind": "sin"}],
                    }
                },
            }
        )
        shapes = build_shapes(cfg)
        assert sobolev_norm(shapes.rho, 0) == pytest.approx(1.0, rel=1e-12)


_NAN, _INF = float("nan"), float("inf")
_BAD_MODE = {"amplitude": _NAN, "wavenumber": [1], "kind": "sin"}


class TestNonFiniteNumbers:
    # Checked with parse_config only: a config that slipped through with
    # t_end = Infinity would never finish.
    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"t_end": _INF}, "t_end"),
            ({"t_end": _NAN}, "t_end"),
            ({"mode": "simulate-eps", "eps": _NAN}, "eps"),
            ({"dt_max": _NAN}, "dt_max"),
            ({"output_interval": _NAN}, "output_interval"),
            ({"eps_list": [_INF, 0.1, 0.05]}, "eps_list"),
            ({"mode": "closure-check", "sigma_pairs": [[1.0, _NAN]]}, "sigma_pairs"),
            ({"profiles": {"rho": {"base": _INF, "modes": []}}}, "profiles.rho.base"),
            (
                {"profiles": {"theta": {"base": 1.0, "modes": [_BAD_MODE]}}},
                "profiles.theta.modes[0].amplitude",
            ),
            ({"fluid": {"mu": _NAN}}, "fluid.mu"),
            ({"bounds": {"gamma_limit": _INF}}, "bounds.gamma_limit"),
            ({"bounds": {"fluid_slope": [0.9, _INF]}}, "bounds.fluid_slope"),
        ],
    )
    def test_rejected_and_named(self, overrides, field):
        payload = {"mode": "convergence-study", **overrides}
        with pytest.raises(ValidationError, match=re.escape(f"'{field}'")):
            parse_config(payload)

    def test_json_literals_rejected_by_load_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"mode": "simulate-limit", "t_end": Infinity}', encoding="utf-8")
        with pytest.raises(ValidationError, match="finite"):
            load_config(path)


class TestWorkBudget:
    def test_sample_count_rejected_and_named(self):
        with pytest.raises(ValidationError, match=r"output_interval.*5e\+299 output samples"):
            parse_config({"mode": "simulate-limit", "output_interval": 1e-300})

    def test_step_count_rejected_and_named(self):
        with pytest.raises(ValidationError, match=r"dt_max.*1e\+08 time steps"):
            parse_config({"mode": "simulate-limit", "t_end": 1.0, "dt_max": 1e-8})

    def test_large_but_bounded_run_accepted(self):
        cfg = parse_config({"mode": "simulate-limit", "t_end": 1.0, "output_interval": 2e-6})
        assert cfg.t_end / cfg.dt_max == pytest.approx(5e6)

    # fluid.kappa = 1e6 on a 2D/128 grid: the diffusive bound of cfl_dt on
    # the default profiles is 8.7e-10, about 5.8e8 steps to t_end = 0.5.
    STIFF = {
        "mode": "convergence-study",
        "grid": {"n_dims": 2, "points": 128},
        "fluid": {"kappa": 1e6},
    }

    def test_cfl_limited_step_count_rejected_and_named(self):
        message = r"'fluid'.*diffusive CFL bound dt = 8\.67e-10.*5\.76e\+08 time steps"
        with pytest.raises(ValidationError, match=message):
            parse_config(self.STIFF)

    def test_advective_step_count_rejected_and_named(self):
        fast = {"mode": "simulate-limit", "profiles": {"u": [{"base": 1e7, "modes": []}]}}
        with pytest.raises(ValidationError, match=r"'profiles'.*advective CFL bound.*time steps"):
            parse_config(fast)

    def test_cfl_limited_step_count_exits_2(self, tmp_path, monkeypatch, capsys):
        # Should the check ever be lost, fail at once instead of starting
        # the 5.8e8-step run.
        monkeypatch.setattr(radhydro.cli, "run", lambda *a, **k: pytest.fail("run started"))
        path = _write(tmp_path, self.STIFF)
        assert main(["convergence-study", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "diffusive CFL bound" in err and "5.76e+08 time steps" in err

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_dims,points", [(1, 8), (1, 128), (2, 8), (2, 128)])
    def test_default_configs_accepted(self, mode, n_dims, points):
        parse_config({"mode": mode, "grid": {"n_dims": n_dims, "points": points}})


def test_seed_key_is_rejected():
    # The key was reserved and changed nothing; it is no longer part of
    # the schema.
    with pytest.raises(ValidationError, match="unknown field 'seed'"):
        parse_config({"mode": "convergence-study", "seed": 0})
    assert "seed" not in parse_config({"mode": "convergence-study"}).echo
