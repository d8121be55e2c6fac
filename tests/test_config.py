"""Config loading: strict schema, defaults, profile construction."""

import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import radhydro.cli
from radhydro.cli import main
from radhydro.config import (
    DEFAULT_BOUNDS,
    MODE_BOUNDS,
    MODE_KEYS,
    MODES,
    RunConfig,
    load_config,
    parse_config,
)
from radhydro.errors import ConfigError, ParseError, ValidationError

from conftest import limit_spectrum, sobolev_norm


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

    @pytest.mark.parametrize("field,value", [("cfl_advective", 1.5), ("cfl_diffusive", 0), ("dt_max", 0)])
    def test_step_control_out_of_range_exits_2(self, field, value, exits):
        # Checked once, at parse: the runner hands these values to cfl_dt
        # as they are.
        assert f"field '{field}'" in exits(2, "simulate-limit", {field: value})

    def test_closure_check_eps_is_resolved(self):
        # The echo holds the default eps = 1 the check runs at, and parses
        # back to the same config.
        cfg = parse_config({"mode": "closure-check"})
        assert cfg.eps == 1.0 and cfg.echo["eps"] == 1.0
        assert parse_config(json.loads(json.dumps(cfg.echo))) == cfg
        assert parse_config({"mode": "closure-check", "eps": 0.5}).eps == 0.5


class TestProfiles:
    def test_default_profiles_match_reference_setup(self):
        cfg = parse_config({"mode": "convergence-study"})
        state = cfg.limit_initial
        x = cfg.grid.coordinates()[0]
        # The limit system: the one-member batch eps = 0, its moments the
        # limit closure of its temperature.
        assert state.eps == (0.0,) and state.fluid.shape == (3, 1, 64) and state.time == 0.0
        assert (state.rad[:, 0] == limit_spectrum(cfg.grid, state.fluid[-1, 0])).all()
        assert np.abs(state.fluid[0] - (1 + 0.1 * np.sin(x))).max() < 1e-14
        assert np.abs(state.fluid[1] - 0.1 * np.sin(x)).max() < 1e-14
        assert np.abs(state.fluid[2] - (1 + 0.1 * np.cos(x))).max() < 1e-14

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
        state = cfg.limit_initial
        x = cfg.grid.coordinates()[0]
        assert np.abs(state.fluid[-1] - (2 + 0.5 * np.cos(2 * x))).max() < 1e-14

    def test_nonpositive_profile_rejected(self):
        bad = {
            "rho": {
                "base": 1.0,
                "modes": [{"amplitude": 2.0, "wavenumber": [1], "kind": "sin"}],
            }
        }
        with pytest.raises(ValidationError, match=r"'profiles.rho'.*positive"):
            parse_config({"mode": "simulate-limit", "profiles": bad})
        # Library callers that build a config by hand keep the guard.
        cfg = parse_config({"mode": "simulate-limit"})
        cfg = dataclasses.replace(cfg, profiles={**cfg.profiles, **bad})
        with pytest.raises(ValidationError, match="positive"):
            cfg.limit_initial

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["rho", "theta"])
    def test_nonpositive_profile_exits_2(self, mode, name, exits):
        err = exits(2, mode, {"profiles": {name: {"base": 0.0}}})
        assert f"'profiles.{name}': initial values must be positive" in err

    def test_overflowing_shape_exits_2(self, exits):
        # Each value fits a float, but their sum and the L^2 norm that
        # RunConfig.shapes divides by overflow.
        huge = [
            {"amplitude": 1e308, "wavenumber": [1], "kind": kind} for kind in ("sin", "cos")
        ]
        raw = {
            "grid": {"n_dims": 1, "points": 16},
            "perturbation_amp": 1.0,
            "perturbation_shapes": {"rho": {"base": 0.0, "modes": huge}},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"'perturbation_shapes.rho'.*not finite"):
                parse_config(raw, mode="simulate-eps")
        assert "not finite" in exits(2, "simulate-eps", raw)

    @pytest.mark.parametrize("n_dims", [1, 2])
    def test_overflowing_velocity_exits_2(self, n_dims, exits):
        # Each value fits a float, but the squared velocity magnitude the
        # advective CFL bound takes does not.
        k = lambda j: [j] + [0] * (n_dims - 1)
        huge = [
            {"amplitude": 1e308, "wavenumber": k(j), "kind": "sin"} for j in (1, 2)
        ]
        rest = [{"base": 0.0, "modes": []}] * (n_dims - 1)
        raw = {
            "grid": {"n_dims": n_dims, "points": 16},
            "profiles": {"u": [{"base": 0, "modes": huge}, *rest]},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"'profiles.u'.*not finite"):
                parse_config(raw, mode="simulate-limit")
        assert "'profiles.u'" in exits(2, "simulate-limit", raw)

    @pytest.mark.parametrize(
        "profiles,field",
        [
            # rho*theta overflows where theta exceeds 1 (the default
            # theta profile is 1 + 0.1 cos x).
            ({"rho": {"base": 1.7e308}}, "profiles.rho"),
            # rho*u overflows where theta is below 1.
            ({"rho": {"base": 1e300}, "theta": {"base": 0.5},
              "u": [{"base": 1e10}]}, "profiles.rho"),
            ({"theta": {"base": 1e80}}, "profiles.theta"),
            # rho*theta stays finite with theta = 1, but the mass sum, the
            # transforms and the diffusive bound's cfl * R * min(rho) do not.
            ({"rho": {"base": 1.7e308}, "theta": {"base": 1.0}}, "profiles.rho"),
            # Only the squares that the norm rows sum overflow.
            ({"rho": {"base": 1e200}}, "profiles.rho"),
        ],
    )
    def test_overflowing_product_exits_2(self, profiles, field, exits):
        # Each value fits a float, but a product the right-hand side
        # forms, or a sum over the grid, does not; the run used to fail
        # at its first step.
        raw = {"profiles": profiles}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"'{field}'.*not finite"):
                parse_config(raw, mode="simulate-limit")
        assert f"'{field}'" in exits(2, "simulate-limit", raw)

    def test_shape_with_one_huge_mode_is_accepted(self):
        # A single mode of amplitude 1e150 overflows nowhere: its norm
        # is finite, so it normalizes to unit norm.
        raw = {
            "grid": {"n_dims": 1, "points": 16},
            "perturbation_shapes": {
                "u": [{"base": 0.0, "modes": [{"amplitude": 1e150, "wavenumber": [1]}]}]
            },
        }
        cfg = parse_config(raw, mode="simulate-eps")
        assert sobolev_norm(cfg.grid, cfg.shapes[1], 0) == pytest.approx(1.0, rel=1e-12)

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
        shapes = cfg.shapes
        assert shapes.shape == (5, *cfg.grid.shape)
        assert sobolev_norm(cfg.grid, shapes[0], 0) == pytest.approx(1.0, rel=1e-12)
        # Shapes left out are zero, and stay zero.
        assert not shapes[1:].any()


class TestParseTimeEvaluation:
    # parse_config evaluates what the run starts from once, with the run's
    # own builders and kernels; a failing row names its config field.
    @pytest.mark.parametrize("mode", ["convergence-study", "simulate-eps"])
    def test_destructive_perturbation_amp_exits_2(self, mode, exits):
        # The prepared data of the first eps (0.1) loses positivity: this
        # config used to pass the parse and fail its run with exit 3.
        err = exits(2, mode, {"perturbation_amp": 100})
        assert re.search(r"'perturbation_amp': 100 .* min rho = -4\.74 at eps = 0\.1\b", err)

    @pytest.mark.parametrize(
        "mode,key,raw",
        [
            ("simulate-eps", "eps", {"eps": 1e-200}),
            ("convergence-study", "eps_list", {"eps_list": [0.1, 1e-100, 1e-200]}),
        ],
    )
    def test_eps_whose_square_underflows_exits_2(self, mode, key, raw, exits):
        # eps^2 is 0.0: these runs marched to t_end, wrote every CSV and
        # then died dividing gamma by eps^2 (ZeroDivisionError, exit 1).
        raw = {"grid": {"n_dims": 1, "points": 16}, "t_end": 0.05, "output_interval": 0.025, **raw}
        err = exits(2, mode, raw)
        bound = "1.4916681462400413e-154 = 2^-511, the smallest eps whose square is a normal float"
        assert f"field '{key}': 1e-200 is below {bound}" in err
        # The floor itself is accepted, the float below it is not.
        parse_config({**raw, key: 2.0**-511 if key == "eps" else [0.1, 0.01, 2.0**-511]}, mode)
        with pytest.raises(ValidationError, match=f"'{key}'"):
            low = math.nextafter(2.0**-511, 0.0)
            parse_config({**raw, key: low if key == "eps" else [0.1, 0.01, low]}, mode)

    def test_closure_check_takes_any_positive_eps(self, exits):
        # The closure check marches nothing, so the floor does not apply.
        exits(0, "closure-check", {"grid": {"n_dims": 2, "points": 16}, "eps": 1e-200})

    def test_closure_check_takes_any_rho_and_u(self, exits):
        # The check samples theta and its limit closure only, so rho and u
        # whose norms and right-hand side overflow do not stop it; it used
        # to fail on the H^s norms of rho, which it never takes.
        huge = {"rho": {"base": 1e200}, "u": [{"base": 1e200}, {"base": 0.0}]}
        exits(0, "closure-check", {"grid": {"n_dims": 2, "points": 16}, "profiles": huge})

    @pytest.mark.parametrize("mode", ["convergence-study", "simulate-eps"])
    def test_overflowing_error_rows_exit_2(self, mode):
        # Only u deviates, so the prepared data stays positive, but the
        # squares its t = 0 error rows sum overflow.
        u = [{"base": 0.0, "modes": [{"amplitude": 1.0, "wavenumber": [1]}]}]
        raw = {"mode": mode, "perturbation_amp": 1e300, "perturbation_shapes": {"u": u}}
        with pytest.raises(ValidationError, match=r"'perturbation_amp'.*fluid error norms at eps = 0\.1 are not finite"):
            parse_config(raw)
        # The same deviation of moderate size is accepted.
        parse_config({**raw, "perturbation_amp": 1e3})

    @pytest.mark.parametrize(
        "mode,raw,field",
        [
            ("simulate-eps", {"eps": 1e308}, "eps"),
            ("convergence-study", {"eps_list": [1e308, 1e307, 1e306]}, "eps_list"),
        ],
    )
    def test_overflowing_eps_right_hand_side_exits_2(self, mode, raw, field, exits):
        # The momentum source eps * I1 of the largest eps overflows; only
        # the eps right-hand side forms it.
        err = exits(2, mode, raw)
        assert f"'{field}': the right-hand side at eps = 1e+308 is not finite in its u row" in err

    def test_overflowing_emission_exits_2_in_the_closure_check(self, exits):
        # theta^4 overflows; the closure check samples its intensity from
        # the limit closure of theta, so it must not start either.
        err = exits(2, "closure-check", {"profiles": {"theta": {"base": 1e80}}})
        assert "'profiles.theta'" in err and "not finite" in err

    @pytest.mark.parametrize("mode", MODES)
    def test_overflowing_shape_exits_2_in_every_mode(self, mode):
        # The eps modes build the shapes with their prepared data; the
        # other modes do not read them.
        huge = [{"amplitude": 1e308, "wavenumber": [1], "kind": k} for k in ("sin", "cos")]
        raw = {"mode": mode, "perturbation_shapes": {"I1": [{"base": 0.0, "modes": huge}]}}
        message = r"'perturbation_shapes.I1\[0\]'.*not finite"
        if "perturbation_shapes" not in MODE_KEYS[mode]:
            message = rf"'perturbation_shapes': {mode} does not read it"
        with pytest.raises(ValidationError, match=message):
            parse_config(raw)

    @pytest.mark.parametrize("mode", MODES)
    def test_profile_below_the_positivity_floor_exits_2(self, mode, exits):
        # Positive, but below the floor 1e-6 that the solver checks at its
        # first stage: the solver modes used to exit 3.
        err = exits(2, mode, {"profiles": {"rho": {"base": 1e-7}}})
        assert "'profiles.rho': initial values must be positive, min is 1e-07" in err

    def test_wavenumber_of_the_wrong_length_is_named(self):
        mode = {"amplitude": 0.1, "wavenumber": [1, 0], "kind": "sin"}
        raw = {"mode": "simulate-limit", "profiles": {"rho": {"base": 1.0, "modes": [mode]}}}
        with pytest.raises(ValidationError, match=re.escape("'profiles.rho.modes[0].wavenumber'")):
            parse_config(raw)

    @pytest.mark.parametrize("indices", [[True, 3], [True, 1], [0, False]])
    def test_boolean_sobolev_index_exits_2(self, indices, exits):
        # [true, 3] used to write a rho_hTrue column; [true, 1] collapsed to (True,).
        assert "'sobolev_indices'" in exits(2, "simulate-limit", {"sobolev_indices": indices})

    @pytest.mark.parametrize("indices", [[7], [-1], [0, 3, 7]])
    def test_sobolev_index_out_of_range_exits_2(self, indices, exits):
        err = exits(2, "simulate-limit", {"sobolev_indices": indices})
        assert "'sobolev_indices': expected a nonempty list of integers in [0, 6]" in err

    def test_initial_data_is_built_once_per_config(self):
        # The parse builds it; the run reuses it. A config made by
        # dataclasses.replace builds its own.
        cfg = parse_config({"mode": "convergence-study"})
        assert cfg.limit_initial is cfg.limit_initial
        assert cfg.shapes is cfg.shapes
        assert not cfg.shapes.flags.writeable
        assert not cfg.limit_initial.rad.flags.writeable
        hot = dataclasses.replace(cfg, profiles={**cfg.profiles, "theta": {"base": 2.0, "modes": []}})
        assert (hot.limit_initial.fluid[-1] == 2.0).all()
        assert (cfg.limit_initial.fluid[-1] != 2.0).any()

    @pytest.mark.parametrize("mode", ["convergence-study", "simulate-eps"])
    def test_prepared_data_is_built_once_per_config(self, mode):
        # The batch the parse checks is the one the run marches from: one
        # object, read-only; a config made by dataclasses.replace builds
        # its own.
        cfg = parse_config({"mode": mode})
        init = cfg.prepared
        assert init is cfg.prepared
        assert init.eps == (0.0, *(cfg.eps_list or (cfg.eps,)))
        assert not any(a.flags.writeable for a in (init.fluid, init.spectrum, init.rad))
        moved = dataclasses.replace(cfg, perturbation_amp=0.5)
        assert moved.prepared is not init
        assert (moved.prepared.fluid != init.fluid).any()

    @pytest.mark.parametrize("mode", ["simulate-limit", "closure-check"])
    def test_no_prepared_data_without_eps_members(self, mode):
        # simulate-limit marches the limit initial state alone; the
        # closure check marches nothing.
        cfg = parse_config({"mode": mode})
        assert cfg.prepared is (cfg.limit_initial if mode == "simulate-limit" else None)

    @pytest.mark.parametrize("pair", [[1e308, 1e308], [0.0, 1.0], [1.0, -1.0]])
    def test_sigma_pair_the_closure_check_cannot_take_exits_2(self, pair, exits):
        # [1e308, 1e308] overflows the kinetic tendency: the check used to
        # pass on NaN residuals. The other two break the kernel's own
        # conditions sigma_a > 0, sigma_s >= 0: the run used to end in a
        # ValueError from kinetic_rhs (exit 1).
        raw = {"grid": {"n_dims": 2, "points": 16}, "ordinates": 8, "sigma_pairs": [[1.0, 0.0], pair]}
        assert "'sigma_pairs[1]'" in exits(2, "closure-check", raw)

    def test_large_finite_sigma_is_accepted(self):
        # The overflow bound does not reject a large sigma whose tendency
        # stays finite.
        raw = {"grid": {"n_dims": 1, "points": 8}, "ordinates": 4, "sigma_pairs": [[1e300, 0.0]]}
        assert parse_config({"mode": "closure-check", **raw}).sigma_pairs == ((1e300, 0.0),)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_dims", [1, 2])
    def test_echo_parses_back_to_the_config(self, mode, n_dims):
        u = [{"base": 0.0, "modes": [{"amplitude": 0.5, "wavenumber": [1] * n_dims}]}] * n_dims
        raw = {
            "mode": mode,
            "grid": {"n_dims": n_dims, "points": 16},
            "perturbation_shapes": {"I1": u},
            "sigma_pairs": [[2, 0.5]],
            "sobolev_indices": [2, 1],
        }
        cfg = parse_config({k: v for k, v in raw.items() if k in MODE_KEYS[mode]})
        assert parse_config(json.loads(json.dumps(cfg.echo))) == cfg


_NAN, _INF = float("nan"), float("inf")
_BAD_MODE = {"amplitude": _NAN, "wavenumber": [1], "kind": "sin"}


class TestNonFiniteNumbers:
    # Checked with the run stubbed out: a config that slipped through
    # with t_end = Infinity would never finish.
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
            # Bounds no run can pass, and output directories no run can write.
            ({"bounds": {"fluid_slope": [1.3, 0.9]}}, "bounds.fluid_slope"),
            ({"bounds": {"radiation_slope": [1.0, 0.5]}}, "bounds.radiation_slope"),
            ({"bounds": {"r_squared_min": 2.0}}, "bounds.r_squared_min"),
            ({"bounds": {"gamma_limit": -1}}, "bounds.gamma_limit"),
            ({"bounds": {"mass_drift_max": -1e-10}}, "bounds.mass_drift_max"),
            ({"mode": "simulate-limit", "out_dir": "a\u0000b"}, "out_dir"),
            ({"out_dir": ""}, "out_dir"),
            # 2^40 grid cells x ordinates, over the cap of 2^26.
            ({"mode": "closure-check", "grid": {"n_dims": 2, "points": 1024}, "ordinates": 2**20},
             "ordinates"),
        ],
    )
    def test_rejected_and_named(self, overrides, field, exits):
        payload = {"mode": "convergence-study", **overrides}
        assert f"field '{field}'" in exits(2, payload["mode"], payload)

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
    # the default profiles is 0.4 * 2.785 * 0.9 / (1e6 * 2 * 42^2) = 2.8e-10,
    # about 1.8e9 steps to t_end = 0.5.
    STIFF = {
        "mode": "convergence-study",
        "grid": {"n_dims": 2, "points": 128},
        "fluid": {"kappa": 1e6},
    }

    def test_cfl_limited_step_count_rejected_and_named(self):
        message = r"'fluid'.*diffusive CFL bound dt = 2\.84e-10.*1\.76e\+09 time steps"
        with pytest.raises(ValidationError, match=message):
            parse_config(self.STIFF)

    def test_advective_step_count_rejected_and_named(self):
        fast = {"mode": "simulate-limit", "profiles": {"u": [{"base": 1e7, "modes": []}]}}
        with pytest.raises(ValidationError, match=r"'profiles'.*advective CFL bound.*time steps"):
            parse_config(fast)

    def test_cfl_limited_step_count_exits_2(self, exits):
        # Should the check ever be lost, fail at once instead of starting
        # the 1.8e9-step run.
        err = exits(2, "convergence-study", self.STIFF)
        assert "diffusive CFL bound" in err and "1.76e+09 time steps" in err

    def test_closure_check_intensity_budget(self):
        # 2^20 ordinates on a 1024 x 1024 grid are 2^40 values, 2^14 times
        # the cap on the check's (count, k) matrices; the parse rejects the
        # config before it builds the ordinates or the initial state.
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"'ordinates'.*exceed the budget of 67108864"):
                parse_config(
                    {"mode": "closure-check", "grid": {"n_dims": 2, "points": 1024}, "ordinates": 2**20}
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        # The budget itself: 128^2 x 4096 = 2^26 is accepted, one more
        # ordinate pair is not.
        grid = {"n_dims": 2, "points": 128}
        parse_config({"mode": "closure-check", "grid": grid, "ordinates": 4096})
        with pytest.raises(ValidationError, match="'ordinates'"):
            parse_config({"mode": "closure-check", "grid": grid, "ordinates": 4098})
        # 1D always uses two directions, and the other modes do not read
        # ordinates.
        parse_config({"mode": "closure-check", "ordinates": 2**40})
        with pytest.raises(ValidationError, match="'ordinates': simulate-limit does not read it"):
            parse_config({"mode": "simulate-limit", "grid": grid, "ordinates": 2**20})

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_dims,points", [(1, 8), (1, 128), (2, 8), (2, 128)])
    def test_default_configs_accepted(self, mode, n_dims, points):
        parse_config({"mode": mode, "grid": {"n_dims": n_dims, "points": points}})


# A value each top-level key but mode accepts in every mode that reads it.
_VALID = {
    "grid": {"n_dims": 1, "points": 16}, "profiles": {"rho": {"base": 2.0}},
    "out_dir": "out", "bounds": {}, "fluid": {"mu": 0.02}, "t_end": 0.1,
    "output_interval": 0.05, "dt_max": 0.01, "cfl_advective": 0.5, "cfl_diffusive": 0.5,
    "sobolev_indices": [0, 2], "eps": 0.5, "eps_list": [0.1, 0.05, 0.025],
    "perturbation_amp": 0.5, "perturbation_shapes": {"rho": {"base": 1.0}}, "ordinates": 16,
    "sigma_pairs": [[1.0, 0.5]],
}
_KEYS = sorted(set().union(*MODE_KEYS.values()))
_FOREIGN_KEYS = [(mode, key) for mode in MODES for key in _KEYS if key not in MODE_KEYS[mode]]
_FOREIGN_BOUNDS = [
    (mode, key) for mode in MODES for key in DEFAULT_BOUNDS if key not in MODE_BOUNDS[mode]
]


class TestModeSchema:
    # Each mode reads its own keys (MODE_KEYS, and MODE_BOUNDS under
    # "bounds"); a key that only other modes read fails the parse.
    def test_settable_values_per_mode(self):
        assert set(_VALID) | {"mode"} == set(_KEYS) and len(_KEYS) == 18
        counts = {mode: len(MODE_KEYS[mode]) + len(MODE_BOUNDS[mode]) for mode in MODES}
        assert counts == {
            "simulate-eps": 17, "simulate-limit": 14, "convergence-study": 23, "closure-check": 9,
        }
        assert (len(_FOREIGN_KEYS), len(_FOREIGN_BOUNDS)) == (22, 23)

    @staticmethod
    def _readers(raw: dict) -> list:
        """The modes that accept raw."""
        readers = []
        for mode in MODES:
            try:
                parse_config(raw, mode=mode)
            except ValidationError:
                continue
            readers.append(mode)
        return readers

    @pytest.mark.parametrize(
        "mode,raw,field",
        [(mode, {key: _VALID[key]}, key) for mode, key in _FOREIGN_KEYS]
        + [(mode, {"bounds": {key: DEFAULT_BOUNDS[key]}}, f"bounds.{key}")
           for mode, key in _FOREIGN_BOUNDS],
    )
    def test_foreign_key_exits_2_naming_its_readers(self, mode, raw, field, exits):
        err = exits(2, mode, raw)
        pattern = rf"field '{re.escape(field)}': {mode} does not read it \(read by (.*)\)"
        found = re.search(pattern, err)
        assert found, err
        # The modes the message names are those that accept the key.
        assert found.group(1).split(", ") == self._readers(raw)

    @pytest.mark.parametrize("mode", MODES)
    def test_default_echo_holds_exactly_the_mode_keys(self, mode):
        cfg = parse_config({"mode": mode})
        echo = json.loads(json.dumps(cfg.echo))
        assert set(echo) == MODE_KEYS[mode]
        assert set(echo["bounds"]) == MODE_BOUNDS[mode]
        assert parse_config(echo) == cfg

    @pytest.mark.parametrize(
        "mode,raw,field",
        [
            # Keys the run ignored: the configs parsed and ran.
            ("simulate-eps", {"eps_list": [1e-200, 1e-201, 1e-202]}, "eps_list"),
            ("convergence-study", {"eps": 1e-200}, "eps"),
            # The check steps nothing; it used to fail naming profiles
            # (the advective CFL bound against t_end).
            ("closure-check", {"t_end": 1e6, "output_interval": 1e6}, "t_end"),
            ("closure-check", {"grid": {"n_dims": 2, "points": 16}, "t_end": 1e6}, "t_end"),
        ],
    )
    def test_ignored_key_exits_2(self, mode, raw, field, exits):
        assert f"field '{field}': {mode} does not read it" in exits(2, mode, raw)


def test_seed_key_is_rejected():
    # The key was reserved and changed nothing; it is no longer part of
    # the schema.
    with pytest.raises(ValidationError, match="unknown field 'seed'"):
        parse_config({"mode": "convergence-study", "seed": 0})
    assert "seed" not in parse_config({"mode": "convergence-study"}).echo


class TestNullMeansDefault:
    # JSON null for a numeric key is the same as leaving the key out, in
    # the mode the overrides name (convergence-study if none).
    @pytest.mark.parametrize(
        "overrides",
        [
            {"t_end": None},
            {"output_interval": None},
            {"dt_max": None},
            {"cfl_advective": None},
            {"cfl_diffusive": None},
            {"perturbation_amp": None},
            {"fluid": {"mu": None}},
            {"fluid": {"lambda": None}},
            {"fluid": {"kappa": None}},
            {"profiles": {"rho": {"base": None}}},
            {"profiles": {"theta": {"base": None, "modes": []}}},
            {"profiles": {"u": [{"base": None}]}},
            {"perturbation_shapes": {"I0": {"base": None}}},
            {"bounds": {"gamma_limit": None, "fluid_slope": None}},
            {"grid": {"points": None}},
            {"grid": {"n_dims": None, "points": 16}},
            {"mode": "closure-check", "ordinates": None},
            {"mode": "closure-check", "sigma_pairs": None},
        ],
    )
    def test_same_as_absent(self, overrides):
        # Same echo, or the same parse error: a null rho base is the
        # default base 0, which is not a positive density.
        def outcome(raw):
            try:
                return parse_config({"mode": "convergence-study", **raw}).echo
            except ValidationError as exc:
                return str(exc)

        assert outcome(overrides) == outcome(_drop_nulls(overrides))

    def test_cli_runs_a_config_with_null(self, tmp_path, monkeypatch):
        seen = []

        def fake_run(config, out_dir=None):
            seen.append(config)
            raise _RunRequested

        monkeypatch.setattr(radhydro.cli, "run", fake_run)
        path = _write(tmp_path, {"output_interval": None})
        with pytest.raises(_RunRequested):
            main(["convergence-study", "--config", str(path)])
        assert seen[0].output_interval == 0.025 and seen[0].dt_max == 0.0025

    def test_null_for_a_required_number_exits_2(self, exits):
        mode = {"amplitude": None, "wavenumber": [1], "kind": "sin"}
        err = exits(2, "convergence-study", {"profiles": {"rho": {"base": 1.0, "modes": [mode]}}})
        assert "missing 'amplitude'" in err


class _RunRequested(Exception):
    """Raised by a stubbed run: the config was accepted."""


def _drop_nulls(value):
    if isinstance(value, dict):
        return {k: _drop_nulls(v) for k, v in value.items() if v is not None}
    if isinstance(value, list):
        return [_drop_nulls(v) for v in value]
    return value


# Property test: any config either parses to a RunConfig or is rejected
# with a ConfigError (exit code 2), never with another exception. Keys
# come from the drawn mode's schema, and in about one config in twenty
# a key only other modes read; values from null, booleans, strings,
# non-finite and extreme numbers, and nested lists and dicts.
_EXTREMES = [
    float("nan"), float("inf"), -float("inf"), 0, -0.0, -1, 1, 2, 3, 8, 64, 0.5,
    1e308, -1e308, 5e-324, 1e-300, 2**31, 2**62, -(2**62), 10**400, -(10**400),
]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from(_EXTREMES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
)
_ANY = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["base", "modes", "mu", "n_dims", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _obj(**fields):
    return _ANY | st.fixed_dictionaries({}, optional={k: v | _ANY for k, v in fields.items()})


_MODE_SPEC = _obj(
    amplitude=st.floats(-1.0, 1.0),
    wavenumber=st.lists(st.integers(-3, 3) | _SCALARS, min_size=1, max_size=2),
    kind=st.sampled_from(["sin", "cos"]),
)
_PROFILE = _obj(base=st.floats(0.5, 2.0), modes=st.lists(_MODE_SPEC, max_size=2))
_PROFILES = _obj(rho=_PROFILE, u=st.lists(_PROFILE, max_size=3), theta=_PROFILE)
_TOP_LEVEL = {
    "mode": st.sampled_from(MODES),
    "grid": _obj(n_dims=st.sampled_from([1, 2]), points=st.sampled_from([8, 16])),
    "fluid": _obj(mu=st.floats(0.0, 1.0), kappa=st.floats(0.0, 1.0), **{"lambda": st.floats(-1.0, 1.0)}),
    "eps": st.floats(0.0, 1.0),
    "eps_list": st.lists(_SCALARS, max_size=4),
    "t_end": st.floats(0.0, 1.0),
    "output_interval": st.floats(0.0, 1.0),
    "dt_max": st.floats(0.0, 1.0),
    "cfl_advective": st.floats(0.0, 2.0),
    "cfl_diffusive": st.floats(0.0, 2.0),
    "profiles": _PROFILES,
    "perturbation_amp": st.floats(0.0, 2.0) | st.sampled_from([1e2, 1e300]),
    "perturbation_shapes": _obj(rho=_PROFILE, u=st.lists(_PROFILE, max_size=2), I0=_PROFILE),
    "sobolev_indices": st.lists(_SCALARS, max_size=3),
    "out_dir": st.text(max_size=4),
    "ordinates": st.sampled_from([4, 6, 8, 2**28]),
    "sigma_pairs": st.lists(st.lists(_SCALARS, max_size=3), max_size=2),
}
_BOUNDS = {
    key: st.lists(_SCALARS | st.floats(0.0, 2.0), max_size=3) if key.endswith("_slope")
    else _SCALARS | st.floats(0.0, 2.0)
    for key in DEFAULT_BOUNDS
}


@st.composite
def _mode_configs(draw):
    """(mode, raw): raw holds keys the mode reads, and in one draw of ten
    may hold a key that only other modes read."""
    mode = draw(st.sampled_from(MODES))
    bounds = _obj(**{key: _BOUNDS[key] for key in sorted(MODE_BOUNDS[mode])})
    strategies = _TOP_LEVEL | {"bounds": bounds}
    keys = sorted(MODE_KEYS[mode])
    if draw(st.integers(0, 9)) == 0:
        keys.append(draw(st.sampled_from([key for key in _KEYS if key not in MODE_KEYS[mode]])))
    raw = draw(st.fixed_dictionaries({}, optional={k: strategies[k] | _ANY for k in keys}))
    return mode, raw


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_mode_configs())
def test_random_configs_parse_or_exit_2(case, tmp_path_factory):
    mode, raw = case
    try:
        config = parse_config(raw, mode=mode)
    except ConfigError:
        accepted = False
    else:
        assert isinstance(config, RunConfig)
        accepted = True

    path = tmp_path_factory.getbasetemp() / "random.json"
    path.write_text(json.dumps(raw), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise _RunRequested

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radhydro.cli, "run", refuse)
        try:
            code = main([mode, "--config", str(path)])
        except _RunRequested:
            assert accepted
        else:
            assert code == 2 and not accepted
