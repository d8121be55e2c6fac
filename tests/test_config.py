"""Config loading: strict schema, defaults, profile construction."""

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import radhydro.cli
from radhydro.cli import main
from radhydro.config import (
    MODES,
    RunConfig,
    build_limit_initial,
    build_shapes,
    load_config,
    parse_config,
)
from radhydro.errors import ConfigError, ParseError, ValidationError
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
        assert state.fluid.shape == (3, 64) and state.time == 0.0
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
        state = build_limit_initial(cfg)
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
            build_limit_initial(cfg)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["rho", "theta"])
    def test_nonpositive_profile_exits_2(self, mode, name, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        monkeypatch.setattr(radhydro.cli, "run", lambda *a, **k: pytest.fail("run started"))
        path = _write(tmp_path, {"profiles": {name: {"base": 0.0}}})
        assert main([mode, "--config", str(path)]) == 2
        assert f"'profiles.{name}': initial values must be positive" in capsys.readouterr().err

    def test_overflowing_shape_exits_2(self, tmp_path, monkeypatch, capsys):
        # Each value fits a float, but their sum and the L^2 norm that
        # build_shapes divides by overflow.
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        monkeypatch.setattr(radhydro.cli, "run", lambda *a, **k: pytest.fail("run started"))
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
            path = _write(tmp_path, raw)
            assert main(["simulate-eps", "--config", str(path)]) == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n_dims", [1, 2])
    def test_overflowing_velocity_exits_2(self, n_dims, tmp_path, monkeypatch, capsys):
        # Each value fits a float, but the squared velocity magnitude the
        # advective CFL bound takes does not.
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        monkeypatch.setattr(radhydro.cli, "run", lambda *a, **k: pytest.fail("run started"))
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
            path = _write(tmp_path, raw)
            assert main(["simulate-limit", "--config", str(path)]) == 2
        assert "'profiles.u'" in capsys.readouterr().err

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
        ],
    )
    def test_overflowing_product_exits_2(self, profiles, field, tmp_path, monkeypatch, capsys):
        # Each value fits a float, but a product the right-hand side
        # forms does not; the run used to fail at its first step.
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        monkeypatch.setattr(radhydro.cli, "run", lambda *a, **k: pytest.fail("run started"))
        raw = {"profiles": profiles}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"'{field}'.*not finite"):
                parse_config(raw, mode="simulate-limit")
            path = _write(tmp_path, raw)
            assert main(["simulate-limit", "--config", str(path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_shape_with_one_huge_mode_is_accepted(self):
        # A single mode of amplitude 1e150 overflows nowhere: its norm
        # is finite, so it normalizes to unit norm.
        raw = {
            "grid": {"n_dims": 1, "points": 16},
            "perturbation_shapes": {
                "u": [{"base": 0.0, "modes": [{"amplitude": 1e150, "wavenumber": [1]}]}]
            },
        }
        shapes = build_shapes(parse_config(raw, mode="simulate-eps"))
        assert sobolev_norm(shapes.u, 0) == pytest.approx(1.0, rel=1e-12)

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

    def test_cfl_limited_step_count_exits_2(self, tmp_path, monkeypatch, capsys):
        # Should the check ever be lost, fail at once instead of starting
        # the 1.8e9-step run.
        monkeypatch.setattr(radhydro.cli, "run", lambda *a, **k: pytest.fail("run started"))
        path = _write(tmp_path, self.STIFF)
        assert main(["convergence-study", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "diffusive CFL bound" in err and "1.76e+09 time steps" in err

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


class TestNullMeansDefault:
    # JSON null for a numeric key is the same as leaving the key out.
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
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        seen = []

        def fake_run(config, out_dir=None):
            seen.append(config)
            raise _RunRequested

        monkeypatch.setattr(radhydro.cli, "run", fake_run)
        path = _write(tmp_path, {"output_interval": None})
        with pytest.raises(_RunRequested):
            main(["convergence-study", "--config", str(path)])
        assert seen[0].output_interval == 0.025 and seen[0].dt_max == 0.0025

    def test_null_for_a_required_number_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("RADHYDRO_OUT", raising=False)
        monkeypatch.setattr(radhydro.cli, "run", lambda *a, **k: pytest.fail("run started"))
        mode = {"amplitude": None, "wavenumber": [1], "kind": "sin"}
        path = _write(tmp_path, {"profiles": {"rho": {"base": 1.0, "modes": [mode]}}})
        assert main(["convergence-study", "--config", str(path)]) == 2
        assert "missing 'amplitude'" in capsys.readouterr().err


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
# come from the schema; values from null, booleans, strings, non-finite
# and extreme numbers, and nested lists and dicts.
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
    "perturbation_amp": st.floats(0.0, 2.0),
    "perturbation_shapes": _obj(rho=_PROFILE, u=st.lists(_PROFILE, max_size=2), I0=_PROFILE),
    "sobolev_indices": st.lists(_SCALARS, max_size=3),
    "out_dir": st.text(max_size=4),
    "ordinates": st.sampled_from([4, 6, 8]),
    "sigma_pairs": st.lists(st.lists(_SCALARS, max_size=3), max_size=2),
    "bounds": _obj(gamma_limit=_SCALARS, fluid_slope=st.lists(_SCALARS, max_size=3)),
}
_CONFIGS = st.fixed_dictionaries({}, optional={k: v | _ANY for k, v in _TOP_LEVEL.items()})


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=_CONFIGS, mode=st.sampled_from(MODES))
def test_random_configs_parse_or_exit_2(raw, mode, tmp_path_factory):
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
        mp.delenv("RADHYDRO_OUT", raising=False)
        mp.setattr(radhydro.cli, "run", refuse)
        try:
            code = main([mode, "--config", str(path)])
        except _RunRequested:
            assert accepted
        else:
            assert code == 2 and not accepted
