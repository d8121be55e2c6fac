"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
convergence sweep (criteria 1-4, 5, 8, 10) runs once per session; the
remaining criteria are direct checks on the relevant operations.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from radhydro.analysis import fit_rate, well_prepared_init
from radhydro.config import parse_config
from radhydro.fluid import FluidParams
from radhydro.kinetic import make_ordinates, moment_system_check, p1_basis
from radhydro.radiation import emission_spectrum
from radhydro.runner import run
from radhydro.spectral import Grid
from radhydro.stepping import step_eps

from conftest import (
    div, eps_batch, grad, helmholtz_inverse, l2_inner, laplacian, limit_pair, limit_state,
    prepared_deviation, smooth_field, smooth_vector, sobolev_norm, stack, substep,
)

# Reference configuration: 1D, 64 points, mu = lam = kappa = 0.01,
# rho = 1 + 0.1 sin x, u = 0.1 sin x, theta = 1 + 0.1 cos x, amp = 0,
# final time 0.5, eps sweep {0.1, 0.05, 0.025, 0.0125}, rates at s = 3.
REFERENCE_CONFIG = {
    "mode": "convergence-study",
    "grid": {"n_dims": 1, "points": 64},
    "fluid": {"mu": 0.01, "lambda": 0.01, "kappa": 0.01},
    "eps_list": [0.1, 0.05, 0.025, 0.0125],
    "t_end": 0.5,
    "perturbation_amp": 0.0,
    "profiles": {
        "rho": {"base": 1.0, "modes": [{"amplitude": 0.1, "wavenumber": [1], "kind": "sin"}]},
        "u": [{"base": 0.0, "modes": [{"amplitude": 0.1, "wavenumber": [1], "kind": "sin"}]}],
        "theta": {"base": 1.0, "modes": [{"amplitude": 0.1, "wavenumber": [1], "kind": "cos"}]},
    },
    "sobolev_indices": [0, 3],
}

PARAMS = FluidParams(mu=0.01, lam=0.01, kappa=0.01)


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict}: {label} ({detail})")


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("sweep")
    config = parse_config(dict(REFERENCE_CONFIG))
    started = time.perf_counter()
    summary = run(config, out_dir=str(out_dir))
    elapsed = time.perf_counter() - started
    return summary, out_dir, elapsed


def test_criterion_01_fluid_convergence_rate(sweep):
    summary, _, elapsed = sweep
    fit = summary.rate_fits["fluid_s3"]
    ok = 0.9 <= fit["slope"] <= 1.3 and fit["r_squared"] >= 0.98 and elapsed < 120.0
    _report(
        1,
        "fluid error rate at s=3",
        ok,
        f"slope={fit['slope']:.3f}, r2={fit['r_squared']:.4f}, wall={elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_radiation_convergence_rate(sweep):
    summary, _, _ = sweep
    fit = summary.rate_fits["radiation_s3"]
    ok = 0.45 <= fit["slope"] <= 1.3
    _report(2, "radiation error rate at s=3", ok, f"slope={fit['slope']:.3f}")
    assert ok


def test_criterion_03_well_prepared_hypothesis():
    config = parse_config(dict(REFERENCE_CONFIG))
    base = config.limit_initial
    details = []
    ok = True
    for amp in (0.0, 1.0):
        batch = well_prepared_init(base, config.eps_list, amp, config.shapes)
        ratios = list(prepared_deviation(batch, 3) / np.array(config.eps_list))
        if max(ratios) < 1e-12:
            spread = 1.0
        else:
            spread = max(ratios) / min(ratios)
        ok = ok and spread <= 1.5
        details.append(f"amp={amp:g}: spread={spread:.6f}")
    _report(3, "prepared-data deviation is O(eps)", ok, "; ".join(details))
    assert ok


def test_criterion_04_energy_bound(sweep):
    summary, _, _ = sweep
    per_eps = [summary.gamma["per_eps"][k] for k in ("0.1", "0.05", "0.025", "0.0125")]
    ratio = summary.gamma["max_halving_ratio"]
    ok = max(per_eps) <= 100.0 and ratio <= 2.0
    _report(
        4,
        "weighted energy stays O(eps^2)",
        ok,
        f"max gamma/eps^2={max(per_eps):.3f}, halving ratio={ratio:.3f}",
    )
    assert ok


def test_criterion_05_limit_closure_identity(sweep):
    # The column: the limit flux equation on the spectra the limit run
    # carries, at every output time. The summary value also takes the
    # limit right-hand side against the eps one at eps = 0 on the limit
    # closure of the initial state, whose heat sources share no code.
    summary, out_dir, _ = sweep
    data = np.genfromtxt(out_dir / "limit_series.csv", delimiter=",", names=True)
    worst = float(np.atleast_1d(data["closure_residual"]).max())
    (bound,) = [b["value"] for b in summary.bounds_report if b["name"] == "closure_residual"]
    ok = worst < 1e-10 and worst <= bound < 1e-10
    _report(
        5, "limit flux equation holds at every output time", ok,
        f"max residual={worst:.2e}, with the right-hand-side check={bound:.2e}",
    )
    assert ok


def test_criterion_06_radiative_relaxation_steady_state():
    grid = Grid(n_dims=1, points_per_dim=64)
    x = grid.coordinates()[0]
    theta = 1 + 0.1 * np.cos(x)
    eps = 0.05
    rad = stack(grid, 1.0, 0.0)
    steps = 40
    for _ in range(steps):
        rad = substep(grid, rad, theta, eps, 20 * eps / steps)
    deviation = sobolev_norm(grid, rad - stack(grid, *limit_pair(grid, theta)), 0)
    ok = deviation < 1e-8
    _report(6, "relaxation drives moments to the limit pair", ok, f"deviation={deviation:.2e}")
    assert ok


def test_criterion_07_p1_closure_consistency():
    rng = np.random.default_rng(42)
    worst = 0.0
    for n_dims, count in ((1, 4), (2, 4), (2, 8)):
        grid = Grid(n_dims=n_dims, points_per_dim=32)
        ords = make_ordinates(n_dims, count)
        i0 = 1.0 + smooth_field(grid, rng)
        i1 = smooth_vector(grid, rng)
        field = (p1_basis(ords), grid.forward(stack(grid, i0, i1)))
        source = emission_spectrum(grid, 1.0 + smooth_field(grid, rng, amp=0.05))
        _, pairs = moment_system_check(grid, ords, field, source, 1.0, ((1.0, 0.0), (1.0, 1.0)))
        worst = max(worst, *(r for pair in pairs for r in pair))
    ok = worst < 1e-10
    _report(7, "kinetic moments match the two-moment system", ok, f"max residual={worst:.2e}")
    assert ok


def test_criterion_08_conservation_and_fixed_points(sweep):
    summary, _, _ = sweep
    drifts = list(summary.conservation["per_eps"].values()) + [
        summary.conservation["limit_run"]
    ]
    mass_ok = max(drifts) < 1e-10

    grid = Grid(n_dims=1, points_per_dim=64)
    fluid = stack(grid, 1.0, 0.0, 1.0)
    eps_state = eps_batch(grid, (0.05,), [fluid], [stack(grid, 1.0, 0.0)])
    after_eps = step_eps(eps_state, PARAMS, 0.01)
    after_limit = step_eps(limit_state(grid, fluid), PARAMS, 0.01)
    rad = grid.inverse(after_eps.rad)
    eq_dev = max(
        np.abs(after_eps.fluid[0] - 1).max(),
        np.abs(after_eps.fluid[1]).max(),
        np.abs(after_eps.fluid[2] - 1).max(),
        np.abs(rad[0] - 1).max(),
        np.abs(rad[1]).max(),
        np.abs(after_limit.fluid[0] - 1).max(),
        np.abs(after_limit.fluid[2] - 1).max(),
    )
    eq_ok = eq_dev <= 1e-13
    ok = mass_ok and eq_ok
    _report(
        8,
        "mass conserved, equilibrium preserved",
        ok,
        f"max drift={max(drifts):.2e}, equilibrium deviation={eq_dev:.2e}",
    )
    assert ok


def test_criterion_09_operator_and_order_suite():
    rng = np.random.default_rng(7)
    op_worst = 0.0
    for n_dims in (1, 2):
        for n in (32, 64):
            grid = Grid(n_dims=n_dims, points_per_dim=n)
            f = smooth_field(grid, rng)
            v = smooth_vector(grid, rng)
            roundtrip = np.abs(grid.inverse(grid.forward(f)) - f).max() / max(np.abs(f).max(), 1e-30)
            adjoint = abs(l2_inner(grid, grad(grid, f), v) + l2_inner(grid, f, div(grid, v)))
            divgrad = np.abs(div(grid, grad(grid, f)) - laplacian(grid, f)).max()
            helmholtz = np.abs(helmholtz_inverse(grid, f - laplacian(grid, f)) - f).max()
            op_worst = max(op_worst, roundtrip, divgrad, helmholtz)
            op_ok_here = roundtrip < 1e-12 and adjoint < 1e-10 and divgrad < 1e-12 and helmholtz < 1e-12
            assert op_ok_here, (n_dims, n)

    grid = Grid(n_dims=1, points_per_dim=64)
    rho = 1.0 + smooth_field(grid, rng, amp=0.05)
    u = smooth_vector(grid, rng, amp=0.05)
    theta = 1.0 + smooth_field(grid, rng, amp=0.05)
    i0_limit, q_limit = limit_pair(grid, theta)
    i0 = i0_limit + smooth_field(grid, rng, amp=0.02)
    i1 = q_limit + smooth_vector(grid, rng, amp=0.02)
    fluid = stack(grid, rho, u, theta)
    eps_state = eps_batch(grid, (0.1,), [fluid], [stack(grid, i0, i1)])

    def state_gap(a, b):
        gap = a.fluid - b.fluid
        if a.eps != (0.0,):  # the limit system's moments follow from its theta
            gap = np.concatenate([gap, grid.inverse(a.rad - b.rad)])
        return sobolev_norm(grid, gap, 0)

    split_gaps = []
    split_dts = [1 / 64, 1 / 128, 1 / 256]
    for dt in split_dts:
        one_step = step_eps(eps_state, PARAMS, dt)
        two_steps = step_eps(step_eps(eps_state, PARAMS, dt / 2), PARAMS, dt / 2)
        split_gaps.append(state_gap(one_step, two_steps))
    split_order = fit_rate(list(zip(split_dts, split_gaps)))["slope"]

    limit_init = limit_state(grid, fluid)
    rk_gaps = []
    rk_dts = [1 / 16, 1 / 32, 1 / 64]
    for dt in rk_dts:
        one_step = step_eps(limit_init, PARAMS, dt)
        two_steps = step_eps(step_eps(limit_init, PARAMS, dt / 2), PARAMS, dt / 2)
        rk_gaps.append(state_gap(one_step, two_steps))
    rk_order = fit_rate(list(zip(rk_dts, rk_gaps)))["slope"]

    ok = split_order >= 2.7 and rk_order >= 3.7
    _report(
        9,
        "operator identities and stepper orders",
        ok,
        f"worst operator defect={op_worst:.2e}, split order={split_order:.2f}, rk4 order={rk_order:.2f}",
    )
    assert ok


def test_criterion_10_determinism(sweep, tmp_path):
    _, first_dir, _ = sweep
    repeat_dir = tmp_path / "repeat"
    config = parse_config(dict(REFERENCE_CONFIG))
    run(config, out_dir=str(repeat_dir))
    names = sorted(os.listdir(first_dir))
    identical = names == sorted(os.listdir(repeat_dir)) and all(
        filecmp.cmp(first_dir / n, repeat_dir / n, shallow=False) for n in names
    )
    _report(10, "repeat run is byte-identical", identical, f"{len(names)} files compared")
    assert identical
