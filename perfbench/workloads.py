"""Benchmark workloads and the seed-to-config generator.

Every workload runs the default physics on the README default profiles.
The seed only translates the initial profiles by a whole number of grid
cells. On a periodic grid that leaves every acceptance value (slopes,
R^2, gamma/eps^2, residuals, drift) unchanged up to roundoff, so one
reference serves every seed, while the arrays the solver starts from
differ from seed to seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = {
    # The paper's headline computation at the size the spectral-core
    # rewrite targets: one limit run and four stiff runs through the
    # exact radiation substep. A batched sweep or faster substep shows here.
    "sweep-2d64": {
        "mode": "convergence-study",
        "grid": {"n_dims": 2, "points": 64},
        "t_end": 0.1,
    },
    # Largest supported grid, no radiation moments, no sweep, 5 samples:
    # transforms and memory traffic dominate. Run by name only: it is not
    # in BENCHMARK.json, so that the three workloads there get longer runs
    # within the benchmark's total time.
    "limit-2d128": {
        "mode": "simulate-limit",
        "grid": {"n_dims": 2, "points": 128},
        "t_end": 0.1,
    },
    # The default study's 1000 steps with every step an output sample:
    # small arrays, so per-call overhead and per-sample work weigh most.
    "dense-1d64": {
        "mode": "convergence-study",
        "grid": {"n_dims": 1, "points": 64},
        "output_interval": 0.0025,
        "dt_max": 0.0025,
    },
    # The only workload that exercises the kinetic layer.
    "closure-2d128": {
        "mode": "closure-check",
        "grid": {"n_dims": 2, "points": 128},
        "ordinates": 512,
    },
}


def _shifted_mode(amplitude: float, wavenumber: list[int], kind: str, phase: float):
    """a*sin(k.x - phase) or a*cos(k.x - phase) as sin and cos modes."""
    c, s = math.cos(phase), math.sin(phase)
    if kind == "sin":
        pairs = ((amplitude * c, "sin"), (-amplitude * s, "cos"))
    else:
        pairs = ((amplitude * c, "cos"), (amplitude * s, "sin"))
    return [{"amplitude": a, "wavenumber": list(wavenumber), "kind": k} for a, k in pairs]


def _shifted_profile(spec: dict, shift: list[float]) -> dict:
    modes = []
    for m in spec["modes"]:
        phase = sum(k * x for k, x in zip(m["wavenumber"], shift))
        modes += _shifted_mode(m["amplitude"], m["wavenumber"], m["kind"], phase)
    return {"base": spec["base"], "modes": modes}


def default_profiles(n_dims: int) -> dict:
    """The README default profiles (the parser's defaults)."""
    k1 = [1] + [0] * (n_dims - 1)
    rho = {"base": 1.0, "modes": [{"amplitude": 0.1, "wavenumber": k1, "kind": "sin"}]}
    theta = {"base": 1.0, "modes": [{"amplitude": 0.1, "wavenumber": k1, "kind": "cos"}]}
    u0 = {"base": 0.0, "modes": [{"amplitude": 0.1, "wavenumber": k1, "kind": "sin"}]}
    rest = {"base": 0.0, "modes": []}
    return {"rho": rho, "u": [u0] + [rest] * (n_dims - 1), "theta": theta}


def make_config(name: str, seed: int | None, out_dir: str) -> dict:
    """Raw config of one workload, its profiles translated by the seed."""
    raw = dict(WORKLOADS[name])
    points = raw["grid"]["points"]
    shift = [2.0 * math.pi * c / points for c in shift_cells(name, seed)]
    base = default_profiles(raw["grid"]["n_dims"])
    raw["profiles"] = {
        "rho": _shifted_profile(base["rho"], shift),
        "u": [_shifted_profile(c, shift) for c in base["u"]],
        "theta": _shifted_profile(base["theta"], shift),
    }
    raw["out_dir"] = out_dir
    return raw


def shift_cells(name: str, seed: int | None) -> list[int]:
    """Grid cells the seed translates the profiles by, per axis.

    seed None gives no translation: the README defaults themselves.
    """
    grid = WORKLOADS[name]["grid"]
    if seed is None:
        return [0] * grid["n_dims"]
    rng = random.Random(seed)
    return [rng.randrange(grid["points"]) for _ in range(grid["n_dims"])]
