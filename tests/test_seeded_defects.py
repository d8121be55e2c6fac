"""Seeded defects the suite must catch: of the limit system (eps = 0),
of the eps system's kernels and splitting, and of the one clock of the
marched batch.

Each case applies a mutation of one line (two for (i)) to a copy of the
package and runs one named test on it in a fresh interpreter; that test
must fail. The text each mutation replaces must occur exactly once, so
a change to those lines fails here instead of leaving the mutation
unapplied. On the unmutated package the named tests pass as part of
this suite.

Measured on the acceptance suite, mutations (a), (b), (c), (e) and (i)
also fail criteria: (a) 2, 4 and 5, (b) 9, (c) 1, 2 and 4, (e) 1, 2, 4
and 8, (i) 4 and 9. (d), (f), (g) and (h) pass all ten; only their
named tests catch them.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import radhydro

ROOT = Path(__file__).resolve().parent.parent

MUTATIONS = {
    # (a) The eps = 0 substep returns its input moments, not the closure
    # of its source: the limit run's moments stay at the initial closure.
    "substep-keeps-moments": (
        "stepping.py",
        "        return np.concatenate([i0[None], -grid.half_ik[:, None] * i0])",
        "        return coeffs",
        "tests/test_stepping.py::TestStepLimit::test_closure_residual_enforced_throughout",
    ),
    # (b) The eps = 0 right-hand side takes the frozen closure of theta_n
    # instead of forming the flux of each stage's temperature.
    "frozen-limit-closure": (
        "stepping.py",
        "        members, propagator, rad_half, coupling = None, None, b.rad, None",
        "        members, propagator, rad_half, coupling = None, None, b.rad, b.rad",
        "tests/test_stepping.py::TestStepLimit::test_local_self_convergence_order",
    ),
    # (c) The limit heat symbol -|k|^2 (1 + |k|^2)^(-1) with its sign flipped.
    "limit-heat-sign": (
        "fluid.py",
        "        -k_sq * grid.half_helmholtz * mask,",
        "        k_sq * grid.half_helmholtz * mask,",
        "tests/test_linear_oracle.py::TestDispersion::test_step_limit[1d]",
    ),
    # (d) The substep's rotation at half its rate |k|/eps.
    "half-rotation-rate": (
        "stepping.py",
        "    phase = grid.half_k_abs * tau",
        "    phase = grid.half_k_abs * tau * 0.5",
        "tests/test_kernel_oracle.py::test_substep_matches_oracle[1-64]",
    ),
    # (e) The eps heat source I0 - theta^4 with the sign of I0 flipped.
    "eps-heat-sign": (
        "fluid.py",
        "        heat += rad[0]",
        "        heat -= rad[0]",
        "tests/test_fluid.py::TestFluidRhsEps::test_equilibrium_is_stationary",
    ),
    # (f) The 2/3 rule dropped from the product spectra.
    "no-dealias-mask": (
        "fluid.py",
        "    mask = grid.half_dealias_mask.astype(complex)",
        "    mask = np.ones(grid.half_shape, dtype=complex)",
        "tests/test_half_spectrum.py::TestRhsAgainstOperatorAssembly::test_eps_form[1-64]",
    ),
    # (g) The radiation push eps I1 on the momentum with its sign flipped.
    "radiation-push-sign": (
        "fluid.py",
        "        momentum += rad[1:] * eps",
        "        momentum -= rad[1:] * eps",
        "tests/test_fluid.py::TestFluidRhsEps::test_constant_radiation_push",
    ),
    # (h) Two clocks: the marched batch steps with the stable dt of its
    # limit member alone, not the smallest of all its members.
    "limit-member-clock": (
        "runner.py",
        "                state, params, config.dt_max,",
        "                state._chunk(slice(1)), params, config.dt_max,",
        "tests/test_lockstep.py::test_limit_run_takes_the_sweeps_dt",
    ),
    # (i) Lie splitting: the fluid's RK4 step takes the frozen moments of
    # t_n, then one substep covers the whole dt, so the eps members step
    # at first order. The named test sees it in the radiation error.
    "lie-splitting": (
        "stepping.py",
        "        propagator = _propagator(grid, eps, 0.5 * dt)\n"
        "        rad_half = coupling = _substep(grid, b.rad, source, propagator)",
        "        propagator = _propagator(grid, eps, dt)\n"
        "        rad_half = coupling = b.rad",
        "tests/test_runner.py::TestConvergenceStudy::test_time_error_is_small_against_the_model_error",
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_is_caught(name, tmp_path):
    module, old, new, test = MUTATIONS[name]
    package = tmp_path / "src" / "radhydro"
    shutil.copytree(Path(radhydro.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = package / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, (module, old)
    path.write_text(text.replace(old, new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    # Exit code 1: the test ran and failed (2 and up would be a
    # collection or usage error, 5 no test collected).
    assert done.returncode == 1, done.stdout[-2000:] + done.stderr[-2000:]
