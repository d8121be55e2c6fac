"""Seeded defects the suite must catch: of the limit system (eps = 0),
of the eps system's kernels and splitting, of the fluid kernel's
viscous heating and pressure work, of the one clock of the marched
batch, and of the kinetic tendency's transport and scattering terms.

Each case applies a mutation of one line (two for (i)) to a copy of the
package and runs one named test on it in a fresh interpreter; that test
must fail. The text each mutation replaces must occur exactly once, so
a change to those lines fails here instead of leaving the mutation
unapplied. On the unmutated package the named tests pass as part of
this suite.

Measured on the acceptance suite, mutations (a), (b), (c), (e) and (i)
also fail criteria: (a) 2, 4 and 5, (b) 9, (c) 1, 2, 4 and 5, (e) 1, 2,
4, 5 and 8, (i) 4 and 9. Criterion 5 sees (c) and (e) in its
right-hand-side check of the limit initial state. (d), (f), (g), (h),
(j) and (k) pass all ten; only their named tests catch them ((j) and
(k) also fail tests/test_fluid.py::TestStrain::test_1d_sin). (l) and
(m) fail criterion 7 alone, their named test: the closure check, which
transforms nothing, still sees a flipped transport sign and a dropped
scattering gain.
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
    # (a) The eps = 0 step closes on its input moments, not on the
    # closure of its closing theta^4 (the substep's fixed point): the
    # limit run's moments stay at the initial closure.
    "substep-keeps-moments": (
        "stepping.py",
        "        rad = limit_closure(grid, source)",
        "        rad = b.rad",
        "tests/test_stepping.py::TestStepLimit::test_closure_residual_enforced_throughout",
    ),
    # (b) The eps = 0 right-hand side takes the frozen closure of theta_n
    # instead of forming the flux of each stage's temperature.
    "frozen-limit-closure": (
        "stepping.py",
        "        members, coupling = None, None",
        "        members, coupling = None, b.rad",
        "tests/test_stepping.py::TestStepLimit::test_local_self_convergence_order",
    ),
    # (c) The limit heat symbol -|k|^2 (1 + |k|^2)^(-1) with its sign
    # flipped. Criterion 5 sees it in its right-hand-side check.
    "limit-heat-sign": (
        "fluid.py",
        "        -k_sq * grid.half_helmholtz * mask,",
        "        k_sq * grid.half_helmholtz * mask,",
        "tests/test_acceptance.py::test_criterion_05_limit_closure_identity",
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
    # t_n, then one substep from them with the closing theta^4 covers the
    # whole dt, so the eps members step at first order. The named test
    # sees it in the radiation error.
    "lie-splitting": (
        "stepping.py",
        "        propagator = _propagator(grid, eps, 0.5 * dt)\n"
        "        coupling = _substep(grid, b.rad, b.source, propagator)",
        "        propagator = _propagator(grid, eps, dt)\n"
        "        coupling = b.rad",
        "tests/test_runner.py::TestConvergenceStudy::test_time_error_is_small_against_the_model_error",
    ),
    # (j) The viscous heating coefficient 2 mu + lam of the squared
    # normal strain rates without its factor 2 on mu.
    "viscous-heating-coefficient": (
        "fluid.py",
        "    heating *= 2.0 * p.mu + p.lam",
        "    heating *= p.mu + p.lam",
        "tests/test_half_spectrum.py::TestRhsAgainstOperatorAssembly::test_limit_form[1-64]",
    ),
    # (k) The pressure work theta div u at half its size.
    "half-pressure-work": (
        "fluid.py",
        "    quotients[n] -= theta * div_u",
        "    quotients[n] -= 0.5 * theta * div_u",
        "tests/test_half_spectrum.py::TestRhsAgainstOperatorAssembly::test_limit_form[1-64]",
    ),
    # (l) The kinetic transport term omega . grad I with its sign flipped.
    "kinetic-transport-sign": (
        "kinetic.py",
        "    coefficients = rows @ np.column_stack([scattered, -t_basis, np.ones(ords.count)])",
        "    coefficients = rows @ np.column_stack([scattered, t_basis, np.ones(ords.count)])",
        "tests/test_acceptance.py::test_criterion_07_p1_closure_consistency",
    ),
    # (m) The kinetic scattering gain sigma_s |S| <<I>> dropped: only the
    # loss -sigma_s |S| I is left.
    "kinetic-scattering-gain": (
        "kinetic.py",
        "    scattered = damping * basis + (sigma_s * measure) * (rows[0] @ basis)",
        "    scattered = damping * basis",
        "tests/test_acceptance.py::test_criterion_07_p1_closure_consistency",
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
