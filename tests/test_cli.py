"""The CLI in a fresh interpreter: exit codes that pass through
SystemExit, and peak memory (ru_maxrss) that must not grow with the
sample count or the ordinate count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radhydro

from conftest import CFL_STUDY

_ENV = {**os.environ, "PYTHONPATH": str(Path(radhydro.__file__).parents[1])}
# Runs the CLI's main and prints the process's peak RSS in KB.
_MAXRSS = (
    "import resource, sys; from radhydro.cli import main; code = main(sys.argv[1:]);"
    " print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)"
)


def _cli(tmp_path, code, mode, raw, *flags, program=("-m", "radhydro.cli")):
    """stdout of the CLI run on the config raw in a fresh interpreter; it
    must exit with code and print no Traceback on stderr."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = str(tmp_path / "out")
    argv = [sys.executable, *program, mode, "--config", str(path), "--out", out, *flags]
    done = subprocess.run(argv, env=_ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == code and "Traceback" not in done.stderr, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "code,mode,raw,flags",
    [
        # The study misses its gamma_over_eps2_max bound.
        (1, "convergence-study", CFL_STUDY, ()),
        (0, "convergence-study", CFL_STUDY, ("--no-strict",)),
        (2, "simulate-eps", {"eps_list": [1e-200, 1e-201, 1e-202]}, ()),
    ],
    ids=["strict-miss", "no-strict", "bad-config"],
)
def test_exit_code(tmp_path, code, mode, raw, flags):
    _cli(tmp_path, code, mode, raw, *flags)


def test_peak_rss_does_not_grow_with_the_sample_count(tmp_path):
    # One step per sample, 100 and 2000 samples on 2D/32.
    def peak(interval):
        raw = {"grid": {"n_dims": 2, "points": 32}, "t_end": 0.5, "output_interval": interval,
               "dt_max": interval}
        return int(_cli(tmp_path, 0, "simulate-limit", raw, program=("-c", _MAXRSS)))

    few, many = peak(0.005), peak(0.00025)
    assert many <= few * 11 // 10, (few, many)


def test_closure_check_peak_rss_does_not_grow_with_the_ordinates(tmp_path):
    # Every ordinate sum is taken on the (count, 1+n) basis of the P1
    # intensity, so no (count, *shape) array (16 MiB each on 2D/64 at 512
    # ordinates) is held. On a 2-core Xeon VM the peaks were about 0.3 MiB
    # apart, and about 33 MiB while the check held the intensity and its
    # transport term.
    def peak(ordinates):
        raw = {"grid": {"n_dims": 2, "points": 64}, "ordinates": ordinates}
        return int(_cli(tmp_path, 0, "closure-check", raw, program=("-c", _MAXRSS)))

    narrow, wide = peak(8), peak(512)
    assert wide - narrow <= 4096, (narrow, wide)
