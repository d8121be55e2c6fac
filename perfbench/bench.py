"""Paths, thread pinning, package import and the environment record."""

from __future__ import annotations

import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RESULTS = os.path.join(HERE, "results")

# BLAS and OpenMP pools would compete with the single solver thread on a
# small machine; numpy's FFT is single-threaded already.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """Set every thread-pool variable to 1; call before importing numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_radhydro():
    """Import radhydro from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "radhydro", "__init__.py")):
        sys.exit(f"perfbench: no radhydro package under {SRC}")
    sys.path.insert(0, SRC)
    import radhydro

    if os.path.dirname(os.path.dirname(os.path.abspath(radhydro.__file__))) != SRC:
        sys.exit(f"perfbench: radhydro imported from {radhydro.__file__}, not {SRC}")
    return radhydro


def workload_dir(name: str, tag: str) -> str:
    """Output directory of one workload's runs."""
    return os.path.join(OUT, f"{name}-{tag}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
