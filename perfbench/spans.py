"""Outside-in tracing of radhydro's public functions.

The package binds names with ``from .x import y``, so a function lives
under several module attributes (``radhydro.stepping.step_eps``,
``radhydro.runner.step_eps``, ``radhydro.step_eps``). ``Tracer.install``
finds every binding by identity in every loaded ``radhydro`` module and
in the ``numpy.fft`` / ``scipy.fft`` namespaces, replaces it with a
span-recording wrapper and ``uninstall`` puts the originals back.

A span is (name, parent index, start, end, outermost, bytes). Self time
is the span's duration minus the durations of its direct children.
Inclusive time per name counts only outermost spans of that name, so a
layer calling itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute) of the function it wraps.
TARGETS = {
    "spectral.dealias": [("radhydro.spectral", "dealias")],
    "spectral.sobolev_norm": [("radhydro.spectral", "sobolev_norm")],
    "fluid.rhs": [("radhydro.fluid", "fluid_rhs_eps"), ("radhydro.fluid", "fluid_rhs_limit")],
    "radiation.substep": [("radhydro.stepping", "radiation_exact_substep")],
    "radiation.emission": [("radhydro.radiation", "emission")],
    "radiation.limit_q": [("radhydro.radiation", "limit_q")],
    "radiation.closure_residual": [("radhydro.radiation", "limit_closure_residual")],
    "stepping.step_eps": [("radhydro.stepping", "step_eps")],
    "stepping.step_limit": [("radhydro.stepping", "step_limit")],
    "stepping.cfl_dt": [("radhydro.stepping", "cfl_dt")],
    "analysis.error_fields": [("radhydro.analysis", "error_fields")],
    "analysis.energy": [("radhydro.analysis", "energy")],
    "analysis.prepare": [
        ("radhydro.analysis", "well_prepared_init"),
        ("radhydro.analysis", "hypothesis_deviation"),
    ],
    "analysis.fit": [("radhydro.analysis", "fit_rate")],
    "runner.emit": [("radhydro.runner", "emit_series"), ("radhydro.runner", "emit_summary")],
    "runner.run": [("radhydro.runner", "run")],
    "kinetic.rhs": [("radhydro.kinetic", "kinetic_rhs")],
    "kinetic.moments": [("radhydro.kinetic", "moments")],
    "kinetic.check": [
        ("radhydro.kinetic", "moment_system_check"),
        ("radhydro.kinetic", "p1_projection_residual"),
    ],
    "config.parse": [("radhydro.config", "parse_config")],
    "config.build_initial": [
        ("radhydro.config", "build_limit_initial"),
        ("radhydro.config", "build_shapes"),
    ],
}

TRANSFORM = "spectral.transform"
_TRANSFORM_NAME = re.compile(r"^i?[rh]?(fft|dct|dst)(2|n)?$|^i?fht$")
_FFT_MODULES = ("numpy.fft", "scipy.fft")


def transform_entry_points() -> list[tuple[object, str]]:
    """(module, name) of every numpy.fft / scipy.fft transform entry point.

    Helpers such as fftfreq and fftshift are not transforms. scipy is
    optional; its entry points are listed only when it imports.
    """
    found = []
    for mod_name in _FFT_MODULES:
        try:
            mod = importlib.import_module(mod_name)
        except ImportError:
            continue
        for name in getattr(mod, "__all__", ()):
            if _TRANSFORM_NAME.match(name) and callable(getattr(mod, name)):
                found.append((mod, name))
    return found


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


class Tracer:
    """Span recorder; install() patches, uninstall() restores.

    With count_only the wrappers only count calls of radhydro functions
    (into ``calls``) and record no spans, so the process holds no trace
    in memory.
    """

    def __init__(self, count_only: bool = False):
        self.count_only = count_only
        self.calls: Counter = Counter()
        self.spans: list = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, name: str, fn, measure_bytes: bool):
        stack, open_, calls = self._stack, self._open, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans  # read per call so reset() takes effect
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = open_[name] == 0
            stack.append(idx)
            open_[name] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                open_[name] -= 1
                nbytes = _nbytes(args[0]) + _nbytes(result) if measure_bytes and args else 0
                spans[idx] = (name, parent, start, end, outermost, nbytes)

        chosen = counter if self.count_only else wrapper
        chosen.__traced__ = fn
        return chosen

    def install(self) -> None:
        """Replace every binding of every target with a wrapper."""
        import radhydro  # noqa: F401  (loads every submodule)

        originals = {}  # id(function) -> (function, wrapper)
        missing = []
        for span, sites in TARGETS.items():
            for mod_name, attr in sites:
                fn = getattr(sys.modules.get(mod_name), attr, None)
                if fn is None:
                    missing.append(f"{mod_name}.{attr}")
                    continue
                originals[id(fn)] = (fn, self._wrap(span, fn, measure_bytes=False))
        # Counting needs no transforms, and importing scipy.fft would
        # add to the peak memory of the run being measured.
        entry_points = [] if self.count_only else transform_entry_points()
        for mod, attr in entry_points:
            fn = getattr(mod, attr)
            originals[id(fn)] = (fn, self._wrap(TRANSFORM, fn, measure_bytes=True))

        if missing:
            # A renamed or removed function reads as zero in its metrics.
            print(f"perfbench: cannot trace (not found): {missing}", file=sys.stderr)
        modules = [m for n, m in list(sys.modules.items()) if n == "radhydro" or n.startswith("radhydro.")]
        modules += [mod for mod, _ in entry_points]
        for mod in dict.fromkeys(modules):
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches = []
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open at uninstall")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def installed_wrappers() -> list[str]:
    """Module attributes still bound to a wrapper (should be empty)."""
    left = []
    for name, mod in list(sys.modules.items()):
        if name == "radhydro" or name.startswith("radhydro.") or name in _FFT_MODULES:
            for attr, value in list(vars(mod).items()):
                if hasattr(value, "__traced__"):
                    left.append(f"{name}.{attr}")
    return left


def aggregate(spans: list) -> dict:
    """Per-name calls, inclusive and self seconds, bytes, and the
    transform count under each enclosing span name."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    nbytes: Counter = Counter()
    transforms_under: Counter = Counter()
    roots = 0.0
    for i, (name, parent, start, end, outermost, b) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child[i]
        nbytes[name] += b
        if outermost:
            incl[name] += dur
        if parent < 0:
            roots += dur
        if name == TRANSFORM:
            seen = set()
            p = parent
            while p >= 0:
                seen.add(spans[p][0])
                p = spans[p][1]
            for n in seen:
                transforms_under[n] += 1
    return {
        "calls": dict(calls),
        "incl_s": dict(incl),
        "self_s": dict(self_s),
        "bytes": dict(nbytes),
        "transforms_under": dict(transforms_under),
        "roots_s": roots,
        "self_sum_s": sum(self_s.values()),
    }
