"""radhydro benchmark: end-to-end timing, correctness and per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One process, one thread: ``parse_config`` then ``radhydro.runner.run``
with ``threads=1``. The seed translates the initial profiles (see
workloads.py). Every run is checked against reference.json.

--seconds bounds the whole measurement, set-up probes and warm-up
included, so one invocation takes --seconds plus the interpreter's own
start.

--trace 0 reports the end-to-end metrics. Set-up is timed in fresh
interpreters, before and after the timed runs, and reported as the
median. One warm-up run, which only counts calls, gives the time-step
count; then untraced runs repeat until the time left is what the
closing set-up probes need, and wall_s is their median.

--trace 1 reports the per-layer metrics. Traced and untraced runs
alternate until --seconds is up; layer times are medians over the
traced runs, counts must repeat exactly, and trace.overhead_frac
compares the two medians.

The last line of stdout is one JSON object with correct, attempted,
failed and metrics. Each invocation also appends a record with every
sample and the environment to perfbench/results/runs.jsonl (--results),
which compare.py reads. --workload all runs every workload in both modes
in child processes and prints one table.
"""

from __future__ import annotations

import os
import sys

import bench

bench.pin_threads()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402,F401  (the harness imports numpy before timing anything)

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SETUP_PROBES = 5  # before the timed runs, and as many again after them
PROBE_TIMEOUT_S = 60
CONFIG_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cell_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "spectral.transforms": "count",
    "spectral.transform_s": "s",
    "spectral.transform_share": "frac",
    "spectral.transforms_per_rhs": "count/rhs",
    "spectral.transform_bytes": "B",
    "spectral.dealias_calls": "count",
    "spectral.dealias_self_s": "s",
    "spectral.sobolev_norm_calls": "count",
    "spectral.sobolev_norm_s": "s",
    "fluid.rhs_calls": "count",
    "fluid.rhs_s": "s",
    "fluid.rhs_self_s": "s",
    "fluid.rhs_ms": "ms/call",
    "radiation.substep_calls": "count",
    "radiation.substep_s": "s",
    "radiation.emission_s": "s",
    "radiation.limit_q_s": "s",
    "radiation.closure_residual_s": "s",
    "stepping.eps_steps": "count",
    "stepping.step_eps_s": "s",
    "stepping.limit_steps": "count",
    "stepping.step_limit_s": "s",
    "stepping.self_s": "s",
    "stepping.cfl_dt_s": "s",
    "analysis.error_fields_s": "s",
    "analysis.energy_s": "s",
    "analysis.prepare_s": "s",
    "analysis.fit_s": "s",
    "runner.emit_s": "s",
    "runner.emit_bytes": "B",
    "runner.self_s": "s",
    "kinetic.rhs_s": "s",
    "kinetic.moments_s": "s",
    "kinetic.check_s": "s",
    "config.parse_s": "s",
    "config.build_initial_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.span_self_sum_s": "s",
    "trace.unspanned_s": "s",
}

# Per-layer metrics that are counts of work: they must repeat exactly.
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]

# Relative slack allowed in "span self times + unspanned remainder =
# traced wall time"; the identity holds up to float summation.
ACCOUNTING_TOL = 1e-9


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """(percent, value) of the highest percentile with at least ten
    samples beyond it, or None below eleven samples."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 11  # ten samples lie above sorted index n - 11
    return 100.0 * (rank + 1) / n, sorted(samples)[rank]


class Session:
    """One benchmark invocation: a workload, a seed and a trace mode."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.perf_counter() + seconds
        self.out_dir = bench.workload_dir(workload, f"seed{seed}-trace{trace}")
        # runner.emit_bytes sums this directory, so start it empty
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.raw = make_config(workload, seed, self.out_dir)
        self.reference = check.load_reference()["workloads"][workload]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.notes: dict = {}

    # -- runs --------------------------------------------------------------
    def _one_run(self, config) -> float | None:
        """Wall time of one run, or None if it raised.

        A run that completes but fails its check keeps its time; the
        failure is counted either way.
        """
        from radhydro import runner

        self.attempted += 1
        gc.collect()
        wall = None
        try:
            start = time.perf_counter()
            summary = runner.run(config, threads=1)
            wall = time.perf_counter() - start
            problems = check.check_run(summary, self.out_dir, self.reference)
        except Exception:  # noqa: BLE001  (a failing run is counted, not fatal)
            problems = ["run raised:\n" + traceback.format_exc()]
        if problems:
            self.failed += 1
            self.failures += problems
            for p in problems:
                print(f"perfbench: {self.workload}: {p}", file=sys.stderr)
        return wall

    def _traced_run(self, tracer: spans.Tracer, config):
        tracer.reset()
        with tracer:
            wall = self._one_run(config)
        return wall, tracer.spans

    def _repeat(self, kinds: list, run_kind, until: float) -> None:
        """Cycle through kinds until the next run would end after the
        perf_counter time until.

        Every kind runs at least once.
        """
        durations = {k: [] for k in kinds}
        i = 0
        while True:
            kind = kinds[i % len(kinds)]
            if i >= len(kinds) and time.perf_counter() + _median(durations[kind]) > until:
                break
            t0 = time.perf_counter()
            run_kind(kind)
            durations[kind].append(time.perf_counter() - t0)
            i += 1

    # -- set-up ------------------------------------------------------------
    def _setup_probes(self, warm: bool) -> tuple[list[float], float]:
        """Set-up times from fresh interpreters, and the longest time one
        probe took in all; with warm, one extra first probe only warms
        the file cache and is dropped."""
        probe = os.path.join(bench.HERE, "setup_probe.py")
        times, longest = [], 0.0
        for i in range(SETUP_PROBES + warm):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, probe, bench.SRC, json.dumps(self.raw)],
                capture_output=True,
                text=True,
                timeout=PROBE_TIMEOUT_S,
                check=False,
            )
            if proc.returncode != 0:
                sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
            longest = max(longest, time.perf_counter() - start)
            if i >= warm:
                times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        return times, longest

    # -- modes -------------------------------------------------------------
    def end_to_end(self) -> dict:
        setup, probe_s = self._setup_probes(warm=True)
        from radhydro.config import parse_config

        config = parse_config(self.raw)
        # Warm-up; it counts calls (and keeps no spans) to learn the
        # number of time steps, which is deterministic.
        counter = spans.Tracer(count_only=True)
        with counter:
            self._one_run(config)
        self._check_untraced()
        calls = counter.calls
        cells = config.points**config.n_dims
        if config.mode == "closure-check":
            # cell-ordinate updates: each kinetic RHS visits every cell
            # once per ordinate
            cell_steps = cells * config.ordinates * calls.get("kinetic.rhs", 0)
        else:
            steps = calls.get("stepping.step_eps", 0) + calls.get("stepping.step_limit", 0)
            cell_steps = cells * steps

        walls = []

        def untraced(_kind):
            wall = self._one_run(config)
            if wall is not None:
                walls.append(wall)

        # Leave room for the closing probes; probing on both sides of the
        # timed runs spreads the set-up samples over the measurement window.
        self._repeat(["untraced"], untraced, self.deadline - SETUP_PROBES * probe_s)
        setup += self._setup_probes(warm=False)[0]
        wall_s = _median(walls)
        self.samples = {"wall_s": walls, "setup_s": setup}
        self.notes = {"cell_steps": cell_steps, "n_wall": len(walls)}
        tail = tail_percentile(walls)
        if tail is not None:
            self.notes["wall_s_tail"] = {"percentile": tail[0], "value": tail[1]}
        return {
            "wall_s": wall_s,
            "setup_s": _median(setup),
            "cell_steps_per_s": cell_steps / wall_s if wall_s > 0 else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        import radhydro.config as rconfig

        tracer = spans.Tracer()
        config_spans = []
        with tracer:
            for _ in range(CONFIG_REPEATS):
                tracer.reset()
                config = rconfig.parse_config(self.raw)
                rconfig.build_limit_initial(config)
                rconfig.build_shapes(config)
                config_spans.append(spans.aggregate(tracer.spans)["incl_s"])
        self._check_untraced()

        self._one_run(config)  # warm-up
        traced, untraced_walls = [], []

        def run_kind(kind):
            if kind == "traced":
                wall, recorded = self._traced_run(tracer, config)
                if wall is not None:
                    traced.append(self._layer_metrics(spans.aggregate(recorded), wall))
                    self.last_spans = recorded
            else:
                self._check_untraced()
                wall = self._one_run(config)
                if wall is not None:
                    untraced_walls.append(wall)

        self._repeat(["traced", "untraced"], run_kind, self.deadline)

        metrics = {name: _median([m[name] for m in traced]) for name in PER_LAYER}
        for name in COUNTS:
            seen = {m[name] for m in traced}
            if len(seen) > 1:
                self.failures.append(f"count {name} differs between traced runs: {sorted(seen)}")
            metrics[name] = traced[0][name] if traced else 0
        for m in traced:
            err = abs(m["trace.span_self_sum_s"] + m["trace.unspanned_s"] - m["trace.wall_s"])
            if err > ACCOUNTING_TOL * m["trace.wall_s"]:
                self.failures.append(f"span self times + unspanned miss the wall time by {err:g} s")
        metrics["config.parse_s"] = _median([c.get("config.parse", 0.0) for c in config_spans])
        metrics["config.build_initial_s"] = _median(
            [c.get("config.build_initial", 0.0) for c in config_spans]
        )
        base = _median(untraced_walls)
        metrics["trace.untraced_wall_s"] = base
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / base - 1.0 if base > 0 else 0.0
        self.samples = {
            "trace.wall_s": [m["trace.wall_s"] for m in traced],
            "trace.untraced_wall_s": untraced_walls,
        }
        self.notes = {"n_traced": len(traced), "n_untraced": len(untraced_walls)}
        return metrics

    def _check_untraced(self) -> None:
        left = spans.installed_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")

    def _layer_metrics(self, agg: dict, wall: float) -> dict:
        calls, incl, self_s = agg["calls"], agg["incl_s"], agg["self_s"]
        T = spans.TRANSFORM

        def c(name):
            return calls.get(name, 0)

        def t(name):
            return incl.get(name, 0.0)

        rhs_calls = c("fluid.rhs")
        emitted = sum(
            os.path.getsize(os.path.join(self.out_dir, f)) for f in os.listdir(self.out_dir)
        )
        return {
            "spectral.transforms": c(T),
            "spectral.transform_s": t(T),
            "spectral.transform_share": t(T) / wall,
            "spectral.transforms_per_rhs": (
                agg["transforms_under"].get("fluid.rhs", 0) / rhs_calls if rhs_calls else 0.0
            ),
            "spectral.transform_bytes": agg["bytes"].get(T, 0),
            "spectral.dealias_calls": c("spectral.dealias"),
            "spectral.dealias_self_s": self_s.get("spectral.dealias", 0.0),
            "spectral.sobolev_norm_calls": c("spectral.sobolev_norm"),
            "spectral.sobolev_norm_s": t("spectral.sobolev_norm"),
            "fluid.rhs_calls": rhs_calls,
            "fluid.rhs_s": t("fluid.rhs"),
            "fluid.rhs_self_s": self_s.get("fluid.rhs", 0.0),
            "fluid.rhs_ms": 1000.0 * t("fluid.rhs") / rhs_calls if rhs_calls else 0.0,
            "radiation.substep_calls": c("radiation.substep"),
            "radiation.substep_s": t("radiation.substep"),
            "radiation.emission_s": t("radiation.emission"),
            "radiation.limit_q_s": t("radiation.limit_q"),
            "radiation.closure_residual_s": t("radiation.closure_residual"),
            "stepping.eps_steps": c("stepping.step_eps"),
            "stepping.step_eps_s": t("stepping.step_eps"),
            "stepping.limit_steps": c("stepping.step_limit"),
            "stepping.step_limit_s": t("stepping.step_limit"),
            "stepping.self_s": self_s.get("stepping.step_eps", 0.0)
            + self_s.get("stepping.step_limit", 0.0),
            "stepping.cfl_dt_s": t("stepping.cfl_dt"),
            "analysis.error_fields_s": t("analysis.error_fields"),
            "analysis.energy_s": t("analysis.energy"),
            "analysis.prepare_s": t("analysis.prepare"),
            "analysis.fit_s": t("analysis.fit"),
            "runner.emit_s": t("runner.emit"),
            "runner.emit_bytes": emitted,
            "runner.self_s": self_s.get("runner.run", 0.0),
            "kinetic.rhs_s": t("kinetic.rhs"),
            "kinetic.moments_s": t("kinetic.moments"),
            "kinetic.check_s": t("kinetic.check"),
            "config.parse_s": 0.0,
            "config.build_initial_s": 0.0,
            "trace.wall_s": wall,
            "trace.untraced_wall_s": 0.0,
            "trace.overhead_frac": 0.0,
            "trace.span_self_sum_s": agg["self_sum_s"],
            "trace.unspanned_s": wall - agg["roots_s"],
        }

    # -- output ------------------------------------------------------------
    def result(self) -> tuple[dict, dict]:
        if self.trace:
            metrics, units = self.per_layer(), PER_LAYER
        else:
            metrics, units = self.end_to_end(), END_TO_END
        correct = self.failed == 0 and not self.failures
        line = {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "seconds": self.seconds,
            **line,
            "fail_frac": self.failed / self.attempted,
            "failures": self.failures[:20],
            "samples": self.samples,
            "notes": self.notes,
            "environment": bench.environment(),
        }
        return line, record

    def write_spans(self) -> None:
        """Spans of the last traced run, as columns, times from its start."""
        recorded = getattr(self, "last_spans", None)
        if not recorded:
            return
        t0 = min(s[2] for s in recorded)
        cols = {
            "name": [s[0] for s in recorded],
            "parent": [s[1] for s in recorded],
            "start_s": [s[2] - t0 for s in recorded],
            "end_s": [s[3] - t0 for s in recorded],
        }
        os.makedirs(bench.RESULTS, exist_ok=True)
        path = os.path.join(bench.RESULTS, f"spans-{self.workload}-seed{self.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cols, fh)


def _print_table(record: dict, units: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    env = record["environment"]
    print(
        f"# python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
        f"nproc {env['nproc']} cpu '{env['cpu_model']}' threads {env['thread_env']}"
    )
    for name, unit in units.items():
        print(f"{record['workload']:>14} {name:<30} {record['metrics'][name]['value']:>16.6g} {unit}")
    print(
        f"{record['workload']:>14} {'fail_frac':<30} {record['fail_frac']:>16.6g} "
        f"({record['failed']}/{record['attempted']} runs)"
    )
    notes = " ".join(f"{k}={v}" for k, v in record["notes"].items())
    print(f"# {notes}")


def _append(path: str, record: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _run_all(args) -> int:
    """Every workload, both modes, each in a fresh process."""
    lines = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--results", args.results,
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"perfbench: {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            lines[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    attempted = sum(v["attempted"] for v in lines.values())
    failed = sum(v["failed"] for v in lines.values())
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{name}/{metric}": value
            for (name, _), v in lines.items()
            for metric, value in v["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--results",
        default=os.path.join(bench.RESULTS, "runs.jsonl"),
        help="JSONL file each invocation appends its record to",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    bench.import_radhydro()  # without src/radhydro: exits nonzero, prints no result
    session = Session(args.workload, args.seed, args.seconds, args.trace)
    line, record = session.result()
    units = PER_LAYER if args.trace else END_TO_END
    _print_table(record, units)
    _append(args.results, record)
    session.write_spans()
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
