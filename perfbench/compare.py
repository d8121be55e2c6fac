"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records run.py appended on one commit. Runs are
paired by workload, trace mode and seed. Per workload and metric the
table shows each side's median and quartiles, the pair win rate of the
change (ties count for neither side) and a verdict:

- REGRESSION: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- unresolved: either side's quartile spread, as a share of its median,
  exceeds the bound, and not every change run beats every parent run;
- gain: the change wins at least 9 in 10 pairs and the medians differ
  by more than the parent's quartile spread;
- ok: none of these.

Per-layer metrics have no bound. Counts read "same" when every pair is
equal (they may differ between seeds) and "changed" otherwise; other
layer metrics read "gain" or "-".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
GAIN_WIN_RATE = 0.9
EXACT_UNITS = ("count", "count/rhs", "B")  # deterministic: compared for equality


def load(path: str) -> dict:
    """(workload, trace) -> seed -> list of records, in file order."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["trace"])][r["seed"]].append(r)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(a: dict, b: dict, metric: str) -> list[tuple[float, float]]:
    out = []
    for seed in sorted(set(a) & set(b)):
        for ra, rb in zip(a[seed], b[seed]):
            out.append((ra["metrics"][metric]["value"], rb["metrics"][metric]["value"]))
    return out


def verdict(spec: dict, side_a: list, side_b: list, paired: list) -> tuple[float, str]:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(1 for x, y in paired if sign * (y - x) < 0)
    win_rate = wins / len(paired) if paired else float("nan")
    q1a, meda, q3a = quartiles(side_a)
    q1b, medb, q3b = quartiles(side_b)
    if spec["unit"] in EXACT_UNITS:
        return win_rate, "same" if paired and all(x == y for x, y in paired) else "changed"
    gain = (
        win_rate >= GAIN_WIN_RATE
        and sign * (medb - meda) < 0
        and abs(medb - meda) > q3a - q1a
    )
    bound = spec.get("bound")
    if bound is None:
        return win_rate, "gain" if gain else "-"
    worse = sign * (medb - meda) / abs(meda) if meda else 0.0
    spread = max((q3a - q1a) / abs(meda) if meda else 0.0, (q3b - q1b) / abs(medb) if medb else 0.0)
    all_better = all(sign * (y - x) < 0 for x in side_a for y in side_b)
    if worse > bound:
        return win_rate, "REGRESSION"
    if spread > bound and not all_better:
        return win_rate, "unresolved"
    return win_rate, "gain" if gain else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two commits' benchmark results.")
    parser.add_argument("parent", help="results JSONL of the parent commit")
    parser.add_argument("change", help="results JSONL of the change")
    parser.add_argument("--benchmark", default=BENCHMARK, help="BENCHMARK.json with the bounds")
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    a, b = load(args.parent), load(args.change)
    regressions = 0
    header = (
        f"{'workload':<14} {'metric':<30} {'parent q1/med/q3':>34} "
        f"{'change q1/med/q3':>34} {'pairs':>5} {'win':>5}  verdict"
    )
    print(header)
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        for m in metrics[trace]:
            name = m["name"]
            side_a = [r["metrics"][name]["value"] for rs in a[key].values() for r in rs]
            side_b = [r["metrics"][name]["value"] for rs in b[key].values() for r in rs]
            if not side_a or not side_b:
                print(f"{workload:<14} {name:<30} missing on one side")
                continue
            paired = pairs(a[key], b[key], name)
            win_rate, text = verdict(m, side_a, side_b, paired)
            regressions += text == "REGRESSION"
            qa = "/".join(f"{v:.4g}" for v in quartiles(side_a))
            qb = "/".join(f"{v:.4g}" for v in quartiles(side_b))
            print(
                f"{workload:<14} {name:<30} {qa:>34} {qb:>34} {len(paired):>5} "
                f"{win_rate:>5.2f}  {text}"
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
