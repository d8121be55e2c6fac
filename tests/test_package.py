"""Whole-package checks: no check in the package vanishes under
``python -O``, and the benchmark's own correctness check
(``perfbench/check.py``) passes on every benchmark workload."""

import ast
import json
import sys
from pathlib import Path

import pytest

import radhydro
from radhydro.config import parse_config
from radhydro.runner import run

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "perfbench"))
import check  # noqa: E402
import workloads  # noqa: E402

# The BENCHMARK.json workloads, and limit-2d128, which the benchmark runs
# by name only and is its one 2D/128 solver path.
_WORKLOADS = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
_BENCHMARKED = [w["name"] for w in _WORKLOADS] + ["limit-2d128"]


def test_no_assert_or_debug_in_the_package():
    # python -O drops assert statements and `if __debug__` blocks, so a
    # check written either way would not run there.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(radhydro.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert found == []


@pytest.mark.parametrize("name", _BENCHMARKED)
def test_benchmark_workload_matches_its_reference(tmp_path, name):
    # Seed 1 translates the profiles, which moves no acceptance value
    # beyond roundoff (perfbench/workloads.py).
    summary = run(parse_config(workloads.make_config(name, 1, str(tmp_path))), threads=1)
    reference = check.load_reference()["workloads"][name]
    assert check.check_run(summary, str(tmp_path), reference) == []
