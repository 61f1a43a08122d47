"""Smoke test of the benchmark: every workload at tiny sizes, traced and untraced.

Run from the repository root with ``python -m pytest -q perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IDLE = {  # layers predicted to do no work on a workload
    "catalog-cli": ("dynamics.steps", "variation.calls"),
    "variation-fd": ("dynamics.steps", "cli.files_written", "catalog.calls"),
    "evolve-strings": ("geometry.calls", "boundary.calls", "variation.calls"),
}


def run_bench(workload, trace, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_output_schema(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        for name in IDLE[workload]:
            assert values[name] == 0, name
    else:
        assert values["ok_frac"] == 1.0
        assert 0 < values["tol_use_max"] < 1
        assert values["pass_s"] > 0 and values["setup_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("catalog-cli", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
