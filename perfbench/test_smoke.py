"""Smoke test of the benchmark on shrunken inputs.

    python3 -m pytest perfbench/test_smoke.py

Checks that every workload, traced and untraced, passes its correctness
gate and prints exactly the metrics BENCHMARK.json names, with their units;
and that the benchmark refuses to run without the sources beside it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(run_py, workload, trace, cwd):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed(workload, trace):
    proc = _run(HERE / "run.py", workload, trace, HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"\n{name} {metric['value']:.6g} {metric['unit']}\n" in proc.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path / HERE.name / "run.py", WORKLOADS[0], 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
