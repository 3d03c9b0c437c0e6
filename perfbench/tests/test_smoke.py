"""Smoke test of the benchmark harness at tiny workload sizes.

Every workload must run, check its outputs, and emit exactly the metrics
BENCHMARK.json declares, with their units; and the harness must refuse to
run where there is no package source.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    report = json.loads(out.stdout.splitlines()[-2])["report"]
    assert report["seed"] == 3 and report["nproc"] >= 1 and report["samples"]


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_time_subtracts_the_union_of_children(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import self_times
    spans = [["root", 0.0, 10.0, -1, None],
             ["a", 1.0, 4.0, 0, None],   # children overlap, as pool workers do
             ["b", 3.0, 6.0, 0, None],
             ["c", 2.0, 3.0, 1, None]]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]
