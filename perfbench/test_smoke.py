"""Smoke test of the benchmark: every workload at minimal length, both modes.

    python3 -m pytest -q perfbench/test_smoke.py

Takes about two minutes on two cores.  Checks the result line against
BENCHMARK.json, and that the self times of the traced spans, recomputed
here from the raw spans, add up to the traced wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 2 and result["failed"] == 0, proc.stderr
    return result


def assert_metrics(result: dict, declared: list[dict]) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run(workload):
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "0")
    result = result_of(proc)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_self_times_add_up(workload):
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1")
    result = result_of(proc)
    assert_metrics(result, SPEC["per_layer"])

    trace = json.loads((ROOT / ".perfbench" / f"trace-{workload}-seed{SEED}.json").read_text())
    spans = trace["spans"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            child[p] += dur[i]
    self_times = [d - c for d, c in zip(dur, child)]
    roots = [i for i, p in enumerate(spans["parent"]) if p < 0]
    assert [trace["names"][spans["name"][i]] for i in roots] == ["op"]
    assert min(self_times) > -1e-9
    wall = trace["traced_wall_s"]
    assert sum(self_times) == pytest.approx(wall, rel=1e-3)
    assert sum(row["self_s"] for row in trace["per_name"].values()) == pytest.approx(wall, rel=1e-3)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_without_program_source():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", WORKLOADS[0], "--seed", str(SEED), "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
