"""Self-test of the benchmark: python3 -m pytest perfbench

A tiny seeded run of each workload must emit every named metric, tracing
must leave every wrapped alias as it found it, the committed BENCHMARK.json
must match spec.py, and without the program's sources the command must fail
without printing a result.
"""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _run(workload: str, trace: int, root: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc, None


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json()


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_tiny_run_emits_every_metric(workload):
    records = {}
    for trace, names in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        proc, result = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m.name for m in names}
        for m in names:
            value = result["metrics"][m.name]
            assert value["unit"] == m.unit
            assert isinstance(value["value"], (int, float))
        for m in spec.WORKLOAD_METRICS[workload] if trace == 0 else []:
            assert f"metric {m.name} = " in proc.stdout or f"guard {m.name} = " in proc.stdout
        for m in spec.WORKLOAD_LAYER_METRICS[workload] if trace == 1 else []:
            assert f"layer {m.name} = " in proc.stdout
        record = ROOT / ".perfbench_out" / f"{workload}-seed3-trace{trace}.json"
        records[trace] = json.loads(record.read_text())
    # tracing must not change behaviour: op 0 runs in both
    assert records[0]["fingerprint"][0] == records[1]["fingerprint"][0]


def test_operations_past_the_deadline_count_as_failed():
    import run

    samples, traced, attempted, failed, errors = run.run_operations(
        "audit", 3, 2, False, deadline=0.0)
    assert (samples, traced) == ([], [])
    assert attempted == failed == 2 * run.OPS_PER_SAMPLE["audit"]
    assert len(errors) == 2


def test_tracing_restores_every_alias():
    owners = []
    for module, attr, _ in tracer.FUNCTION_ALIASES:
        owners.append((importlib.import_module(module), attr))
    for module, cls, attr, _ in tracer.METHODS:
        owners.append((getattr(importlib.import_module(module), cls), attr))
    before = [vars(owner)[attr] for owner, attr in owners]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(vars(owner)[attr] is not orig for (owner, attr), orig in zip(owners, before))
        assert len(t.leaks()) == len(owners)
    finally:
        t.uninstall()
    assert t.leaks() == []
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(owners, before))


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc, result = _run("faulty-net", 0, root=tmp_path)
    assert proc.returncode != 0
    assert result is None
