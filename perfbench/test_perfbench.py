"""Self-check of the benchmark at the tiny input size.

    python -m pytest -q perfbench

Every metric BENCHMARK.json names must be printed with its unit, two traced
runs on the same seed must report identical counts, and the benchmark must
refuse to run where there are no pmean sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def assert_reports(spec_metrics: list[dict], doc: dict, stdout: str) -> None:
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        line = next(ln for ln in stdout.splitlines() if ln.split()[:1] == [m["name"]])
        assert line.split()[-1] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    doc, stdout = result(workload, trace=0)
    assert_reports(SPEC["end_to_end"], doc, stdout)
    assert all(doc["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert "fail_ratio" in stdout
    assert "unscaled wall_s" in stdout and "unscaled yardstick_s" in stdout


def test_yardstick_scales_each_pair_by_its_neighbours():
    import yardstick

    result(WORKLOADS[0], trace=0, seed=4)
    record = json.loads((ROOT / ".bench_out" / f"{WORKLOADS[0]}-seed4-trace0.json").read_text())
    sticks = record["yardstick_s"]
    assert len(sticks) == len(record["samples"]) + 1
    for i, sample in enumerate(record["samples"]):
        scale = yardstick.NOMINAL_S / ((sticks[i] + sticks[i + 1]) / 2)
        assert sample["scaled_wall_s"] == pytest.approx(sample["wall_s"] * scale)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    import tracing

    first, stdout = result(workload, trace=1)
    second, _ = result(workload, trace=1)
    assert_reports(SPEC["per_layer"], first, stdout)
    counts = {k: first["metrics"][k]["value"] for k in tracing.COUNT_METRICS}
    assert counts == {k: second["metrics"][k]["value"] for k in tracing.COUNT_METRICS}
    assert "absent wrap target" not in stdout and "failed on" not in stdout
    if workload == "eval-transfer":
        assert first["metrics"]["classifier.distinct_fit_ratio"]["value"] == 0.5


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    import tracing
    import pmean.classifier

    monkeypatch.delattr(pmean.classifier, "fit")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["pmean.classifier.fit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
