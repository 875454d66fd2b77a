"""The benchmark command end to end at quick size, and tracer robustness."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import child
import workloads
from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _run(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results",
                                                  "__pycache__"))
    done = _run(tmp_path, "fit-pooled", 0)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_trace_survives_a_removed_function(tmp_path, monkeypatch):
    from gaitmogp import kernels

    monkeypatch.delattr(kernels, "kernel_gradients")
    workload = workloads.FitPooled(str(tmp_path), 1, quick=True)
    for argv in workload.input_commands():
        assert child.run_command(argv) is None
    tracer = Tracer()
    tracer.install()
    try:
        for argv in workload.round_commands():
            assert child.run_command(argv) is None
    finally:
        tracer.uninstall()
    workload.check(tracer)
    layers = child.layer_metrics(tracer, wall_s=1.0)
    assert layers["kernels.kernel_gradients.s"] == 0.0
    assert layers["mogp.lml_gradient.calls"] > 0
    assert any("kernel_gradients" in note for note in tracer.notes)
