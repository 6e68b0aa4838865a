"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

    python3 -m pytest -q perfbench/test_smoke.py

Each run must exit 0, pass its correctness checks, and print as its last line
the result object with every metric that BENCHMARK.json names for that mode,
each with its unit. A traced run's self times must add up to its traced wall
time. Without ``src/`` next to it, the benchmark must fail without a result.
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
LAYERS = ("data", "sphere", "sinkhorn", "entropic", "conformal", "bench",
          "serialize", "cli", "harness")


def _run(cwd: Path, workload: str, trace: int, seed: int = 0):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, float) and math.isfinite(v) for v in values.values())
    if trace:
        self_ms = sum(values[f"{layer}.self_ms"] for layer in LAYERS)
        assert self_ms == pytest.approx(values["trace.traced_wall_s"] * 1e3, rel=1e-9)
        assert values["trace.traced_wall_s"] == pytest.approx(
            values["trace.untraced_wall_s"] + values["trace.overhead_ms"] / 1e3, rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())


def test_inputs_follow_the_seed():
    errors = [json.loads(_run(ROOT, "serve_otcp", 1, seed).stdout.strip().splitlines()[-1])
              ["metrics"]["sinkhorn.eps0.1.marginal_error"]["value"] for seed in (5, 5, 6)]
    assert errors[0] == errors[1] != errors[2]


def test_fails_without_the_package():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
