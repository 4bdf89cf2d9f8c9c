"""Smoke test of the benchmark program at a tiny input size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")


def bench(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit_and_gates_run(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in lines), name

    gates = [line for line in lines if line.startswith("gate ")]
    assert gates and all(line.split(": ", 1)[1].startswith("pass") for line in gates)
    assert any(line.startswith("machine nproc=") and "client_threads=1" in line for line in lines)
    if trace:
        predictions = [line for line in lines if line.startswith("prediction ")]
        assert predictions and all(line.endswith(": confirmed") for line in predictions)


def test_counts_repeat_exactly_for_a_seed():
    counts = []
    for _ in range(2):
        metrics = json.loads(bench("full_report", 1).stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] in COUNT_UNITS or k == "reconstruct.renormalized_ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["reconstruct.loops"] == 1.0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("mc_sweep", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
