"""Smoke test of the benchmark harness: tiny scenes, every workload and check.

    python -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_runs_every_workload_and_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(LAYER_METRICS)
    for workload in (w["name"] for w in spec["workloads"]):
        for name in end_to_end | per_layer:
            assert f"{workload}.{name}" in result["metrics"]
        layer = {name: result["metrics"][f"{workload}.{name}"]["value"] for name in per_layer}
        assert layer["pnp.iterations"] == 2
        assert layer["qp.unconverged"] == 0
        assert layer["pnp.self_s"] >= 0.0


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "proh-nlm", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
