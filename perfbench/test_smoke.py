"""Smoke test of the benchmark: tiny inputs, every workload, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_unit_and_no_failed_operation(trace, kind):
    proc = _run(ROOT, "--workload", "all", "--smoke", "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = json.loads(lines[-1])
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, (name, proc.stdout)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, name
    if trace == 0:
        assert lines.count("error_rate 0 share") == len(results)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "extract-96", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
