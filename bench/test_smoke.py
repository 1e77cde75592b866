"""Toy-size smoke test of the benchmark harness.

    python3 -m pytest bench/test_smoke.py

Runs every workload of BENCHMARK.json at tiny sizes, untraced and traced,
and checks the result line: every named metric with its unit, and every
correctness gate passed.  Also checks that the harness refuses to run
without sources and that it reports a broken program as incorrect.  Not
part of the tier-1 suite (pytest's testpaths is tests/).
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload]
    cmd += ["--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0, proc.stdout
    assert proc.returncode == 0
    assert line["attempted"] >= 3
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert "# environment " in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reports_a_lossy_trace_round_trip_as_incorrect(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    forward = tmp_path / "src" / "neutrace" / "forward.py"
    text, count = re.subn(r'"%\.17g" % x', '"%.12g" % x', forward.read_text())
    assert count == 1
    forward.write_text(text)
    proc = run_bench(tmp_path, "ellipse2d", 0)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert line["correct"] is False and line["failed"] == line["attempted"]
    assert "trace_roundtrip_bit_exact" in proc.stdout
