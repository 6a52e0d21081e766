"""Self-test of the benchmark: each workload briefly, the traced run, a
deliberately wrong output, and a checkout without the program.

    python3 -m pytest perfbench/test_selftest.py -q

Each case starts the real command, so the whole file takes a few
minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines: list[str]) -> dict:
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def assert_metrics(out: dict, wanted: list[dict]) -> None:
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    code, lines = bench("--workload", workload, "--seed", "1",
                        "--seconds", "2", "--trace", "0")
    assert code == 0, lines[-5:]
    out = result(lines)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert_metrics(out, SPEC["end_to_end"])


def test_traced_run_prints_every_layer_metric():
    code, lines = bench("--workload", "warm-native", "--seed", "2",
                        "--seconds", "2", "--trace", "1")
    assert code == 0, lines[-5:]
    out = result(lines)
    assert_metrics(out, SPEC["per_layer"])
    assert out["metrics"]["fail_ratio"]["value"] == 0.0
    assert any("spec.required_isas" in line for line in lines)
    trace = ROOT / ".perfbench-work" / "traces" / "warm-native-seed2.jsonl"
    report = subprocess.run(
        [sys.executable, "-m", "repro.obs", "report", str(trace)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert report.returncode == 0 and "op.build" in report.stdout


def test_wrong_output_is_caught():
    code, lines = bench("--workload", "warm-native", "--seed", "3",
                        "--seconds", "2", "--trace", "0", "--corrupt")
    assert code == 1
    out = result(lines)
    assert not out["correct"] and out["failed"] > 0


def test_checkout_without_the_program_fails():
    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "warm-native", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare)
        assert code != 0
        assert not any(line.startswith('{"correct"') for line in lines)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
