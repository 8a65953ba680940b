"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_and_passes_its_checks(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == declared
    assert summary["attempted"] >= 1
    assert summary["failed"] == 0 and summary["correct"] is True


def test_tampered_artifact_counts_as_failed(tmp_path, monkeypatch):
    from spellersim import cli

    workload = worker.Mc(tmp_path, seed=0, tiny=True)
    workload.prepare(cli)
    real_main = cli.main

    def main_then_tamper(argv):
        code = real_main(argv)
        with open(Path(argv[argv.index("--out") + 1]) / "mc.csv", "a", encoding="utf-8") as fh:
            fh.write("tampered\n")
        return code

    monkeypatch.setattr(cli, "main", main_then_tamper)
    ops = worker.measure(cli, workload, seconds=0)
    record = run.pool([{"ops": ops, "peak_rss_mb": 1.0}], [1.0], trace=0)
    assert record["attempted"] == 1
    assert record["failed"] == 1 and record["failed_frac"] == 1.0
    assert record["ops"][0]["failures"] == ["mc_manifest.json: mc.csv digest mismatch"]


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _bench(tmp_path, "mc", 0)
    assert done.returncode != 0
    assert done.stdout == ""
