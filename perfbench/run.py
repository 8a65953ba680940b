"""Benchmark of the spellersim CLI: closed-loop workloads, one client.

Run from the repository root:

    python3 perfbench/run.py --workload calibrate --seed 0 --seconds 20 --trace 0

Workloads: ``calibrate`` (``train --config fast_midsnr``), ``spell_marathon``
(one long ``spell`` session) and ``mc`` (``mc --runs 100000``). Set-up runs
``SETUP_REPEATS`` times, each in a fresh worker process timed from its start
to its ``ready`` line, and ``setup_s`` is the median. The last worker, or the
last ``measuring_workers`` of them, then run the workload one after another,
each for its share of ``--seconds``; the metrics are medians over all their
operations. BLAS threads are pinned to ``BLAS_THREADS`` before numpy loads.
``--trace 1`` has the last worker alone measure, and reports the per-layer
metrics instead of the end-to-end ones; the spans go under
``perfbench/.work``. The second-to-last stdout line is the full record
(operations, checks, environment); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_REPEATS = 3
DEADLINE_S = 170.0


def _worker_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _start_worker(argv: list[str], deadline: float) -> tuple[float, subprocess.Popen, str]:
    """Start one worker; return its set-up time, the process and its first line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        env=_worker_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    return time.perf_counter() - start, proc, line


def _finish(proc: subprocess.Popen, command: str, deadline: float) -> str:
    """Send the worker its command and wait for it to end."""
    try:
        out, _ = proc.communicate(command + "\n", timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return out


def pool(records: list[dict], setups: list[float], trace: int) -> dict:
    """Tally the measuring workers' operations and compute the metrics."""
    ops = [op | {"worker": i} for i, record in enumerate(records) for op in record["ops"]]
    timed = [op for op in ops if not op["warm_up"] and not op["traced"]]
    failed = sum(bool(op["failures"]) for op in ops)
    if trace:
        metrics = records[-1]["metrics"]
    else:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s": (statistics.median(op["seconds"] for op in timed), "s"),
            "rate_per_s": (statistics.median(op["units"] / op["seconds"] for op in timed), "1/s"),
            # the mean, because a spell_marathon worker keeps one signal
            # buffer more or less at its peak (about 184 or 202 MB)
            "peak_rss_mb": (statistics.fmean(r["peak_rss_mb"] for r in records), "MB"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return {
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
        "metrics": metrics,
        "setup_samples_s": setups,
        "workers": [{k: v for k, v in r.items() if k not in ("ops", "metrics", "env")} for r in records],
        "ops": ops,
        "env": records[-1].get("env"),
    }


def run(args) -> dict | None:
    """Set up ``SETUP_REPEATS`` times, let the last workers measure, and
    return the pooled record, or None on failure."""
    deadline = time.monotonic() + DEADLINE_S
    repeats = 1 if args.tiny else SETUP_REPEATS
    measuring = 1 if args.trace or args.tiny else WORKLOADS[args.workload].measuring_workers
    worker_argv = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds / measuring), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    setups, records = [], []
    for i in range(repeats):
        seconds, proc, line = _start_worker(worker_argv, deadline)
        go = i >= repeats - measuring
        try:
            if line.strip() != "ready":
                proc.kill()
                proc.communicate()
                print(f"benchmark: worker failed in set-up (exit {proc.returncode})", file=sys.stderr)
                return None
            setups.append(seconds)
            out = _finish(proc, "go" if go else "exit", deadline)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            print(f"benchmark: worker exited with {proc.returncode}", file=sys.stderr)
            return None
        if go:
            lines = out.strip().splitlines()
            if not lines:
                print("benchmark: worker printed no record", file=sys.stderr)
                return None
            records.append(json.loads(lines[-1]))
    record = pool(records, setups, args.trace)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spellersim" / "cli.py").is_file():
        print(f"benchmark: no spellersim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except subprocess.TimeoutExpired:
        print(f"benchmark: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if record is None:
        return 1
    summary = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
