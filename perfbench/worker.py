"""Benchmark worker: set up, wait for ``go`` on stdin, then run one workload.

``run.py`` starts this script and times it from process start to the
``ready`` line; that is one set-up sample. It then tells the worker to
``exit`` or to ``go``. A worker told to go issues CLI operations through
``spellersim.cli.main`` back to back (one client, closed loop) for the given
number of seconds, checks each operation's outputs outside the timed region,
and prints one JSON record as its last line. Its files go under
``perfbench/.work`` and are removed at exit, except the span file of a traced
run.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import resources
from pathlib import Path

from tracing import Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# The README's 93-95% band holds for its fixed acceptance seeds only; over
# other session seeds the midsnr subject lands between about 92.6% and 95.2%,
# so the check takes a band that any seed meets and a broken pipeline (chance
# is 85.7%, a train/test leak nears 100%) does not.
CV_BAND = (0.92, 0.97)
MC_TOP_GROUP_BAND = (1.5, 1.7)
IDENTITY_TOL_S = 1e-6


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifests(out: Path) -> list[str]:
    """Every output a manifest lists exists and matches its digest."""
    manifests = sorted(out.glob("*_manifest.json"))
    if not manifests:
        return ["no manifest written"]
    failures = []
    for manifest in manifests:
        for name, digest in json.loads(manifest.read_text())["outputs"].items():
            path = out / name
            if not path.is_file():
                failures.append(f"{manifest.name}: {name} missing")
            elif _sha256(path) != digest:
                failures.append(f"{manifest.name}: {name} digest mismatch")
    return failures


def _preset_text(preset: str) -> str:
    return resources.files("spellersim").joinpath(f"presets/{preset}.cfg").read_text()


def warm_up(seed: int) -> None:
    """One model fit at the calibration size, so BLAS and LAPACK load and the
    allocator sizes its heap before the first timed operation."""
    import numpy as np

    from spellersim.features import extract_batch, fit_feature_model

    x = np.random.default_rng(seed).normal(size=(1870, 480))
    y = np.arange(1870) % 7 == 0
    extract_batch(fit_feature_model(x, y), x)


class Workload:
    """Set-up, the CLI command of operation k, and the checks on its outputs.

    The first ``warm_up_ops`` operations of a worker are checked but not
    timed; at least ``min_ops`` are timed. In an untraced run, the last
    ``measuring_workers`` set-up workers each measure an equal share of the
    run's time, all with the same operation seeds."""

    preset = "fast_midsnr"
    min_ops = 1
    warm_up_ops = 0
    measuring_workers = 1

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.config = work / "bench.cfg"

    def op_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def config_lines(self) -> list[str]:
        return []

    def prepare(self, cli) -> None:
        lines = "".join(f"{line}\n" for line in self.config_lines())
        self.config.write_text(_preset_text(self.preset) + lines)
        cli.load_config(self.config)
        warm_up(self.seed)

    def argv(self, k: int, out: Path) -> list[str]:
        raise NotImplementedError

    def inspect(self, out: Path, stdout: str) -> tuple[float, dict, list[str]]:
        """Work units done, outcome values, and failed checks."""
        raise NotImplementedError


class Calibrate(Workload):
    """One ``train``: a 1,870-trial session, 10x10 cross-validation, final fit."""

    def config_lines(self) -> list[str]:
        return ["cv_repeats = 1"] if self.tiny else []

    def argv(self, k, out):
        return ["train", "--config", str(self.config), "--seed", str(self.op_seed(k)), "--out", str(out)]

    def inspect(self, out, stdout):
        from spellersim.features import load_model

        failures = check_manifests(out)
        trials = [line for line in stdout.splitlines() if line.startswith("training trials:")]
        units = float(trials[0].split(":")[1])
        with open(out / "train_cv.csv", newline="", encoding="utf-8") as fh:
            accuracy = float(next(csv.DictReader(fh))["accuracy_mean"])
        if not CV_BAND[0] <= accuracy <= CV_BAND[1]:
            failures.append(f"cv accuracy {accuracy:.4f} outside {CV_BAND}")
        _, params, _ = load_model(out / "model.bin")
        if params is None:
            failures.append("model.bin carries no classifier")
        return units, {"cv_accuracy": accuracy}, failures


class SpellMarathon(Workload):
    """One ``spell`` by the noiseless subject of ``fast_oracle``, capped at
    1,500 trials on one continuous signal timeline.

    The sentence (the benchmark sentence twenty times) is longer than the
    budget, and this subject makes no errors, so every session runs exactly
    1,500 trials and about 1,610 s of signal. A subject that errs ends some
    sessions early by selecting the exit symbol, and the cost per trial grows
    with the session, so its timings followed the seed more than the code.
    The first session in a process maps its growing buffer afresh and takes
    about 60% longer than later ones, hence one untimed warm-up. The copy
    of that buffer on every trial bounds this workload by memory, and the
    speed of a warm session settles per process (at 1,800 trials on a 2-vCPU
    virtual machine, 2.8 s in one and 3.4 s in the next), so three
    processes share the measuring."""

    preset = "fast_oracle"
    repeats = 20
    trial_budget = 1500
    warm_up_ops = 1
    measuring_workers = 3

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.model = work / "model" / "model.bin"

    def config_lines(self):
        from spellersim.harness import BENCHMARK_SENTENCE

        words = BENCHMARK_SENTENCE.rstrip("*")
        repeats, budget = (2, 300) if self.tiny else (self.repeats, self.trial_budget)
        # cv settings only shorten the set-up fit; spell ignores them
        return [
            f"sentence = {'>'.join([words] * repeats)}*",
            f"trial_budget = {budget}",
            "cv_repeats = 1",
            "cv_folds = 2",
        ]

    def prepare(self, cli):
        super().prepare(cli)
        argv = ["train", "--config", str(self.config), "--seed", str(self.seed)]
        argv += ["--out", str(self.model.parent)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError("set-up could not fit the spell model")

    def argv(self, k, out):
        return [
            "spell", "--config", str(self.config), "--model", str(self.model),
            "--seed", str(self.op_seed(k)), "--out", str(out),
        ]

    def inspect(self, out, stdout):
        failures = check_manifests(out)
        report = json.loads((out / "session_report.json").read_text())
        with open(out / "session.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        meta = records[0]["meta"]
        n_trials = report["n_trials"]
        logged = sum(1 for r in records[1:] if r["record"] == "trial")
        if logged != n_trials:
            failures.append(f"session.jsonl has {logged} trial records, report says {n_trials}")
        accounted = n_trials * (meta["iti_ms"] + meta["overhead_ms"]) / 1000.0 + report["t_pause_s"]
        if abs(report["t_total_s"] - accounted) > IDENTITY_TOL_S:
            failures.append(f"time accounting off by {report['t_total_s'] - accounted:.3g} s")
        outcomes = {
            key: report[key]
            for key in ("n_trials", "n_selections", "n_correct", "completed", "practical_bits_per_sec")
        }
        return float(n_trials), outcomes, failures


class Mc(Workload):
    """``mc --runs 100000`` on consecutive seeds, at least five per run."""

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.runs = 20_000 if tiny else 100_000
        self.min_ops = 1 if tiny else 5

    def argv(self, k, out):
        return ["mc", "--runs", str(self.runs), "--seed", str(self.op_seed(k)), "--out", str(out)]

    def inspect(self, out, stdout):
        # read the printed summary: under numpy 2, mc.csv holds values such
        # as "np.float64(1.6)", which a CSV reader cannot parse as numbers
        failures = check_manifests(out)
        top = [line for line in stdout.splitlines() if line.startswith("most frequent symbol:")]
        group = float(top[0].rsplit(" ", 1)[1])
        if not MC_TOP_GROUP_BAND[0] <= group <= MC_TOP_GROUP_BAND[1]:
            failures.append(f"most frequent symbol mean group {group:.3f} outside {MC_TOP_GROUP_BAND}")
        return float(self.runs), {"top_mean_group": group}, failures


WORKLOADS = {"calibrate": Calibrate, "spell_marathon": SpellMarathon, "mc": Mc}


def run_op(cli, workload: Workload, k: int, tracer: Tracer | None = None) -> dict:
    """Time one CLI operation, then check what it wrote."""
    out = workload.work / f"op{k}"
    argv = workload.argv(k, out)
    captured = io.StringIO()
    failures: list[str] = []
    code = None
    with tracer.installed(k) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
        except Exception:  # the operation failed; count it and go on
            failures.append(traceback.format_exc(limit=4))
        seconds = time.perf_counter() - start
    units, outcomes = 0.0, {}
    if code == 0:
        try:
            units, outcomes, problems = workload.inspect(out, captured.getvalue())
            failures += problems
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            failures.append(f"outputs unreadable: {exc!r}")
    elif code is not None:
        failures.append(f"exit code {code}")
    artifact_bytes = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    shutil.rmtree(out, ignore_errors=True)
    return {
        "k": k,
        "seed": workload.op_seed(k),
        "seconds": seconds,
        "units": units,
        "traced": tracer is not None,
        "artifact_bytes": artifact_bytes,
        "failures": failures,
        **outcomes,
    }


def measure(cli, workload: Workload, seconds: float, tracer: Tracer | None = None) -> list[dict]:
    """Run operations back to back until ``seconds`` have passed and at least
    ``min_ops`` are timed.

    With a tracer, timed operations alternate untraced and traced, so the
    two sets of times compare like with like."""
    ops = [run_op(cli, workload, k) | {"warm_up": True} for k in range(workload.warm_up_ops)]
    start = time.perf_counter()

    def enough() -> bool:
        timed = [op for op in ops if not op["warm_up"]]
        kinds = {op["traced"] for op in timed}
        return (
            kinds >= ({True, False} if tracer else {False})
            and sum(not op["traced"] for op in timed) >= workload.min_ops
            and time.perf_counter() - start >= seconds
        )

    while not enough():
        k = len(ops)
        traced = tracer is not None and (k - workload.warm_up_ops) % 2 == 1
        ops.append(run_op(cli, workload, k, tracer if traced else None) | {"warm_up": False})
    return ops


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(ops: list[dict], tracer: Tracer, import_s: float) -> dict:
    """Per-layer metrics of a traced run, as ``{name: {"value", "unit"}}``."""
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"] and not op["warm_up"]]
    selections = sum(op.get("n_selections", 0) for op in traced)
    correct = sum(op.get("n_correct", 0) for op in traced)
    outcomes = {
        "import_s": import_s,
        "artifact_bytes": _median(op["artifact_bytes"] for op in traced),
        "cv_accuracy": _median(op["cv_accuracy"] for op in traced if "cv_accuracy" in op),
        "practical_bits_per_s": _median(
            op["practical_bits_per_sec"] for op in traced if "practical_bits_per_sec" in op
        ),
        "correct_ratio": correct / selections if selections else 0.0,
        "trials_per_correct": sum(op.get("n_trials", 0) for op in traced) / correct if correct else 0.0,
        "overhead_s": _median(op["seconds"] for op in traced)
        - _median(op["seconds"] for op in untraced),
    }
    metrics = per_layer_metrics(tracer, len(traced), outcomes)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _git(*args: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(
        ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30, check=True
    )
    return done.stdout.strip()


def environment() -> dict:
    """Machine, thread settings, library versions and source revision."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    try:
        revision = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        revision, dirty = "unknown", None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "git_revision": revision,
        "git_dirty": dirty,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from spellersim import cli

    import_s = time.perf_counter() - start
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.tiny)
        workload.prepare(cli)
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        tracer = Tracer() if args.trace else None
        ops = measure(cli, workload, args.seconds, tracer)
        record = {
            "ops": ops,
            "import_s": import_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(),
        }
        if tracer is not None:
            record["metrics"] = layer_metrics(ops, tracer, import_s)
            spans = WORK / f"trace-{args.workload}-s{args.seed}.json"
            tracer.write(spans, {"workload": args.workload, "seed": args.seed})
            record["spans_file"] = str(spans.relative_to(ROOT))
            record["trace_missing"] = tracer.missing
        print(json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
