"""The shared fork pool's in-process fallbacks and its workers' heap."""

import ctypes
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from spellersim import _fork

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


def _tagged(base, job):
    return base + job, os.getpid()


class TestForkMap:
    def test_one_job_runs_in_this_process(self, cpus):
        cpus(4)
        assert _fork.fork_map(_tagged, [(1,)], (10,)) == [(11, os.getpid())]

    def test_runs_in_this_process_where_fork_is_missing(self, cpus, monkeypatch):
        cpus(2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        results = _fork.fork_map(_tagged, [(1,), (2,)], (10,))
        assert results == [(11, os.getpid()), (12, os.getpid())]


class TestWorkerHeap:
    @pytest.fixture(autouse=True)
    def keep_globals(self, monkeypatch):
        monkeypatch.setattr(_fork, "_fn", None)
        monkeypatch.setattr(_fork, "_inputs", ())

    def test_sets_both_thresholds_through_mallopt(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        _fork._init_worker(abs, (3,))
        assert (_fork._fn, _fork._inputs) == (abs, (3,))
        # M_MMAP_THRESHOLD at glibc's 64-bit ceiling, M_TRIM_THRESHOLD well above a fold
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_is_a_silent_no_op_where_the_library_cannot_load(self, monkeypatch):
        def no_library(name):
            raise OSError("cannot load")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        _fork._init_worker(abs, (3,))
        assert (_fork._fn, _fork._inputs) == (abs, (3,))

    def test_is_a_silent_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        _fork._init_worker(abs, (3,))
        assert (_fork._fn, _fork._inputs) == (abs, (3,))

    @pytest.mark.skipif(
        not (sys.platform.startswith("linux") and _has_mallopt() and _fork._available_cpus() >= 2),
        reason="needs Linux with glibc's mallopt and at least 2 CPUs",
    )
    def test_fold_workers_do_not_fault_their_heap_in_on_every_fold(self):
        # a fresh interpreter, as a train or cv command starts; with glibc's
        # default thresholds its fold workers took about 270k minor faults
        code = (
            "import resource\n"
            "from spellersim.alphabet import default_frequency_table\n"
            "from spellersim.harness import ProtocolConfig, cross_validate, run_training\n"
            "from spellersim.seeding import substream\n"
            "from spellersim.signal import subject_preset\n"
            "config = ProtocolConfig(iti_ms=160.0)\n"
            "table = default_frequency_table()\n"
            "trials = run_training(config, subject_preset('midsnr'), substream(0, 'train'), table)\n"
            "cross_validate(trials, config, repeats=10, folds=10, rng=substream(0, 'cv'))\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=300
        )
        assert int(done.stdout.split()[-1]) < 100_000
