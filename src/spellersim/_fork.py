"""One fork pool for the package's parallel loops, and BLAS thread pinning.

`fork_map` runs independent jobs in forked worker processes. The workers
inherit the shared inputs instead of receiving a pickled copy, run at one
BLAS thread each and keep their heap between jobs, and the results come back
in job order, so a caller that combines them in that order gets the same
bits at any worker count.
"""
from __future__ import annotations

import ctypes
import multiprocessing
import os
from contextlib import contextmanager
from importlib.util import find_spec
from pathlib import Path

# numpy's and scipy's wheels each bundle an OpenBLAS with its own thread pool:
# (package, library glob under its site directory, symbol suffix)
_OPENBLAS = (
    ("numpy", "numpy.libs/libscipy_openblas64_*.so", "64_"),
    ("scipy", "scipy.libs/libscipy_openblas*.so", ""),
)


def _openblas_pools() -> list:
    """(get, set) thread-count functions of each bundled OpenBLAS found; none
    for a build without one (MKL, Accelerate, a system BLAS).

    The packages are located without importing them: a command that never
    fits a model does not load scipy, and a library loaded here first is the
    one scipy binds to when it loads, already at the count set here."""
    pools = []
    for package, pattern, suffix in _OPENBLAS:
        spec = find_spec(package)
        if spec is None or spec.origin is None:
            continue
        for path in sorted(Path(spec.origin).parents[1].glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            pools.append((get, set_threads))
    return pools


@contextmanager
def _one_blas_thread():
    """Run the body with every bundled OpenBLAS at one thread, then restore
    the previous counts. Model fits then give the same bits at any thread
    count, and the two pools do not contend."""
    pools = _openblas_pools()
    previous = [get() for get, _ in pools]
    for _, set_threads in pools:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), n in zip(pools, previous):
            set_threads(n)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


_fn = None  # set in forked workers only
_inputs: tuple = ()


def _init_worker(fn, inputs: tuple) -> None:
    """Keep the inherited job function and inputs, and keep the heap between
    jobs.

    With glibc's defaults a fresh worker maps every array above 128 KB
    afresh and gives freed heap back after each job, so every fold faults
    its temporaries in again. Raising both thresholds keeps that memory for
    the pool's life. Without glibc's mallopt this is a no-op."""
    global _fn, _inputs
    _fn, _inputs = fn, inputs
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's 64-bit ceiling
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def _run_job(job: tuple):
    return _fn(*_inputs, *job)


def fork_map(fn, jobs: list, inputs: tuple) -> list:
    """[fn(*inputs, *job) for job in jobs], in one forked process per job up
    to the number of cores in this process's CPU affinity, at one BLAS
    thread each.

    Runs in this process when one worker is enough or the platform cannot
    fork. A job's error reaches the caller, and no worker outlives the call.
    """
    n_workers = min(_available_cpus(), len(jobs))
    if n_workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        with _one_blas_thread():
            return [fn(*inputs, *job) for job in jobs]
    # the workers are forked at one BLAS thread and inherit that count: a
    # worker that set its own count would restart the OpenBLAS threads the
    # fork shut down, and they would spin beside the job for about 0.1 s
    context = multiprocessing.get_context("fork")
    with _one_blas_thread(), context.Pool(n_workers, _init_worker, (fn, inputs)) as pool:
        return pool.map(_run_job, jobs, chunksize=1)
