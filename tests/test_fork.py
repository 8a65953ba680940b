"""The shared fork pool's in-process fallbacks."""

import multiprocessing
import os

from spellersim import _fork


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
