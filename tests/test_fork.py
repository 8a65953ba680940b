"""The shared fork pool's in-process fallbacks."""

import multiprocessing
import os

from spellersim import _fork


def _tagged(base, job):
    return base + job, os.getpid()


class TestForkMap:
    def test_one_job_runs_in_this_process(self):
        assert _fork.fork_map(_tagged, [(1,)], (10,), 4) == [(11, os.getpid())]

    def test_runs_in_this_process_where_fork_is_missing(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        results = _fork.fork_map(_tagged, [(1,), (2,)], (10,), 2)
        assert results == [(11, os.getpid()), (12, os.getpid())]
