"""Fixtures shared by the test modules."""

import pytest

from spellersim import _fork


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of cores the fork pool sees."""
    return lambda n: monkeypatch.setattr(_fork, "_available_cpus", lambda: n)
