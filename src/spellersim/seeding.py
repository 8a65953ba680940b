"""Deterministic random-stream management.

Every stochastic component draws from its own labeled substream of a single
root seed. Substreams are independent, so adding a new consumer (or reordering
consumers) never perturbs the draws seen by existing ones.
"""
from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream"]


def substream(seed: int, label: str) -> np.random.Generator:
    """Return the generator for the substream named by ``label``.

    The same (seed, label) pair always yields an identical stream. The seed
    must be a non-negative integer.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    key = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
