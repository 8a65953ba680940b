"""Deterministic random-stream management.

Every stochastic component draws from its own labeled substream of a single
root seed. Substreams are independent, so adding a new consumer (or reordering
consumers) never perturbs the draws seen by existing ones.
"""
from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream"]


def substream(seed: int, *labels: str) -> np.random.Generator:
    """Return the generator for the substream named by ``labels``.

    The same (seed, labels) pair always yields an identical stream. The seed
    must be a non-negative integer.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not labels:
        return np.random.default_rng(np.random.SeedSequence(seed))
    key = tuple(
        int.from_bytes(hashlib.sha256(lab.encode("utf-8")).digest()[:8], "little")
        for lab in labels
    )
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
