"""The 42-symbol typing alphabet and its biased illumination randomization.

Symbols are presented in cycles of 7 groups of 6. Group membership is drawn
each cycle by inverse-transform sampling without replacement from a symbol
frequency table, so frequent symbols tend to land in early groups and the
expected wait before the attended symbol lights up is shortened relative to
uniform block randomization.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate

import numpy as np

from . import _fork

__all__ = [
    "SPACE",
    "BACKSPACE",
    "EXIT",
    "SYMBOLS",
    "FrequencyTable",
    "GroupStats",
    "default_frequency_table",
    "uniform_frequency_table",
    "load_frequency_table",
    "draw_permutation",
    "draw_permutations",
    "form_cycle",
    "monte_carlo_group_stats",
]

SPACE = ">"
BACKSPACE = "<"
EXIT = "*"

_LETTERS = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_DIGITS = tuple("0123456789")
_PUNCT = (".", ",", "?")


# The typing alphabet, laid out on the 6x7 grid row by row: letters, digits,
# space/backspace/exit and basic punctuation.
SYMBOLS = _LETTERS + _DIGITS + (SPACE, BACKSPACE, EXIT) + _PUNCT


@dataclass(frozen=True)
class FrequencyTable:
    """Per-symbol selection probabilities, the bias source for randomization."""

    symbols: tuple[str, ...]
    probs: np.ndarray
    source: str = ""
    masses: np.ndarray = field(init=False, repr=False, compare=False)  # what draws weigh by
    _mass_floats: tuple[float, ...] = field(init=False, repr=False, compare=False)  # masses.tolist()

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or len(self.symbols) != probs.size:
            raise ValueError("symbol/probability length mismatch")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbols must be distinct")
        if not np.all(np.isfinite(probs)) or np.any(probs <= 0.0):
            raise ValueError("probabilities must be finite and strictly positive")
        total = float(np.sum(probs))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 (got {total!r})")
        # the read-only draw weights: the steps of the running sum of probs
        # from 0, as np.diff(np.cumsum(probs), prepend=0.0), both as an array
        # for _draw_batch and as a tuple of floats for _draw_row. _draw_batch
        # counts running sums at or below its target, which needs positive
        # steps; a probability too small to move the sum has none.
        cum = np.cumsum(probs)
        masses = cum.copy()
        masses[1:] -= cum[:-1]
        if (masses <= 0.0).any():
            raise ValueError("every probability must move the cumulative sum")
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "_mass_floats", tuple(masses.tolist()))

    def restrict(self, subset: tuple[str, ...]) -> "FrequencyTable":
        """Renormalized table over a subset of symbols, preserving table order.

        Used for repeated single-symbol illumination passes, where the draw is
        biased by the same relative frequencies.
        """
        subset = tuple(subset)
        wanted = set(subset)
        if not wanted:
            raise ValueError("subset must hold at least one symbol")
        if len(wanted) != len(subset):
            repeated = sorted({s for s in subset if subset.count(s) > 1})
            raise ValueError(f"subset repeats symbols {repeated}")
        missing = wanted.difference(self.symbols)
        if missing:
            raise ValueError(f"subset contains symbols not in the table: {sorted(missing)}")
        keep = [i for i, s in enumerate(self.symbols) if s in wanted]
        p = self.probs[keep]
        return FrequencyTable(tuple(self.symbols[i] for i in keep), p / p.sum(), self.source)


def _require_symbols(table: FrequencyTable) -> None:
    """Reject a table over other symbols than the SYMBOLS, naming the missing
    and the extra ones: training and the speller both light each of them."""
    missing = sorted(set(SYMBOLS).difference(table.symbols))
    extra = sorted(set(table.symbols).difference(SYMBOLS))
    if missing or extra:
        raise ValueError(
            f"frequency table must hold exactly the {len(SYMBOLS)} speller symbols: "
            f"missing {missing}, extra {extra}"
        )


def uniform_frequency_table(symbols: tuple[str, ...]) -> FrequencyTable:
    n = len(symbols)
    return FrequencyTable(tuple(symbols), np.full(n, 1.0 / n), source="uniform")


def load_frequency_table(path) -> FrequencyTable:
    """Load a two-column text file: symbol, probability; '#' starts a comment.
    The space symbol must carry the largest probability (ties allowed)."""
    symbols: list[str] = []
    probs: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'symbol probability'")
            symbols.append(parts[0])
            try:
                probs.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad probability {parts[1]!r}") from exc
    table = FrequencyTable(tuple(symbols), np.array(probs), source=str(path))
    if SPACE not in table.symbols:
        raise ValueError(f"{path}: table must contain the space symbol {SPACE!r}")
    if float(table.probs[table.symbols.index(SPACE)]) < float(np.max(table.probs)) - 1e-15:
        raise ValueError(f"{path}: space symbol must carry the largest probability")
    return table


def default_frequency_table() -> FrequencyTable:
    """The bundled English table (see data/frequency_en.txt for provenance)."""
    ref = resources.files("spellersim").joinpath("data/frequency_en.txt")
    with resources.as_file(ref) as path:
        table = load_frequency_table(path)
    return FrequencyTable(table.symbols, table.probs, source="builtin English table")


# Symbols lit together on one stage-1 trial, and the groups of one cycle,
# which lights every symbol once: 7 groups of 6.
_GROUP_SIZE = 6
_CYCLE_GROUPS = len(SYMBOLS) // _GROUP_SIZE

# Runs per block of monte_carlo_group_stats: each (1024, 42) array fits in L2.
_BLOCK_RUNS = 1024


def _draw_batch(masses: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Weighted permutations without replacement, one per row of u.

    Each position consumes one uniform: the remaining masses are accumulated,
    the uniform is scaled onto the remaining total and inverted through the
    running CDF, and the drawn symbol's mass is zeroed (proportional
    renormalization). Row r consumes u[r, 0], u[r, 1], ... in order, so a
    batch of n rows is bit-identical to n sequential single draws, and to
    _draw_row on each row.

    The masses are held as (n_syms, n_runs), one run per lane of the fast
    axis, so the running sums are n_syms - 1 vector adds across all runs, in
    the same order as a per-row cumsum. The masses are non-negative, so the
    sums never decrease and the pick, the first sum above the target, is the
    count of sums at or below it. A count of n_syms means u rounded up onto
    the full remaining mass; that run takes its last symbol with mass left.
    Every step streams n_syms x n_runs floats, so callers with many rows pass
    them in blocks of _BLOCK_RUNS.
    """
    n_runs, n_syms = u.shape
    m = np.repeat(masses[:, None], n_runs, axis=1)
    cum = np.empty_like(m)
    below = np.empty(m.shape, dtype=bool)
    count = np.min_scalar_type(n_syms)  # narrowest type for 0..n_syms: a cheap sum
    out = np.empty((n_runs, n_syms), dtype=np.int64)
    runs = np.arange(n_runs)
    steps = list(zip(cum[:-1], m[1:], cum[1:]))
    for k in range(n_syms):
        cum[0] = m[0]
        for prev, row, cur in steps:
            np.add(prev, row, cur)
        np.less_equal(cum, u[:, k] * cum[-1], out=below)
        j = below.sum(axis=0, dtype=count)
        if j.max() == n_syms:
            stuck = j == n_syms
            j[stuck] = n_syms - 1 - (m[::-1, stuck] > 0.0).argmax(axis=0)
        out[:, k] = j
        m[j, runs] = 0.0
    return out


def _draw_row(masses: tuple[float, ...], u: list[float]) -> list[int]:
    """One row of _draw_batch in plain Python: the same sums, picks and indices.

    A drawn symbol's mass is removed rather than zeroed; adding 0.0 is exact,
    so the running sums over the symbols left are the same floats.
    """
    left = list(range(len(masses)))
    m = list(masses)
    out = []
    for uk in u:
        cum = list(accumulate(m))
        j = bisect_right(cum, uk * cum[-1])
        if j == len(m):  # u rounded up onto the full remaining mass
            j = max(i for i, w in enumerate(m) if w > 0.0)
        out.append(left.pop(j))
        del m[j]
    return out


def _check_runs(n_runs) -> None:
    if isinstance(n_runs, bool) or not isinstance(n_runs, (int, np.integer)):
        raise ValueError(f"n_runs must be an integer, got {n_runs!r}")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")


def draw_permutation(table: FrequencyTable, rng: np.random.Generator) -> tuple[str, ...]:
    """Draw one biased permutation of all symbols without replacement.

    Parameters
    ----------
    table : FrequencyTable
        The symbols and the masses they are drawn by.
    rng : numpy Generator
        Consumes exactly len(table.symbols) uniforms.

    Returns
    -------
    tuple of symbols, most-probable-first in expectation.
    """
    u = rng.random(len(table.symbols))
    symbols = table.symbols
    return tuple([symbols[i] for i in _draw_row(table._mass_floats, u.tolist())])


def draw_permutations(table: FrequencyTable, n_runs: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n_runs independent permutations at once; returns symbol indices.

    Distribution and stream consumption match n_runs sequential calls to
    draw_permutation exactly (row r uses the r-th block of 42 uniforms).
    """
    _check_runs(n_runs)
    u = rng.random((n_runs, len(table.symbols)))
    return _draw_batch(table.masses, u)


def _check_group_size(n_syms: int) -> None:
    if n_syms % _GROUP_SIZE != 0:
        raise ValueError(f"{n_syms} symbols do not split into groups of {_GROUP_SIZE}")


def form_cycle(permutation: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Cut a permutation into consecutive groups of 6: one full pass over the
    alphabet as stage-1 illumination sets.

    The within-group order is the draw order, which is also the stage-2
    single-symbol illumination order.
    """
    perm = tuple(permutation)
    if len(set(perm)) != len(perm):
        raise ValueError("input is not a permutation (repeated symbols)")
    _check_group_size(len(perm))
    return tuple(perm[i : i + _GROUP_SIZE] for i in range(0, len(perm), _GROUP_SIZE))


@dataclass(frozen=True)
class GroupStats:
    """Monte Carlo statistics of symbol placement over many drawn cycles."""

    mean_group: np.ndarray      # per symbol of the table, 1-based group index average
    mean_position: np.ndarray   # per symbol of the table, 1-based draw position average


# Fewest blocks worth a worker of monte_carlo_group_stats: starting the pool
# costs about 20-30 ms, a block about 5.5 ms.
_MIN_WORKER_BLOCKS = 8


def _block_sums(table: FrequencyTable, n_runs: int, rng: np.random.Generator) -> np.ndarray:
    """Per-symbol int64 sums of 0-based group and position over n_runs
    permutations drawn in blocks of _BLOCK_RUNS."""
    n_syms = len(table.symbols)
    sums = np.zeros((2, n_syms), dtype=np.int64)
    ranks = np.arange(n_syms)
    for start in range(0, n_runs, _BLOCK_RUNS):
        orders = draw_permutations(table, min(_BLOCK_RUNS, n_runs - start), rng)
        positions = np.empty_like(orders)
        positions[np.arange(len(orders))[:, None], orders] = ranks
        sums[0] += (positions // _GROUP_SIZE).sum(axis=0)
        sums[1] += positions.sum(axis=0)
    return sums


def _range_sums(table: FrequencyTable, state: dict, start: int, stop: int) -> np.ndarray:
    """_block_sums of runs start..stop of the stream that a PCG64 at `state`
    gives: each run takes len(table.symbols) doubles of one 64-bit output each."""
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    bit_generator.advance(start * len(table.symbols))
    return _block_sums(table, stop - start, np.random.Generator(bit_generator))


def monte_carlo_group_stats(freq: FrequencyTable, n_runs: int, rng: np.random.Generator) -> GroupStats:
    """Estimate per-symbol mean group index and mean draw position.

    Statistics are over n_runs independent permutations, drawn in blocks of
    _BLOCK_RUNS from the stream a single draw_permutations call consumes, into
    exact int64 per-symbol sums, so memory is constant in n_runs and the
    result depends only on the stream. For a PCG64 stream the runs are cut
    into one contiguous range per forked worker, with up to one worker per
    available core and at least _MIN_WORKER_BLOCKS blocks each. Every worker
    advances a copy of the generator to its first run, and rng is then
    advanced past all the runs, keeping its buffered 32-bit value. The result
    and the state of rng afterwards are the same at any worker count.
    """
    n_syms = len(freq.symbols)
    _check_runs(n_runs)
    _check_group_size(n_syms)
    n_blocks = -(-n_runs // _BLOCK_RUNS)
    n_workers = min(_fork._available_cpus(), n_blocks // _MIN_WORKER_BLOCKS)
    bit_generator = rng.bit_generator
    if n_workers <= 1 or not isinstance(bit_generator, np.random.PCG64):
        sums = _block_sums(freq, n_runs, rng)
    else:
        state = bit_generator.state
        edges = [min(n_blocks * k // n_workers * _BLOCK_RUNS, n_runs) for k in range(n_workers + 1)]
        ranges = list(zip(edges[:-1], edges[1:]))
        sums = sum(_fork.fork_map(_range_sums, ranges, (freq, state)))
        bit_generator.advance(n_runs * n_syms)  # which drops the buffered value
        bit_generator.state = {
            **bit_generator.state,
            "has_uint32": state["has_uint32"],
            "uinteger": state["uinteger"],
        }
    group_sum, position_sum = sums
    return GroupStats(
        mean_group=(group_sum + n_runs) / n_runs,
        mean_position=(position_sum + n_runs) / n_runs,
    )
