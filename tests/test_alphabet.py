"""Alphabet layer: the 6x7 matrix, the frequency bias, inverse-sampled cycles."""

import functools
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spellersim import _fork, alphabet
from spellersim.alphabet import (
    _draw_batch,
    _draw_row,
    BACKSPACE,
    EXIT,
    SPACE,
    SYMBOLS,
    FrequencyTable,
    default_frequency_table,
    draw_permutation,
    draw_permutations,
    form_cycle,
    load_frequency_table,
    monte_carlo_group_stats,
    uniform_frequency_table,
)

N_RUNS = 100_000


@pytest.fixture(scope="module")
def table():
    return default_frequency_table()


@pytest.fixture(scope="module")
def biased_stats(table):
    return monte_carlo_group_stats(table, N_RUNS, np.random.default_rng(0))


@pytest.fixture(scope="module")
def uniform_stats(table):
    uniform = uniform_frequency_table(table.symbols)
    return monte_carlo_group_stats(uniform, N_RUNS, np.random.default_rng(1))


class TestCharacterSet:
    def test_default_layout(self):
        # the 6x7 grid row by row; the speller's evidence index follows it
        assert SYMBOLS == tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789><*.,?")
        assert (SPACE, BACKSPACE, EXIT) == (">", "<", "*")
        assert len(set(SYMBOLS)) == 42


class TestFrequencyTable:
    def test_default_table_shape(self, table):
        assert len(table.symbols) == 42
        assert abs(float(table.probs.sum()) - 1.0) <= 1e-12
        assert np.all(table.probs > 0.0)

    def test_space_dominates_and_top_six(self, table):
        order = np.argsort(table.probs)[::-1]
        ranked = [table.symbols[i] for i in order]
        assert ranked[0] == SPACE
        assert set(ranked[:6]) == {SPACE, "E", "T", "A", "O", "I"}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FrequencyTable((SPACE, "E"), np.array([1.0, 0.0]))

    def test_rejects_a_probability_matrix(self):
        with pytest.raises(ValueError, match="length mismatch"):
            FrequencyTable((SPACE, "E"), np.array([[0.5, 0.5]]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            FrequencyTable((SPACE, "E"), np.array([0.9, 0.2]))

    def test_rejects_space_not_max(self, tmp_path):
        # a table built in code need not favour the space; a loaded one must
        assert FrequencyTable((SPACE, "E"), np.array([0.4, 0.6])).symbols == (SPACE, "E")
        path = tmp_path / "table.txt"
        path.write_text(f"{SPACE} 0.4\nE 0.6\n")
        with pytest.raises(ValueError) as exc:
            load_frequency_table(path)
        assert str(exc.value) == f"{path}: space symbol must carry the largest probability"
        path.write_text("T 0.4\nE 0.6\n")
        with pytest.raises(ValueError) as exc:
            load_frequency_table(path)
        assert str(exc.value) == f"{path}: table must contain the space symbol '>'"

    def test_uniform_table_allowed(self, table):
        uniform = uniform_frequency_table(table.symbols)
        assert np.allclose(uniform.probs, 1.0 / 42.0)

    def test_restrict_renormalizes_in_order(self, table):
        group = ("T", "A", "E")
        sub = table.restrict(group)
        # table order, not argument order
        assert sub.symbols == tuple(s for s in table.symbols if s in group)
        assert abs(float(sub.probs.sum()) - 1.0) <= 1e-12
        # relative proportions preserved
        def ratio(t):
            return t.probs[t.symbols.index("E")] / t.probs[t.symbols.index("T")]

        assert np.isclose(ratio(sub), ratio(table))

    def test_restrict_rejects_foreign_symbols(self, table):
        with pytest.raises(ValueError, match=r"not in the table: \['#'\]"):
            table.restrict(("E", "#"))

    def test_restrict_rejects_an_empty_subset(self, table):
        with pytest.raises(ValueError, match="at least one symbol"):
            table.restrict(())

    def test_restrict_reports_a_repeated_symbol(self, table):
        with pytest.raises(ValueError, match=r"repeats symbols \['E'\]"):
            table.restrict(("E", "T", "E"))


class TestCdf:
    """A table's masses: the steps of the running CDF (the breakpoints) that
    the draw inverts, checked when the table is made."""

    def test_uniform_breakpoints(self, table):
        uniform = uniform_frequency_table(table.symbols)
        assert np.allclose(np.cumsum(uniform.masses), np.arange(1, 43) / 42.0)

    def test_final_breakpoint_is_one(self, table):
        assert abs(float(np.cumsum(table.masses)[-1]) - 1.0) <= 1e-12

    def test_masses_invert_the_integration(self, table):
        assert np.allclose(table.masses, table.probs, atol=1e-15)

    def test_masses_are_computed_once_and_read_only(self, table):
        for freq in (table, table.restrict(SYMBOLS), table.restrict(("T", "A", "E"))):
            assert freq.masses is freq.masses
            assert freq.masses.tobytes() == np.diff(np.cumsum(freq.probs), prepend=0.0).tobytes()
            with pytest.raises(ValueError):
                freq.masses[0] = 1.0

    def test_mass_floats_are_the_masses_as_an_immutable_tuple(self, table, tmp_path):
        # draw_permutation reads the tuple in place of masses.tolist() per draw
        path = tmp_path / "table.txt"
        path.write_text("".join(f"{s} {float(p)!r}\n" for s, p in zip(table.symbols, table.probs)))
        loaded = load_frequency_table(path)
        uniform = uniform_frequency_table(table.symbols)
        for freq in (table, uniform, loaded, table.restrict(SYMBOLS), table.restrict(("T", "A", "E"))):
            floats = freq._mass_floats
            assert type(floats) is tuple
            assert all(type(m) is float for m in floats)
            assert floats == tuple(freq.masses.tolist())
            assert freq._mass_floats is floats
            with pytest.raises(TypeError):
                floats[0] = 1.0
            with pytest.raises(AttributeError):
                freq._mass_floats = (1.0,) * len(floats)

    def test_rejects_nonmonotone_breakpoints(self):
        # 1e-17 sums to 1.0 and does not move the running sum past it
        with pytest.raises(ValueError, match="move the cumulative sum"):
            FrequencyTable((SPACE, "E"), np.array([1.0, 1e-17]))

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [0.5, np.nan], [-np.inf, 1.0]])
    def test_rejects_non_finite_breakpoints(self, bad):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            FrequencyTable((SPACE, "E"), np.array(bad))

    def test_rejects_empty_breakpoints(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FrequencyTable((), np.array([]))


class TestDrawPermutation:
    def test_always_a_bijection(self, table):
        rng = np.random.default_rng(7)
        for _ in range(500):
            perm = draw_permutation(table, rng)
            assert sorted(perm) == sorted(table.symbols)

    def test_consumes_exactly_one_uniform_per_symbol(self, table):
        rng = np.random.default_rng(3)
        draw_permutation(table, rng)
        expected = np.random.default_rng(3).random(43)[42]
        assert rng.random() == expected

    def test_batch_matches_sequential(self, table):
        batch = draw_permutations(table, 2000, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        for r in range(2000):
            perm = draw_permutation(table, rng)
            assert tuple(table.symbols[int(i)] for i in batch[r]) == perm

    def test_first_draw_marginal_matches_table(self, table):
        # chi-square goodness of fit on the first-position counts, drawn in
        # blocks to bound memory
        rng = np.random.default_rng(0)
        first = np.concatenate([draw_permutations(table, 10_000, rng)[:, 0] for _ in range(N_RUNS // 10_000)])
        result = stats.chisquare(np.bincount(first, minlength=42), f_exp=N_RUNS * table.probs)
        assert result.pvalue > 0.01

    def test_rejects_non_integer_runs(self, table):
        for bad in (2.5, True, "3", None):
            with pytest.raises(ValueError, match="n_runs must be an integer"):
                draw_permutations(table, bad, np.random.default_rng(0))

    def test_uniform_position_marginals(self, table):
        freq = uniform_frequency_table(table.symbols)
        orders = draw_permutations(freq, 20_000, np.random.default_rng(5))
        # any fixed position is uniform over symbols: check positions 0 and 41
        for pos in (0, 41):
            counts = np.bincount(orders[:, pos], minlength=42)
            result = stats.chisquare(counts)
            assert result.pvalue > 0.01


# nextafter(1.0, 0.0) is the largest value rng.random returns; its scaled
# target still falls below the remaining total. 1.0 reaches the total, so no
# running sum exceeds it and the stuck-row rule picks the last symbol left.
_EDGE_UNIFORMS = (np.nextafter(1.0, 0.0), 1.0)


@st.composite
def positive_masses(draw):
    """2-42 strictly positive masses; half of them uniform tables."""
    n = draw(st.integers(2, 42))
    if draw(st.booleans()):
        return np.full(n, 1.0 / n)
    return np.array(draw(st.lists(st.floats(1e-9, 1e3), min_size=n, max_size=n)), dtype=float)


@st.composite
def masses_and_uniforms(draw):
    masses = draw(positive_masses())
    n = masses.size
    rows = draw(st.integers(1, 6))
    u = np.array(
        draw(
            st.lists(
                st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(_EDGE_UNIFORMS)),
                min_size=rows * n,
                max_size=rows * n,
            )
        )
    ).reshape(rows, n)
    return masses, u


class TestKernelEquivalence:
    """_draw_row and _draw_batch are each other's oracle: identical indices."""

    @settings(max_examples=300, deadline=None)
    @given(masses_and_uniforms())
    def test_row_kernel_equals_batch_kernel(self, case):
        masses, u = case
        batch = _draw_batch(masses, u)
        for r in range(u.shape[0]):
            row = _draw_row(masses.tolist(), u[r].tolist())
            assert row == batch[r].tolist()
            assert sorted(row) == list(range(masses.size))

    def test_unit_uniform_takes_the_last_symbol_left(self):
        masses = np.array([0.5, 0.3, 0.2])
        u = np.ones((1, 3))
        assert _draw_batch(masses, u).tolist() == [[2, 1, 0]]
        assert _draw_row(masses.tolist(), u[0].tolist()) == [2, 1, 0]


def _draw_batch_by_rows(masses: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The row-major _draw_batch that the run-major kernel replaced, verbatim."""
    n_runs, n_syms = u.shape
    m = np.repeat(masses[None, :], n_runs, axis=0)
    out = np.empty((n_runs, n_syms), dtype=np.int64)
    rows = np.arange(n_runs)
    for k in range(n_syms):
        cum = np.cumsum(m, axis=1)
        target = u[:, k] * cum[:, -1]
        hit = cum > target[:, None]
        j = hit.argmax(axis=1)
        stuck = ~hit[rows, j]  # u rounded up onto the full remaining mass
        if stuck.any():
            j[stuck] = n_syms - 1 - (m[stuck, ::-1] > 0.0).argmax(axis=1)
        out[:, k] = j
        m[rows, j] = 0.0
    return out


_KERNEL_RUNS = (1, 2, 1023, 1024, 1025)


@st.composite
def masses_and_block(draw):
    """Masses and a seeded uniform block of one of _KERNEL_RUNS rows.

    A few cells are set to the edge uniforms, and a few first draws to ties:
    uniforms whose target lands on a running sum, where "first sum above the
    target" and "count of sums at or below it" must agree.
    """
    masses = draw(positive_masses())
    n = masses.size
    n_runs = draw(st.sampled_from(_KERNEL_RUNS))
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n_runs, n))
    cells = st.tuples(
        st.integers(0, n_runs - 1), st.integers(0, n - 1), st.sampled_from(_EDGE_UNIFORMS)
    )
    for r, k, value in draw(st.lists(cells, max_size=8)):
        u[r, k] = value
    cum = np.cumsum(masses)
    ties = st.tuples(st.integers(0, n_runs - 1), st.integers(0, n - 1))
    for r, i in draw(st.lists(ties, max_size=8)):
        u[r, 0] = cum[i] / cum[-1]
    return masses, u


class TestRunMajorKernel:
    """_draw_batch makes the same picks as the row-major kernel it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(masses_and_block())
    def test_equals_the_row_major_kernel(self, case):
        masses, u = case
        got = _draw_batch(masses, u)
        assert got.dtype == np.int64 and got.shape == u.shape
        assert np.array_equal(got, _draw_batch_by_rows(masses, u))

    @pytest.mark.parametrize("n_runs", _KERNEL_RUNS)
    @pytest.mark.parametrize("uniform", [False, True])
    def test_stuck_rows_in_every_column(self, table, n_runs, uniform):
        freq = uniform_frequency_table(table.symbols) if uniform else table
        masses = freq.masses
        u = np.random.default_rng(n_runs).random((n_runs, 42))
        # run r is stuck at step r % 42; with n_runs >= 42 every step has one
        u[np.arange(n_runs), np.arange(n_runs) % 42] = 1.0
        want = _draw_batch_by_rows(masses, u)
        assert np.array_equal(_draw_batch(masses, u), want)
        assert all(sorted(row) == list(range(42)) for row in want.tolist())


class TestFormCycle:
    def test_identity_slicing(self, table):
        groups = form_cycle(table.symbols)
        assert tuple(s for group in groups for s in group) == table.symbols
        assert len(groups) == 7
        for g, group in enumerate(groups):
            assert group == table.symbols[6 * g : 6 * g + 6]

    def test_groups_partition_the_alphabet(self, table):
        groups = form_cycle(draw_permutation(table, np.random.default_rng(2)))
        pooled = [s for group in groups for s in group]
        assert sorted(pooled) == sorted(table.symbols)
        assert all(len(group) == 6 for group in groups)

    def test_rejects_duplicates_and_bad_length(self, table):
        with pytest.raises(ValueError):
            form_cycle(table.symbols[:41] + (table.symbols[0],))
        with pytest.raises(ValueError):
            form_cycle(table.symbols[:41])


class TestMonteCarloStats:
    def test_single_run_equals_its_permutation(self, table):
        stats_1 = monte_carlo_group_stats(table, 1, np.random.default_rng(9))
        perm = draw_permutation(table, np.random.default_rng(9))
        for symbol in table.symbols:
            assert stats_1.mean_group[table.symbols.index(symbol)] == perm.index(symbol) // 6 + 1
            assert stats_1.mean_position[table.symbols.index(symbol)] == perm.index(symbol) + 1

    def test_space_lands_in_the_first_two_groups(self, table, biased_stats):
        mean_group = biased_stats.mean_group[table.symbols.index(SPACE)]
        assert 1.5 <= mean_group <= 1.7

    def test_top_twelve_lead_the_cycle(self, table, biased_stats):
        order = np.argsort(table.probs)[::-1]
        top12 = order[:12]
        assert float(biased_stats.mean_group[top12].mean()) <= 2.0

    def test_uniform_baseline_centers_on_group_four(self, uniform_stats):
        assert np.all(np.abs(uniform_stats.mean_group - 4.0) <= 0.05)

    def test_group_and_position_are_consistent(self, biased_stats):
        # group index is the position index folded into blocks of six; on
        # average the two must agree within the block width
        approx = (biased_stats.mean_position - 1) / 6.0 + 1.0
        assert np.all(np.abs(biased_stats.mean_group - approx) <= 0.5)

    def test_rejects_zero_runs(self, table):
        with pytest.raises(ValueError):
            monte_carlo_group_stats(table, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [2.5, True, "3", None])
    def test_rejects_non_integer_runs(self, table, bad):
        with pytest.raises(ValueError, match="n_runs must be an integer"):
            monte_carlo_group_stats(table, bad, np.random.default_rng(0))

    @pytest.mark.parametrize("n_symbols", [5, 7, 41, 43])
    def test_rejects_group_size_that_does_not_divide_the_alphabet(self, n_symbols):
        symbols = tuple(f"s{i}" for i in range(n_symbols - 1)) + (SPACE,)
        with pytest.raises(ValueError, match=f"{n_symbols} symbols do not split into groups of 6"):
            monte_carlo_group_stats(uniform_frequency_table(symbols), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("n_runs", [1, 1023, 1024, 1025, 5000])
    @pytest.mark.parametrize("uniform", [False, True])
    def test_streamed_blocks_equal_one_batch(self, table, n_runs, uniform):
        freq = uniform_frequency_table(table.symbols) if uniform else table
        rng_blocks = np.random.default_rng(n_runs)
        rng_batch = np.random.default_rng(n_runs)
        got = monte_carlo_group_stats(freq, n_runs, rng_blocks)
        orders = draw_permutations(freq, n_runs, rng_batch)
        positions = np.argsort(orders, axis=1)
        assert np.array_equal(got.mean_group, (positions // 6 + 1).mean(axis=0))
        assert np.array_equal(got.mean_position, (positions + 1).mean(axis=0))
        assert rng_blocks.bit_generator.state == rng_batch.bit_generator.state

    def test_memory_does_not_grow_with_runs(self, table):
        tracemalloc.start()
        try:
            monte_carlo_group_stats(table, 200_000, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (200000, 42) int64 array alone is 67 MB
        assert peak < 4_000_000


@functools.cache
def _serial_sums(n_runs: int):
    """The serial block loop's sums and the generator state it leaves."""
    rng = np.random.default_rng(n_runs)
    sums = alphabet._block_sums(default_frequency_table(), n_runs, rng)
    return sums, rng.bit_generator.state


def _matches(stats, sums, n: int) -> bool:
    return (
        np.array_equal(stats.mean_group, (sums[0] + n) / n)
        and np.array_equal(stats.mean_position, (sums[1] + n) / n)
    )


class TestMonteCarloPool:
    # 8191 runs is the largest count that stays in one process (8 blocks);
    # 16383-16385 split into two ranges around a partial last block
    @pytest.mark.parametrize("n_runs", [1, 1024, 8191, 16383, 16384, 16385, 100_000])
    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_equals_the_serial_block_loop(self, table, cpus, n_runs, n_cpus):
        cpus(n_cpus)
        want, want_state = _serial_sums(n_runs)
        rng = np.random.default_rng(n_runs)
        got = monte_carlo_group_stats(table, n_runs, rng)
        assert _matches(got, want, n_runs)
        assert rng.bit_generator.state == want_state

    def test_keeps_a_buffered_32_bit_value(self, table, cpus):
        cpus(2)
        pooled, serial = np.random.default_rng(6), np.random.default_rng(6)
        for rng in (pooled, serial):
            rng.integers(0, 2**32, dtype=np.uint32)
        assert pooled.bit_generator.state["has_uint32"] == 1
        got = monte_carlo_group_stats(table, 20_000, pooled)
        assert _matches(got, alphabet._block_sums(table, 20_000, serial), 20_000)
        assert pooled.bit_generator.state == serial.bit_generator.state
        assert pooled.integers(0, 2**32, dtype=np.uint32) == serial.integers(0, 2**32, dtype=np.uint32)

    def test_other_bit_generators_stay_in_one_process(self, table, cpus, monkeypatch):
        cpus(2)
        serial = np.random.Generator(np.random.MT19937(3))
        want = alphabet._block_sums(table, 20_000, serial)

        def no_pool(*args):
            raise AssertionError("forked a pool for an MT19937 stream")

        monkeypatch.setattr(_fork, "fork_map", no_pool)
        rng = np.random.Generator(np.random.MT19937(3))
        assert _matches(monte_carlo_group_stats(table, 20_000, rng), want, 20_000)
        got_state, want_state = (r.bit_generator.state["state"] for r in (rng, serial))
        assert got_state["pos"] == want_state["pos"]
        assert np.array_equal(got_state["key"], want_state["key"])

    def test_worker_error_reaches_the_caller_and_leaves_nothing_behind(self, table, cpus, monkeypatch):
        cpus(2)

        def broken_draw(*args):
            raise RuntimeError("draw failed")

        monkeypatch.setattr(alphabet, "draw_permutations", broken_draw)  # forks inherit it
        with pytest.raises(RuntimeError, match="draw failed"):
            monte_carlo_group_stats(table, 20_000, np.random.default_rng(0))
        assert multiprocessing.active_children() == []
        assert _fork._fn is None and _fork._inputs == ()

    def test_worker_memory_does_not_grow_with_runs(self, table):
        state = np.random.default_rng(0).bit_generator.state
        tracemalloc.start()
        try:
            alphabet._range_sums(table, state, 100_000, 160_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (60000, 42) int64 array alone is 20 MB
        assert peak < 4_000_000


class TestTableLoader:
    def test_round_trip(self, tmp_path, table):
        path = tmp_path / "table.txt"
        lines = ["# header comment"]
        for symbol, prob in zip(table.symbols, table.probs):
            lines.append(f"{symbol} {float(prob)!r}")
        path.write_text("\n".join(lines) + "\n")
        loaded = load_frequency_table(path)
        assert loaded.symbols == table.symbols
        assert np.array_equal(loaded.probs, table.probs)

    def test_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A 0.5 extra\n")
        with pytest.raises(ValueError, match="expected 'symbol probability'"):
            load_frequency_table(path)

    def test_rejects_bad_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("> half\n")
        with pytest.raises(ValueError, match="bad probability"):
            load_frequency_table(path)
