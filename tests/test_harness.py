"""Protocol-level behavior: training sessions, offline scoring, the online loop."""

import csv
import dataclasses
import math
import multiprocessing
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spellersim import _fork, harness, speller
from spellersim.alphabet import SYMBOLS, FrequencyTable, default_frequency_table, draw_permutation, form_cycle
from spellersim.channel import ChannelSpec, ConfusionMatrix, mutual_information
from spellersim.classifier import decide_batch, fit as fit_classifier
from spellersim.features import _fit_with_training_features, extract_batch
from spellersim.harness import (
    BENCHMARK_SENTENCE,
    ONLINE_PRIORS,
    CvResult,
    ProtocolConfig,
    TrialBatch,
    _MAX_GAP_S,
    _MAX_TRAIN_TRIALS,
    cross_validate,
    cv_row,
    fit_final_model,
    run_online,
    run_training,
    session_row,
    subsample_check,
    write_cv_csv,
    write_session_csv,
)
from spellersim.seeding import substream
from spellersim.signal import (
    DISCARD_SAMPLES,
    FEATURE_DIM,
    N_CHANNELS,
    N_SAMPLES,
    SessionSynthesizer,
    subject_preset,
)
from spellersim.speller import Speller, load_session_log

SPEEDS = ("slow", "medium", "fast")
EXPECTED_TRAIN_COUNTS = {"slow": 750, "medium": 1250, "fast": 1870}


@pytest.fixture(scope="module")
def oracle():
    return subject_preset("oracle")


@pytest.fixture(scope="module")
def config_by_speed():
    return {
        name: ProtocolConfig(iti_ms=iti)
        for name, iti in (("slow", 400.0), ("medium", 240.0), ("fast", 160.0))
    }


@pytest.fixture(scope="module")
def oracle_recordings(oracle, config_by_speed, recorded_training):
    """Each speed's session, with the group and the onset of every trial."""
    return {
        name: recorded_training(cfg, oracle, np.random.default_rng(11))
        for name, cfg in config_by_speed.items()
    }


@pytest.fixture(scope="module")
def oracle_sessions(oracle_recordings):
    return {name: recording[0] for name, recording in oracle_recordings.items()}


@pytest.fixture(scope="module")
def oracle_models(oracle_sessions, config_by_speed):
    return {
        name: fit_final_model(oracle_sessions[name], config_by_speed[name])
        for name in SPEEDS
    }


class TestProtocolConfig:
    def test_defaults_give_slow_protocol(self):
        cfg = ProtocolConfig()
        assert cfg.iti_ms == 400.0
        assert cfg.trials_per_char == 75
        assert cfg.train_trial_count == 750

    def test_trial_counts_per_speed(self):
        assert ProtocolConfig(iti_ms=400.0).train_trial_count == 750
        assert ProtocolConfig(iti_ms=240.0).train_trial_count == 1250
        assert ProtocolConfig(iti_ms=160.0).train_trial_count == 1870

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ProtocolConfig().iti_ms = 100.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iti_ms": 0.0},
            {"iti_ms": -1.0},
            {"pause_s": 0.0},
            {"train_chars": 0},
            {"theta_stage1": 0.0},
            {"theta_stage2": -0.5},
            {"overhead_ms": -1.0},
            {"eta": 0.0},
            {"eta": 1.5},
            {"m_max": 0},
            {"iti_ms": float("inf")},
            {"pause_s": float("nan")},
            {"overhead_ms": float("inf")},
            {"train_seconds_per_char": 0.1},
            {"iti_ms": 5e-324},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolConfig(**kwargs)

    def test_class_floors_on_the_fast_presets(self):
        # 187 trials per character: 26 full cycles and a partial one of 5
        assert ProtocolConfig(iti_ms=160.0).class_floors == (260, 1600)
        assert ProtocolConfig().class_floors == (100, 640)

    @settings(max_examples=40, deadline=None)
    @given(
        train_chars=st.integers(1, 4),
        iti_ms=st.sampled_from([100.0, 160.0, 400.0]),
        train_seconds_per_char=st.floats(0.4, 4.0),
        seed=st.integers(0, 3),
    )
    def test_every_session_holds_the_class_floors(self, frequency, train_chars, iti_ms, train_seconds_per_char, seed):
        # each block's full cycles light its target once, and its partial
        # cycle at most once
        config = ProtocolConfig(
            iti_ms=iti_ms, train_chars=train_chars, train_seconds_per_char=train_seconds_per_char
        )
        trials = run_training(config, subject_preset("oracle"), substream(seed, "train"), frequency)
        odd_floor, other_floor = config.class_floors
        n_odd = int(trials.is_oddball.sum())
        assert odd_floor <= n_odd <= odd_floor + train_chars
        assert len(trials) - n_odd >= other_floor

    def test_calibration_session_is_bounded(self):
        # the largest session the bound allows: 10 characters x 5,000 trials
        largest = ProtocolConfig(iti_ms=100.0, train_seconds_per_char=500.0)
        assert largest.train_trial_count == _MAX_TRAIN_TRIALS == 50_000
        # one trial per character more; and 213 PiB of rows, which once
        # reached the allocation before anything failed
        for kwargs in (
            {"iti_ms": 100.0, "train_seconds_per_char": 500.1},
            {"iti_ms": 160.0, "train_seconds_per_char": 1e12},
            {"iti_ms": 1.0, "train_chars": 1, "train_seconds_per_char": 50.001},
        ):
            with pytest.raises(ValueError) as exc:
                ProtocolConfig(**kwargs)
            message = str(exc.value)
            for name in ("train_chars", "train_seconds_per_char", "iti_ms", "50,000"):
                assert name in message, (kwargs, message)

    def test_the_gap_between_onsets_is_bounded(self):
        # each trial draws the noise of the whole gap since the previous
        # window, so its cost grows with the gap
        assert _MAX_GAP_S == 10.0
        assert ProtocolConfig(iti_ms=9988.0, overhead_ms=12.0, pause_s=10.0).pause_s == 10.0
        for kwargs, names in (
            ({"iti_ms": 9988.5, "overhead_ms": 12.0}, ("iti_ms", "overhead_ms")),
            ({"iti_ms": 160.0, "overhead_ms": 1e9}, ("iti_ms", "overhead_ms")),
            ({"iti_ms": 1e9, "train_seconds_per_char": 1e9}, ("iti_ms", "overhead_ms")),
            ({"pause_s": 10.5}, ("pause_s",)),
            ({"pause_s": 1e9}, ("pause_s",)),
        ):
            with pytest.raises(ValueError) as exc:
                ProtocolConfig(**kwargs)
            message = str(exc.value)
            for name in (*names, "10 s"):
                assert name in message, (kwargs, message)


class TestRunTraining:
    @pytest.mark.parametrize("speed", SPEEDS)
    def test_session_lengths(self, speed, oracle_recordings):
        (trials, groups, onsets), n = oracle_recordings[speed], EXPECTED_TRAIN_COUNTS[speed]
        assert len(trials) == len(groups) == len(onsets) == n
        assert trials.vectors.shape == (n, FEATURE_DIM)
        assert trials.vectors.dtype == np.float64
        assert trials.is_oddball.shape == (n,)
        assert trials.is_oddball.dtype == bool

    def test_each_complete_cycle_has_one_oddball(self, oracle_recordings, config_by_speed):
        symbols = sorted(SYMBOLS)
        for speed in SPEEDS:
            trials, shown, _ = oracle_recordings[speed]
            per_char = config_by_speed[speed].trials_per_char
            for start in range(0, len(trials), per_char):
                odd = trials.is_oddball[start : start + per_char]
                groups = shown[start : start + per_char]
                full = 7 * (per_char // 7)
                for c in range(0, full, 7):
                    assert int(odd[c : c + 7].sum()) == 1
                    assert sorted(s for group in groups[c : c + 7] for s in group) == symbols
                assert int(odd[full:].sum()) <= 1

    def test_label_ratio_near_one_in_seven(self, oracle_sessions):
        for speed in SPEEDS:
            frac = np.mean(oracle_sessions[speed].is_oddball)
            assert abs(frac - 1.0 / 7.0) < 0.01

    def test_onsets_restart_each_block(self, oracle_recordings, config_by_speed):
        cfg = config_by_speed["slow"]
        trials, _, onsets = oracle_recordings["slow"]
        step_s = (cfg.iti_ms + cfg.overhead_ms) / 1000.0
        want = [(i % cfg.trials_per_char) * step_s for i in range(len(trials))]
        assert onsets == want

    def test_same_seed_reproduces_the_session(self, oracle, config_by_speed, recorded_training):
        cfg = config_by_speed["slow"]
        a, a_groups, a_onsets = recorded_training(cfg, oracle, np.random.default_rng(3))
        b, b_groups, b_onsets = recorded_training(cfg, oracle, np.random.default_rng(3))
        assert len(a) == len(b)
        assert a_groups == b_groups
        assert np.array_equal(a.is_oddball, b.is_oddball)
        assert np.array_equal(a.vectors, b.vectors)
        assert a_onsets == b_onsets

    def test_batch_rejects_columns_of_different_lengths(self, oracle_sessions):
        trials = oracle_sessions["slow"]
        with pytest.raises(ValueError, match="same length"):
            TrialBatch(trials.vectors, trials.is_oddball[:-1])

    @pytest.mark.parametrize(
        "shape, labels",
        [((10, N_CHANNELS, N_SAMPLES), 10), ((FEATURE_DIM,), FEATURE_DIM), ((10, FEATURE_DIM), 9), ((10, 60), 10)],
        ids=["windows", "one_row", "lengths", "width"],
    )
    def test_batch_names_the_row_shape_it_needs(self, shape, labels):
        with pytest.raises(ValueError, match=rf"\(n, {FEATURE_DIM}\)"):
            TrialBatch(np.zeros(shape), np.zeros(labels, dtype=bool))

    @pytest.mark.parametrize("speed", SPEEDS)
    @pytest.mark.parametrize("subject", ["oracle", "midsnr"])
    def test_rows_equal_the_preprocessed_windows_of_the_replaced_session(
        self, subject, speed, config_by_speed, frequency
    ):
        config = config_by_speed[speed]
        trials = run_training(config, subject_preset(subject), np.random.default_rng(12), frequency)
        windows, labels = _run_training_windows(config, subject_preset(subject), np.random.default_rng(12))
        want = _preprocess_stack(windows)
        assert trials.vectors.dtype == want.dtype and trials.vectors.shape == want.shape
        assert trials.vectors.tobytes() == want.tobytes()
        assert np.array_equal(trials.is_oddball, labels)

    @pytest.mark.parametrize(
        "drop, add, named",
        [
            ("JKQVXZ", "", r"missing \['J', 'K', 'Q', 'V', 'X', 'Z'\], extra \[\]"),
            ("?", "#", r"missing \['\?'\], extra \['#'\]"),
        ],
        ids=["rare_letters", "foreign"],
    )
    def test_rejects_a_table_over_other_symbols_before_drawing(
        self, oracle, config_by_speed, frequency, drop, add, named
    ):
        # without the rare letters, 6 of 26 targets would get no oddball
        table = frequency
        keep = [i for i, s in enumerate(table.symbols) if s not in drop]
        probs = np.append(table.probs[keep], table.probs[[table.symbols.index(s) for s in drop[: len(add)]]])
        freq = FrequencyTable(tuple(table.symbols[i] for i in keep) + tuple(add), probs / probs.sum())
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=named):
            run_training(config_by_speed["slow"], oracle, rng, freq)
        assert rng.bit_generator.state == state


def _run_training_windows(config, subject, rng):
    """run_training as it was: the session's (n, 8, 80) windows and labels."""
    table = default_frequency_table()
    letters = [s for s in SYMBOLS if s.isalpha()]
    targets = [letters[int(i)] for i in rng.choice(len(letters), size=config.train_chars, replace=False)]
    step_s = (config.iti_ms + config.overhead_ms) / 1000.0
    per_char = config.trials_per_char
    n = config.train_trial_count
    samples = np.empty((n, N_CHANNELS, N_SAMPLES))
    is_oddball = np.empty(n, dtype=bool)
    i = 0
    for target in targets:
        synth = SessionSynthesizer(subject, rng)
        produced = 0
        while produced < per_char:
            for group in form_cycle(draw_permutation(table, rng))[: per_char - produced]:
                is_oddball[i] = is_odd = target in group
                samples[i] = synth.trial(produced * step_s, is_odd)
                i += 1
                produced += 1
    return samples, is_oddball


def _preprocess_stack(samples):
    """preprocess of an (n, 8, 80) stack as it was, in one call."""
    samples = np.asarray(samples, dtype=float)
    return samples[..., DISCARD_SAMPLES:].reshape(samples.shape[:-2] + (FEATURE_DIM,))


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCalibrationMemory:
    """A calibration session is held once, as its rows: a fast_midsnr session
    has 1,870 rows of 480 doubles, 7.2 MB."""

    config = ProtocolConfig(iti_ms=160.0)

    def test_a_session_costs_about_its_rows(self, frequency):
        trials, peak = _traced_peak(
            run_training, self.config, subject_preset("midsnr"), substream(0, "train"), frequency
        )
        rows = trials.vectors.nbytes
        assert rows == self.config.train_trial_count * FEATURE_DIM * 8
        assert peak < 1.25 * rows

    def test_the_final_fit_holds_one_class_copy_at_a_time(self, frequency):
        trials = run_training(self.config, subject_preset("midsnr"), substream(0, "train"), frequency)
        _, peak = _traced_peak(fit_final_model, trials, self.config)
        assert peak < 1.5 * trials.vectors.nbytes


class TestCrossValidate:
    def test_oracle_is_perfectly_separable(self, oracle_sessions, config_by_speed):
        cv = cross_validate(
            oracle_sessions["slow"], config_by_speed["slow"], repeats=2, folds=10, rng=np.random.default_rng(1)
        )
        assert cv.accuracy_mean == 1.0
        assert cv.accuracy_std == 0.0
        assert cv.accuracy_best == 1.0
        assert cv.confusion.p_oo == 1.0
        assert cv.confusion.p_ee == 1.0
        assert cv.bits_per_trial > 0.55

    def test_label_independent_noise_collapses_to_majority(self, config_by_speed, frequency):
        config = config_by_speed["fast"]
        trials = run_training(config, subject_preset("noise"), np.random.default_rng(7), frequency)
        cv = cross_validate(trials, config, repeats=2, folds=10, rng=np.random.default_rng(8))
        majority = 6.0 / 7.0
        assert abs(cv.accuracy_mean - majority) <= 0.01
        assert cv.bits_per_trial <= 0.01

    @pytest.mark.parametrize("iti_ms, train_chars", [(160.0, 20), (80.0, 10)])
    def test_sessions_with_a_full_rank_oddball_class_stay_above_majority(self, frequency, iti_ms, train_chars):
        # each training fold holds 484 or 485 oddballs, more than the 480
        # dimensions, so the oddball class is full rank; its mean-offset
        # direction is still the separating feature (both once gave the
        # majority rate)
        config = ProtocolConfig(iti_ms=iti_ms, train_chars=train_chars)
        trials = run_training(config, subject_preset("midsnr"), substream(0, "train"), frequency)
        assert int(trials.is_oddball.sum()) == 538
        cv = cross_validate(trials, config, repeats=1, folds=10, rng=substream(0, "cv"))
        majority = 1.0 - float(trials.is_oddball.mean())
        assert cv.accuracy_mean >= 0.93 > majority + 0.05

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 10).flatmap(
            lambda folds: st.tuples(
                st.just(folds), st.integers(folds, 40), st.integers(folds, 120), st.integers(0, 2**32 - 1)
            )
        )
    )
    def test_every_fold_and_its_training_partition_hold_both_classes(self, case):
        folds, n_odd, n_rest, seed = case
        rng = np.random.default_rng(seed)
        y = rng.permutation(np.arange(n_odd + n_rest) < n_odd)
        assignment = harness._stratified_folds(y, folds, rng)
        for k in range(folds):
            for part in (assignment == k, assignment != k):
                assert y[part].any() and not y[part].all()

    def test_rejects_bad_parameters(self, oracle_sessions, config_by_speed):
        trials, config = oracle_sessions["slow"], config_by_speed["slow"]
        with pytest.raises(ValueError):
            cross_validate(trials, config, repeats=0, folds=10, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            cross_validate(trials, config, repeats=10, folds=1, rng=np.random.default_rng(0))

    def test_the_generator_is_a_required_keyword(self, oracle_sessions, config_by_speed):
        trials, config = oracle_sessions["slow"], config_by_speed["slow"]
        with pytest.raises(TypeError, match="rng"):
            cross_validate(trials, config, repeats=1, folds=10)
        with pytest.raises(TypeError):
            cross_validate(trials, config, 1, 10, np.random.default_rng(0))
        with pytest.raises(TypeError, match="rng"):
            subsample_check(trials, config, 750, repeats=1, folds=10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rows(self, oracle_sessions, config_by_speed, bad):
        trials = oracle_sessions["slow"]
        vectors = trials.vectors.copy()
        vectors[17, 300] = bad
        with pytest.raises(ValueError, match="finite"):
            cross_validate(
                TrialBatch(vectors, trials.is_oddball),
                config_by_speed["slow"],
                repeats=1,
                folds=10,
                rng=np.random.default_rng(0),
            )

    def test_result_validation(self):
        conf = ConfusionMatrix(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            CvResult(1.2, 0.0, 1.0, conf, 0.5)
        with pytest.raises(ValueError):
            CvResult(0.9, -0.1, 1.0, conf, 0.5)


def _cross_validate_one_by_one(trials, config, repeats, folds, rng):
    """The serial loop the fold pool replaced: each repeat draws its folds
    right before fitting them."""
    x, y = trials.vectors, trials.is_oddball
    accuracies = []
    hits = omissions = false_alarms = rejections = 0
    for _ in range(repeats):
        for _attempt in range(100):
            assignment = harness._stratified_folds(y, folds, rng)
            if all(np.any(y[assignment != k]) and np.any(~y[assignment != k]) for k in range(folds)):
                break
        correct = 0
        for k in range(folds):
            train = assignment != k
            model, f_train = _fit_with_training_features(x[train], y[train], config.eta, config.m_max)
            decisions = decide_batch(fit_classifier(f_train, y[train]), extract_batch(model, x[~train]))
            truth = y[~train]
            correct += int(np.sum(decisions == truth))
            hits += int(np.sum(decisions & truth))
            omissions += int(np.sum(~decisions & truth))
            false_alarms += int(np.sum(decisions & ~truth))
            rejections += int(np.sum(~decisions & ~truth))
        accuracies.append(correct / y.size)
    acc = np.array(accuracies)
    confusion = ConfusionMatrix.from_counts(hits, omissions, false_alarms, rejections)
    prior_o = float(np.mean(y))
    return CvResult(
        accuracy_mean=float(acc.mean()),
        accuracy_std=float(acc.std(ddof=1)) if acc.size > 1 else 0.0,
        accuracy_best=float(acc.max()),
        confusion=confusion,
        bits_per_trial=mutual_information(ChannelSpec(confusion, prior_o)),
    )


def _blas_thread_counts() -> list[int]:
    return [get() for get, _ in _fork._openblas_pools()]


def _threads_and_blas_counts() -> tuple[int | None, list[int]]:
    """This process's thread count where /proc lists it, and its BLAS counts."""
    tasks = "/proc/self/task"
    threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    return threads, _blas_thread_counts()


class TestFoldPool:
    # the protocol's eta and m_max for every fold fit
    config = ProtocolConfig()

    @pytest.fixture(scope="class")
    def sessions(self, config_by_speed, oracle_sessions, frequency):
        return {
            "midsnr": run_training(
                config_by_speed["fast"], subject_preset("midsnr"), np.random.default_rng(5), frequency
            ),
            "noise": run_training(
                config_by_speed["medium"], subject_preset("noise"), np.random.default_rng(7), frequency
            ),
            "oracle": oracle_sessions["slow"],
        }

    @pytest.mark.parametrize("subject", ["midsnr", "noise", "oracle"])
    def test_result_is_the_same_at_any_worker_count(self, sessions, subject, cpus):
        # 2 repeats of 7 folds: 14 jobs, so the two workers' shares interleave
        results = []
        for n in (1, 2):
            cpus(n)
            results.append(
                cross_validate(sessions[subject], self.config, repeats=2, folds=7, rng=np.random.default_rng(4))
            )
        assert results[0] == results[1]

    def test_matches_the_serial_loop_it_replaced(self, sessions, cpus):
        cpus(2)
        trials = sessions["midsnr"]
        want = _cross_validate_one_by_one(trials, self.config, 2, 5, np.random.default_rng(9))
        assert cross_validate(trials, self.config, repeats=2, folds=5, rng=np.random.default_rng(9)) == want

    def test_subsample_check_is_the_same_at_any_worker_count(self, sessions, cpus):
        results = []
        for n in (1, 2):
            cpus(n)
            results.append(
                subsample_check(
                    sessions["midsnr"], self.config, 750, repeats=2, folds=10, rng=np.random.default_rng(2)
                )
            )
        assert results[0] == results[1]

    def test_counts_are_summed_in_fold_order_whatever_finishes_first(self, sessions, monkeypatch, cpus):
        def fold_counts(x, y, assignments, eta, m_max, repeat, fold):
            if (repeat, fold) == (0, 0):
                time.sleep(0.5)  # the other worker finishes every later fold first
            return (10 * repeat, 1, 1, 1)

        monkeypatch.setattr(harness, "_fold_counts", fold_counts)
        cpus(2)
        trials = sessions["oracle"]
        cv = cross_validate(trials, self.config, repeats=3, folds=4, rng=np.random.default_rng(0))
        # accuracy counts hits and rejections: 4 folds of 10 * repeat + 1
        acc = np.array([(40 * r + 4) / len(trials) for r in range(3)])
        assert (cv.accuracy_mean, cv.accuracy_std, cv.accuracy_best) == (
            float(acc.mean()),
            float(acc.std(ddof=1)),
            float(acc.max()),
        )
        assert cv.confusion == ConfusionMatrix.from_counts(120, 12, 12, 12)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_fold_error_reaches_the_caller_and_leaves_nothing_behind(
        self, sessions, monkeypatch, cpus, n_cpus
    ):
        def broken_fit(*args):
            raise RuntimeError("fold fit failed")

        before = _blas_thread_counts()
        monkeypatch.setattr(harness, "_fit_with_training_features", broken_fit)  # forks inherit it
        cpus(n_cpus)
        with pytest.raises(RuntimeError, match="fold fit failed"):
            cross_validate(sessions["oracle"], self.config, repeats=1, folds=4, rng=np.random.default_rng(0))
        assert multiprocessing.active_children() == []
        assert _blas_thread_counts() == before
        assert _fork._inputs == ()


@pytest.fixture
def blas_at_two_threads():
    """Every bundled OpenBLAS at two threads, as a fork would inherit them;
    the previous counts come back afterwards."""
    pools = _fork._openblas_pools()
    if not pools:
        pytest.skip("no bundled OpenBLAS in this numpy/scipy build")
    before = _blas_thread_counts()
    for _, set_threads in pools:
        set_threads(2)
    yield len(pools)
    for (_, set_threads), n in zip(pools, before):
        set_threads(n)


class TestOneBlasThread:
    def test_pins_inside_and_restores_after_an_exception(self, blas_at_two_threads):
        with pytest.raises(KeyError):
            with _fork._one_blas_thread():
                assert _blas_thread_counts() == [1] * blas_at_two_threads
                raise KeyError("inside")
        assert _blas_thread_counts() == [2] * blas_at_two_threads

    def test_fold_workers_run_at_one_thread(self, blas_at_two_threads, cpus):
        # the workers inherit the count from the fork; one that set it itself
        # would restart the OpenBLAS threads the fork stopped, and they would
        # spin beside the job
        cpus(2)
        workers = _fork.fork_map(_threads_and_blas_counts, [(), ()], ())
        assert [counts for _, counts in workers] == [[1] * blas_at_two_threads] * 2
        assert all(threads in (1, None) for threads, _ in workers)
        assert _blas_thread_counts() == [2] * blas_at_two_threads

    def test_missing_library_or_symbol_is_a_silent_no_op(self, tmp_path, monkeypatch):
        before = _blas_thread_counts()
        (tmp_path / "spellersim_fake_blas").mkdir()
        (tmp_path / "spellersim_fake_blas" / "__init__.py").write_text("")
        (tmp_path / "spellersim_fake_blas.libs").mkdir()
        (tmp_path / "spellersim_fake_blas.libs" / "libscipy_openblas.so").write_text("not a shared library")
        monkeypatch.syspath_prepend(str(tmp_path))
        stub = (
            ("spellersim_no_such_package", "*.so", ""),  # not installed
            ("numpy", "no_such.libs/libscipy_openblas64_*.so", "64_"),  # no library
            ("spellersim_fake_blas", "spellersim_fake_blas.libs/libscipy_openblas*.so", ""),  # not loadable
            ("numpy", "numpy.libs/libscipy_openblas64_*.so", "_no_such_symbol"),
        )
        monkeypatch.setattr(_fork, "_OPENBLAS", stub)
        assert _fork._openblas_pools() == []
        with _fork._one_blas_thread():
            pass
        monkeypatch.undo()
        assert _blas_thread_counts() == before


class TestSubsampleCheck:
    def test_oracle_subsample_stays_perfect(self, oracle_sessions, config_by_speed):
        cv = subsample_check(
            oracle_sessions["fast"], config_by_speed["fast"], 750, repeats=1, folds=10, rng=np.random.default_rng(2)
        )
        assert cv.accuracy_mean == 1.0

    def test_midsnr_subsample_tracks_full_session(self, config_by_speed, frequency):
        config = config_by_speed["fast"]
        trials = run_training(config, subject_preset("midsnr"), np.random.default_rng(5), frequency)
        full = cross_validate(trials, config, repeats=1, folds=10, rng=np.random.default_rng(6))
        sub = subsample_check(trials, config, 750, repeats=1, folds=10, rng=np.random.default_rng(6))
        assert abs(sub.accuracy_mean - full.accuracy_mean) < 0.04

    def test_rejects_sessions_smaller_than_target(self, oracle_sessions, config_by_speed):
        with pytest.raises(ValueError):
            subsample_check(
                oracle_sessions["slow"],
                config_by_speed["slow"],
                1000,
                repeats=10,
                folds=10,
                rng=np.random.default_rng(0),
            )

    def test_short_class_counts_are_named(self, oracle_sessions, config_by_speed):
        trials = oracle_sessions["slow"]
        n_odd = int(trials.is_oddball.sum())
        assert n_odd > 750 // 7  # enough oddballs, too few other trials
        want = (
            f"need 107 oddball and 643 other trials; the session has {n_odd} and {750 - n_odd}"
        )
        with pytest.raises(ValueError, match=want):
            subsample_check(trials, config_by_speed["slow"], 750, repeats=10, folds=10, rng=np.random.default_rng(0))


class TestFitFinalModel:
    def test_uses_design_priors_and_capped_subspaces(self, oracle_models):
        model, params = oracle_models["slow"]
        assert params.prior_o == ONLINE_PRIORS[0]
        assert params.prior_e == ONLINE_PRIORS[1]
        assert model.cpca.oddball.m <= 30
        assert model.cpca.non_oddball.m <= 30

    def test_rejects_non_finite_rows(self, oracle_sessions, config_by_speed):
        trials = oracle_sessions["slow"]
        vectors = trials.vectors.copy()
        vectors[3, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_final_model(TrialBatch(vectors, trials.is_oddball), config_by_speed["slow"])


class TestOracleOnline:
    @pytest.mark.parametrize("speed", SPEEDS)
    def test_benchmark_is_typed_error_free(self, speed, oracle, oracle_models, config_by_speed, online_settings):
        cfg = config_by_speed[speed]
        model, params = oracle_models[speed]
        log, report = run_online(cfg, oracle, model, params, np.random.default_rng(42), **online_settings)
        assert report.completed
        assert report.prompt == BENCHMARK_SENTENCE
        assert report.n_selections == 44
        assert report.n_correct == 44
        assert report.accuracy == 1.0
        # every selection pauses except the exit: 43 * 3 s
        assert report.t_pause_s == 129.0
        # the clock is pure accounting: trials plus pauses, nothing else
        active_ms = report.n_trials * (cfg.iti_ms + cfg.overhead_ms)
        assert math.isclose(report.t_active_s, active_ms / 1000.0, abs_tol=1e-9)
        assert math.isclose(report.t_total_s, report.t_active_s + report.t_pause_s, abs_tol=1e-9)
        # practical rate is the definition, verbatim
        expected = 44 * math.log2(42) / report.t_total_s
        assert math.isclose(report.practical_bits_per_sec, expected, rel_tol=1e-12)
        assert report.per_trial is not None
        assert math.isclose(
            report.per_trial.trials_per_sec, report.n_trials / report.t_active_s, rel_tol=1e-12
        )
        assert len(log.selections()) == 44
        assert [r["record"] for r in log.records].count("trial") == report.n_trials

    def test_same_seed_gives_identical_sessions(
        self, oracle, oracle_models, config_by_speed, online_settings, tmp_path
    ):
        cfg = config_by_speed["fast"]
        model, params = oracle_models["fast"]
        log_a, rep_a = run_online(cfg, oracle, model, params, np.random.default_rng(9), **online_settings)
        log_b, rep_b = run_online(cfg, oracle, model, params, np.random.default_rng(9), **online_settings)
        assert rep_a == rep_b
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        log_a.write(path_a)
        log_b.write(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_log_round_trip(self, oracle, oracle_models, config_by_speed, online_settings, tmp_path):
        cfg = config_by_speed["slow"]
        model, params = oracle_models["slow"]
        log, _ = run_online(cfg, oracle, model, params, np.random.default_rng(4), **online_settings)
        path = tmp_path / "session.jsonl"
        log.write(path)
        loaded = load_session_log(path)
        assert loaded.meta["iti_ms"] == cfg.iti_ms
        assert loaded.records == log.records

    def test_exit_only_sentence(self, oracle, oracle_models, config_by_speed, online_settings):
        cfg = config_by_speed["slow"]
        model, params = oracle_models["slow"]
        settings = {**online_settings, "sentence": "*"}
        _, report = run_online(cfg, oracle, model, params, np.random.default_rng(12), **settings)
        assert report.completed
        assert report.prompt == "*"
        assert report.n_selections == 1
        assert report.n_correct == 1
        assert report.t_pause_s == 0.0

    def test_budget_exhaustion_is_an_incomplete_session(self, oracle_models, config_by_speed, online_settings):
        cfg = config_by_speed["slow"]
        model, params = oracle_models["slow"]
        noise = subject_preset("noise")
        settings = {**online_settings, "trial_budget": 50}
        _, report = run_online(cfg, noise, model, params, np.random.default_rng(13), **settings)
        assert not report.completed
        assert report.n_trials == 50
        assert report.prompt != BENCHMARK_SENTENCE

    def test_rejects_bad_arguments(self, oracle, oracle_models, config_by_speed, online_settings):
        cfg = config_by_speed["slow"]
        model, params = oracle_models["slow"]
        for bad in ({"sentence": ""}, {"sentence": "a*"}, {"trial_budget": 0}):
            with pytest.raises(ValueError):
                run_online(cfg, oracle, model, params, np.random.default_rng(0), **{**online_settings, **bad})


class TestCorrectCount:
    """N_c is the length of the transcript's correct prefix, so a character
    that is deleted and typed again counts once."""

    SENTENCE_SEEDS = range(12)

    @pytest.fixture(scope="class")
    def noisy(self, frequency):
        # midsnr at 19 uV, where spurious selections are common
        cfg = ProtocolConfig(iti_ms=160.0)
        subject = dataclasses.replace(subject_preset("midsnr"), noise_sigma_uv=19.0)
        model, params = fit_final_model(run_training(cfg, subject, substream(0, "train"), frequency), cfg)
        return cfg, subject, model, params

    def test_a_retyped_character_counts_once(self, noisy, online_settings):
        log, report = run_online(*noisy, substream(0, "spell"), **online_settings)
        selected = [r["symbol"] for r in log.selections()]
        # a spurious backspace deletes the correct 'O' of BROWN, and the
        # subject types it again: 48 selections, the sentence's 44 characters
        assert selected[14:18] == ["O", "<", "O", "W"]
        assert report.completed
        assert (report.n_correct, report.n_selections) == (44, 48)
        assert report.practical_bits_per_sec == pytest.approx(44 * math.log2(42) / report.t_total_s, rel=1e-12)

    def test_never_more_than_the_sentence(self, noisy, online_settings):
        outcomes = set()
        for seed in self.SENTENCE_SEEDS:
            _, report = run_online(*noisy, substream(seed, "spell"), **online_settings)
            assert report.n_correct <= len(BENCHMARK_SENTENCE)
            prefix = 0
            while prefix < len(report.prompt) and report.prompt[prefix] == BENCHMARK_SENTENCE[prefix]:
                prefix += 1
            assert report.n_correct == prefix
            if report.completed:
                assert report.n_correct == len(BENCHMARK_SENTENCE)
            outcomes.add(report.completed)
        # the seeds cover both a completed and an unfinished session
        assert outcomes == {True, False}


class _EagerStage2Speller(Speller):
    """The speller as it was: builds the stage-2 table on every stage-2 entry."""

    def _enter_pass(self, mode, symbols, first_order):
        super()._enter_pass(mode, symbols, first_order)
        if mode == speller.STAGE2:
            self._stage2_table = self.frequency.restrict(symbols)


class TestStage2Table:
    def test_table_built_on_first_redraw_gives_the_eager_session(
        self, monkeypatch, tmp_path, frequency, online_settings
    ):
        cfg = ProtocolConfig(iti_ms=160.0)
        subject = subject_preset("midsnr")
        model, params = fit_final_model(run_training(cfg, subject, np.random.default_rng(3), frequency), cfg)
        builds = []
        restrict = FrequencyTable.restrict

        def counting_restrict(table, subset):
            builds.append(tuple(subset))
            return restrict(table, subset)

        monkeypatch.setattr(FrequencyTable, "restrict", counting_restrict)
        logs = []
        for cls in (Speller, _EagerStage2Speller):
            builds.clear()
            monkeypatch.setattr(harness, "Speller", cls)
            settings = {**online_settings, "trial_budget": 1500}
            log, report = run_online(cfg, subject, model, params, np.random.default_rng(8), **settings)
            log.write(tmp_path / f"{cls.__name__}.jsonl")
            logs.append((report, (tmp_path / f"{cls.__name__}.jsonl").read_bytes(), len(builds)))
        (lazy_report, lazy_log, lazy_builds), (eager_report, eager_log, eager_builds) = logs
        assert lazy_report == eager_report
        assert lazy_log == eager_log
        # the session redraws in stage 2, yet most entries never do; the
        # table over all SYMBOLS is drawn from as given, never restricted
        assert 1 < lazy_builds < eager_builds


class TestTabularReports:
    def test_cv_csv_round_trip(self, oracle_sessions, config_by_speed, tmp_path):
        cv = cross_validate(
            oracle_sessions["slow"], config_by_speed["slow"], repeats=1, folds=10, rng=np.random.default_rng(1)
        )
        path = tmp_path / "cv.csv"
        write_cv_csv(path, [cv_row("oracle", 400.0, cv)])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["subject"] == "oracle"
        assert float(rows[0]["iti_ms"]) == 400.0
        assert float(rows[0]["accuracy_mean"]) == cv.accuracy_mean
        assert float(rows[0]["bits_per_trial"]) == cv.bits_per_trial

    def test_an_empty_table_is_rejected(self, tmp_path):
        path = tmp_path / "cv.csv"
        with pytest.raises(ValueError, match="no rows to write"):
            write_cv_csv(path, [])
        assert not path.exists()

    def test_session_csv_round_trip(self, oracle, oracle_models, config_by_speed, online_settings, tmp_path):
        cfg = config_by_speed["medium"]
        model, params = oracle_models["medium"]
        _, report = run_online(cfg, oracle, model, params, np.random.default_rng(21), **online_settings)
        path = tmp_path / "sessions.csv"
        write_session_csv(path, [session_row("oracle", cfg.iti_ms, report)])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["completed"] == "1"
        assert int(rows[0]["n_correct"]) == 44
        assert float(rows[0]["time_s"]) == report.t_total_s
