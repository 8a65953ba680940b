"""Protocol-level behavior: training sessions, offline scoring, the online loop."""

import csv
import math

import numpy as np
import pytest

from spellersim.alphabet import default_character_set
from spellersim.channel import ConfusionMatrix
from spellersim.harness import (
    BENCHMARK_SENTENCE,
    ONLINE_PRIORS,
    SPEED_ITI_MS,
    CvResult,
    ProtocolConfig,
    TrialBatch,
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
from spellersim.signal import subject_preset
from spellersim.speller import load_session_log

SPEEDS = ("slow", "medium", "fast")
EXPECTED_TRAIN_COUNTS = {"slow": 750, "medium": 1250, "fast": 1870}


@pytest.fixture(scope="module")
def oracle():
    return subject_preset("oracle")


@pytest.fixture(scope="module")
def config_by_speed():
    return {name: ProtocolConfig(iti_ms=iti) for name, iti in SPEED_ITI_MS.items()}


@pytest.fixture(scope="module")
def oracle_sessions(oracle, config_by_speed):
    return {
        name: run_training(cfg, oracle, np.random.default_rng(11))
        for name, cfg in config_by_speed.items()
    }


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


class TestRunTraining:
    @pytest.mark.parametrize("speed", SPEEDS)
    def test_session_lengths(self, speed, oracle_sessions):
        trials, n = oracle_sessions[speed], EXPECTED_TRAIN_COUNTS[speed]
        assert len(trials) == len(trials.stimuli) == n
        assert trials.samples.shape == (n, 8, 80)
        assert trials.is_oddball.shape == trials.onsets_s.shape == (n,)
        assert trials.is_oddball.dtype == bool

    def test_each_complete_cycle_has_one_oddball(self, oracle_sessions, config_by_speed):
        symbols = sorted(default_character_set().symbols)
        for speed in SPEEDS:
            trials = oracle_sessions[speed]
            per_char = config_by_speed[speed].trials_per_char
            for start in range(0, len(trials), per_char):
                odd = trials.is_oddball[start : start + per_char]
                groups = trials.stimuli[start : start + per_char]
                full = 7 * (per_char // 7)
                for c in range(0, full, 7):
                    assert int(odd[c : c + 7].sum()) == 1
                    assert sorted(s for group in groups[c : c + 7] for s in group) == symbols
                assert int(odd[full:].sum()) <= 1

    def test_label_ratio_near_one_in_seven(self, oracle_sessions):
        for speed in SPEEDS:
            frac = np.mean(oracle_sessions[speed].is_oddball)
            assert abs(frac - 1.0 / 7.0) < 0.01

    def test_onsets_restart_each_block(self, oracle_sessions, config_by_speed):
        cfg = config_by_speed["slow"]
        trials = oracle_sessions["slow"]
        step_s = (cfg.iti_ms + cfg.overhead_ms) / 1000.0
        want = [(i % cfg.trials_per_char) * step_s for i in range(len(trials))]
        assert trials.onsets_s.tolist() == want

    def test_same_seed_reproduces_the_session(self, oracle, config_by_speed):
        cfg = config_by_speed["slow"]
        a = run_training(cfg, oracle, np.random.default_rng(3))
        b = run_training(cfg, oracle, np.random.default_rng(3))
        assert len(a) == len(b)
        assert a.stimuli == b.stimuli
        assert np.array_equal(a.is_oddball, b.is_oddball)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.onsets_s, b.onsets_s)

    def test_batch_rejects_columns_of_different_lengths(self, oracle_sessions):
        trials = oracle_sessions["slow"]
        with pytest.raises(ValueError, match="same length"):
            TrialBatch(trials.samples, trials.is_oddball[:-1], trials.stimuli, trials.onsets_s)


class TestCrossValidate:
    def test_oracle_is_perfectly_separable(self, oracle_sessions):
        cv = cross_validate(oracle_sessions["slow"], repeats=2, folds=10, rng=np.random.default_rng(1))
        assert cv.accuracy_mean == 1.0
        assert cv.accuracy_std == 0.0
        assert cv.accuracy_best == 1.0
        assert cv.confusion.p_oo == 1.0
        assert cv.confusion.p_ee == 1.0
        assert cv.bits_per_trial > 0.55
        assert len(cv.accuracies) == 2

    def test_label_independent_noise_collapses_to_majority(self, config_by_speed):
        trials = run_training(config_by_speed["fast"], subject_preset("noise"), np.random.default_rng(7))
        cv = cross_validate(trials, repeats=2, folds=10, rng=np.random.default_rng(8))
        majority = 6.0 / 7.0
        assert abs(cv.accuracy_mean - majority) <= 0.01
        assert cv.bits_per_trial <= 0.01

    def test_rejects_bad_parameters(self, oracle_sessions):
        with pytest.raises(ValueError):
            cross_validate(oracle_sessions["slow"], repeats=0)
        with pytest.raises(ValueError):
            cross_validate(oracle_sessions["slow"], folds=1)

    def test_result_validation(self):
        conf = ConfusionMatrix.perfect()
        with pytest.raises(ValueError):
            CvResult(1.2, 0.0, 1.0, (1.0,), conf, 0.5)
        with pytest.raises(ValueError):
            CvResult(0.9, -0.1, 1.0, (0.9,), conf, 0.5)


class TestSubsampleCheck:
    def test_oracle_subsample_stays_perfect(self, oracle_sessions):
        cv = subsample_check(
            oracle_sessions["fast"], target=750, rng=np.random.default_rng(2), repeats=1
        )
        assert cv.accuracy_mean == 1.0

    def test_midsnr_subsample_tracks_full_session(self, config_by_speed):
        trials = run_training(config_by_speed["fast"], subject_preset("midsnr"), np.random.default_rng(5))
        full = cross_validate(trials, repeats=1, folds=10, rng=np.random.default_rng(6))
        sub = subsample_check(trials, target=750, rng=np.random.default_rng(6), repeats=1)
        assert abs(sub.accuracy_mean - full.accuracy_mean) < 0.04

    def test_rejects_sessions_smaller_than_target(self, oracle_sessions):
        with pytest.raises(ValueError):
            subsample_check(oracle_sessions["slow"], target=1000)

    def test_short_class_counts_are_named(self, oracle_sessions):
        trials = oracle_sessions["slow"]
        n_odd = int(trials.is_oddball.sum())
        assert n_odd > 750 // 7  # enough oddballs, too few other trials
        want = (
            f"need 107 oddball and 643 other trials; the session has {n_odd} and {750 - n_odd}"
        )
        with pytest.raises(ValueError, match=want):
            subsample_check(trials, target=750)


class TestFitFinalModel:
    def test_uses_design_priors_and_capped_subspaces(self, oracle_models):
        model, params = oracle_models["slow"]
        assert params.prior_o == ONLINE_PRIORS[0]
        assert params.prior_e == ONLINE_PRIORS[1]
        assert model.cpca.oddball.m <= 30
        assert model.cpca.non_oddball.m <= 30


class TestOracleOnline:
    @pytest.mark.parametrize("speed", SPEEDS)
    def test_benchmark_is_typed_error_free(self, speed, oracle, oracle_models, config_by_speed):
        cfg = config_by_speed[speed]
        model, params = oracle_models[speed]
        log, report = run_online(cfg, oracle, model, params, np.random.default_rng(42))
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
        assert len(log.trials()) == report.n_trials

    def test_same_seed_gives_identical_sessions(self, oracle, oracle_models, config_by_speed, tmp_path):
        cfg = config_by_speed["fast"]
        model, params = oracle_models["fast"]
        log_a, rep_a = run_online(cfg, oracle, model, params, np.random.default_rng(9))
        log_b, rep_b = run_online(cfg, oracle, model, params, np.random.default_rng(9))
        assert rep_a == rep_b
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        log_a.write(path_a)
        log_b.write(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_log_round_trip(self, oracle, oracle_models, config_by_speed, tmp_path):
        cfg = config_by_speed["slow"]
        model, params = oracle_models["slow"]
        log, _ = run_online(cfg, oracle, model, params, np.random.default_rng(4))
        path = tmp_path / "session.jsonl"
        log.write(path)
        loaded = load_session_log(path)
        assert loaded.meta["iti_ms"] == cfg.iti_ms
        assert loaded.records == log.records

    def test_exit_only_sentence(self, oracle, oracle_models, config_by_speed):
        cfg = config_by_speed["slow"]
        model, params = oracle_models["slow"]
        _, report = run_online(cfg, oracle, model, params, np.random.default_rng(12), sentence="*")
        assert report.completed
        assert report.prompt == "*"
        assert report.n_selections == 1
        assert report.n_correct == 1
        assert report.t_pause_s == 0.0

    def test_budget_exhaustion_is_an_incomplete_session(self, oracle_models, config_by_speed):
        cfg = config_by_speed["slow"]
        model, params = oracle_models["slow"]
        noise = subject_preset("noise")
        _, report = run_online(
            cfg, noise, model, params, np.random.default_rng(13), trial_budget=50
        )
        assert not report.completed
        assert report.n_trials == 50
        assert report.prompt != BENCHMARK_SENTENCE

    def test_rejects_bad_arguments(self, oracle, oracle_models, config_by_speed):
        cfg = config_by_speed["slow"]
        model, params = oracle_models["slow"]
        with pytest.raises(ValueError):
            run_online(cfg, oracle, model, params, np.random.default_rng(0), sentence="")
        with pytest.raises(ValueError):
            run_online(cfg, oracle, model, params, np.random.default_rng(0), sentence="a*")
        with pytest.raises(ValueError):
            run_online(cfg, oracle, model, params, np.random.default_rng(0), trial_budget=0)


class TestTabularReports:
    def test_cv_csv_round_trip(self, oracle_sessions, tmp_path):
        cv = cross_validate(oracle_sessions["slow"], repeats=1, folds=10, rng=np.random.default_rng(1))
        path = tmp_path / "cv.csv"
        write_cv_csv(path, [cv_row("oracle", 400.0, cv)])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["subject"] == "oracle"
        assert float(rows[0]["iti_ms"]) == 400.0
        assert float(rows[0]["accuracy_mean"]) == cv.accuracy_mean
        assert float(rows[0]["bits_per_trial"]) == cv.bits_per_trial

    def test_session_csv_round_trip(self, oracle, oracle_models, config_by_speed, tmp_path):
        cfg = config_by_speed["medium"]
        model, params = oracle_models["medium"]
        _, report = run_online(cfg, oracle, model, params, np.random.default_rng(21))
        path = tmp_path / "sessions.csv"
        write_session_csv(path, [session_row("oracle", cfg.iti_ms, report)])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["completed"] == "1"
        assert int(rows[0]["n_correct"]) == 44
        assert float(rows[0]["time_s"]) == report.t_total_s
