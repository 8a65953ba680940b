"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance here is pinned; loosening one is a correctness bug, not a
maintenance chore.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from spellersim.alphabet import (
    SPACE,
    default_frequency_table,
    monte_carlo_group_stats,
    uniform_frequency_table,
)
from spellersim.channel import (
    ChannelSpec,
    ConfusionMatrix,
    fano_lower_bound,
    mutual_information,
    practical_itr,
    wolpaw_itr,
)
from spellersim.classifier import ClassifierParams, classify, posterior_oddball, with_theta
from spellersim.cli import main
from spellersim.features import _fisher_direction
from spellersim.harness import (
    BENCHMARK_SENTENCE,
    ProtocolConfig,
    cross_validate,
    fit_final_model,
    run_online,
    run_training,
)
from spellersim.signal import subject_preset

ONE_SAMPLE_S = 1.0 / 200.0


def _verdict(n: int, text: str) -> None:
    print(f"criterion {n} PASS: {text}")


@pytest.fixture(scope="module")
def oracle_stack(frequency, online_settings):
    """Oracle training set, CV result, fitted pipeline and online run per ITI."""
    subject = subject_preset("oracle")
    stack = {}
    for iti in (400.0, 240.0, 160.0):
        config = ProtocolConfig(iti_ms=iti)
        trials = run_training(config, subject, np.random.default_rng(11), frequency)
        cv = cross_validate(trials, config, repeats=2, folds=10, rng=np.random.default_rng(12))
        model, params = fit_final_model(trials, config)
        log, report = run_online(config, subject, model, params, np.random.default_rng(13), **online_settings)
        stack[iti] = (config, trials, cv, log, report)
    return stack


def test_criterion_1_channel_math():
    chance = ChannelSpec(ConfusionMatrix(0.0, 1.0, 0.0, 1.0), 1.0 / 7.0)
    assert mutual_information(chance) == 0.0

    perfect = ChannelSpec(ConfusionMatrix(1.0, 0.0, 0.0, 1.0), 1.0 / 7.0)
    mi = mutual_information(perfect)
    assert abs(mi - 0.592) <= 5e-4

    w2 = wolpaw_itr(2, 6.0 / 7.0)
    assert abs(w2 - 0.408) <= 5e-4
    w8 = wolpaw_itr(8, 0.92)
    assert abs(w8 - 2.373) <= 5e-4
    _verdict(
        1,
        f"chance MI = 0 exactly; perfect MI = {mi:.4f}; "
        f"Wolpaw(2, 6/7) = {w2:.4f}; Wolpaw(8, 0.92) = {w8:.4f}",
    )


def test_criterion_2_practical_itr():
    total = practical_itr(44, 207.1, 42)
    assert abs(total - 1.146) <= 1e-3
    active = practical_itr(44, 78.1, 42)
    assert abs(active - 3.038) <= 2e-3
    _verdict(2, f"44 chars / 207.1 s -> {total:.4f} bits/s; / 78.1 s -> {active:.4f} bits/s")


def test_criterion_3_randomization_statistics():
    start = time.monotonic()
    table = default_frequency_table()
    biased = monte_carlo_group_stats(table, 100_000, np.random.default_rng(0))
    uniform = monte_carlo_group_stats(
        uniform_frequency_table(table.symbols), 100_000, np.random.default_rng(1)
    )
    elapsed = time.monotonic() - start

    top = int(np.argmax(table.probs))
    assert table.symbols[top] == SPACE
    space_group = float(biased.mean_group[top])
    assert 1.5 <= space_group <= 1.7

    top12 = np.argsort(table.probs)[::-1][:12]
    top12_group = float(biased.mean_group[top12].mean())
    assert top12_group <= 2.0

    worst_uniform = float(np.max(np.abs(uniform.mean_group - 4.0)))
    assert worst_uniform <= 0.05
    assert elapsed < 30.0
    _verdict(
        3,
        f"space mean group {space_group:.3f}; top-12 {top12_group:.3f}; "
        f"uniform within {worst_uniform:.3f} of 4.0; {elapsed:.1f} s",
    )


def test_criterion_4_protocol_counts(oracle_stack):
    counts = {iti: ProtocolConfig(iti_ms=iti).train_trial_count for iti in (400.0, 240.0, 160.0)}
    assert counts[400.0] == 750
    assert counts[240.0] == 1250
    assert abs(counts[160.0] - 1875) <= 5
    for iti, (_, trials, _, _, _) in oracle_stack.items():
        assert len(trials) == counts[iti]

    _, _, _, log, report = oracle_stack[400.0]
    assert report.n_selections == 44
    assert report.t_pause_s == 129.0
    selections = log.selections()
    assert len(selections) == 44
    assert all(s["pause_s"] == 3.0 for s in selections[:-1])
    assert selections[-1]["symbol"] == "*"
    assert selections[-1]["pause_s"] == 0.0
    _verdict(
        4,
        f"training counts {counts[400.0]}/{counts[240.0]}/{counts[160.0]}; "
        "44 selections, 43 x 3 s pauses = 129 s, exit unpaused",
    )


def test_criterion_5_chance_level_collapse(frequency):
    config = ProtocolConfig(iti_ms=160.0)
    trials = run_training(config, subject_preset("noise"), np.random.default_rng(7), frequency)
    cv = cross_validate(trials, config, repeats=2, folds=10, rng=np.random.default_rng(8))
    majority = 6.0 / 7.0
    assert abs(cv.accuracy_mean - majority) <= 0.01
    assert cv.bits_per_trial <= 0.01
    assert cv.confusion.p_ee >= 0.98  # decisions sit on the majority class
    _verdict(
        5,
        f"noise-trained accuracy {100 * cv.accuracy_mean:.2f}% "
        f"(chance {100 * majority:.2f}%), MI {cv.bits_per_trial:.5f} bits/trial",
    )


def test_criterion_6_oracle_end_to_end(oracle_stack):
    times = {}
    for iti, (config, _, cv, _, report) in oracle_stack.items():
        assert cv.accuracy_mean == 1.0
        assert report.completed
        assert report.prompt == BENCHMARK_SENTENCE
        assert report.n_correct == 44
        accounted = (
            report.n_trials * (config.iti_ms + config.overhead_ms) / 1000.0 + report.t_pause_s
        )
        assert abs(report.t_total_s - accounted) <= ONE_SAMPLE_S
        times[iti] = report.t_total_s
    _verdict(
        6,
        "benchmark error-free at 400/240/160 ms in "
        f"{times[400.0]:.1f}/{times[240.0]:.1f}/{times[160.0]:.1f} s, CV 100%",
    )


def test_criterion_7_property_suites(tmp_path):
    rng = np.random.default_rng(100)

    # mutual information vs direct joint-distribution double sum
    worst_mi = 0.0
    for _ in range(1000):
        p_oo, p_oe = rng.uniform(size=2)
        prior_o = rng.uniform(1e-3, 1.0 - 1e-3)
        spec = ChannelSpec(ConfusionMatrix(p_oo, 1.0 - p_oo, p_oe, 1.0 - p_oe), prior_o)
        joint = np.array(
            [
                [spec.prior_o * p_oo, spec.prior_o * (1.0 - p_oo)],
                [spec.prior_e * p_oe, spec.prior_e * (1.0 - p_oe)],
            ]
        )
        p_in, p_out = joint.sum(axis=1), joint.sum(axis=0)
        brute = sum(
            joint[i, j] * math.log2(joint[i, j] / (p_in[i] * p_out[j]))
            for i in range(2)
            for j in range(2)
            if joint[i, j] > 0.0
        )
        worst_mi = max(worst_mi, abs(mutual_information(spec) - brute))
    assert worst_mi <= 1e-10

    # Fano lower bound never exceeds the mutual information
    for _ in range(10_000):
        p_oo, p_oe = rng.uniform(size=2)
        prior_o = rng.uniform(1e-3, 1.0 - 1e-3)
        spec = ChannelSpec(ConfusionMatrix(p_oo, 1.0 - p_oo, p_oe, 1.0 - p_oe), prior_o)
        assert fano_lower_bound(prior_o, spec.accuracy()) <= mutual_information(spec) + 1e-12

    # threshold form and risk form of the decision agree everywhere
    for _ in range(10_000):
        params = ClassifierParams(
            mu_o=rng.normal(),
            mu_e=rng.normal(),
            sigma2=rng.uniform(0.1, 5.0),
            prior_o=(p := rng.uniform(0.05, 0.95)),
            prior_e=1.0 - p,
            lambda_fa=rng.uniform(0.1, 5.0),
            lambda_om=rng.uniform(0.1, 5.0),
        )
        x = rng.normal(scale=3.0)
        # deciding oddball risks a false alarm, deciding non-oddball an omission
        p_odd = posterior_oddball(params, x)
        risk_odd, risk_non = params.lambda_fa * (1.0 - p_odd), params.lambda_om * p_odd
        assert classify(params, x) == (risk_odd < risk_non)

    # fitted discriminant direction vs analytic LDA on shared-covariance data
    d = 8
    a = rng.normal(size=(d, d))
    cov = a @ a.T + d * np.eye(d)
    delta = rng.normal(size=d)
    n = 40_000
    half = rng.multivariate_normal(np.zeros(d), cov, size=n)
    z = np.vstack([half[: n // 2] + delta, half[n // 2 :]])
    y = np.arange(n) < n // 2
    fitted = _fisher_direction(z, y)
    analytic = np.linalg.solve(cov, delta)
    cosine = abs(fitted @ analytic) / np.linalg.norm(analytic)
    assert cosine >= 0.999

    # raising theta only shrinks the oddball decision region
    base = ClassifierParams(1.0, -1.0, 2.0, 0.3, 0.7, 1.0, 1.0)
    grid = np.linspace(-8.0, 8.0, 401)
    previous = None
    for theta in (0.25, 0.5, 1.0, 2.0, 4.0):
        region = {float(x) for x in grid if classify(with_theta(base, theta), float(x))}
        if previous is not None:
            assert region <= previous
        previous = region

    # every command is byte-identical when repeated with the same seed
    cfg = tmp_path / "acc.cfg"
    cfg.write_text("iti_ms = 400\nsubject = oracle\nseed = 0\ncv_repeats = 1\n")
    outputs = {}
    for tag in ("a", "b"):
        root = tmp_path / tag
        streams = []
        for name, argv in (
            ("train", ["train", "--config", str(cfg), "--seed", "4", "--out", str(root / "train")]),
            (
                "spell",
                [
                    "spell",
                    "--config",
                    str(cfg),
                    "--model",
                    str(root / "train" / "model.bin"),
                    "--seed",
                    "4",
                    "--out",
                    str(root / "spell"),
                ],
            ),
            ("cv", ["cv", "--config", str(cfg), "--seed", "4", "--out", str(root / "cv")]),
            ("mc", ["mc", "--runs", "2000", "--seed", "4", "--out", str(root / "mc")]),
            ("itr", ["itr", "practical", "--nc", "44", "--t", "207.1"]),
        ):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            assert code == 0, name
            streams.append((name, buffer.getvalue().replace(str(root), "<out>")))
        artifacts = sorted(p for p in root.rglob("*") if p.is_file())
        outputs[tag] = (streams, [(p.relative_to(root), p.read_bytes()) for p in artifacts])
    assert outputs["a"] == outputs["b"]

    _verdict(
        7,
        f"MI oracle within {worst_mi:.1e}; Fano bounded; threshold = risk form on 10k draws; "
        f"LDA cosine {cosine:.5f}; theta regions nested; commands byte-identical",
    )


def test_criterion_8_mid_snr_realism_band(frequency, online_settings):
    config = ProtocolConfig(iti_ms=160.0)
    subject = subject_preset("midsnr")
    trials = run_training(config, subject, np.random.default_rng(30), frequency)
    cv = cross_validate(trials, config, repeats=2, folds=10, rng=np.random.default_rng(31))
    assert 0.93 <= cv.accuracy_mean <= 0.95

    model, params = fit_final_model(trials, config)
    passing = 0
    times = []
    for seed in range(10):
        _, report = run_online(config, subject, model, params, np.random.default_rng(100 + seed), **online_settings)
        ok = (
            report.completed
            and report.t_total_s < 320.0
            and report.practical_bits_per_sec >= 0.79
        )
        passing += int(ok)
        times.append(report.t_total_s)
    assert passing >= 8
    _verdict(
        8,
        f"CV {100 * cv.accuracy_mean:.2f}%; {passing}/10 runs under 320 s with "
        f"ITR >= 0.79 (times {min(times):.0f}-{max(times):.0f} s)",
    )
