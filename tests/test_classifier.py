import math

import numpy as np
import pytest

from spellersim.classifier import (
    ClassifierParams,
    classify,
    decide_batch,
    fit,
    log_posterior_odds,
    posterior_oddball,
    with_theta,
)


def _params(mu_o=1.0, mu_e=0.0, sigma2=1.0, prior_o=1.0 / 7.0, lam=(1.0, 1.0)):
    return ClassifierParams(
        mu_o=mu_o,
        mu_e=mu_e,
        sigma2=sigma2,
        prior_o=prior_o,
        prior_e=1.0 - prior_o,
        lambda_fa=lam[0],
        lambda_om=lam[1],
    )


def test_fit_hand_example():
    params = fit([0.0, 0.0, 1.0, 1.0], [True, True, False, False])
    assert params.mu_o == 0.0
    assert params.mu_e == 1.0
    assert params.sigma2 == pytest.approx(np.var([0, 0, 1, 1], ddof=1))
    assert params.prior_o == pytest.approx(0.5)


def test_fit_label_swap_symmetry():
    f = [0.3, -0.2, 1.4, 0.9, -0.6, 2.0]
    y = [True, False, True, False, False, True]
    a = fit(f, y)
    b = fit(f, [not v for v in y])
    assert a.mu_o == b.mu_e and a.mu_e == b.mu_o
    assert a.sigma2 == b.sigma2
    assert a.prior_o == pytest.approx(b.prior_e)


def test_fit_recovers_generating_parameters():
    rng = np.random.default_rng(4)
    n_o, n_e = 3000, 18000
    f = np.concatenate([rng.normal(2.0, 1.5, n_o), rng.normal(-1.0, 1.5, n_e)])
    y = np.concatenate([np.ones(n_o, bool), np.zeros(n_e, bool)])
    params = fit(f, y)
    assert abs(params.mu_o - 2.0) < 3.0 * 1.5 / math.sqrt(n_o)
    assert abs(params.mu_e + 1.0) < 3.0 * 1.5 / math.sqrt(n_e)
    # unconditional variance: noise variance plus between-mean spread
    p = n_o / (n_o + n_e)
    expected = 1.5**2 + p * (1 - p) * 3.0**2
    assert params.sigma2 == pytest.approx(expected, rel=0.05)


def test_fit_rejections():
    with pytest.raises(ValueError):
        fit([1.0, 2.0], [True, True])
    with pytest.raises(ValueError):
        fit([1.0, 1.0, 1.0], [True, False, True])  # zero variance
    with pytest.raises(ValueError):
        fit([1.0, np.nan], [True, False])
    with pytest.raises(ValueError):
        fit([1.0, 2.0, 3.0], [True, False])


def test_params_validation():
    with pytest.raises(ValueError):
        _params(sigma2=0.0)
    with pytest.raises(ValueError):
        _params(prior_o=0.0)
    with pytest.raises(ValueError):
        ClassifierParams(0.0, 1.0, 1.0, 0.3, 0.8, 1.0, 1.0)  # priors sum > 1
    with pytest.raises(ValueError):
        _params(lam=(0.0, 1.0))
    with pytest.raises(ValueError):
        _params(mu_o=math.nan)
    with pytest.raises(ValueError):
        _params(sigma2=math.inf)


def test_midpoint_odds_equal_priors():
    params = _params(mu_o=3.0, mu_e=1.0, prior_o=0.5)
    assert math.exp(log_posterior_odds(params, 2.0)) == pytest.approx(1.0, abs=1e-12)


def test_uninformative_features_reduce_to_prior_ratio():
    params = _params(mu_o=0.7, mu_e=0.7, prior_o=1.0 / 7.0)
    for f in (-5.0, 0.0, 0.7, 12.0):
        assert math.exp(log_posterior_odds(params, f)) == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_log_odds_affine_in_feature():
    params = _params(mu_o=1.2, mu_e=-0.4, sigma2=2.3, prior_o=0.25)
    f = np.linspace(-4.0, 4.0, 9)
    lo = np.array([log_posterior_odds(params, v) for v in f])
    slopes = np.diff(lo) / np.diff(f)
    assert np.allclose(slopes, slopes[0], atol=1e-12)
    assert slopes[0] == pytest.approx((params.mu_o - params.mu_e) / params.sigma2)


def test_classify_uninformative_is_always_majority():
    params = _params(mu_o=0.0, mu_e=0.0, prior_o=1.0 / 7.0)
    rng = np.random.default_rng(8)
    features = rng.normal(size=7000)
    labels = np.arange(7000) % 7 == 0
    decisions = np.array([classify(params, f) for f in features])
    assert not decisions.any()
    accuracy = np.mean(decisions == labels)
    assert accuracy == pytest.approx(6.0 / 7.0, abs=1e-12)


def test_theta_half_admits_more_oddballs():
    params = _params(mu_o=1.0, mu_e=0.0, prior_o=1.0 / 7.0)
    relaxed = with_theta(params, 0.5)
    grid = np.linspace(-3.0, 6.0, 200)
    strict_set = {f for f in grid if classify(params, f)}
    relaxed_set = {f for f in grid if classify(relaxed, f)}
    assert strict_set < relaxed_set


def test_separable_classes_high_accuracy():
    from scipy.stats import norm

    rng = np.random.default_rng(15)
    f_o = rng.normal(10.0, 1.0, 2000)
    f_e = rng.normal(0.0, 1.0, 12000)
    f = np.concatenate([f_o, f_e])
    y = np.concatenate([np.ones(2000, bool), np.zeros(12000, bool)])
    params = fit(f, y)
    decisions = np.array([classify(params, v) for v in f])
    accuracy = np.mean(decisions == y)
    assert accuracy >= 0.99
    # error-function oracle: the affine rule has one boundary; per-class
    # error masses follow from the true generating Gaussians
    slope = (params.mu_o - params.mu_e) / params.sigma2
    boundary = 0.5 * (params.mu_o + params.mu_e) - math.log(params.prior_o / params.prior_e) / slope
    expected = (2000 * norm.sf(boundary, 10.0, 1.0) + 12000 * norm.cdf(boundary, 0.0, 1.0)) / 14000
    assert accuracy == pytest.approx(expected, abs=0.005)


def _risks(params, f):
    """(risk of deciding oddball, risk of deciding non-oddball) at f: a false
    alarm costs lambda_fa * p(e|f), an omission lambda_om * p(o|f)."""
    p_o = posterior_oddball(params, f)
    return params.lambda_fa * (1.0 - p_o), params.lambda_om * p_o


def test_risk_form_matches_threshold_form():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        prior_o = rng.uniform(0.05, 0.95)
        params = ClassifierParams(
            mu_o=rng.normal(0.0, 2.0),
            mu_e=rng.normal(0.0, 2.0),
            sigma2=rng.uniform(0.1, 4.0),
            prior_o=prior_o,
            prior_e=1.0 - prior_o,
            lambda_fa=rng.uniform(0.1, 5.0),
            lambda_om=rng.uniform(0.1, 5.0),
        )
        f = rng.normal(0.0, 3.0)
        risk_o, risk_e = _risks(params, f)
        assert classify(params, f) == (risk_o < risk_e)


def test_equal_costs_equal_posteriors_equal_risks():
    params = _params(mu_o=1.0, mu_e=-1.0, prior_o=0.5)
    risk_o, risk_e = _risks(params, 0.0)  # p(o|0) = p(e|0) = 0.5
    assert risk_o == pytest.approx(risk_e, abs=1e-12)


def test_extreme_omission_cost_forces_oddball():
    params = _params(mu_o=1.0, mu_e=0.0, prior_o=1.0 / 7.0, lam=(1.0, 1e12))
    for f in np.linspace(-10.0, 10.0, 50):
        assert classify(params, f)


def test_decision_region_nesting_in_theta():
    params = _params(mu_o=1.4, mu_e=-0.3, prior_o=1.0 / 7.0)
    grid = np.linspace(-5.0, 5.0, 400)
    previous = None
    for theta in (0.25, 0.5, 1.0, 2.0, 4.0):
        current = {f for f in grid if classify(with_theta(params, theta), f)}
        if previous is not None:
            assert current <= previous
        previous = current


def test_decision_regions_are_single_interval():
    rng = np.random.default_rng(31)
    grid = np.linspace(-8.0, 8.0, 1000)
    for _ in range(50):
        prior_o = rng.uniform(0.1, 0.9)
        params = ClassifierParams(
            mu_o=rng.normal(),
            mu_e=rng.normal(),
            sigma2=rng.uniform(0.2, 3.0),
            prior_o=prior_o,
            prior_e=1.0 - prior_o,
            lambda_fa=rng.uniform(0.2, 3.0),
            lambda_om=rng.uniform(0.2, 3.0),
        )
        decisions = np.array([classify(params, f) for f in grid])
        # affine log odds: at most one switch along the line
        assert np.count_nonzero(np.diff(decisions.astype(int))) <= 1


def test_posterior_oddball_matches_odds():
    params = _params(mu_o=1.0, mu_e=0.0, prior_o=0.3)
    for f in (-2.0, 0.1, 3.5):
        p = posterior_oddball(params, f)
        odds = math.exp(log_posterior_odds(params, f))
        assert p / (1.0 - p) == pytest.approx(odds, rel=1e-9)


def test_posterior_oddball_extremes_are_safe():
    params = _params(mu_o=100.0, mu_e=-100.0, sigma2=0.1)
    assert posterior_oddball(params, 100.0) == pytest.approx(1.0)
    assert posterior_oddball(params, -100.0) == pytest.approx(0.0)


def test_non_finite_feature_rejected():
    params = _params()
    with pytest.raises(ValueError):
        classify(params, float("nan"))
    with pytest.raises(ValueError):
        log_posterior_odds(params, float("inf"))


def test_with_theta():
    params = _params(lam=(2.0, 4.0))
    assert params.theta == pytest.approx(0.5)
    new = with_theta(params, 1.0)
    assert new.theta == pytest.approx(1.0)
    assert new.mu_o == params.mu_o and new.sigma2 == params.sigma2
    with pytest.raises(ValueError):
        with_theta(params, 0.0)


# ---------------------------------------------------------------------------
# the single affine log-odds formula against the three scalar forms it replaced


def _reference_log_odds(params, f):
    f = float(f)
    if not math.isfinite(f):
        raise ValueError("feature must be finite")
    slope = (params.mu_o - params.mu_e) / params.sigma2
    midpoint = 0.5 * (params.mu_o + params.mu_e)
    return slope * (f - midpoint) + math.log(params.prior_o / params.prior_e)


def _reference_posterior(params, f):
    log_odds = _reference_log_odds(params, f)
    if log_odds >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    z = math.exp(log_odds)
    return z / (1.0 + z)


def _reference_decide_batch(params, features):
    f = np.asarray(features, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("features must be finite")
    slope = (params.mu_o - params.mu_e) / params.sigma2
    midpoint = 0.5 * (params.mu_o + params.mu_e)
    log_odds = slope * (f - midpoint) + math.log(params.prior_o / params.prior_e)
    return log_odds > math.log(params.theta)


def _equivalence_cases(n):
    """Random (params, f) pairs; every fourth has |log odds| far above 700 and
    every tenth sits exactly on the threshold (odds equal to theta = 1)."""
    rng = np.random.default_rng(2024)
    for i in range(n):
        prior_o = rng.uniform(0.02, 0.98)
        mu_o, mu_e = rng.normal(0.0, 3.0, size=2)
        sigma2 = 10.0 ** rng.uniform(-3.0, 2.0)
        theta = 10.0 ** rng.uniform(-2.0, 2.0)
        f = rng.normal(0.5 * (mu_o + mu_e), 4.0)
        if i % 4 == 1:
            sigma2 = 10.0 ** rng.uniform(-6.0, -4.0)
            f = rng.choice([-1.0, 1.0]) * rng.uniform(50.0, 500.0)
        if i % 10 == 3:
            prior_o, theta, f = 0.5, 1.0, 0.5 * (mu_o + mu_e)
        values = (mu_o, mu_e, sigma2, prior_o, 1.0 - prior_o, theta, 1.0)
        yield ClassifierParams(*map(float, values)), float(f)


def test_log_odds_forms_are_bit_identical_to_the_scalar_references():
    n_huge = n_ties = 0
    for params, f in _equivalence_cases(12_000):
        expected = _reference_log_odds(params, f)
        got = log_posterior_odds(params, f)
        assert type(got) is float and got == expected
        assert log_posterior_odds(params, np.array([f]))[0] == expected
        assert posterior_oddball(params, f) == _reference_posterior(params, f)
        decision = _reference_decide_batch(params, np.array([f]))
        assert np.array_equal(decide_batch(params, np.array([f])), decision)
        assert classify(params, f) == bool(decision[0])
        n_huge += abs(expected) > 700.0
        n_ties += expected == math.log(params.theta)
    assert n_huge > 1000 and n_ties > 1000


def test_batch_log_odds_match_the_scalar_references_elementwise():
    for params, _ in _equivalence_cases(50):
        f = np.random.default_rng(3).normal(0.0, 30.0, size=400)
        expected = np.array([_reference_log_odds(params, v) for v in f])
        assert np.array_equal(log_posterior_odds(params, f), expected)
        assert np.array_equal(decide_batch(params, f), _reference_decide_batch(params, f))
    with pytest.raises(ValueError):
        decide_batch(_params(), np.array([0.0, np.nan]))


def _stage_threshold_grid():
    """Params at both stage thresholds (theta 1 and 0.5) and, for each, a run
    of features around the point where the log odds equal log theta, found by
    stepping one ulp at a time. Besides the design priors (1:6), priors of
    1:2 and 1:1 put the log odds exactly at log 0.5 and log 1 at the
    midpoint of the class means."""
    rng = np.random.default_rng(77)
    for prior_o, prior_e in ((1.0 / 7.0, 1.0 - 1.0 / 7.0), (1.0 / 3.0, 2.0 / 3.0), (0.5, 0.5)):
        for _ in range(20):
            mu_o, mu_e = rng.normal(0.0, 20.0, size=2)
            sigma2 = 10.0 ** rng.uniform(-1, 3)
            for theta in (1.0, 0.5):
                values = (mu_o, mu_e, sigma2, prior_o, prior_e, theta, 1.0)
                params = ClassifierParams(*map(float, values))
                slope = (params.mu_o - params.mu_e) / params.sigma2
                midpoint = 0.5 * (params.mu_o + params.mu_e)
                at = midpoint + (math.log(theta) - math.log(prior_o / prior_e)) / slope
                grid = [midpoint, at]
                for direction in (math.inf, -math.inf):
                    f = at
                    for _ in range(40):
                        f = math.nextafter(f, direction)
                        grid.append(f)
                grid += rng.normal(at, 30.0, size=20).tolist()
                yield params, grid


def test_scalar_decision_equals_decide_batch_at_both_stage_thresholds():
    ties = {1.0: 0, 0.5: 0}
    for params, grid in _stage_threshold_grid():
        batch = decide_batch(params, np.array(grid))
        odds = log_posterior_odds(params, np.array(grid))
        for f, decision, log_odds in zip(grid, batch.tolist(), odds.tolist()):
            assert classify(params, f) is decision
            assert posterior_oddball(params, f) == _reference_posterior(params, f)
            if log_odds == math.log(params.theta):
                ties[params.theta] += 1
                assert decision is False
    assert ties[1.0] >= 20 and ties[0.5] >= 20
