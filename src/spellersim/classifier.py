"""Linear Bayesian decision rule on 1-D features.

Both classes are modeled as Gaussians with a shared variance, so the log
posterior odds are affine in the feature. A trial is called oddball when the
posterior odds exceed the threshold theta = lambda_fa / lambda_om, the ratio
of the false-alarm and omission costs; this is the risk-minimizing rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "ClassifierParams",
    "fit",
    "log_posterior_odds",
    "posterior_oddball",
    "classify",
    "decide_batch",
    "with_theta",
]


@dataclass(frozen=True)
class ClassifierParams:
    mu_o: float          # oddball feature mean
    mu_e: float          # non-oddball feature mean
    sigma2: float        # unconditional feature variance, shared by both classes
    prior_o: float
    prior_e: float
    lambda_fa: float     # cost of a false alarm
    lambda_om: float     # cost of an omission

    def __post_init__(self) -> None:
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError("classifier parameters must be finite")
        if not self.sigma2 > 0.0:
            raise ValueError("feature variance must be positive")
        if self.prior_o <= 0.0 or self.prior_e <= 0.0:
            raise ValueError("priors must be positive")
        if abs(self.prior_o + self.prior_e - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")
        if self.lambda_fa <= 0.0 or self.lambda_om <= 0.0:
            raise ValueError("error costs must be positive")

    @property
    def theta(self) -> float:
        """Decision threshold on the posterior odds."""
        return self.lambda_fa / self.lambda_om


def fit(features, labels, priors: tuple[float, float] | None = None) -> ClassifierParams:
    """Estimate class means and the shared variance from labeled features.

    The shared variance is the unconditional sample variance of all features
    about the global mean (ddof 1), not the within-class pooled variance.
    priors = (p_o, p_e), estimated from label counts when omitted. Both
    error costs are 1 (theta = 1); with_theta sets another threshold.
    """
    f = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if f.shape != y.shape or f.ndim != 1:
        raise ValueError("features and labels must be matching 1-D sequences")
    if not np.all(np.isfinite(f)):
        raise ValueError("features must be finite")
    if y.all() or not y.any():
        raise ValueError("both classes must be present")
    sigma2 = float(np.var(f, ddof=1))
    if sigma2 <= 0.0:
        raise ValueError("features have zero variance")
    if priors is None:
        priors = (float(y.mean()), float(1.0 - y.mean()))
    return ClassifierParams(
        mu_o=float(f[y].mean()),
        mu_e=float(f[~y].mean()),
        sigma2=sigma2,
        prior_o=priors[0],
        prior_e=priors[1],
        lambda_fa=1.0,
        lambda_om=1.0,
    )


def with_theta(params: ClassifierParams, theta: float) -> ClassifierParams:
    """Same statistics, new decision threshold (costs rescaled to ratio theta)."""
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    return replace(params, lambda_fa=theta, lambda_om=1.0)


def log_posterior_odds(params: ClassifierParams, f):
    """log [p(o|f) / p(e|f)], affine in f for shared-variance Gaussians.

    f is a scalar (a float comes back) or an array (an array comes back)."""
    if isinstance(f, (np.ndarray, list, tuple)):
        f = np.asarray(f, dtype=float)
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")
    else:
        f = float(f)
        if not math.isfinite(f):
            raise ValueError("feature must be finite")
    slope = (params.mu_o - params.mu_e) / params.sigma2
    midpoint = 0.5 * (params.mu_o + params.mu_e)
    return slope * (f - midpoint) + math.log(params.prior_o / params.prior_e)


def posterior_oddball(params: ClassifierParams, f: float) -> float:
    """p(oddball | f) as a numerically safe logistic of the log odds."""
    log_odds = log_posterior_odds(params, f)
    if log_odds >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    z = math.exp(log_odds)
    return z / (1.0 + z)


def classify(params: ClassifierParams, f):
    """True for oddball. Odds exactly at theta resolve to non-oddball.

    f is a scalar (a bool comes back) or an array (a bool array comes back)."""
    return log_posterior_odds(params, f) > math.log(params.theta)


decide_batch = classify

