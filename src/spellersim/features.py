"""Classwise subspace feature extraction: 480-D trials to one scalar.

Fitting learns, per class, a PCA subspace of the class covariance (keeping
the smallest number of leading components that explains an eta fraction of
the class variance, capped at m_max), then a unit-norm Fisher discriminant
direction inside each subspace. Extraction projects the input into each
class subspace relative to that class's mean, applies its discriminant
vector, and returns the scalar from the branch whose best 1-D class
posterior is largest (ties go to the oddball branch). The map is piecewise
linear.

Only the top m_max + 1 eigenpairs of each class are computed; energy
fractions divide by the covariance trace. A class with fewer samples than
dimensions (n - 1 < d, the oddball class at protocol sizes) is solved by
the method of snapshots: a partial eigensolve of the n x n Gram matrix
whose eigenvectors map back through the centered samples. Other classes get
a partial eigensolve of the d x d covariance. A class is rank deficient
when n - 1 < d or when cov - _EIG_TOL * lambda_max * I has no Cholesky
factor, i.e. some eigenvalue is at or below the tolerance that keeps a
direction; such a class also keeps the component of its mean offset that
its covariance cannot see.

Fitted models are immutable; fitting and extraction are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf

from ._container import load_container, save_container
from .classifier import ClassifierParams
from .signal import NON_ODDBALL, ODDBALL

__all__ = [
    "ClassSubspace",
    "CpcaModel",
    "BranchDiscriminant",
    "DiscriminantModel",
    "FeatureModel",
    "fit_cpca",
    "fit_discriminant",
    "fit_feature_model",
    "extract",
    "extract_batch",
    "save_model",
    "load_model",
]

_EIG_TOL = 1e-10
_VAR_FLOOR = 1e-24


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each row positive."""
    out = vectors.copy()
    for row in out:
        scale = np.max(np.abs(row))
        if scale == 0.0:
            continue
        lead = row[np.abs(row) > 1e-12 * scale][0]
        if lead < 0.0:
            row *= -1.0
    return out


@dataclass(frozen=True)
class ClassSubspace:
    mean: np.ndarray             # (d,)
    basis: np.ndarray            # (d, m), orthonormal columns
    energy_fraction: float       # class variance captured by the basis
    offset: np.ndarray = field(init=False, repr=False, compare=False)  # (m,): mean @ basis

    def __post_init__(self) -> None:
        if self.mean.ndim != 1 or self.basis.ndim != 2 or self.basis.shape[0] != self.mean.shape[0]:
            raise ValueError("subspace basis must be (d, m) for a mean of shape (d,)")
        # huge loaded values may overflow; the checks below reject that
        # (allclose is false for inf and nan) instead of warning
        with np.errstate(over="ignore"):
            gram = self.basis.T @ self.basis
            offset = self.mean @ self.basis
        if not np.allclose(gram, np.eye(self.basis.shape[1]), atol=1e-8):
            raise ValueError("subspace basis must be orthonormal")
        if not np.all(np.isfinite(offset)):
            raise ValueError("subspace offset (mean @ basis) must be finite")
        object.__setattr__(self, "offset", offset)

    @property
    def m(self) -> int:
        return self.basis.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Project relative to the class mean; works on (d,) or (n, d)."""
        return x @ self.basis - self.offset


@dataclass(frozen=True)
class CpcaModel:
    eta: float
    m_max: int
    global_mean: np.ndarray
    oddball: ClassSubspace
    non_oddball: ClassSubspace

    def __post_init__(self) -> None:
        if not self.global_mean.shape == self.oddball.mean.shape == self.non_oddball.mean.shape:
            raise ValueError("global and class means must have the same shape")

    def subspaces(self) -> tuple[ClassSubspace, ClassSubspace]:
        """Branches in decision order: oddball first."""
        return self.oddball, self.non_oddball


def _class_eigensystem(centered: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """Top-k eigenpairs of the sample covariance, its trace and the rank rule.

    Returns eigenvalues (descending, at most k), eigenvectors (rows), the
    covariance trace, and whether the covariance has an eigenvalue at or
    below _EIG_TOL times the largest one."""
    n, d = centered.shape
    if n - 1 < d:
        # method of snapshots: the n x n Gram matrix shares the nonzero
        # spectrum, and its eigenvectors map back through the samples
        gram = centered @ centered.T / (n - 1)
        k = min(k, n)
        w, u = scipy.linalg.eigh(gram, subset_by_index=(n - k, n - 1), check_finite=False)
        v = centered.T @ u[:, ::-1]
        norms = np.linalg.norm(v, axis=0)
        v /= np.where(norms > 0.0, norms, 1.0)
        return w[::-1], v.T, float(np.trace(gram)), True
    cov = centered.T @ centered / (n - 1)
    k = min(k, d)
    w, v = scipy.linalg.eigh(cov, subset_by_index=(d - k, d - 1), check_finite=False)
    w, v = w[::-1], v[:, ::-1].T
    trace = float(np.trace(cov))
    # every eigenvalue exceeds the tolerance iff the shifted matrix is
    # positive definite; the top-k spectrum alone cannot see a rank above k
    cov.flat[:: d + 1] -= _EIG_TOL * max(w[0], 0.0)
    _, info = dpotrf(cov, lower=True, clean=False, overwrite_a=True)
    return w, v, trace, info != 0


def _mean_offset_direction(mean: np.ndarray, global_mean: np.ndarray, basis: np.ndarray | None) -> np.ndarray | None:
    """Component of the class-to-global mean offset the basis cannot see."""
    resid = mean - global_mean
    scale = np.linalg.norm(resid)
    if basis is not None:
        resid = resid - basis @ (basis.T @ resid)
        resid = resid - basis @ (basis.T @ resid)  # second pass for orthogonality
    norm = np.linalg.norm(resid)
    if norm <= 1e-8 * max(scale, 1e-300):
        return None
    return _fix_signs((resid / norm)[None, :])[0]


def _fit_subspace(x_c: np.ndarray, global_mean: np.ndarray, eta: float, m_max: int) -> ClassSubspace:
    mean = x_c.mean(axis=0)
    eigvals, vecs, trace, rank_deficient = _class_eigensystem(x_c - mean, m_max + 1)
    eigvals = np.clip(eigvals, 0.0, None)
    # identical samples leave centering dust ~ eps * |x|; treat it as zero
    dust = (1e-10 * float(np.max(np.abs(x_c)))) ** 2
    if eigvals.size == 0 or eigvals[0] <= dust:
        # degenerate class: all samples identical. Fall back to the single
        # direction pointing from the global mean to this class.
        extra = _mean_offset_direction(mean, global_mean, None)
        basis = extra if extra is not None else np.eye(len(mean))[0]
        return ClassSubspace(mean=mean, basis=basis[:, None].copy(), energy_fraction=1.0)
    keep = eigvals > _EIG_TOL * eigvals[0]
    eigvals, vecs = eigvals[keep], vecs[keep]
    fractions = np.cumsum(eigvals) / trace
    m = int(np.searchsorted(fractions, eta - 1e-12) + 1)
    m = min(m, m_max, len(eigvals))
    basis = _fix_signs(vecs[:m]).T.copy()
    if rank_deficient:
        # rank-deficient spectrum: the covariance is blind to part of the
        # space. Keep the class-offset component it cannot represent, or
        # degenerate (low-rank) classes lose their only separating direction.
        # The offset direction counts toward the cap; at the cap it displaces
        # the weakest retained eigendirection.
        extra = _mean_offset_direction(mean, global_mean, basis)
        if extra is not None:
            if basis.shape[1] >= m_max:
                basis = basis[:, : m_max - 1]
                m = m_max - 1
            basis = np.column_stack([basis, extra])
    return ClassSubspace(
        mean=mean,
        basis=basis,
        energy_fraction=float(fractions[m - 1]) if m >= 1 else 0.0,
    )


def fit_cpca(vectors, labels, eta: float = 0.9, m_max: int = 30) -> CpcaModel:
    """Per-class PCA with an energy threshold.

    vectors: (n, d) array-like; labels: boolean, True for oddball. Each class
    needs at least 2 samples; a zero-variance class degrades to a single
    mean-difference component rather than failing.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    x = np.asarray(vectors, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("vectors must be (n, d) with one label per row")
    if not np.all(np.isfinite(x)):
        raise ValueError("vectors must be finite")
    for present, name in ((y.sum(), ODDBALL), ((~y).sum(), NON_ODDBALL)):
        if present < 2:
            raise ValueError(f"need at least 2 {name} samples, got {present}")
    global_mean = x.mean(axis=0)
    return CpcaModel(
        eta=eta,
        m_max=m_max,
        global_mean=global_mean,
        oddball=_fit_subspace(x[y], global_mean, eta, m_max),
        non_oddball=_fit_subspace(x[~y], global_mean, eta, m_max),
    )


@dataclass(frozen=True)
class BranchDiscriminant:
    """Unit discriminant direction plus the 1-D gate statistics of one branch."""

    t: np.ndarray               # (m,), unit norm
    feature_means: np.ndarray   # (2,): oddball, non-oddball feature means
    feature_vars: np.ndarray    # (2,): matching variances, floored positive

    def __post_init__(self) -> None:
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(self.t)
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-8:
            raise ValueError("discriminant vector must have unit norm")
        if self.feature_means.shape != (2,) or self.feature_vars.shape != (2,):
            raise ValueError("per-class statistics must have shape (2,)")
        if not np.all(self.feature_vars > 0.0):
            raise ValueError("feature variances must be positive")


@dataclass(frozen=True)
class DiscriminantModel:
    oddball: BranchDiscriminant
    non_oddball: BranchDiscriminant
    log_priors: np.ndarray      # (2,): log p(oddball), log p(non-oddball)

    def __post_init__(self) -> None:
        if self.log_priors.shape != (2,):
            raise ValueError("gate priors must have shape (2,)")
        with np.errstate(over="ignore"):
            total = np.exp(self.log_priors).sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError("gate priors must sum to 1")


def _fisher_direction(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Leading eigenvector of between-class vs within-class scatter."""
    m = z.shape[1]
    mu_o, mu_e = z[y].mean(axis=0), z[~y].mean(axis=0)
    mu = z.mean(axis=0)
    s_w = np.zeros((m, m))
    for cls_mask, cls_mean in ((y, mu_o), (~y, mu_e)):
        c = z[cls_mask] - cls_mean
        s_w += c.T @ c
    s_b = y.sum() * np.outer(mu_o - mu, mu_o - mu) + (~y).sum() * np.outer(mu_e - mu, mu_e - mu)
    try:
        w, v = scipy.linalg.eigh(s_b, s_w)
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
            raise np.linalg.LinAlgError("non-finite generalized eigensystem")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        eps = 1e-6 * np.trace(s_w) / m
        if eps <= 0.0:
            eps = 1e-6
        w, v = scipy.linalg.eigh(s_b, s_w + eps * np.eye(m))
    t = v[:, np.argmax(w)]
    return _fix_signs(t[None, :])[0] / np.linalg.norm(t)


def _branch_stats(z: np.ndarray, y: np.ndarray, t: np.ndarray) -> BranchDiscriminant:
    f = z @ t
    means = np.array([f[y].mean(), f[~y].mean()])
    variances = np.array(
        [max(float(np.var(f[y], ddof=1)), _VAR_FLOOR), max(float(np.var(f[~y], ddof=1)), _VAR_FLOOR)]
    )
    return BranchDiscriminant(t=t, feature_means=means, feature_vars=variances)


def fit_discriminant(projections: dict, labels) -> DiscriminantModel:
    """Fisher direction and gate statistics per class subspace.

    projections maps each class name to the (n, m_class) projections of ALL
    training samples into that class's subspace.
    """
    y = np.asarray(labels, dtype=bool)
    if y.all() or not y.any():
        raise ValueError("both classes must be present")
    branches = {}
    for name in (ODDBALL, NON_ODDBALL):
        z = np.asarray(projections[name], dtype=float)
        if z.shape[0] != y.shape[0]:
            raise ValueError("projection row count must match labels")
        t = np.array([1.0]) if z.shape[1] == 1 else _fisher_direction(z, y)
        branches[name] = _branch_stats(z, y, t)
    log_priors = np.log([y.mean(), 1.0 - y.mean()])
    return DiscriminantModel(
        oddball=branches[ODDBALL], non_oddball=branches[NON_ODDBALL], log_priors=log_priors
    )


@dataclass(frozen=True)
class FeatureModel:
    cpca: CpcaModel
    disc: DiscriminantModel

    def __post_init__(self) -> None:
        for sub, branch in zip(self.cpca.subspaces(), (self.disc.oddball, self.disc.non_oddball)):
            if branch.t.shape != (sub.m,):
                raise ValueError("discriminant dimension must match its subspace")


def _fit_with_training_features(vectors, labels, eta: float, m_max: int) -> tuple[FeatureModel, np.ndarray]:
    """Fit the model and return it with the features of its training rows.

    The features reuse the projections of the Fisher step and equal
    extract_batch(model, vectors) bit for bit."""
    x = np.asarray(vectors, dtype=float)
    y = np.asarray(labels, dtype=bool)
    cpca = fit_cpca(x, y, eta=eta, m_max=m_max)
    projections = {
        ODDBALL: cpca.oddball.project(x),
        NON_ODDBALL: cpca.non_oddball.project(x),
    }
    model = FeatureModel(cpca=cpca, disc=fit_discriminant(projections, y))
    return model, _select_features(model, projections[ODDBALL], projections[NON_ODDBALL])


def fit_feature_model(vectors, labels, eta: float = 0.9, m_max: int = 30) -> FeatureModel:
    return _fit_with_training_features(vectors, labels, eta, m_max)[0]


def _branch_scores(model: FeatureModel, features: np.ndarray) -> np.ndarray:
    """Best log class posterior in each branch; features has shape (n, 2)."""
    scores = np.empty_like(features)
    for j, branch in enumerate((model.disc.oddball, model.disc.non_oddball)):
        f = features[:, j, None]
        log_lik = (
            -0.5 * ((f - branch.feature_means) ** 2 / branch.feature_vars)
            - 0.5 * np.log(2.0 * np.pi * branch.feature_vars)
            + model.disc.log_priors
        )
        norm = np.logaddexp(log_lik[:, 0], log_lik[:, 1])
        scores[:, j] = log_lik.max(axis=1) - norm
    return scores


def _select_features(model: FeatureModel, z_o: np.ndarray, z_e: np.ndarray) -> np.ndarray:
    """Branch feature of each row from its oddball and non-oddball projections."""
    features = np.column_stack([z_o @ model.disc.oddball.t, z_e @ model.disc.non_oddball.t])
    scores = _branch_scores(model, features)
    # oddball branch on ties
    return np.where(scores[:, 0] >= scores[:, 1], features[:, 0], features[:, 1])


def extract_batch(model: FeatureModel, vectors) -> np.ndarray:
    """Vectorized extract over rows of an (n, d) array."""
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.cpca.global_mean.shape[0]:
        raise ValueError("vectors must be (n, d) matching the fitted dimension")
    if not np.all(np.isfinite(x)):
        raise ValueError("vectors must be finite")
    sub_o, sub_e = model.cpca.subspaces()
    return _select_features(model, sub_o.project(x), sub_e.project(x))


def extract(model: FeatureModel, x) -> float:
    """Scalar discriminant feature for a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.cpca.global_mean.shape[0],):
        raise ValueError(f"expected a {model.cpca.global_mean.shape[0]}-vector, got {x.shape}")
    return float(extract_batch(model, x[None, :])[0])


# ---------------------------------------------------------------------------
# serialization


def _model_arrays(model: FeatureModel) -> dict[str, np.ndarray]:
    return {
        "global_mean": model.cpca.global_mean,
        "o_mean": model.cpca.oddball.mean,
        "o_basis": model.cpca.oddball.basis,
        "e_mean": model.cpca.non_oddball.mean,
        "e_basis": model.cpca.non_oddball.basis,
        "o_t": model.disc.oddball.t,
        "o_feature_means": model.disc.oddball.feature_means,
        "o_feature_vars": model.disc.oddball.feature_vars,
        "e_t": model.disc.non_oddball.t,
        "e_feature_means": model.disc.non_oddball.feature_means,
        "e_feature_vars": model.disc.non_oddball.feature_vars,
        "log_priors": model.disc.log_priors,
    }


def _model_meta(model: FeatureModel, classifier: ClassifierParams | None, meta: dict | None) -> dict:
    out = {
        "kind": "feature_model",
        "eta": model.cpca.eta,
        "m_max": model.cpca.m_max,
        "o_energy": model.cpca.oddball.energy_fraction,
        "e_energy": model.cpca.non_oddball.energy_fraction,
        "classifier": None,
        "extra": meta or {},
    }
    if classifier is not None:
        out["classifier"] = {
            "mu_o": classifier.mu_o,
            "mu_e": classifier.mu_e,
            "sigma2": classifier.sigma2,
            "prior_o": classifier.prior_o,
            "prior_e": classifier.prior_e,
            "lambda_fa": classifier.lambda_fa,
            "lambda_om": classifier.lambda_om,
        }
    return out


def _is_real(value) -> bool:
    return type(value) in (int, float) and abs(value) < math.inf


def _model_from_parts(meta: dict, arrays: dict) -> tuple[FeatureModel, ClassifierParams | None, dict]:
    if not isinstance(meta, dict) or meta.get("kind") != "feature_model":
        raise ValueError("container does not hold a feature model")
    for name, arr in arrays.items():
        if arr.dtype != np.float64 or not np.all(np.isfinite(arr)):
            raise ValueError(f"model array {name!r} must hold finite float64 values")
    try:
        if type(meta["m_max"]) is not int or not all(_is_real(meta[k]) for k in ("eta", "o_energy", "e_energy")):
            raise ValueError("model meta 'eta', 'm_max', 'o_energy' and 'e_energy' must be finite numbers")
        cpca = CpcaModel(
            eta=meta["eta"],
            m_max=meta["m_max"],
            global_mean=arrays["global_mean"],
            oddball=ClassSubspace(arrays["o_mean"], arrays["o_basis"], meta["o_energy"]),
            non_oddball=ClassSubspace(arrays["e_mean"], arrays["e_basis"], meta["e_energy"]),
        )
        disc = DiscriminantModel(
            oddball=BranchDiscriminant(arrays["o_t"], arrays["o_feature_means"], arrays["o_feature_vars"]),
            non_oddball=BranchDiscriminant(arrays["e_t"], arrays["e_feature_means"], arrays["e_feature_vars"]),
            log_priors=arrays["log_priors"],
        )
        params, extra = meta["classifier"], meta["extra"]
    except KeyError as exc:
        raise ValueError(f"model container is missing {exc.args[0]!r}") from None
    if not isinstance(extra, dict):
        raise ValueError("model meta 'extra' must be an object")
    try:
        classifier = ClassifierParams(**params) if params is not None else None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad classifier entry in model container: {exc}") from None
    return FeatureModel(cpca=cpca, disc=disc), classifier, extra


def save_model(
    path,
    model: FeatureModel,
    classifier: ClassifierParams | None = None,
    meta: dict | None = None,
) -> None:
    """Versioned binary container; byte-identical for identical inputs."""
    save_container(path, _model_meta(model, classifier, meta), _model_arrays(model))


def load_model(path) -> tuple[FeatureModel, ClassifierParams | None, dict]:
    meta, arrays = load_container(path)
    return _model_from_parts(meta, arrays)

