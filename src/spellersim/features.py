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
a partial eigensolve of the d x d covariance. The oddball subspace always
keeps the component of the oddball mean offset that its basis cannot see;
the non-oddball subspace never keeps its own.

Fitted models are immutable; fitting and extraction are pure functions.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

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
_LOG2 = math.log(2.0)  # numpy's logaddexp adds this when its arguments are equal


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


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrappers, scipy/linalg/_flapack, loaded from
    their file: importing scipy.linalg costs about 0.2 s and 28 MB for an
    array-API layer no fit uses. The routines run in scipy's bundled
    OpenBLAS, the library _fork pins."""
    spec = find_spec("scipy")
    if spec is not None and spec.origin is not None:
        directory = Path(spec.origin).parent / "linalg"
        for suffix in EXTENSION_SUFFIXES:
            path = directory / f"_flapack{suffix}"
            if path.is_file():
                loader = ExtensionFileLoader("scipy.linalg._flapack", str(path))
                loaded = loader.name in sys.modules
                module = module_from_spec(spec_from_file_location(loader.name, path, loader=loader))
                loader.exec_module(module)
                if not loaded:
                    # the extension registers itself, without its package; a
                    # later scipy.linalg import registers its own copy
                    sys.modules.pop(loader.name, None)
                return module
    raise ImportError("scipy's LAPACK extension scipy/linalg/_flapack was not found")


def _eigh_top(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top k eigenvalues of the symmetric matrix a, ascending, and their
    eigenvectors as columns.

    The LAPACK call of scipy.linalg.eigh(a, subset_by_index=(n - k, n - 1),
    check_finite=False): dsyevr on the lower triangle with the workspace
    sizes its query returns."""
    lapack = _lapack()
    n = a.shape[0]
    lwork, liwork, _ = lapack.dsyevr_lwork(n=n, lower=1)
    w, v, m, _, info = lapack.dsyevr(
        a=a, compute_v=1, lower=1, range="I", il=n - k + 1, iu=n, overwrite_a=0, lwork=int(lwork), liwork=int(liwork)
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"symmetric eigensolve failed (LAPACK dsyevr info {info})")
    return w[:m], v[:, :m]


def _class_eigensystem(
    x: np.ndarray, rows: np.ndarray, k: int
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, float]:
    """Mean and eigensystem of the class whose rows of x the boolean mask
    `rows` selects.

    Returns the class mean, the scale below which eigenvalues are centering
    dust, the top-k eigenpairs of the sample covariance (eigenvalues
    descending, at most k; eigenvectors as rows) and the covariance trace.

    The class is copied once and centered in place; x is left unchanged.
    When the covariance is formed, the copy is freed before the eigensolve."""
    centered = x[rows]
    # identical samples leave centering dust ~ eps * |x|; treat it as zero.
    # the class's largest |value|, taken before centering without an abs
    # temporary
    dust = (1e-10 * max(float(centered.max()), -float(centered.min()))) ** 2
    mean = centered.mean(axis=0)
    centered -= mean
    n, d = centered.shape
    if n - 1 < d:
        # method of snapshots: the n x n Gram matrix shares the nonzero
        # spectrum, and its eigenvectors map back through the samples
        gram = centered @ centered.T
        gram /= n - 1
        k = min(k, n)
        w, u = _eigh_top(gram, k)
        v = centered.T @ u[:, ::-1]
        norms = np.linalg.norm(v, axis=0)
        v /= np.where(norms > 0.0, norms, 1.0)
        return mean, dust, w[::-1], v.T, float(np.trace(gram))
    cov = centered.T @ centered
    del centered
    cov /= n - 1
    w, v = _eigh_top(cov, min(k, d))
    return mean, dust, w[::-1], v[:, ::-1].T, float(np.trace(cov))


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


def _fit_subspace(
    x: np.ndarray, rows: np.ndarray, global_mean: np.ndarray, eta: float, m_max: int, oddball: bool
) -> ClassSubspace:
    """Subspace of the class whose rows of x the boolean mask `rows` selects;
    oddball says whether that is the oddball class. x is left unchanged."""
    mean, dust, eigvals, vecs, trace = _class_eigensystem(x, rows, m_max + 1)
    eigvals = np.clip(eigvals, 0.0, None)
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
    if oddball:
        # The oddball class keeps its mean offset's component that the basis
        # cannot represent: it is the separating feature at any session size.
        # The non-oddball class never keeps its own. The offset direction
        # counts toward the cap; at the cap it displaces the weakest retained
        # eigendirection.
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


def fit_cpca(vectors, labels, eta: float, m_max: int) -> CpcaModel:
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
        oddball=_fit_subspace(x, y, global_mean, eta, m_max, True),
        non_oddball=_fit_subspace(x, ~y, global_mean, eta, m_max, False),
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
    # per branch, per class: (mean, variance, log normalizer, log prior) as
    # floats, the constants of the gate between the branch features; the log
    # normalizer is the Gaussian's 0.5 * log(2 pi var)
    gate: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.log_priors.shape != (2,):
            raise ValueError("gate priors must have shape (2,)")
        with np.errstate(over="ignore"):
            total = np.exp(self.log_priors).sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError("gate priors must sum to 1")
        priors = self.log_priors.tolist()
        gate = []
        for b in (self.oddball, self.non_oddball):
            with np.errstate(over="ignore"):
                log_norms = 0.5 * np.log(2.0 * np.pi * b.feature_vars)
            gate.append(tuple(zip(b.feature_means.tolist(), b.feature_vars.tolist(), log_norms.tolist(), priors)))
        object.__setattr__(self, "gate", tuple(gate))


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
    if not (np.all(np.isfinite(s_b)) and np.all(np.isfinite(s_w))):
        raise ValueError("scatter matrices must be finite")
    # the LAPACK call of scipy.linalg.eigh(s_b, s_w): dsygvd on the lower triangles
    dsygvd = _lapack().dsygvd
    w, v, info = dsygvd(a=s_b, b=s_w, itype=1, jobz="V", uplo="L")
    if info != 0 or not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
        # singular within-class scatter: regularize it once
        eps = 1e-6 * np.trace(s_w) / m
        if eps <= 0.0:
            eps = 1e-6
        w, v, info = dsygvd(a=s_b, b=s_w + eps * np.eye(m), itype=1, jobz="V", uplo="L")
        if info != 0:
            raise np.linalg.LinAlgError(f"generalized eigensolve failed (LAPACK dsygvd info {info})")
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
    for j, ((m_o, v_o, c_o, p_o), (m_e, v_e, c_e, p_e)) in enumerate(model.disc.gate):
        f = features[:, j]
        a = -0.5 * ((f - m_o) ** 2 / v_o) - c_o + p_o
        b = -0.5 * ((f - m_e) ** 2 / v_e) - c_e + p_e
        scores[:, j] = np.maximum(a, b) - np.logaddexp(a, b)
    return scores


def _branch_score(gate: tuple, f: float) -> float:
    """One branch's entry of _branch_scores at one feature, in float math.

    gate is the branch's entry of DiscriminantModel.gate. The operations
    and their order are those of the array path, and the normalizer mirrors
    numpy's logaddexp, so the result is the same float."""
    (m_o, v_o, c_o, p_o), (m_e, v_e, c_e, p_e) = gate
    d_o, d_e = f - m_o, f - m_e
    a = -0.5 * (d_o * d_o / v_o) - c_o + p_o
    b = -0.5 * (d_e * d_e / v_e) - c_e + p_e
    top = max(a, b)
    norm = a + _LOG2 if a == b else top + math.log1p(math.exp(-abs(a - b)))
    return top - norm


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
    """Scalar discriminant feature for a single input vector.

    Equals extract_batch(model, x[None])[0]: the row is projected as a
    (1, d) array, so BLAS runs the batch path's kernels, and the gate
    between the two branch features runs in float math."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.cpca.global_mean.shape[0],):
        raise ValueError(f"expected a {model.cpca.global_mean.shape[0]}-vector, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("vectors must be finite")
    row = x[None, :]
    disc = model.disc
    f_o = float((model.cpca.oddball.project(row) @ disc.oddball.t)[0])
    f_e = float((model.cpca.non_oddball.project(row) @ disc.non_oddball.t)[0])
    # oddball branch on ties
    return f_o if _branch_score(disc.gate[0], f_o) >= _branch_score(disc.gate[1], f_e) else f_e


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


def _model_meta(model: FeatureModel, classifier: ClassifierParams, meta: dict) -> dict:
    return {
        "kind": "feature_model",
        "eta": model.cpca.eta,
        "m_max": model.cpca.m_max,
        "o_energy": model.cpca.oddball.energy_fraction,
        "e_energy": model.cpca.non_oddball.energy_fraction,
        "classifier": asdict(classifier),
        "extra": meta,
    }


def _is_real(value) -> bool:
    return type(value) in (int, float) and abs(value) < math.inf


def _model_from_parts(meta: dict, arrays: dict) -> tuple[FeatureModel, ClassifierParams, dict]:
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
    if not isinstance(params, dict):
        raise ValueError("model container carries no classifier")
    try:
        classifier = ClassifierParams(**params)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad classifier entry in model container: {exc}") from None
    return FeatureModel(cpca=cpca, disc=disc), classifier, extra


def save_model(path, model: FeatureModel, classifier: ClassifierParams, meta: dict) -> None:
    """The whole pipeline in a versioned binary container; byte-identical for
    identical inputs."""
    save_container(path, _model_meta(model, classifier, meta), _model_arrays(model))


def load_model(path) -> tuple[FeatureModel, ClassifierParams, dict]:
    meta, arrays = load_container(path)
    return _model_from_parts(meta, arrays)

