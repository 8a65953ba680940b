import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spellersim import classifier
from spellersim._container import load_container, save_container
from spellersim.features import (
    BranchDiscriminant,
    ClassSubspace,
    CpcaModel,
    DiscriminantModel,
    FeatureModel,
    extract,
    extract_batch,
    fit_cpca,
    fit_discriminant,
    fit_feature_model,
    load_model,
    save_model,
)
from spellersim.features import (
    _EIG_TOL,
    _branch_scores,
    _class_eigensystem,
    _fit_subspace,
    _fit_with_training_features,
    _fix_signs,
    _mean_offset_direction,
)
from spellersim.signal import NON_ODDBALL, ODDBALL


def _rank5_classes(rng, n_per_class=400, d=480):
    """Both classes live on one shared rank-5 affine subspace."""
    dirs = np.linalg.qr(rng.normal(size=(d, 5)))[0].T      # (5, d) orthonormal
    scales = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    x_o = (rng.normal(size=(n_per_class, 5)) * scales) @ dirs + 4.0 * dirs[0]
    x_e = (rng.normal(size=(n_per_class, 5)) * scales) @ dirs - 4.0 * dirs[0]
    x = np.vstack([x_o, x_e])
    y = np.arange(2 * n_per_class) < n_per_class
    return x, y, dirs


def _gaussian_classes(rng, n_o=300, n_e=1800, d=40, sep=4.0, cov_scale_o=1.0):
    delta = np.zeros(d)
    delta[0] = sep
    x_o = rng.normal(size=(n_o, d)) * cov_scale_o + delta
    x_e = rng.normal(size=(n_e, d))
    x = np.vstack([x_o, x_e])
    y = np.arange(n_o + n_e) < n_o
    return x, y


def test_cpca_recovers_known_rank():
    x, y, dirs = _rank5_classes(np.random.default_rng(0))
    model = fit_cpca(x, y, eta=0.99, m_max=30)
    assert model.oddball.m == 5
    assert model.non_oddball.m == 5
    # recovered subspace spans the construction directions
    proj = model.oddball.basis.T @ dirs.T
    assert np.allclose(np.linalg.svd(proj, compute_uv=False), 1.0, atol=1e-6)


def test_cpca_cap_binds_at_full_rank():
    rng = np.random.default_rng(1)
    d = 60
    x = rng.normal(size=(2 * (d + 2), d))
    y = np.arange(2 * (d + 2)) < d + 2
    model = fit_cpca(x, y, eta=1.0, m_max=30)
    assert model.oddball.m == 30
    assert model.non_oddball.m == 30


def _zero_variance_classes():
    """Five identical oddball samples against 30 Gaussian ones, d = 20."""
    d = 20
    v = np.zeros(d)
    v[3] = 2.0
    x = np.vstack([np.tile(v, (5, 1)), np.random.default_rng(2).normal(size=(30, d))])
    return x, np.arange(35) < 5


def test_cpca_zero_variance_class_falls_back_to_mean_direction():
    x, y = _zero_variance_classes()
    model = fit_cpca(x, y)
    assert model.oddball.m == 1
    direction = model.oddball.basis[:, 0]
    expected = x[0] - x.mean(axis=0)
    expected /= np.linalg.norm(expected)
    assert abs(abs(direction @ expected) - 1.0) < 1e-10


def test_cpca_rank_deficient_classes_keep_mean_offset_direction():
    # classes share a rank-2 covariance but differ along an unseen direction,
    # the shape of noiseless overlapping-trial data
    rng = np.random.default_rng(3)
    d = 50
    span = np.linalg.qr(rng.normal(size=(d, 2)))[0].T
    offset = np.zeros(d)
    offset[7] = 3.0  # not in span (span is random, overlap negligible)
    coeffs_o = rng.normal(size=(60, 2))
    coeffs_e = rng.normal(size=(60, 2))
    x = np.vstack([coeffs_o @ span + offset, coeffs_e @ span])
    y = np.arange(120) < 60
    model = fit_cpca(x, y, eta=0.99)
    assert model.oddball.m == 3  # 2 spectral + 1 mean-offset
    # the appended direction makes the classes separable in the subspace
    z_o = model.oddball.project(x[y])
    z_e = model.oddball.project(x[~y])
    gap = np.abs(z_o.mean(axis=0) - z_e.mean(axis=0))
    spread = z_o.std(axis=0) + z_e.std(axis=0)
    assert np.any(gap > 3.0 * (spread + 1e-9))


def test_cpca_orthonormal_and_energy_invariants():
    rng = np.random.default_rng(4)
    x, y = _gaussian_classes(rng, n_o=200, n_e=400, d=40)
    eta = 0.9
    model = fit_cpca(x, y, eta=eta, m_max=480)
    for sub, mask in ((model.oddball, y), (model.non_oddball, ~y)):
        gram = sub.basis.T @ sub.basis
        assert np.allclose(gram, np.eye(sub.m), atol=1e-10)
        centered = x[mask] - x[mask].mean(axis=0)
        residual = centered - (centered @ sub.basis) @ sub.basis.T
        total = np.sum(centered**2)
        assert np.sum(residual**2) <= (1.0 - eta) * total + 1e-8
        assert sub.energy_fraction >= eta


def test_cpca_validation():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 4))
    y = np.arange(10) < 5
    with pytest.raises(ValueError):
        fit_cpca(x, y, eta=0.0)
    with pytest.raises(ValueError):
        fit_cpca(x, y, eta=1.2)
    with pytest.raises(ValueError):
        fit_cpca(x, np.ones(10, bool))
    with pytest.raises(ValueError):
        fit_cpca(x, np.arange(10) < 1)  # single oddball sample
    bad = x.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        fit_cpca(bad, y)


def test_model_parts_reject_values_that_overflow():
    # every input is finite, but the Gram matrix, the offset or norm(t) is not
    d = 12
    column = np.full((d, 1), 1.0 / np.sqrt(d))
    with pytest.raises(ValueError, match="offset"):
        ClassSubspace(mean=np.full(d, 1.7e308), basis=column, energy_fraction=1.0)
    with pytest.raises(ValueError, match="orthonormal"):
        ClassSubspace(mean=np.zeros(d), basis=np.full((d, 2), 1e200), energy_fraction=1.0)
    with pytest.raises(ValueError, match="unit norm"):
        BranchDiscriminant(t=np.full(3, 1e200), feature_means=np.zeros(2), feature_vars=np.ones(2))
    with pytest.raises(ValueError, match="unit norm"):
        BranchDiscriminant(t=np.full(3, np.nan), feature_means=np.zeros(2), feature_vars=np.ones(2))
    branch = BranchDiscriminant(t=np.ones(1), feature_means=np.zeros(2), feature_vars=np.ones(2))
    with pytest.raises(ValueError, match="sum to 1"):
        DiscriminantModel(oddball=branch, non_oddball=branch, log_priors=np.array([1000.0, 0.0]))


def _projection_inputs(rng, n=40_000, m=8, cov=None, sep=1.0):
    """Shared-covariance two-class data already in subspace coordinates."""
    if cov is None:
        cov = np.eye(m)
    delta = np.zeros(m)
    delta[0] = sep
    chol = np.linalg.cholesky(cov)
    z_o = rng.normal(size=(n // 4, m)) @ chol.T + delta
    z_e = rng.normal(size=(3 * n // 4, m)) @ chol.T
    z = np.vstack([z_o, z_e])
    y = np.arange(len(z)) < len(z_o)
    return z, y, delta, cov


def test_discriminant_isotropic_matches_mean_difference():
    rng = np.random.default_rng(6)
    z, y, delta, _ = _projection_inputs(rng)
    disc = fit_discriminant({ODDBALL: z, NON_ODDBALL: z}, y)
    cos = disc.oddball.t @ (delta / np.linalg.norm(delta))
    assert abs(cos) >= 0.999


def test_discriminant_matches_analytic_lda():
    rng = np.random.default_rng(7)
    m = 8
    a = rng.normal(size=(m, m))
    cov = a @ a.T / m + 0.5 * np.eye(m)
    z, y, delta, _ = _projection_inputs(rng, cov=cov, sep=2.0)
    disc = fit_discriminant({ODDBALL: z, NON_ODDBALL: z}, y)
    lda = np.linalg.solve(cov, delta)
    lda /= np.linalg.norm(lda)
    assert abs(disc.oddball.t @ lda) >= 0.999


def test_discriminant_label_swap_same_direction():
    rng = np.random.default_rng(8)
    z, y, _, _ = _projection_inputs(rng, n=4000)
    a = fit_discriminant({ODDBALL: z, NON_ODDBALL: z}, y)
    b = fit_discriminant({ODDBALL: z, NON_ODDBALL: z}, ~y)
    assert np.allclose(np.abs(a.oddball.t), np.abs(b.oddball.t), atol=1e-9)


def test_discriminant_unit_norm_and_stats():
    rng = np.random.default_rng(9)
    z, y, _, _ = _projection_inputs(rng, n=2000)
    disc = fit_discriminant({ODDBALL: z, NON_ODDBALL: z}, y)
    for branch in (disc.oddball, disc.non_oddball):
        assert np.linalg.norm(branch.t) == pytest.approx(1.0, abs=1e-10)
        f = z @ branch.t
        assert branch.feature_means[0] == pytest.approx(f[y].mean())
        assert branch.feature_vars[1] == pytest.approx(np.var(f[~y], ddof=1))
    assert np.exp(disc.log_priors).sum() == pytest.approx(1.0)


def test_discriminant_singular_scatter_uses_ridge():
    # all samples of each class identical in a 2-D subspace: S_w = 0
    z = np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5)
    y = np.arange(10) < 5
    disc = fit_discriminant({ODDBALL: z, NON_ODDBALL: z}, y)
    t = disc.oddball.t
    # separation direction is (1, -1)/sqrt(2) up to sign
    assert abs(abs(t @ np.array([1.0, -1.0]) / np.sqrt(2.0)) - 1.0) < 1e-6


def test_extract_of_class_mean_returns_its_class_statistic():
    rng = np.random.default_rng(10)
    # sharper oddball class so its branch wins the gate at the class mean
    x, y = _gaussian_classes(rng, n_o=500, n_e=1000, d=30, sep=5.0, cov_scale_o=0.5)
    model = fit_feature_model(x, y)
    f = extract(model, model.cpca.oddball.mean)
    assert f == pytest.approx(model.disc.oddball.feature_means[0], abs=1e-9)
    assert abs(f) < 1e-9  # centered projection of the mean is zero


def test_extract_identical_branches_is_linear():
    rng = np.random.default_rng(11)
    d, m = 12, 3
    basis = np.linalg.qr(rng.normal(size=(d, m)))[0]
    mean = rng.normal(size=d)
    sub = ClassSubspace(mean=mean, basis=basis, energy_fraction=1.0)
    t = np.zeros(m)
    t[0] = 1.0
    branch = BranchDiscriminant(
        t=t, feature_means=np.array([1.0, -1.0]), feature_vars=np.array([1.0, 1.0])
    )
    model = FeatureModel(
        cpca=CpcaModel(eta=0.9, m_max=30, global_mean=mean, oddball=sub, non_oddball=sub),
        disc=DiscriminantModel(
            oddball=branch, non_oddball=branch, log_priors=np.log([0.5, 0.5])
        ),
    )
    x1, x2 = rng.normal(size=(2, d))
    for alpha in (0.0, 0.25, 0.5, 1.0):
        blend = alpha * x1 + (1.0 - alpha) * x2
        expected = alpha * extract(model, x1) + (1.0 - alpha) * extract(model, x2)
        assert extract(model, blend) == pytest.approx(expected, abs=1e-9)


def test_extract_batch_matches_scalar_extract():
    rng = np.random.default_rng(12)
    x, y = _gaussian_classes(rng, n_o=100, n_e=600, d=25)
    model = fit_feature_model(x, y)
    test = rng.normal(size=(20, 25))
    batch = extract_batch(model, test)
    singles = [extract(model, row) for row in test]
    assert np.allclose(batch, singles, rtol=1e-10, atol=1e-12)


def test_extract_dimension_mismatch_rejected():
    rng = np.random.default_rng(13)
    x, y = _gaussian_classes(rng, n_o=50, n_e=300, d=10)
    model = fit_feature_model(x, y)
    with pytest.raises(ValueError):
        extract(model, np.zeros(11))
    with pytest.raises(ValueError):
        extract_batch(model, np.zeros((5, 11)))


def test_pipeline_matches_brute_force_bayes():
    # extract + linear classifier against a density-grid Bayes rule on the
    # same 1-D features
    rng = np.random.default_rng(14)
    x, y = _gaussian_classes(rng, n_o=1000, n_e=6000, d=30, sep=3.0)
    model = fit_feature_model(x, y)
    f_train = extract_batch(model, x)
    params = classifier.fit(f_train, y)

    x_test, y_test = _gaussian_classes(rng, n_o=143, n_e=857, d=30, sep=3.0)
    f_test = extract_batch(model, x_test)
    decisions = np.array([classifier.classify(params, f) for f in f_test])
    accuracy = np.mean(decisions == y_test)

    # brute-force Bayes: histogram class densities of training features
    edges = np.linspace(f_train.min() - 1e-9, f_train.max() + 1e-9, 60)
    dens_o = np.histogram(f_train[y], bins=edges, density=True)[0]
    dens_e = np.histogram(f_train[~y], bins=edges, density=True)[0]
    idx = np.clip(np.searchsorted(edges, f_test) - 1, 0, len(dens_o) - 1)
    prior_o = y.mean()
    oracle = dens_o[idx] * prior_o > dens_e[idx] * (1.0 - prior_o)
    oracle_accuracy = np.mean(oracle == y_test)
    assert abs(accuracy - oracle_accuracy) <= 0.01


def test_scale_consistency_of_decisions():
    rng = np.random.default_rng(16)
    x, y = _gaussian_classes(rng, n_o=300, n_e=1800, d=20, sep=3.0)
    x_test = rng.normal(size=(400, 20))
    scale = 3.7

    def decisions(data, test):
        model = fit_feature_model(data, y)
        params = classifier.fit(extract_batch(model, data), y)
        return np.array([classifier.classify(params, f) for f in extract_batch(model, test)])

    assert np.array_equal(decisions(x, x_test), decisions(scale * x, scale * x_test))


def test_binary_round_trip_exact(tmp_path):
    rng = np.random.default_rng(17)
    x, y = _gaussian_classes(rng, n_o=120, n_e=700, d=24)
    model = fit_feature_model(x, y)
    params = classifier.fit(extract_batch(model, x), y, priors=(1.0 / 7.0, 6.0 / 7.0))
    path = tmp_path / "model.ssmc"
    save_model(path, model, params, meta={"iti_ms": 160})
    loaded, loaded_params, meta = load_model(path)
    assert meta == {"iti_ms": 160}
    assert loaded_params == params
    assert np.array_equal(loaded.cpca.oddball.basis, model.cpca.oddball.basis)
    assert np.array_equal(loaded.disc.non_oddball.t, model.disc.non_oddball.t)
    test = rng.normal(size=(10, 24))
    assert np.array_equal(extract_batch(loaded, test), extract_batch(model, test))


def test_binary_output_is_byte_identical(tmp_path):
    rng = np.random.default_rng(18)
    x, y = _gaussian_classes(rng, n_o=60, n_e=200, d=12)
    model = fit_feature_model(x, y)
    p1, p2 = tmp_path / "a.ssmc", tmp_path / "b.ssmc"
    save_model(p1, model)
    save_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# top-of-spectrum subspace fit against the full-spectrum oracle


def _oracle_fit_subspace(x_c, global_mean, eta, m_max):
    """Full eigh/SVD subspace fit, kept as an independent reference.

    Returns the subspace and whether the full spectrum has an eigenvalue at
    or below _EIG_TOL times the largest (the rank-deficiency decision)."""
    mean = x_c.mean(axis=0)
    centered = x_c - mean
    n, d = centered.shape
    if n - 1 < d:
        _, s, vecs = np.linalg.svd(centered / np.sqrt(n - 1), full_matrices=False)
        eigvals = s**2
    else:
        w, v = np.linalg.eigh(centered.T @ centered / (n - 1))
        order = np.argsort(w)[::-1]
        eigvals, vecs = w[order], v[:, order].T
    eigvals = np.clip(eigvals, 0.0, None)
    dust = (1e-10 * float(np.max(np.abs(x_c)))) ** 2
    if eigvals[0] <= dust:
        extra = _mean_offset_direction(mean, global_mean, None)
        basis = extra if extra is not None else np.eye(d)[0]
        return ClassSubspace(mean, basis[:, None].copy(), 1.0), True
    keep = eigvals > _EIG_TOL * eigvals[0]
    eigvals, vecs = eigvals[keep], vecs[keep]
    fractions = np.cumsum(eigvals) / eigvals.sum()
    m = min(int(np.searchsorted(fractions, eta - 1e-12) + 1), m_max, len(eigvals))
    basis = _fix_signs(vecs[:m]).T.copy()
    deficient = len(eigvals) < d
    if deficient:
        extra = _mean_offset_direction(mean, global_mean, basis)
        if extra is not None:
            if basis.shape[1] >= m_max:
                basis, m = basis[:, : m_max - 1], m_max - 1
            basis = np.column_stack([basis, extra])
    return ClassSubspace(mean, basis, float(fractions[m - 1])), deficient


def _decaying_classes(rng, n_o, n_e, d, sep=3.0):
    """Anisotropic classes with a power-law spectrum and distinct eigenvalues."""
    rotation = np.linalg.qr(rng.normal(size=(d, d)))[0]
    scales = 1.0 / (1.0 + np.arange(d)) ** 0.6
    delta = sep * rotation[:, 0]
    x_o = (rng.normal(size=(n_o, d)) * scales) @ rotation.T + delta
    x_e = (rng.normal(size=(n_e, d)) * scales) @ rotation.T
    return np.vstack([x_o, x_e]), np.arange(n_o + n_e) < n_o


def _low_rank_classes(rng, n_per_class, d, rank):
    """Both classes on one shared rank-`rank` subspace, offset along a direction outside it."""
    span = np.linalg.qr(rng.normal(size=(d, rank)))[0].T
    scales = 1.0 / (1.0 + np.arange(rank)) ** 0.5
    offset = 3.0 * np.linalg.qr(np.column_stack([span.T, rng.normal(size=d)]))[0][:, -1]
    x_o = (rng.normal(size=(n_per_class, rank)) * scales) @ span + offset
    x_e = (rng.normal(size=(n_per_class, rank)) * scales) @ span
    return np.vstack([x_o, x_e]), np.arange(2 * n_per_class) < n_per_class


EQUIVALENCE_CASES = {
    # name: (x, y, eta, m_max)
    "full_rank": (*_decaying_classes(np.random.default_rng(30), 600, 1600, 480), 0.9, 30),
    "full_rank_isotropic": (*_gaussian_classes(np.random.default_rng(31), 300, 1800, 40), 0.9, 30),
    "snapshot_n_below_d": (*_decaying_classes(np.random.default_rng(32), 268, 1600, 480), 0.9, 30),
    "d_below_m_max": (*_decaying_classes(np.random.default_rng(33), 150, 400, 20), 0.99, 30),
    "rank5": (*_rank5_classes(np.random.default_rng(0))[:2], 0.99, 30),
    "zero_variance": (*_zero_variance_classes(), 0.9, 30),
    "rank2_in_d50": (*_low_rank_classes(np.random.default_rng(3), 60, 50, 2), 0.99, 30),
    "rank100_in_d480": (*_low_rank_classes(np.random.default_rng(34), 1000, 480, 100), 0.9, 30),
}


_TIED_GATE_CASES = {"rank5", "zero_variance", "rank2_in_d50", "rank100_in_d480"}


def _sine_of_largest_angle(a, b):
    """||A - B B^T A||_2 for orthonormal A, B: resolves angles arccos cannot."""
    return float(np.linalg.norm(a - b @ (b.T @ a), 2))


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_subspace_fit_matches_full_spectrum_oracle(case):
    x, y, eta, m_max = EQUIVALENCE_CASES[case]
    global_mean = x.mean(axis=0)
    for mask in (y, ~y):
        x_c = x[mask]
        new = _fit_subspace(x_c, global_mean, eta, m_max)
        old, old_deficient = _oracle_fit_subspace(x_c, global_mean, eta, m_max)
        _, _, _, new_deficient = _class_eigensystem(x_c - x_c.mean(axis=0), m_max + 1)
        assert new_deficient == old_deficient
        assert new.m == old.m
        assert np.array_equal(new.mean, old.mean)
        assert _sine_of_largest_angle(new.basis, old.basis) < 1e-9
        assert _sine_of_largest_angle(old.basis, new.basis) < 1e-9
        # the mean-offset column, when present, is the same direction
        assert abs(new.basis[:, -1] @ old.basis[:, -1] - 1.0) < 1e-9
        assert abs(new.energy_fraction - old.energy_fraction) <= 1e-12


def test_rank_rule_sees_rank_beyond_the_computed_spectrum():
    x, y, _, m_max = EQUIVALENCE_CASES["rank100_in_d480"]
    x_c = x[y]
    assert x_c.shape[0] - 1 >= x_c.shape[1]
    eigvals, _, _, deficient = _class_eigensystem(x_c - x_c.mean(axis=0), m_max + 1)
    # every computed eigenvalue is well above the tolerance; only the
    # Cholesky test finds the 380 missing directions
    assert np.all(eigvals > 1e3 * _EIG_TOL * eigvals[0])
    assert deficient
    sub = _fit_subspace(x_c, x.mean(axis=0), 0.9, m_max)
    assert sub.m == m_max  # 29 spectral directions + the mean offset


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_extract_batch_matches_full_spectrum_oracle(case):
    x, y, eta, m_max = EQUIVALENCE_CASES[case]
    model = fit_feature_model(x, y, eta=eta, m_max=m_max)
    global_mean = x.mean(axis=0)
    sub_o = _oracle_fit_subspace(x[y], global_mean, eta, m_max)[0]
    sub_e = _oracle_fit_subspace(x[~y], global_mean, eta, m_max)[0]
    projections = {ODDBALL: (x - sub_o.mean) @ sub_o.basis, NON_ODDBALL: (x - sub_e.mean) @ sub_e.basis}
    oracle = FeatureModel(
        cpca=CpcaModel(eta, m_max, global_mean, sub_o, sub_e),
        disc=fit_discriminant(projections, y),
    )
    test = np.vstack([x[::7], np.random.default_rng(35).normal(size=(50, x.shape[1])) + global_mean])
    branches = []
    for fitted in (model, oracle):
        subs, discs = fitted.cpca.subspaces(), (fitted.disc.oddball, fitted.disc.non_oddball)
        branches.append(np.column_stack([(test - s.mean) @ s.basis @ b.t for s, b in zip(subs, discs)]))
    assert np.allclose(branches[0], branches[1], rtol=1e-9, atol=1e-9)
    # classes on one shared span (or a zero-variance class) make the gate a
    # tie on every row, which rounding decides; compare the gated output off ties
    scores = _branch_scores(oracle, branches[1])
    decided = np.abs(scores[:, 0] - scores[:, 1]) > 1e-9
    assert decided.all() == (case not in _TIED_GATE_CASES)
    assert np.allclose(
        extract_batch(model, test)[decided], extract_batch(oracle, test)[decided], rtol=1e-9, atol=1e-9
    )


def test_projection_offset_matches_centering():
    x, y, eta, m_max = EQUIVALENCE_CASES["snapshot_n_below_d"]
    sub = fit_cpca(x, y, eta=eta, m_max=m_max).oddball
    assert np.array_equal(sub.offset, sub.mean @ sub.basis)
    assert np.allclose(sub.project(x), (x - sub.mean) @ sub.basis, rtol=0.0, atol=1e-12)
    assert np.allclose(sub.project(x[0]), sub.project(x[:1])[0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("case", ["full_rank", "snapshot_n_below_d", "zero_variance"])
def test_training_features_equal_extract_batch_bitwise(case):
    x, y, eta, m_max = EQUIVALENCE_CASES[case]
    model, features = _fit_with_training_features(x, y, eta, m_max)
    assert np.array_equal(features, extract_batch(model, x))
    reference = fit_feature_model(x, y, eta=eta, m_max=m_max)
    assert np.array_equal(model.cpca.oddball.basis, reference.cpca.oddball.basis)
    assert np.array_equal(model.disc.non_oddball.t, reference.disc.non_oddball.t)


# ---------------------------------------------------------------------------
# malformed model containers


@pytest.fixture
def saved_model(tmp_path):
    rng = np.random.default_rng(40)
    x, y = _gaussian_classes(rng, n_o=60, n_e=200, d=12)
    model = fit_feature_model(x, y)
    params = classifier.fit(extract_batch(model, x), y)
    path = tmp_path / "model.bin"
    save_model(path, model, params, meta={"iti_ms": 160})
    return path


def test_truncated_container_raises_value_error(saved_model, tmp_path):
    blob = saved_model.read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    cuts = {
        "empty": 0,
        "mid_prefix": 8,
        "mid_header": 12 + header_len // 2,
        "end_of_header": 12 + header_len,
        "mid_array": 12 + header_len + 20,
        "last_byte": len(blob) - 1,
    }
    for name, keep in cuts.items():
        cut = tmp_path / f"{name}.bin"
        cut.write_bytes(blob[:keep])
        with pytest.raises(ValueError, match="truncated container"):
            load_model(cut)


def test_container_missing_an_array_raises_value_error(saved_model, tmp_path):
    meta, arrays = load_container(saved_model)
    assert len(arrays) == 12
    for name in arrays:
        path = tmp_path / f"no_{name}.bin"
        save_container(path, meta, {k: v for k, v in arrays.items() if k != name})
        with pytest.raises(ValueError, match=f"missing '{name}'"):
            load_model(path)


def test_container_missing_a_meta_key_raises_value_error(saved_model, tmp_path):
    meta, arrays = load_container(saved_model)
    for key in ("eta", "m_max", "o_energy", "e_energy", "classifier", "extra"):
        path = tmp_path / f"no_{key}.bin"
        save_container(path, {k: v for k, v in meta.items() if k != key}, arrays)
        with pytest.raises(ValueError, match=f"missing '{key}'"):
            load_model(path)
    broken = dict(meta, classifier={k: v for k, v in meta["classifier"].items() if k != "sigma2"})
    path = tmp_path / "no_sigma2.bin"
    save_container(path, broken, arrays)
    with pytest.raises(ValueError, match="sigma2"):
        load_model(path)


def _raw_header(header) -> bytes:
    blob = json.dumps(header).encode()
    return struct.pack("<4sHHI", b"SSMC", 1, 0, len(blob)) + blob


_ARRAY_NAMES = (
    "global_mean",
    "o_mean",
    "o_basis",
    "e_mean",
    "e_basis",
    "o_t",
    "o_feature_means",
    "o_feature_vars",
    "e_t",
    "e_feature_means",
    "e_feature_vars",
    "log_priors",
)
_json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.just(-(10**400)),
    st.floats(),
    st.text(max_size=6),
)
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_array_spec = st.fixed_dictionaries(
    {
        "name": st.sampled_from(_ARRAY_NAMES) | _json,
        "dtype": st.sampled_from(["<f8", "<f4", "<i8", "|b1", ">f8", "<c16", "|O", "V8", "xyz"])
        | _json,
        "shape": st.lists(st.integers(-2, 10**20) | _json, max_size=3) | _json,
    }
)


_CLASSIFIER = dict(mu_o=1.0, mu_e=0.0, sigma2=1.0, prior_o=0.5, prior_e=0.5, lambda_fa=1.0, lambda_om=1.0)
_FUZZ = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestContainerFuzz:
    """Every byte string given to load_model yields a model or a ValueError."""

    @staticmethod
    def _load(tmp_path, blob: bytes) -> None:
        path = tmp_path / "fuzz.bin"
        path.write_bytes(blob)
        try:
            model, params, extra = load_model(path)
        except ValueError:
            return
        assert isinstance(model, FeatureModel) and isinstance(extra, dict)
        assert params is None or isinstance(params, classifier.ClassifierParams)

    @settings(max_examples=150, **_FUZZ)
    @given(keep=st.floats(0.0, 1.0))
    def test_truncations(self, saved_model, tmp_path, keep):
        blob = saved_model.read_bytes()
        self._load(tmp_path, blob[: int(keep * len(blob))])

    @settings(max_examples=300, **_FUZZ)
    @given(
        flips=st.lists(
            st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
            min_size=1,
            max_size=4,
        )
    )
    def test_byte_flips(self, saved_model, tmp_path, flips):
        blob = bytearray(saved_model.read_bytes())
        for where, mask in flips:
            blob[int(where * len(blob))] ^= mask
        self._load(tmp_path, bytes(blob))

    @settings(max_examples=150, **_FUZZ)
    @given(
        meta=_json | st.just("valid"),
        arrays=st.lists(_array_spec, max_size=4) | _json,
        body=st.binary(max_size=256),
    )
    def test_generated_headers(self, saved_model, tmp_path, meta, arrays, body):
        if meta == "valid":
            meta = load_container(saved_model)[0]
        self._load(tmp_path, _raw_header({"meta": meta, "arrays": arrays}) + body)

    @settings(max_examples=200, **_FUZZ)
    @given(
        name=st.sampled_from(_ARRAY_NAMES),
        shape=st.lists(st.integers(0, 14), max_size=3),
        meta_key=st.sampled_from(["eta", "m_max", "o_energy", "e_energy", "classifier", "extra"]),
        meta_value=_json | st.builds(lambda v: dict(_CLASSIFIER, mu_o=v), _json_leaf),
    )
    @example("log_priors", [2], "classifier", dict(_CLASSIFIER, mu_o=-(10**400)))
    @example("log_priors", [2], "eta", 10**400)
    def test_valid_layout_with_one_bad_part(
        self, saved_model, tmp_path, name, shape, meta_key, meta_value
    ):
        meta, arrays = load_container(saved_model)
        size = int(np.prod(shape)) if shape else 1
        arrays[name] = np.resize(arrays[name], size).reshape(shape)
        path = tmp_path / "part.bin"
        save_container(path, dict(meta, **{meta_key: meta_value}), arrays)
        self._load(tmp_path, path.read_bytes())
