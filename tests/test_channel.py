"""Channel math: exact mutual information, bounds, and rate reports."""
import dataclasses
import math
import struct

import numpy as np
import pytest
from scipy.special import xlogy

from spellersim.channel import (
    _entropy_bits,
    ChannelSpec,
    ConfusionMatrix,
    ItrReport,
    fano_lower_bound,
    mutual_information,
    per_trial_itr_from_session,
    practical_itr,
    wolpaw_itr,
)

PRIOR_O = 1.0 / 7.0
PERFECT = ConfusionMatrix(1.0, 0.0, 0.0, 1.0)


def mi_bruteforce(spec: ChannelSpec) -> float:
    """Direct joint-distribution double sum, the independent oracle."""
    c = spec.confusion
    joint = np.array(
        [
            [spec.prior_o * c.p_oo, spec.prior_o * c.p_eo],
            [spec.prior_e * c.p_oe, spec.prior_e * c.p_ee],
        ]
    )
    p_in = joint.sum(axis=1)
    p_out = joint.sum(axis=0)
    total = 0.0
    for i in range(2):
        for j in range(2):
            if joint[i, j] > 0.0:
                total += joint[i, j] * math.log2(joint[i, j] / (p_in[i] * p_out[j]))
    return total


def random_spec(rng) -> ChannelSpec:
    p_oo = rng.uniform(0.0, 1.0)
    p_oe = rng.uniform(0.0, 1.0)
    prior_o = rng.uniform(1e-3, 1.0 - 1e-3)
    conf = ConfusionMatrix(p_oo, 1.0 - p_oo, p_oe, 1.0 - p_oe)
    return ChannelSpec(conf, prior_o)


# ---------------------------------------------------------------------------
# the math.log entropy against the scipy.special.xlogy code it replaced

_LN2 = math.log(2.0)


def _xlogy_entropy_bits(probs) -> float:
    p = np.asarray(probs, dtype=float)
    return float(-np.sum(xlogy(p, p)) / _LN2)


def _xlogy_mutual_information(spec: ChannelSpec) -> float:
    c = spec.confusion
    h_out = _xlogy_entropy_bits(spec.output_probs)
    h_out_given_in = spec.prior_o * _xlogy_entropy_bits((c.p_oo, c.p_eo)) + spec.prior_e * _xlogy_entropy_bits(
        (c.p_oe, c.p_ee)
    )
    return max(h_out - h_out_given_in, 0.0)


def _xlogy_wolpaw_itr(n_classes: int, p_c: float) -> float:
    p_err = 1.0 - p_c
    return math.log2(n_classes) + float(xlogy(p_c, p_c) + xlogy(p_err, p_err / (n_classes - 1))) / _LN2


def _xlogy_fano_lower_bound(prior_o: float, p_c: float) -> float:
    return _xlogy_entropy_bits((prior_o, 1.0 - prior_o)) - _xlogy_entropy_bits((p_c, 1.0 - p_c))


def _probability_grid() -> list[float]:
    """Probabilities with the edges that separate log implementations: 0, 1,
    subnormals, the smallest normal, and the neighbours of 0.5 and 1."""
    edges = [
        0.0, 5e-324, 1e-320, 2.2e-308, 1e-300, 1e-200, 1e-17, 2.0**-53, 1e-10, 1e-3,
        0.1, 1.0 / 7.0, 0.25, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
        0.75, 6.0 / 7.0, 0.9, 1.0 - 1e-10, math.nextafter(1.0, 0.0), 1.0,
    ]
    rng = np.random.default_rng(2024)
    near_one = (1.0 - np.exp(rng.uniform(-36.0, 0.0, 40))).tolist()
    return edges + rng.uniform(size=40).tolist() + np.exp(rng.uniform(-740.0, 0.0, 40)).tolist() + near_one


def _same_bits(a: float, b: float) -> bool:
    return math.isnan(a) and math.isnan(b) or struct.pack("<d", a) == struct.pack("<d", b)


class TestEntropyMatchesXlogy:
    GRID = _probability_grid()

    def test_entropy_of_every_pair(self):
        # the pairs need not sum to one; 1 + 1e-13 and -1e-13 reach the
        # branches where C's log returns nan
        values = self.GRID + [-1e-13, 1.0 + 1e-13, -0.0, math.inf, math.nan]
        for p in values:
            for q in values:
                assert _same_bits(_entropy_bits((p, q)), _xlogy_entropy_bits((p, q))), (p, q)

    def test_mutual_information(self):
        priors = [1.0 / 7.0, 0.5, 5e-324, 2.2e-308, 0.9, math.nextafter(1.0, 0.0)]
        for p_oo in self.GRID[::2]:
            for p_ee in self.GRID[1::2]:
                confusion = ConfusionMatrix(p_oo, 1.0 - p_oo, 1.0 - p_ee, p_ee)
                for prior_o in priors:
                    spec = ChannelSpec(confusion, prior_o)
                    assert _same_bits(mutual_information(spec), _xlogy_mutual_information(spec))

    def test_wolpaw_and_fano(self):
        # at 2**1023 classes the error mass per class underflows to 0: -inf bits
        assert wolpaw_itr(2**1023, 1.0 - 2.0**-53) == -math.inf
        for p_c in self.GRID:
            for n_classes in (2, 7, 42, 10**300, 2**1023):
                assert _same_bits(wolpaw_itr(n_classes, p_c), _xlogy_wolpaw_itr(n_classes, p_c))
            for prior_o in (p for p in self.GRID if 0.0 < p < 1.0):
                assert _same_bits(fano_lower_bound(prior_o, p_c), _xlogy_fano_lower_bound(prior_o, p_c))


class TestConfusionMatrix:
    def test_row_sum_enforced(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(0.9, 0.2, 0.1, 0.9)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(1.2, -0.2, 0.0, 1.0)

    def test_from_counts(self):
        conf = ConfusionMatrix.from_counts(hits=90, omissions=10, false_alarms=5, rejections=95)
        assert conf.p_oo == 0.9
        assert conf.p_oe == 0.05

    def test_from_counts_needs_both_classes(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_counts(10, 0, 0, 0)


class TestChannelSpec:
    def test_the_other_prior_is_derived(self):
        spec = ChannelSpec(PERFECT, 0.3)
        assert spec.prior_e == 1.0 - 0.3
        assert [f.name for f in dataclasses.fields(spec)] == ["confusion", "prior_o"]

    def test_priors_must_be_positive(self):
        for prior_o in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="positive"):
                ChannelSpec(PERFECT, prior_o)

    @pytest.mark.parametrize("prior_o", [math.nan, math.inf, -math.inf])
    def test_priors_must_be_finite(self, prior_o):
        with pytest.raises(ValueError, match="finite"):
            ChannelSpec(PERFECT, prior_o)

    def test_output_probs(self):
        conf = ConfusionMatrix(0.8, 0.2, 0.1, 0.9)
        spec = ChannelSpec(conf, PRIOR_O)
        p_out_o, p_out_e = spec.output_probs
        assert p_out_o == pytest.approx(0.8 / 7.0 + 0.1 * 6.0 / 7.0, abs=1e-15)
        assert p_out_o + p_out_e == pytest.approx(1.0, abs=1e-15)

    def test_accuracy(self):
        conf = ConfusionMatrix(0.8, 0.2, 0.1, 0.9)
        spec = ChannelSpec(conf, 0.5)
        assert spec.accuracy() == pytest.approx(0.85, abs=1e-15)


class TestMutualInformation:
    def test_chance_channel_is_exactly_zero(self):
        conf = ConfusionMatrix(0.0, 1.0, 0.0, 1.0)
        assert mutual_information(ChannelSpec(conf, PRIOR_O)) == 0.0

    def test_perfect_channel_pinned_value(self):
        spec = ChannelSpec(PERFECT, PRIOR_O)
        assert mutual_information(spec) == pytest.approx(0.592, abs=5e-4)

    def test_matches_bruteforce_on_random_specs(self):
        rng = np.random.default_rng(20260818)
        worst = 0.0
        for _ in range(1000):
            spec = random_spec(rng)
            worst = max(worst, abs(mutual_information(spec) - mi_bruteforce(spec)))
        assert worst <= 1e-10

    def test_bounded_by_input_entropy(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            spec = random_spec(rng)
            h_in = -(
                spec.prior_o * math.log2(spec.prior_o) + spec.prior_e * math.log2(spec.prior_e)
            )
            mi = mutual_information(spec)
            assert 0.0 <= mi <= h_in + 1e-12

    def test_zero_iff_rows_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = rng.uniform(0.0, 1.0)
            conf = ConfusionMatrix(p, 1.0 - p, p, 1.0 - p)
            prior_o = rng.uniform(0.01, 0.99)
            assert mutual_information(ChannelSpec(conf, prior_o)) <= 1e-15
        for _ in range(200):
            p_oo = rng.uniform(0.0, 1.0)
            p_oe = rng.uniform(0.0, 1.0)
            if abs(p_oo - p_oe) < 1e-3:
                continue
            conf = ConfusionMatrix(p_oo, 1.0 - p_oo, p_oe, 1.0 - p_oe)
            assert mutual_information(ChannelSpec(conf, 0.25)) > 0.0

    def test_asymmetry_same_accuracy_different_information(self):
        # Equal accuracy and equal error rate, yet different mutual
        # information: the channel is not a function of (p_c, p_eps).
        omission_heavy = ConfusionMatrix(0.65, 0.35, 0.0, 1.0)
        fa_heavy = ConfusionMatrix(1.0, 0.0, 0.35 / 6.0, 1.0 - 0.35 / 6.0)
        spec_a = ChannelSpec(omission_heavy, PRIOR_O)
        spec_b = ChannelSpec(fa_heavy, PRIOR_O)
        assert spec_a.accuracy() == pytest.approx(spec_b.accuracy(), abs=1e-12)
        assert abs(mutual_information(spec_a) - mutual_information(spec_b)) > 0.01


class TestWolpaw:
    def test_perfect_binary(self):
        assert wolpaw_itr(2, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_pinned_binary_chance_level(self):
        assert wolpaw_itr(2, 6.0 / 7.0) == pytest.approx(0.408, abs=5e-4)

    def test_pinned_eight_class(self):
        assert wolpaw_itr(8, 0.92) == pytest.approx(2.373, abs=5e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            wolpaw_itr(1, 0.9)
        with pytest.raises(ValueError):
            wolpaw_itr(4, 1.2)


class TestFano:
    def test_zero_error_equals_input_entropy(self):
        assert fano_lower_bound(1.0 / 7.0, 1.0) == pytest.approx(0.592, abs=5e-4)

    def test_symmetric_chance_is_zero(self):
        assert fano_lower_bound(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_below_mutual_information_everywhere(self):
        rng = np.random.default_rng(20260819)
        for _ in range(10_000):
            spec = random_spec(rng)
            bound = fano_lower_bound(spec.prior_o, spec.accuracy())
            assert bound <= mutual_information(spec) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            fano_lower_bound(0.0, 0.9)
        with pytest.raises(ValueError):
            fano_lower_bound(0.2, 1.5)


class TestPracticalItr:
    def test_pinned_full_session(self):
        assert practical_itr(44, 207.1, 42) == pytest.approx(1.146, abs=1e-3)

    def test_pinned_active_time_session(self):
        assert practical_itr(44, 207.1 - 129.0, 42) == pytest.approx(3.038, abs=2e-3)

    def test_nothing_typed(self):
        assert practical_itr(0, 100.0, 42) == 0.0

    def test_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n_c = int(rng.integers(0, 100))
            t = float(rng.uniform(1.0, 500.0))
            base = practical_itr(n_c, t, 42)
            assert practical_itr(n_c + 1, t, 42) >= base
            assert practical_itr(n_c, t * 0.9, 42) >= base

    def test_validation(self):
        with pytest.raises(ValueError):
            practical_itr(-1, 10.0, 42)
        with pytest.raises(ValueError):
            practical_itr(5, 0.0, 42)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"duration must be positive and finite, got {t!r}"):
                practical_itr(5, t, 42)
        with pytest.raises(ValueError):
            practical_itr(5, 10.0, 1)


class TestSessionReport:
    def test_pinned_product(self):
        report = ItrReport(bits_per_trial=0.522, trials_per_sec=5.82, bits_per_sec=0.522 * 5.82)
        assert report.bits_per_sec == pytest.approx(3.038, abs=2e-3)

    def test_product_invariant_enforced(self):
        with pytest.raises(ValueError):
            ItrReport(bits_per_trial=0.5, trials_per_sec=2.0, bits_per_sec=1.5)

    def test_zero_information_session(self):
        conf = ConfusionMatrix(0.0, 1.0, 0.0, 1.0)
        report = per_trial_itr_from_session(ChannelSpec(conf, PRIOR_O), 1, 10.0)
        assert report.bits_per_sec == 0.0

    def test_zero_active_time_rejected(self):
        spec = ChannelSpec(PERFECT, PRIOR_O)
        with pytest.raises(ValueError):
            per_trial_itr_from_session(spec, 100, 0.0)

    @pytest.mark.parametrize("active_time_s", [math.nan, math.inf])
    def test_non_finite_active_time_rejected(self, active_time_s):
        spec = ChannelSpec(PERFECT, PRIOR_O)
        with pytest.raises(ValueError, match=f"active time must be positive and finite, got {active_time_s!r}"):
            per_trial_itr_from_session(spec, 100, active_time_s)

    def test_simulation_round_trip(self):
        # Estimate the confusion from sampled decisions and check the
        # report converges on the generator's own numbers.
        rng = np.random.default_rng(99)
        generator = ConfusionMatrix(0.88, 0.12, 0.04, 0.96)
        prior_o = 1.0 / 7.0
        n = 400_000
        labels = rng.uniform(size=n) < prior_o
        decide_odd = np.where(
            labels,
            rng.uniform(size=n) < generator.p_oo,
            rng.uniform(size=n) < generator.p_oe,
        )
        est = ConfusionMatrix.from_counts(
            hits=int(np.sum(labels & decide_odd)),
            omissions=int(np.sum(labels & ~decide_odd)),
            false_alarms=int(np.sum(~labels & decide_odd)),
            rejections=int(np.sum(~labels & ~decide_odd)),
        )
        active = n / 5.814
        report = per_trial_itr_from_session(ChannelSpec(est, prior_o), n, active)
        truth = mutual_information(ChannelSpec(generator, prior_o))
        assert report.bits_per_trial == pytest.approx(truth, abs=5e-3)
        assert report.trials_per_sec == pytest.approx(5.814, abs=1e-9)


class TestRecomputeWithRatio:
    """Mutual information of one confusion re-evaluated at another prior ratio."""

    def test_degenerate_ratios_kill_information(self):
        conf = ConfusionMatrix(0.9, 0.1, 0.05, 0.95)
        for ratio in (1e-9, 1e9):
            prior_o = ratio / (1.0 + ratio)
            assert mutual_information(ChannelSpec(conf, prior_o)) < 1e-6

    def test_one_to_three_envelope(self):
        # Operating points whose accuracy at the true 1:6 ratio spans the
        # published 90.5-96.6% range, re-evaluated at an assumed 1:3 ratio,
        # give a few tenths of a bit per trial. Individual confusions are
        # unpublished, so the 0.274-0.524 band is a sanity envelope: the
        # attainable set must bracket it, and nothing should stray far.
        values = []
        for p_oo in np.linspace(0.50, 0.95, 19):
            for p_ee in np.linspace(0.95, 0.995, 10):
                conf = ConfusionMatrix(p_oo, 1.0 - p_oo, 1.0 - p_ee, p_ee)
                acc = ChannelSpec(conf, PRIOR_O).accuracy()
                if not 0.905 <= acc <= 0.966:
                    continue
                values.append(mutual_information(ChannelSpec(conf, 0.25)))
        assert values
        assert min(values) > 0.10
        assert max(values) < 0.70
        assert min(values) < 0.274
        assert max(values) > 0.524
        assert any(0.274 <= v <= 0.524 for v in values)

