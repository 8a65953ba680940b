"""Information-transfer-rate arithmetic for the binary selection channel.

The classifier's conditional error rates form an asymmetric binary channel
from stimulus class (oddball / non-oddball) to decision. Everything here is
log base 2, and 0 * log(0) is 0 throughout, so degenerate channels evaluate
cleanly. Alongside the exact mutual-information rate there are the two
common approximations (a symmetric-channel formula parameterized by accuracy
alone, and a Fano lower bound) plus the wall-clock "practical" rate that
divides correctly typed information by elapsed time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

__all__ = [
    "ConfusionMatrix",
    "ChannelSpec",
    "ItrReport",
    "mutual_information",
    "wolpaw_itr",
    "fano_lower_bound",
    "practical_itr",
    "per_trial_itr_from_session",
]

_LN2 = math.log(2.0)


def _entropy_bits(probs) -> float:
    p = np.asarray(probs, dtype=float)
    return float(-np.sum(xlogy(p, p)) / _LN2)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Conditional decode probabilities. Rows are the true class."""

    p_oo: float   # p(decide oddball | oddball)
    p_eo: float   # p(decide non-oddball | oddball): omission rate
    p_oe: float   # p(decide oddball | non-oddball): false-alarm rate
    p_ee: float   # p(decide non-oddball | non-oddball)

    def __post_init__(self) -> None:
        for value in (self.p_oo, self.p_eo, self.p_oe, self.p_ee):
            if not 0.0 <= value <= 1.0:
                raise ValueError("confusion entries must lie in [0, 1]")
        if abs(self.p_oo + self.p_eo - 1.0) > 1e-12 or abs(self.p_oe + self.p_ee - 1.0) > 1e-12:
            raise ValueError("confusion rows must each sum to 1")

    @classmethod
    def from_counts(cls, hits: int, omissions: int, false_alarms: int, rejections: int) -> "ConfusionMatrix":
        n_o = hits + omissions
        n_e = false_alarms + rejections
        if n_o == 0 or n_e == 0:
            raise ValueError("need at least one trial of each class")
        return cls(hits / n_o, omissions / n_o, false_alarms / n_e, rejections / n_e)

    @classmethod
    def perfect(cls) -> "ConfusionMatrix":
        return cls(1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class ChannelSpec:
    confusion: ConfusionMatrix
    prior_o: float
    prior_e: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.prior_o) and math.isfinite(self.prior_e)):
            raise ValueError(f"priors must be finite, got {self.prior_o!r} and {self.prior_e!r}")
        if self.prior_o <= 0.0 or self.prior_e <= 0.0:
            raise ValueError("priors must be positive")
        if abs(self.prior_o + self.prior_e - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")

    @property
    def output_probs(self) -> tuple[float, float]:
        """(p(decide oddball), p(decide non-oddball)) under the priors."""
        c = self.confusion
        p_out_o = self.prior_o * c.p_oo + self.prior_e * c.p_oe
        return p_out_o, 1.0 - p_out_o

    def accuracy(self) -> float:
        return self.prior_o * self.confusion.p_oo + self.prior_e * self.confusion.p_ee


@dataclass(frozen=True)
class ItrReport:
    bits_per_trial: float | None = None
    trials_per_sec: float | None = None
    bits_per_sec: float | None = None
    n_correct: int | None = None
    duration_s: float | None = None
    alphabet_size: int | None = None

    def __post_init__(self) -> None:
        if (
            self.bits_per_trial is not None
            and self.trials_per_sec is not None
            and self.bits_per_sec is not None
        ):
            if abs(self.bits_per_sec - self.bits_per_trial * self.trials_per_sec) > 1e-12:
                raise ValueError("bits/sec must equal bits/trial times trials/sec")


def mutual_information(spec: ChannelSpec) -> float:
    """Exact I(in; out) in bits per trial: output entropy minus noise entropy."""
    c = spec.confusion
    h_out = _entropy_bits(spec.output_probs)
    h_out_given_in = spec.prior_o * _entropy_bits((c.p_oo, c.p_eo)) + spec.prior_e * _entropy_bits(
        (c.p_oe, c.p_ee)
    )
    return max(h_out - h_out_given_in, 0.0)


def wolpaw_itr(n_classes: int, p_c: float) -> float:
    """Symmetric-channel rate from accuracy alone; assumes uniform inputs and
    uniformly spread errors, which the selection channel violates."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if not 0.0 <= p_c <= 1.0:
        raise ValueError("accuracy must lie in [0, 1]")
    p_err = 1.0 - p_c
    bits = math.log2(n_classes) + float(xlogy(p_c, p_c) + xlogy(p_err, p_err / (n_classes - 1))) / _LN2
    return bits


def fano_lower_bound(prior_o: float, p_c: float) -> float:
    """Input entropy minus the binary entropy of the error rate."""
    if not 0.0 < prior_o < 1.0:
        raise ValueError("prior must lie in (0, 1)")
    if not 0.0 <= p_c <= 1.0:
        raise ValueError("accuracy must lie in [0, 1]")
    h_in = _entropy_bits((prior_o, 1.0 - prior_o))
    return h_in - _entropy_bits((p_c, 1.0 - p_c))


def practical_itr(n_correct: int, duration_s: float, alphabet_size: int) -> float:
    """Correctly typed symbols per second times bits per symbol.

    Backspaces and erroneous selections carry no credit; the caller counts
    only correct selections."""
    if n_correct < 0:
        raise ValueError("n_correct must be >= 0")
    if duration_s <= 0.0:
        raise ValueError("duration must be positive")
    if alphabet_size < 2:
        raise ValueError("alphabet must have at least 2 symbols")
    return (n_correct / duration_s) * math.log2(alphabet_size)


def per_trial_itr_from_session(spec: ChannelSpec, n_trials: int, active_time_s: float) -> ItrReport:
    """Per-trial information rate over active (pause-free) session time."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if active_time_s <= 0.0:
        raise ValueError("active time must be positive")
    bits = mutual_information(spec)
    rate = n_trials / active_time_s
    return ItrReport(
        bits_per_trial=bits,
        trials_per_sec=rate,
        bits_per_sec=bits * rate,
        duration_s=active_time_s,
    )

