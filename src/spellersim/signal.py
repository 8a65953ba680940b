"""Synthetic EEG trials: ERP templates, subject models, and preprocessing.

A trial is one 8-channel, 400 ms segment sampled at 200 Hz (8 x 80), time
locked to a stimulus onset. Oddball trials carry an evoked-response template
(negativity ~190 ms strongest occipitally, positivity ~290 ms on all
channels) on top of Gaussian noise; non-oddball trials are noise only.
Preprocessing discards the first 100 ms of every channel and flattens the
8 x 60 remainder channel-major into a 480-dimensional vector; a stack of
windows is preprocessed in one call.

Trials are cut from one continuous rolling signal per session timeline, so
that at short inter-trial intervals the response evoked by one stimulus
bleeds into the next trial's window, as it does in a real acquisition.
Onsets must not go backwards. Only the noise from the current onset on is
kept, so a session's memory and per-trial cost stay bounded at any length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FS",
    "N_CHANNELS",
    "N_SAMPLES",
    "DISCARD_SAMPLES",
    "RETAINED_SAMPLES",
    "FEATURE_DIM",
    "CHANNELS",
    "ODDBALL",
    "NON_ODDBALL",
    "ErpComponent",
    "ErpTemplate",
    "SubjectModel",
    "default_erp_template",
    "subject_preset",
    "preprocess",
    "SessionSynthesizer",
]

FS = 200                 # Hz
N_CHANNELS = 8
N_SAMPLES = 80           # 400 ms acquisition window
DISCARD_SAMPLES = 20     # first 100 ms dropped before classification
RETAINED_SAMPLES = N_SAMPLES - DISCARD_SAMPLES
FEATURE_DIM = N_CHANNELS * RETAINED_SAMPLES

CHANNELS = ("C3", "Cz", "C4", "P3", "Pz", "P4", "O1", "O2")

ODDBALL = "oddball"
NON_ODDBALL = "non-oddball"

_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


@dataclass(frozen=True)
class ErpComponent:
    """One evoked-response bump: a Gaussian in time, scaled per channel."""

    name: str
    amplitude_uv: float      # signed peak amplitude
    peak_ms: float           # latency post stimulus
    width_ms: float          # full width at half maximum
    gains: tuple[float, ...] # one multiplier per channel

    def __post_init__(self) -> None:
        if not 0.0 <= self.peak_ms <= 400.0:
            raise ValueError(f"peak latency out of [0, 400] ms: {self.peak_ms}")
        if self.width_ms <= 0.0:
            raise ValueError("component width must be positive")
        if len(self.gains) != N_CHANNELS:
            raise ValueError(f"need {N_CHANNELS} channel gains")


@dataclass(frozen=True)
class ErpTemplate:
    components: tuple[ErpComponent, ...]

    def render(self, jitter_ms: float = 0.0) -> np.ndarray:
        """Evaluate the template on the trial grid, shifted by jitter_ms."""
        t_ms = np.arange(N_SAMPLES) * (1000.0 / FS)
        out = np.zeros((N_CHANNELS, N_SAMPLES))
        for comp in self.components:
            sigma = comp.width_ms * _FWHM_TO_SIGMA
            bump = comp.amplitude_uv * np.exp(
                -0.5 * ((t_ms - comp.peak_ms - jitter_ms) / sigma) ** 2
            )
            out += np.asarray(comp.gains)[:, None] * bump[None, :]
        return out


def default_erp_template() -> ErpTemplate:
    """Negativity at 190 ms (occipital, phase-reversed fronto-centrally) plus
    a broad positivity at 290 ms on all channels."""
    n200 = ErpComponent(
        name="N200",
        amplitude_uv=-5.0,
        peak_ms=190.0,
        width_ms=40.0,
        #       C3     Cz     C4     P3    Pz    P4    O1   O2
        gains=(-0.35, -0.35, -0.35, 0.25, 0.25, 0.25, 1.0, 1.0),
    )
    p300 = ErpComponent(
        name="P300",
        amplitude_uv=8.0,
        peak_ms=290.0,
        width_ms=80.0,
        gains=(0.7, 0.8, 0.7, 0.9, 1.0, 0.9, 0.6, 0.6),
    )
    return ErpTemplate(components=(n200, p300))


@dataclass(frozen=True)
class SubjectModel:
    """Parametric stand-in for a human subject.

    attention is the probability that an attended rare stimulus actually
    evokes the template. noise_ar, when nonzero, colors the noise with a
    first-order autoregression (stationary variance kept at noise_sigma_uv^2).
    The oracle flag forces noiseless trials with perfect attention and no
    latency jitter, whatever the other fields say.
    """

    template: ErpTemplate
    noise_sigma_uv: float
    attention: float
    latency_jitter_ms: float
    noise_ar: float = 0.0
    oracle: bool = False

    def __post_init__(self) -> None:
        if self.noise_sigma_uv < 0.0:
            raise ValueError("noise sigma must be >= 0")
        if not 0.0 <= self.attention <= 1.0:
            raise ValueError("attention must lie in [0, 1]")
        if self.latency_jitter_ms < 0.0:
            raise ValueError("latency jitter must be >= 0")
        if not 0.0 <= self.noise_ar < 1.0:
            raise ValueError("AR coefficient must lie in [0, 1)")


def subject_preset(name: str) -> SubjectModel:
    """Bundled subject models: 'oracle', 'midsnr' and 'noise'."""
    template = default_erp_template()
    if name == "oracle":
        return SubjectModel(template, 0.0, 1.0, 0.0, oracle=True)
    if name == "midsnr":
        # tuned for ~94% single-trial CV accuracy on the fast protocol; the
        # noise floor sets the error rate while full attention keeps both
        # classes homoscedastic, so the shared-variance model stays exact
        # and the false-alarm rate sits near zero for any training session
        return SubjectModel(template, 15.5, 1.0, 8.0)
    if name == "noise":
        # attention 0: trials never carry the template, labels are noise
        return SubjectModel(template, 10.0, 0.0, 0.0)
    raise ValueError(f"unknown subject preset {name!r}")


def _erp_fires(subject: SubjectModel, rng: np.random.Generator) -> tuple[bool, float]:
    """Attention and latency draws for one oddball stimulus, in fixed order."""
    if subject.oracle:
        return True, 0.0
    if rng.random() >= subject.attention:
        return False, 0.0
    jitter = float(rng.normal(0.0, subject.latency_jitter_ms)) if subject.latency_jitter_ms > 0.0 else 0.0
    return True, jitter


def preprocess(samples: np.ndarray) -> np.ndarray:
    """Truncate the first 100 ms and flatten channel-major to 480-D.

    Takes one (8, 80) window or an (n, 8, 80) stack and returns (480,) or
    (n, 480). Layout: out[..., c * 60 + k] = samples[..., c, 20 + k].
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim not in (2, 3) or samples.shape[-2:] != (N_CHANNELS, N_SAMPLES):
        raise ValueError(
            f"expected {(N_CHANNELS, N_SAMPLES)} or (n, {N_CHANNELS}, {N_SAMPLES}) samples, "
            f"got {samples.shape}"
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    return samples[..., DISCARD_SAMPLES:].reshape(samples.shape[:-2] + (FEATURE_DIM,))


class SessionSynthesizer:
    """Rolling continuous-signal buffer for overlapping trials.

    One instance owns one session's signal. Stimuli are registered in onset
    order; each trial window is cut from the shared noise stream plus every
    evoked response whose support intersects the window, so response energy
    bleeds across overlapping trials. Onsets must not go backwards (equal
    onsets are allowed): each trial drops the noise before its onset, so the
    buffer holds at most N_SAMPLES plus one onset step of samples however
    long the session runs. Single-owner, sequential use only.
    """

    def __init__(self, subject: SubjectModel, rng: np.random.Generator):
        self.subject = subject
        self.rng = rng
        self._noise = np.zeros((N_CHANNELS, 0))
        self._origin = 0  # absolute sample index of self._noise[:, 0]
        self._last_onset: int | None = None
        self._ar_zi: np.ndarray | None = None
        self._events: list[tuple[int, np.ndarray]] = []

    def _extend_noise(self, n_total: int) -> None:
        """Draw the noise stream up to absolute sample n_total; never trims."""
        have = self._origin + self._noise.shape[1]
        if n_total <= have:
            return
        grow = n_total - have
        subject = self.subject
        if subject.oracle or subject.noise_sigma_uv == 0.0:
            block = np.zeros((N_CHANNELS, grow))
        elif subject.noise_ar == 0.0:
            block = self.rng.normal(0.0, subject.noise_sigma_uv, size=(N_CHANNELS, grow))
        else:
            # scipy.signal is slow to import and only AR(1) subjects need it
            from scipy.signal import lfilter

            a = subject.noise_ar
            if self._ar_zi is None:
                # stationary start: x[-1] ~ N(0, sigma^2) per channel
                x_prev = self.rng.normal(0.0, subject.noise_sigma_uv, size=N_CHANNELS)
                self._ar_zi = (a * x_prev)[:, None]
            w = self.rng.normal(0.0, 1.0, size=(N_CHANNELS, grow))
            scale = subject.noise_sigma_uv * np.sqrt(1.0 - a * a)
            block, self._ar_zi = lfilter([scale], [1.0, -a], w, axis=1, zi=self._ar_zi)
        self._noise = np.concatenate([self._noise, block], axis=1)

    def trial(self, onset_s: float, is_oddball: bool) -> np.ndarray:
        """Register one stimulus and return its (8, 80) trial window.

        Raises ValueError for an onset that is not finite, is negative, or
        lies before the previous onset."""
        position = float(onset_s) * FS
        if not math.isfinite(position):
            raise ValueError(f"onset must be a finite time, got {onset_s!r} s")
        onset_sample = int(round(position))
        if onset_sample < 0:
            raise ValueError(f"onset must be >= 0 s, got {onset_s!r} s")
        if self._last_onset is not None and onset_sample < self._last_onset:
            raise ValueError(
                f"onset sample {onset_sample} is before the previous onset sample "
                f"{self._last_onset}; onsets must not go backwards"
            )
        self._last_onset = onset_sample
        if is_oddball:
            fires, jitter = _erp_fires(self.subject, self.rng)
            if fires:
                self._events.append((onset_sample, self.subject.template.render(jitter)))
        # no window from here on starts before this onset
        drop = min(onset_sample - self._origin, self._noise.shape[1])
        if drop > 0:
            self._noise = self._noise[:, drop:]
            self._origin += drop
        self._extend_noise(onset_sample + N_SAMPLES)
        start = onset_sample - self._origin
        window = self._noise[:, start : start + N_SAMPLES].copy()
        for ev_sample, waveform in self._events:
            lo = max(ev_sample, onset_sample)
            hi = min(ev_sample + N_SAMPLES, onset_sample + N_SAMPLES)
            if hi > lo:
                window[:, lo - onset_sample : hi - onset_sample] += waveform[
                    :, lo - ev_sample : hi - ev_sample
                ]
        # events can no longer reach windows this far along
        self._events = [e for e in self._events if e[0] + N_SAMPLES > onset_sample]
        return window

