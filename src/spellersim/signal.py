"""Synthetic EEG trials: the ERP waveform, subject models, and preprocessing.

A trial is one 8-channel, 400 ms segment sampled at 200 Hz (8 x 80), time
locked to a stimulus onset. Oddball trials carry one fixed evoked waveform
(negativity ~190 ms strongest occipitally, positivity ~290 ms on all
channels) on top of Gaussian noise; non-oddball trials are noise only.
Preprocessing discards the first 100 ms of every channel and flattens the
8 x 60 remainder channel-major into a 480-dimensional vector.

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
    "ODDBALL",
    "NON_ODDBALL",
    "SubjectModel",
    "erp_waveform",
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

ODDBALL = "oddball"
NON_ODDBALL = "non-oddball"

_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


# the evoked response's two Gaussian components: (signed peak amplitude uV,
# peak latency ms, full width at half maximum ms, one gain per channel)
_ERP_COMPONENTS = (
    # negativity at 190 ms: strongest occipitally, phase-reversed fronto-centrally
    #                     C3     Cz     C4     P3    Pz    P4    O1   O2
    (-5.0, 190.0, 40.0, (-0.35, -0.35, -0.35, 0.25, 0.25, 0.25, 1.0, 1.0)),
    # broad positivity at 290 ms on all channels
    (8.0, 290.0, 80.0, (0.7, 0.8, 0.7, 0.9, 1.0, 0.9, 0.6, 0.6)),
)


def erp_waveform(jitter_ms: float) -> np.ndarray:
    """The evoked response on the (8, 80) trial grid, shifted by jitter_ms."""
    t_ms = np.arange(N_SAMPLES) * (1000.0 / FS)
    out = np.zeros((N_CHANNELS, N_SAMPLES))
    for amplitude_uv, peak_ms, width_ms, gains in _ERP_COMPONENTS:
        sigma = width_ms * _FWHM_TO_SIGMA
        bump = amplitude_uv * np.exp(-0.5 * ((t_ms - peak_ms - jitter_ms) / sigma) ** 2)
        out += np.asarray(gains)[:, None] * bump[None, :]
    return out


@dataclass(frozen=True)
class SubjectModel:
    """Parametric stand-in for a human subject.

    attention is the probability that an attended rare stimulus actually
    evokes the response. The noise is white and Gaussian, with standard
    deviation noise_sigma_uv on every channel. The oracle flag forces
    noiseless trials with perfect attention and no latency jitter, whatever
    the other fields say.
    """

    noise_sigma_uv: float
    attention: float
    latency_jitter_ms: float
    oracle: bool = False

    def __post_init__(self) -> None:
        if self.noise_sigma_uv < 0.0:
            raise ValueError("noise sigma must be >= 0")
        if not 0.0 <= self.attention <= 1.0:
            raise ValueError("attention must lie in [0, 1]")
        if self.latency_jitter_ms < 0.0:
            raise ValueError("latency jitter must be >= 0")


def subject_preset(name: str) -> SubjectModel:
    """Bundled subject models: 'oracle', 'midsnr' and 'noise'."""
    if name == "oracle":
        return SubjectModel(0.0, 1.0, 0.0, oracle=True)
    if name == "midsnr":
        # tuned for ~94% single-trial CV accuracy on the fast protocol; the
        # noise floor sets the error rate while full attention keeps both
        # classes homoscedastic, so the shared-variance model stays exact
        # and the false-alarm rate sits near zero for any training session
        return SubjectModel(15.5, 1.0, 8.0)
    if name == "noise":
        # attention 0: trials never carry the response, labels are noise
        return SubjectModel(10.0, 0.0, 0.0)
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
    """Truncate the first 100 ms of one (8, 80) window and flatten it
    channel-major to a new 480-D vector: out[c * 60 + k] = samples[c, 20 + k].
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (N_CHANNELS, N_SAMPLES):
        raise ValueError(f"expected {(N_CHANNELS, N_SAMPLES)} samples, got {samples.shape}")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    return samples[:, DISCARD_SAMPLES:].reshape(FEATURE_DIM)


class SessionSynthesizer:
    """Rolling continuous-signal buffer for overlapping trials.

    One instance owns one session's signal. Stimuli are registered in onset
    order; each trial window is cut from the shared noise stream plus every
    evoked response whose support intersects the window, so response energy
    bleeds across overlapping trials. Onsets must not go backwards (equal
    onsets are allowed): each trial drops the noise before its onset, so the
    buffer holds at most N_SAMPLES plus one onset step of samples however
    long the session runs. A noiseless subject (the oracle, or a zero noise
    sigma) keeps no noise buffer at all: each window starts from zeros and
    carries only the responses. Single-owner, sequential use only.
    """

    def __init__(self, subject: SubjectModel, rng: np.random.Generator):
        self.subject = subject
        self.rng = rng
        self._silent = subject.oracle or subject.noise_sigma_uv == 0.0
        self._noise = np.zeros((N_CHANNELS, 0))
        self._origin = 0  # absolute sample index of self._noise[:, 0]
        self._last_onset: int | None = None
        # (onset sample, waveform) of the responses that can still reach a
        # window, in onset order
        self._events: list[tuple[int, np.ndarray]] = []
        # the waveform of every jitter-free response, shared read-only
        self._still = erp_waveform(0.0)
        self._still.flags.writeable = False

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
        # responses that ended before this onset can reach no window from here on
        events = self._events
        while events and events[0][0] + N_SAMPLES <= onset_sample:
            del events[0]
        if is_oddball:
            fires, jitter = _erp_fires(self.subject, self.rng)
            if fires:
                waveform = self._still if jitter == 0.0 else erp_waveform(jitter)
                events.append((onset_sample, waveform))
        if self._silent:
            window = np.zeros((N_CHANNELS, N_SAMPLES))
        else:
            # no window from here on starts before this onset: drop the noise
            # before it, and draw the stream on to the end of this window
            drop = min(onset_sample - self._origin, self._noise.shape[1])
            self._origin += drop
            noise = self._noise[:, drop:]
            grow = onset_sample + N_SAMPLES - self._origin - noise.shape[1]
            if grow > 0:
                block = self.rng.normal(0.0, self.subject.noise_sigma_uv, size=(N_CHANNELS, grow))
                noise = np.concatenate((noise, block), axis=1)
            self._noise = noise
            start = onset_sample - self._origin
            window = noise[:, start : start + N_SAMPLES].copy()
        # every response left began at or before this onset and overlaps it
        for ev_sample, waveform in events:
            shift = onset_sample - ev_sample
            window[:, : N_SAMPLES - shift] += waveform[:, shift:]
        return window
