import numpy as np
import pytest
from scipy.signal import lfilter

from spellersim.harness import ProtocolConfig, run_training
from spellersim.signal import (
    FS,
    N_CHANNELS,
    N_SAMPLES,
    DISCARD_SAMPLES,
    FEATURE_DIM,
    SessionSynthesizer,
    SubjectModel,
    default_erp_template,
    preprocess,
    subject_preset,
    _erp_fires,
)

T_MS = np.arange(N_SAMPLES) * (1000.0 / FS)


def test_template_shape_and_peak_latencies():
    wave = default_erp_template().render()
    assert wave.shape == (N_CHANNELS, N_SAMPLES)
    # positivity peaks at 290 ms on every channel
    assert np.all(T_MS[np.argmax(wave, axis=1)] == 290.0)
    # the early negativity is strongest occipitally and sits at 190 ms
    for ch in (6, 7):
        assert T_MS[np.argmin(wave[ch])] == 190.0
    # phase reversal: fronto-central channels are positive at 190 ms
    at_190 = wave[:, np.flatnonzero(T_MS == 190.0)[0]]
    assert np.all(at_190[:3] > 0.0)
    assert np.all(at_190[6:] < 0.0)


def test_component_fwhm_definition():
    template = default_erp_template()
    for comp in template.components:
        sigma = comp.width_ms / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        bump = np.exp(-0.5 * ((T_MS - comp.peak_ms) / sigma) ** 2)
        half = np.interp(comp.peak_ms + comp.width_ms / 2.0, T_MS, bump)
        assert half == pytest.approx(0.5, abs=1e-12)


def test_template_amplitudes_at_peaks():
    wave = default_erp_template().render()
    k290 = np.flatnonzero(T_MS == 290.0)[0]
    # Pz gain 1.0 on the positivity; the early bump is negligible 100 ms out
    assert wave[4, k290] == pytest.approx(8.0, abs=1e-2)
    k190 = np.flatnonzero(T_MS == 190.0)[0]
    # occipital: -5 from the negativity plus the positivity's left tail
    tail = 8.0 * 0.6 * np.exp(-0.5 * ((190.0 - 290.0) / (80.0 / 2.3548200450309493)) ** 2)
    assert wave[6, k190] == pytest.approx(-5.0 + tail, abs=1e-9)


def test_render_jitter_shifts_peak():
    wave = default_erp_template().render(jitter_ms=10.0)
    assert np.all(T_MS[np.argmax(wave, axis=1)] == 300.0)


# one window apart: no response reaches the next trial's window
_APART_S = N_SAMPLES / FS


def test_attention_zero_never_fires():
    subject = subject_preset("noise")
    session = SessionSynthesizer(subject, np.random.default_rng(3))
    peak = subject.template.render()[4].max()
    for i in range(50):
        window = session.trial(i * _APART_S, True)
        # oddball windows are label-free noise, so no systematic positivity
        assert abs(window[4].mean()) < peak


def test_attention_rate_matches_probability():
    template = default_erp_template()
    subject = SubjectModel(template, 0.0, 0.7, 0.0)
    session = SessionSynthesizer(subject, np.random.default_rng(11))
    n = 4000
    fired = sum(bool(session.trial(i * _APART_S, True).any()) for i in range(n))
    assert fired / n == pytest.approx(0.7, abs=0.02)


def test_subject_model_validation():
    template = default_erp_template()
    with pytest.raises(ValueError):
        SubjectModel(template, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SubjectModel(template, 1.0, 1.5, 0.0)
    with pytest.raises(ValueError):
        SubjectModel(template, 1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        SubjectModel(template, 1.0, 1.0, 0.0, noise_ar=1.0)
    with pytest.raises(ValueError):
        subject_preset("nope")


def test_preprocess_layout_and_linearity():
    rng = np.random.default_rng(5)
    samples = rng.normal(size=(N_CHANNELS, N_SAMPLES))
    vec = preprocess(samples)
    assert vec.shape == (FEATURE_DIM,)
    for c in range(N_CHANNELS):
        for k in (0, 17, 59):
            assert vec[c * 60 + k] == samples[c, DISCARD_SAMPLES + k]
    other = rng.normal(size=(N_CHANNELS, N_SAMPLES))
    lhs = preprocess(2.0 * samples + 3.0 * other)
    rhs = 2.0 * preprocess(samples) + 3.0 * preprocess(other)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_preprocess_accepts_trial_and_validates():
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(5, N_CHANNELS, N_SAMPLES))
    x = preprocess(batch)
    assert x.shape == (5, FEATURE_DIM)
    for i in range(5):
        assert np.array_equal(x[i], preprocess(batch[i]))
    assert preprocess(batch[:0]).shape == (0, FEATURE_DIM)
    with pytest.raises(ValueError):
        preprocess(np.zeros((N_CHANNELS, 10)))
    with pytest.raises(ValueError):
        preprocess(np.zeros((5, N_CHANNELS, 10)))
    with pytest.raises(ValueError):
        preprocess(np.zeros((2, 5, N_CHANNELS, N_SAMPLES)))
    with pytest.raises(ValueError):
        preprocess(np.zeros(N_SAMPLES))
    bad = batch.copy()
    bad[3, 2, 40] = np.nan
    with pytest.raises(ValueError, match="finite"):
        preprocess(bad)


def test_session_bleed_at_short_iti():
    # oracle subject: signal is exactly the sum of evoked templates
    subject = subject_preset("oracle")
    session = SessionSynthesizer(subject, np.random.default_rng(0))
    wave = subject.template.render()
    first = session.trial(0.0, True)
    second = session.trial(0.160, False)
    assert np.array_equal(first, wave)
    # 160 ms = 32 samples: the tail of the first response leaks in
    assert np.array_equal(second[:, :48], wave[:, 32:])
    assert np.all(second[:, 48:] == 0.0)


def test_session_no_bleed_at_long_iti():
    subject = subject_preset("oracle")
    session = SessionSynthesizer(subject, np.random.default_rng(0))
    session.trial(0.0, True)
    second = session.trial(0.400, False)
    assert np.all(second == 0.0)


def test_session_overlapping_windows_share_noise():
    subject = SubjectModel(default_erp_template(), 4.0, 1.0, 0.0)
    session = SessionSynthesizer(subject, np.random.default_rng(21))
    first = session.trial(0.0, False)
    second = session.trial(0.160, False)
    assert np.array_equal(second[:, :48], first[:, 32:])


def test_session_ar_noise_statistics():
    subject = SubjectModel(default_erp_template(), 5.0, 1.0, 0.0, noise_ar=0.9)
    session = SessionSynthesizer(subject, np.random.default_rng(2))
    # grow the buffer in uneven chunks to cross extension boundaries
    n = 200_000
    pos = 0
    for step in (37, 1000, 50_000):
        session._extend_noise(pos + step)
        pos += step
    session._extend_noise(n)
    x = session._noise
    assert x.shape == (N_CHANNELS, n)
    var = x.var(axis=1)
    assert np.allclose(var, 25.0, rtol=0.1)
    lag1 = np.array([np.corrcoef(ch[:-1], ch[1:])[0, 1] for ch in x])
    assert np.allclose(lag1, 0.9, atol=0.01)


class FullBufferSynthesizer:
    """Reference synthesizer that keeps every noise sample of the session.

    Same draws, in the same order and sizes, and the same absolute-sample
    window arithmetic as SessionSynthesizer, but nothing is ever dropped.
    Storage grows by doubling rather than one concatenation per trial, so a
    reference run of thousands of trials stays cheap."""

    def __init__(self, subject, rng):
        self.subject = subject
        self.rng = rng
        self._buf = np.zeros((N_CHANNELS, 1024))
        self._len = 0
        self._ar_zi = None
        self._events = []

    def _extend_noise(self, n_total):
        have = self._len
        if n_total <= have:
            return
        grow = n_total - have
        subject = self.subject
        if subject.oracle or subject.noise_sigma_uv == 0.0:
            block = np.zeros((N_CHANNELS, grow))
        elif subject.noise_ar == 0.0:
            block = self.rng.normal(0.0, subject.noise_sigma_uv, size=(N_CHANNELS, grow))
        else:
            a = subject.noise_ar
            if self._ar_zi is None:
                x_prev = self.rng.normal(0.0, subject.noise_sigma_uv, size=N_CHANNELS)
                self._ar_zi = (a * x_prev)[:, None]
            w = self.rng.normal(0.0, 1.0, size=(N_CHANNELS, grow))
            scale = subject.noise_sigma_uv * np.sqrt(1.0 - a * a)
            block, self._ar_zi = lfilter([scale], [1.0, -a], w, axis=1, zi=self._ar_zi)
        if n_total > self._buf.shape[1]:
            bigger = np.zeros((N_CHANNELS, max(n_total, 2 * self._buf.shape[1])))
            bigger[:, :have] = self._buf[:, :have]
            self._buf = bigger
        self._buf[:, have:n_total] = block
        self._len = n_total

    def trial(self, onset_s, is_oddball):
        onset_sample = int(round(onset_s * FS))
        if is_oddball:
            fires, jitter = _erp_fires(self.subject, self.rng)
            if fires:
                self._events.append((onset_sample, self.subject.template.render(jitter)))
        self._extend_noise(onset_sample + N_SAMPLES)
        window = self._buf[:, onset_sample : onset_sample + N_SAMPLES].copy()
        for ev_sample, waveform in self._events:
            lo = max(ev_sample, onset_sample)
            hi = min(ev_sample + N_SAMPLES, onset_sample + N_SAMPLES)
            if hi > lo:
                window[:, lo - onset_sample : hi - onset_sample] += waveform[
                    :, lo - ev_sample : hi - ev_sample
                ]
        self._events = [e for e in self._events if e[0] + N_SAMPLES > onset_sample]
        return window


# onset steps in seconds: online steps at each speed (ITI + 12 ms), a repeat,
# an off-grid step, and the 3 s pause that follows every selection
_ONSET_STEPS = (0.172, 0.252, 0.412, 0.0, 0.1234)
_PAUSE_S = 3.0


def _onset_schedule(n, seed):
    """Uneven non-decreasing onsets with a 3 s pause every 20-80 trials."""
    rng = np.random.default_rng(seed)
    steps = rng.choice(_ONSET_STEPS, size=n)
    steps[0] = 0.0
    k = int(rng.integers(20, 80))
    while k < n:
        steps[k] += _PAUSE_S
        k += int(rng.integers(20, 80))
    return np.cumsum(steps), rng.random(n) < 1.0 / 7.0


_AR_SUBJECT = SubjectModel(default_erp_template(), 6.0, 0.8, 15.0, noise_ar=0.9)


@pytest.mark.parametrize(
    "subject",
    [subject_preset("midsnr"), subject_preset("oracle"), subject_preset("noise"), _AR_SUBJECT],
    ids=["midsnr", "oracle", "noise", "ar1"],
)
def test_session_windows_match_full_buffer_reference(subject):
    onsets, oddball = _onset_schedule(4000, seed=31)
    session = SessionSynthesizer(subject, np.random.default_rng(8))
    reference = FullBufferSynthesizer(subject, np.random.default_rng(8))
    for onset, is_odd in zip(onsets.tolist(), oddball.tolist()):
        got = session.trial(onset, is_odd)
        want = reference.trial(onset, is_odd)
        assert np.array_equal(got, want)
    # both consumed the same draws
    assert session.rng.random() == reference.rng.random()


@pytest.fixture(scope="module")
def training_sessions():
    subject = subject_preset("midsnr")
    return {
        iti_ms: run_training(ProtocolConfig(iti_ms=iti_ms), subject, np.random.default_rng(4))
        for iti_ms in (160.0, 400.0)
    }


@pytest.mark.parametrize("iti_ms", [160.0, 400.0])
def test_training_session_matches_full_buffer_reference(monkeypatch, training_sessions, iti_ms):
    config = ProtocolConfig(iti_ms=iti_ms)
    trials = training_sessions[iti_ms]
    monkeypatch.setattr("spellersim.harness.SessionSynthesizer", FullBufferSynthesizer)
    reference = run_training(config, subject_preset("midsnr"), np.random.default_rng(4))
    assert len(trials) == len(reference) == config.train_trial_count
    assert np.array_equal(trials.samples, reference.samples)
    assert np.array_equal(trials.is_oddball, reference.is_oddball)
    assert trials.stimuli == reference.stimuli
    assert np.array_equal(trials.onsets_s, reference.onsets_s)


def _preprocess_one_by_one(samples):
    """The per-trial path the batch call replaced: truncate and flatten each
    window into its own copy, then stack the copies."""
    return np.stack([w[:, DISCARD_SAMPLES:].reshape(FEATURE_DIM).copy() for w in samples])


@pytest.mark.parametrize("iti_ms", [160.0, 400.0])
def test_batch_preprocess_matches_per_trial_reference(training_sessions, iti_ms):
    samples = training_sessions[iti_ms].samples
    x = preprocess(samples)
    want = _preprocess_one_by_one(samples)
    assert x.shape == want.shape and x.dtype == want.dtype
    assert x.tobytes() == want.tobytes()


def test_session_buffer_stays_bounded():
    onsets, oddball = _onset_schedule(50_000, seed=5)
    max_step = int(round(float(np.max(np.diff(onsets))) * FS)) + 1
    session = SessionSynthesizer(subject_preset("midsnr"), np.random.default_rng(0))
    for onset, is_odd in zip(onsets.tolist(), oddball.tolist()):
        session.trial(onset, is_odd)
        assert session._noise.shape[1] <= N_SAMPLES + max_step


def test_session_rejects_backward_onset():
    session = SessionSynthesizer(subject_preset("midsnr"), np.random.default_rng(0))
    session.trial(1.0, False)
    session.trial(1.0, True)  # a repeated onset is legal
    with pytest.raises(ValueError, match=r"onset sample 199 .* previous onset sample 200"):
        session.trial(0.995, False)


@pytest.mark.parametrize("onset_s", [float("nan"), float("inf"), -float("inf"), 1e308, -0.1])
def test_session_rejects_bad_onset(onset_s):
    session = SessionSynthesizer(subject_preset("midsnr"), np.random.default_rng(0))
    with pytest.raises(ValueError, match="onset"):
        session.trial(onset_s, False)
