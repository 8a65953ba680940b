import numpy as np
import pytest

from spellersim.harness import ProtocolConfig
from spellersim.signal import (
    FS,
    N_CHANNELS,
    N_SAMPLES,
    DISCARD_SAMPLES,
    FEATURE_DIM,
    SessionSynthesizer,
    SubjectModel,
    erp_waveform,
    preprocess,
    subject_preset,
    _ERP_COMPONENTS,
    _erp_fires,
)

T_MS = np.arange(N_SAMPLES) * (1000.0 / FS)


def test_template_shape_and_peak_latencies():
    wave = erp_waveform(0.0)
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
    for _, peak_ms, width_ms, _ in _ERP_COMPONENTS:
        sigma = width_ms / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        bump = np.exp(-0.5 * ((T_MS - peak_ms) / sigma) ** 2)
        half = np.interp(peak_ms + width_ms / 2.0, T_MS, bump)
        assert half == pytest.approx(0.5, abs=1e-12)


def test_template_amplitudes_at_peaks():
    wave = erp_waveform(0.0)
    k290 = np.flatnonzero(T_MS == 290.0)[0]
    # Pz gain 1.0 on the positivity; the early bump is negligible 100 ms out
    assert wave[4, k290] == pytest.approx(8.0, abs=1e-2)
    k190 = np.flatnonzero(T_MS == 190.0)[0]
    # occipital: -5 from the negativity plus the positivity's left tail
    tail = 8.0 * 0.6 * np.exp(-0.5 * ((190.0 - 290.0) / (80.0 / 2.3548200450309493)) ** 2)
    assert wave[6, k190] == pytest.approx(-5.0 + tail, abs=1e-9)


def test_render_jitter_shifts_peak():
    wave = erp_waveform(jitter_ms=10.0)
    assert np.all(T_MS[np.argmax(wave, axis=1)] == 300.0)


# one window apart: no response reaches the next trial's window
_APART_S = N_SAMPLES / FS


def test_attention_zero_never_fires():
    subject = subject_preset("noise")
    session = SessionSynthesizer(subject, np.random.default_rng(3))
    peak = erp_waveform(0.0)[4].max()
    for i in range(50):
        window = session.trial(i * _APART_S, True)
        # oddball windows are label-free noise, so no systematic positivity
        assert abs(window[4].mean()) < peak


def test_attention_rate_matches_probability():
    subject = SubjectModel(0.0, 0.7, 0.0)
    session = SessionSynthesizer(subject, np.random.default_rng(11))
    n = 4000
    fired = sum(bool(session.trial(i * _APART_S, True).any()) for i in range(n))
    assert fired / n == pytest.approx(0.7, abs=0.02)


def test_subject_model_validation():
    with pytest.raises(ValueError):
        SubjectModel(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SubjectModel(1.0, 1.5, 0.0)
    with pytest.raises(ValueError):
        SubjectModel(1.0, 1.0, -2.0)
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
    window = np.random.default_rng(0).normal(size=(N_CHANNELS, N_SAMPLES))
    x = preprocess(window)
    assert x.shape == (FEATURE_DIM,)
    assert not np.shares_memory(x, window)
    for shape in ((N_CHANNELS, 10), (5, N_CHANNELS, N_SAMPLES), (2, 5, N_CHANNELS, N_SAMPLES), (N_SAMPLES,)):
        with pytest.raises(ValueError, match=r"\(8, 80\)"):
            preprocess(np.zeros(shape))
    bad = window.copy()
    bad[2, 40] = np.nan
    with pytest.raises(ValueError, match="finite"):
        preprocess(bad)


def test_session_bleed_at_short_iti():
    # oracle subject: signal is exactly the sum of evoked responses
    subject = subject_preset("oracle")
    session = SessionSynthesizer(subject, np.random.default_rng(0))
    wave = erp_waveform(0.0)
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
    subject = SubjectModel(4.0, 1.0, 0.0)
    session = SessionSynthesizer(subject, np.random.default_rng(21))
    first = session.trial(0.0, False)
    second = session.trial(0.160, False)
    assert np.array_equal(second[:, :48], first[:, 32:])


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
        self._events = []

    def _extend_noise(self, n_total):
        have = self._len
        if n_total <= have:
            return
        grow = n_total - have
        subject = self.subject
        if subject.oracle or subject.noise_sigma_uv == 0.0:
            block = np.zeros((N_CHANNELS, grow))
        else:
            block = self.rng.normal(0.0, subject.noise_sigma_uv, size=(N_CHANNELS, grow))
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
                self._events.append((onset_sample, erp_waveform(jitter)))
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


# attention below 1 and a wide jitter: of the subjects here, only this one
# draws both a response that fires and one that does not
_PARTIAL_SUBJECT = SubjectModel(6.0, 0.8, 15.0)
# the same draws without noise: noiseless, but not the oracle
_SILENT_SUBJECT = SubjectModel(0.0, 0.8, 15.0)


@pytest.mark.parametrize(
    "subject",
    [subject_preset("midsnr"), subject_preset("oracle"), subject_preset("noise"), _PARTIAL_SUBJECT],
    ids=["midsnr", "oracle", "noise", "partial_attention"],
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


# in samples: repeated onsets, steps inside the window (one that leaves a
# response a single sample of overlap), pauses longer than the window (one
# right after a response), and repeats after a pause
_EDGE_ONSETS = (0, 0, 0, 34, 34, 700, 700, 734, 734, 734, 2000, 2080, 2080, 2081, 2159, 5000, 5000, 5079)
_EDGE_ODDBALL = (
    True, True, False, True, True, True, True, False, True,
    True, False, True, True, False, False, True, False, False,
)


@pytest.mark.parametrize(
    "subject",
    [subject_preset("midsnr"), subject_preset("oracle"), _PARTIAL_SUBJECT, _SILENT_SUBJECT],
    ids=["midsnr", "oracle", "partial_attention", "silent_partial_attention"],
)
def test_session_windows_match_full_buffer_reference_across_pauses_and_repeats(subject):
    session = SessionSynthesizer(subject, np.random.default_rng(3))
    reference = FullBufferSynthesizer(subject, np.random.default_rng(3))
    silent = subject.oracle or subject.noise_sigma_uv == 0.0
    for onset, is_odd in zip(_EDGE_ONSETS, _EDGE_ODDBALL):
        got = session.trial(onset / FS, is_odd)
        want = reference.trial(onset / FS, is_odd)
        assert np.array_equal(got, want)
        if silent:
            # a noiseless subject holds no noise at any onset
            assert session._noise.shape[1] == 0
        else:
            # the buffer ends with this window and starts at or before it
            assert session._origin <= onset
            assert session._origin + session._noise.shape[1] == onset + N_SAMPLES
    assert session.rng.random() == reference.rng.random()


@pytest.fixture(scope="module")
def training_sessions(recorded_training):
    """Each ITI's session, with the group and the onset of every trial."""
    subject = subject_preset("midsnr")
    return {
        iti_ms: recorded_training(ProtocolConfig(iti_ms=iti_ms), subject, np.random.default_rng(4))
        for iti_ms in (160.0, 400.0)
    }


@pytest.mark.parametrize("iti_ms", [160.0, 400.0])
def test_training_session_matches_full_buffer_reference(monkeypatch, training_sessions, recorded_training, iti_ms):
    config = ProtocolConfig(iti_ms=iti_ms)
    trials, groups, onsets = training_sessions[iti_ms]
    monkeypatch.setattr("spellersim.harness.SessionSynthesizer", FullBufferSynthesizer)
    reference, ref_groups, ref_onsets = recorded_training(config, subject_preset("midsnr"), np.random.default_rng(4))
    assert len(trials) == len(reference) == config.train_trial_count
    assert np.array_equal(trials.vectors, reference.vectors)
    assert np.array_equal(trials.is_oddball, reference.is_oddball)
    assert groups == ref_groups
    assert onsets == ref_onsets


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


def test_jitter_free_waveform_is_rendered_once_and_read_only():
    subject = subject_preset("oracle")
    session = SessionSynthesizer(subject, np.random.default_rng(0))
    still = session._still
    assert np.array_equal(still, erp_waveform(0.0))
    with pytest.raises(ValueError):
        still[0, 0] = 1.0
    session.trial(0.0, True)
    session.trial(0.16, True)
    # every jitter-free response shares the one waveform
    assert all(waveform is still for _, waveform in session._events)
