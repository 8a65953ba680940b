"""
Synthetic recordings and the decoding pipeline
==============================================

From the event-locked response waveform to a trained single-trial decoder:
synthesize a training session, fit the subspace + discriminant pipeline,
and cross-validate at each presentation rate.
"""

import numpy as np

from spellersim.alphabet import default_frequency_table
from spellersim.harness import ProtocolConfig, cross_validate, run_training
from spellersim.signal import FS, erp_waveform, subject_preset

rng = np.random.default_rng(1)

# The target response: a negative deflection near 190 ms and a
# positive one near 290 ms, mixed across 8 channels. Non-target epochs
# carry no event-locked component at all. Jitter shifts it in time; this is
# the unshifted response.
waveform = erp_waveform(0.0)
print(f"template: {waveform.shape[0]} channels x "
      f"{waveform.shape[1]} samples at {FS} Hz")
peak = np.unravel_index(np.argmax(waveform), waveform.shape)
print(f"strongest positive sample: channel {peak[0]}, "
      f"t = {1000 * peak[1] / FS:.0f} ms")

# Three subject presets span the difficulty range. "oracle" is noise-free,
# "midsnr" mimics a decent recording session, "noise" carries no signal.
for name in ("oracle", "midsnr", "noise"):
    subject = subject_preset(name)
    print(f"\nsubject {name!r}: noise {subject.noise_sigma_uv} uV, "
          f"attention {subject.attention}, jitter {subject.latency_jitter_ms} ms")

# Train the midsnr subject at the fastest rate. Faster presentation means
# more trials fit into the fixed-length calibration session, but epochs
# overlap more, so single-trial accuracy is the interesting number.
# Stimuli follow the bundled English letter frequencies.
subject = subject_preset("midsnr")
frequency = default_frequency_table()
for iti_ms in (400.0, 240.0, 160.0):
    config = ProtocolConfig(iti_ms=iti_ms)
    trials = run_training(config, subject, rng, frequency)
    cv = cross_validate(trials, config, repeats=2, folds=10, rng=rng)
    print(f"iti {iti_ms:.0f} ms: {len(trials)} trials, "
          f"CV accuracy {100 * cv.accuracy_mean:.1f}% "
          f"+- {100 * cv.accuracy_std:.1f}, "
          f"{cv.bits_per_trial:.3f} bits/trial")

# The pipeline behind those numbers: per-class covariance subspaces keep
# ~90% of training energy (at most 30 directions each), a gate picks the
# better-matching subspace, and a one-dimensional discriminant with a
# shared-variance Gaussian model turns the projection into a decision.
