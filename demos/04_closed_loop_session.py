"""
Closed-loop typing session
==========================

Calibrate a decoder, then let the simulated subject type a benchmark
sentence through the two-stage interface, with word completion and the
mental-stop shortcut active.
"""

import numpy as np

from spellersim.alphabet import default_frequency_table
from spellersim.harness import (
    BENCHMARK_SENTENCE,
    ProtocolConfig,
    cross_validate,
    fit_final_model,
    run_online,
    run_training,
)
from spellersim.signal import subject_preset
from spellersim.speller import default_dictionary

# The benchmark prompt: 43 characters plus the exit symbol.
print(f"prompt ({len(BENCHMARK_SENTENCE)} selections): {BENCHMARK_SENTENCE}")

# Stimuli follow the bundled English letter frequencies, and word completion
# draws on the bundled dictionary.
frequency = default_frequency_table()
dictionary = default_dictionary()

for name in ("oracle", "midsnr"):
    subject = subject_preset(name)
    config = ProtocolConfig(iti_ms=160.0)

    # Calibration: ~1 minute of simulated recording at ~6 stimuli/second.
    rng = np.random.default_rng(42)
    trials = run_training(config, subject, rng, frequency)
    cv = cross_validate(trials, config, repeats=2, folds=10, rng=rng)
    model, params = fit_final_model(trials, config)
    print(f"\n{name}: {len(trials)} calibration trials, "
          f"CV accuracy {100 * cv.accuracy_mean:.1f}%")

    # The online run. The subject attends the prompt's next character,
    # corrects mistakes with backspace, and exits with '*' when done. The
    # session stops early only if it runs past 50,000 trials.
    log, report = run_online(
        config,
        subject,
        model,
        params,
        rng,
        sentence=BENCHMARK_SENTENCE,
        trial_budget=50_000,
        dictionary=dictionary,
        frequency=frequency,
    )
    print(f"  typed: {report.prompt}")
    print(f"  completed: {report.completed}, "
          f"{report.n_correct}/{report.n_selections} selections correct")
    print(f"  time: {report.t_total_s:.1f} s total "
          f"({report.t_active_s:.1f} s active, {report.t_pause_s:.1f} s pauses)")
    print(f"  rate: {report.practical_bits_per_sec:.2f} bits/s practical")

    # How the selections were made: full two-stage scans vs dictionary
    # completion vs the posterior-integration shortcut.
    mechanisms = [s["mechanism"] for s in log.selections()]
    for kind in sorted(set(mechanisms)):
        print(f"  {kind}: {mechanisms.count(kind)}")
