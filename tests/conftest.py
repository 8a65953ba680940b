"""Fixtures shared by the test modules."""

import pytest

from spellersim import _fork, harness
from spellersim.alphabet import _CYCLE_GROUPS, form_cycle


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of cores the fork pool sees."""
    return lambda n: monkeypatch.setattr(_fork, "_available_cpus", lambda: n)


def _recorded_training(config, subject, rng):
    """run_training, plus the group and the onset of every trial.

    The cycles are recorded from form_cycle and cut as run_training cuts
    them, each block at trials_per_char; the onsets are recorded from the
    trial method of the synthesizer class run_training uses."""
    cycles, onsets = [], []
    synthesizer = harness.SessionSynthesizer
    trial = synthesizer.trial

    def recording_form_cycle(permutation):
        cycles.append(form_cycle(permutation))
        return cycles[-1]

    def recording_trial(self, onset_s, is_oddball):
        onsets.append(onset_s)
        return trial(self, onset_s, is_oddball)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "form_cycle", recording_form_cycle)
        mp.setattr(synthesizer, "trial", recording_trial)
        trials = harness.run_training(config, subject, rng)
    per_char = config.trials_per_char
    per_block = -(-per_char // _CYCLE_GROUPS)  # cycles drawn per block
    groups = []
    for b in range(0, len(cycles), per_block):
        groups += [group for cycle in cycles[b : b + per_block] for group in cycle][:per_char]
    return trials, tuple(groups), onsets


@pytest.fixture(scope="session")
def recorded_training():
    """run_training that also returns the groups it showed and their onsets."""
    return _recorded_training
