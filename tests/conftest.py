"""Fixtures shared by the test modules."""

import dataclasses

import pytest

from spellersim import _fork, harness
from spellersim.alphabet import _CYCLE_GROUPS, default_frequency_table, form_cycle
from spellersim.cli import RunSpec
from spellersim.speller import default_dictionary


@pytest.fixture(scope="session")
def frequency():
    """The bundled frequency table, the one a config that names none uses."""
    return default_frequency_table()


@pytest.fixture(scope="session")
def dictionary():
    """The bundled completion dictionary, the one a config that names none uses."""
    return default_dictionary()


@pytest.fixture(scope="session")
def online_settings(frequency, dictionary):
    """run_online's keyword arguments as a config that sets none of them
    gives them: RunSpec's sentence and trial budget, the bundled tables."""
    spec = {f.name: f.default for f in dataclasses.fields(RunSpec)}
    return {
        "sentence": spec["sentence"],
        "trial_budget": spec["trial_budget"],
        "dictionary": dictionary,
        "frequency": frequency,
    }


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of cores the fork pool sees."""
    return lambda n: monkeypatch.setattr(_fork, "_available_cpus", lambda: n)


def _recorded_training(config, subject, rng, frequency):
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
        trials = harness.run_training(config, subject, rng, frequency)
    per_char = config.trials_per_char
    per_block = -(-per_char // _CYCLE_GROUPS)  # cycles drawn per block
    groups = []
    for b in range(0, len(cycles), per_block):
        groups += [group for cycle in cycles[b : b + per_block] for group in cycle][:per_char]
    return trials, tuple(groups), onsets


@pytest.fixture(scope="session")
def recorded_training(frequency):
    """run_training on the bundled table that also returns the groups it
    showed and their onsets."""
    return lambda config, subject, rng: _recorded_training(config, subject, rng, frequency)
