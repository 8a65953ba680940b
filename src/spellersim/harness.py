"""Experimental protocol orchestration.

Owns the three concerns the other modules stay out of: generating labeled
training sessions (block-randomized cycles, one target character per 30 s
block), scoring the pipeline offline (stratified repeated cross-validation
plus the fixed-size subsample control), and running the closed online loop
(synthesize trial, extract, classify, step the speller, account the clock).

Everything is driven by one caller-provided Generator; identical seeds give
bit-identical sessions. Cross-validation and the final fit also give the
same bits at any BLAS thread count and any number of worker processes.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from ._fork import _one_blas_thread, fork_map
from .alphabet import (
    BACKSPACE,
    SYMBOLS,
    _CYCLE_GROUPS,
    _LETTERS,
    FrequencyTable,
    _require_symbols,
    draw_permutation,
    form_cycle,
)
from .channel import ChannelSpec, ConfusionMatrix, ItrReport, mutual_information, per_trial_itr_from_session, practical_itr
from .classifier import ClassifierParams, classify, decide_batch, fit as fit_classifier, posterior_oddball, with_theta
from .features import FeatureModel, _fit_with_training_features, _lapack, extract, extract_batch
from .signal import FEATURE_DIM, NON_ODDBALL, ODDBALL, SessionSynthesizer, SubjectModel, preprocess
from .speller import EXITED, STAGE1, Dictionary, SessionLog, Speller

__all__ = [
    "BENCHMARK_SENTENCE",
    "ONLINE_PRIORS",
    "ProtocolConfig",
    "TrialBatch",
    "CvResult",
    "SessionReport",
    "run_training",
    "cross_validate",
    "subsample_check",
    "fit_final_model",
    "run_online",
    "cv_row",
    "session_row",
    "write_cv_csv",
    "write_session_csv",
]

BENCHMARK_SENTENCE = "THE>QUICK>BROWN>FOX>JUMPS>OVER>THE>LAZY>DOG*"

# online classification uses the design ratio, one group of each cycle, not
# training label counts
ONLINE_PRIORS = (1.0 / _CYCLE_GROUPS, 1.0 - 1.0 / _CYCLE_GROUPS)

# the largest calibration session, in trials: 50,000 rows of FEATURE_DIM
# float64 are about 192 MB (the presets' largest session has 1,870)
_MAX_TRAIN_TRIALS = 50_000

# the longest gap between two onsets, in seconds: each trial draws the noise
# of the whole gap since the previous window, up to 2,000 samples a channel
_MAX_GAP_S = 10.0


@dataclass(frozen=True)
class ProtocolConfig:
    """All protocol knobs. Defaults reproduce the slow (400 ms) condition."""

    iti_ms: float = 400.0
    train_chars: int = 10
    train_seconds_per_char: float = 30.0
    pause_s: float = 3.0
    theta_stage1: float = 1.0
    theta_stage2: float = 0.5
    overhead_ms: float = 12.0
    eta: float = 0.9
    m_max: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("iti_ms", "train_seconds_per_char", "pause_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 1 <= self.train_chars <= len(_LETTERS):
            raise ValueError(
                f"train_chars must lie in [1, {len(_LETTERS)}], one distinct letter per "
                f"training block, got {self.train_chars}"
            )
        if self.theta_stage1 <= 0.0 or self.theta_stage2 <= 0.0:
            raise ValueError("thresholds must be positive")
        if self.overhead_ms < 0.0:
            raise ValueError("overhead must be nonnegative")
        if (self.iti_ms + self.overhead_ms) / 1000.0 > _MAX_GAP_S:
            raise ValueError(
                f"iti_ms + overhead_ms must be at most {_MAX_GAP_S:g} s, got "
                f"{self.iti_ms!r} + {self.overhead_ms!r} ms"
            )
        if self.pause_s > _MAX_GAP_S:
            raise ValueError(f"pause_s must be at most {_MAX_GAP_S:g} s, got {self.pause_s!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        per_char = self.train_seconds_per_char * 1000.0 // self.iti_ms
        if not 1.0 <= per_char <= _MAX_TRAIN_TRIALS // self.train_chars:
            raise ValueError(
                f"train_chars = {self.train_chars}, train_seconds_per_char = "
                f"{self.train_seconds_per_char!r} and iti_ms = {self.iti_ms!r} give {per_char:g} "
                f"trials per character; need at least 1, and at most {_MAX_TRAIN_TRIALS:,} "
                "training trials in all"
            )

    @property
    def trials_per_char(self) -> int:
        return int(self.train_seconds_per_char * 1000.0 // self.iti_ms)

    @property
    def train_trial_count(self) -> int:
        return self.train_chars * self.trials_per_char

    @property
    def class_floors(self) -> tuple[int, int]:
        """The fewest oddball and other trials of any training session: each
        full cycle of a block lights its target once, a partial one at most once."""
        per_char, chars = self.trials_per_char, self.train_chars
        return chars * (per_char // _CYCLE_GROUPS), chars * (per_char - -(-per_char // _CYCLE_GROUPS))


@dataclass(frozen=True)
class TrialBatch:
    """A labeled session, one column per field: trial i is the preprocessed
    480-D row vectors[i] of its window, an oddball iff is_oddball[i]."""

    vectors: np.ndarray     # (n, FEATURE_DIM) float64, microvolt
    is_oddball: np.ndarray  # (n,) bool

    def __post_init__(self) -> None:
        shape = np.shape(self.vectors)
        if len(shape) != 2 or shape[1] != FEATURE_DIM:
            raise ValueError(f"trial vectors must have shape (n, {FEATURE_DIM}), got {shape}")
        if shape[0] != len(self.is_oddball):
            raise ValueError(
                f"trial batch columns must have the same length: (n, {FEATURE_DIM}) vectors "
                f"and n labels, got {shape[0]} vectors and {len(self.is_oddball)} labels"
            )

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class CvResult:
    accuracy_mean: float
    accuracy_std: float
    accuracy_best: float
    confusion: ConfusionMatrix
    bits_per_trial: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy_mean <= 1.0:
            raise ValueError("mean accuracy must lie in [0, 1]")
        if self.accuracy_std < 0.0:
            raise ValueError("accuracy std must be >= 0")


# ---------------------------------------------------------------------------
# training sessions


def run_training(
    config: ProtocolConfig,
    subject: SubjectModel,
    rng: np.random.Generator,
    frequency: FrequencyTable,
) -> TrialBatch:
    """Labeled copy-task session: block-randomized cycles, one target per block.

    Each target character gets floor(30 s / ITI) consecutive trials on its
    own signal timeline, so evoked responses bleed between that block's
    overlapping windows but not across blocks. A trial is an oddball iff the
    target's group is the one illuminated. Each window is kept only as its
    preprocessed row. The frequency table must hold exactly the SYMBOLS, so
    that every cycle lights each target once."""
    _require_symbols(frequency)
    targets = [_LETTERS[int(i)] for i in rng.choice(len(_LETTERS), size=config.train_chars, replace=False)]

    # onsets advance by ITI plus the per-trial setup overhead, matching the
    # online stimulus timing so overlap between windows has the same shape
    # in both phases; the trial count stays floor(30 s / ITI) per character
    step_s = (config.iti_ms + config.overhead_ms) / 1000.0
    per_char = config.trials_per_char
    n = config.train_trial_count
    vectors = np.empty((n, FEATURE_DIM))
    is_oddball = np.empty(n, dtype=bool)
    i = 0
    for target in targets:
        synth = SessionSynthesizer(subject, rng)
        produced = 0
        while produced < per_char:
            for group in form_cycle(draw_permutation(frequency, rng))[: per_char - produced]:
                is_oddball[i] = is_odd = target in group
                vectors[i] = preprocess(synth.trial(produced * step_s, is_odd))
                i += 1
                produced += 1
    return TrialBatch(vectors, is_oddball)


# ---------------------------------------------------------------------------
# offline evaluation

def _stratified_folds(y: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Fold index per trial; each class spread round-robin after a shuffle,
    so every fold holds a trial of each class that has at least `folds`."""
    assignment = np.empty(y.shape[0], dtype=int)
    for cls in (True, False):
        idx = np.flatnonzero(y == cls)
        order = rng.permutation(idx.size)
        assignment[idx[order]] = np.arange(idx.size) % folds
    return assignment


def _fold_counts(x, y, assignments, eta, m_max, repeat, fold) -> tuple[int, int, int, int]:
    """Fit on every fold of one repeat but one, test on that one: hits,
    omissions, false alarms, rejections."""
    train = assignments[repeat] != fold
    test = ~train
    model, f_train = _fit_with_training_features(x[train], y[train], eta, m_max)
    params = fit_classifier(f_train, y[train])
    decisions = decide_batch(params, extract_batch(model, x[test]))
    truth = y[test]
    return (
        int(np.sum(decisions & truth)),
        int(np.sum(~decisions & truth)),
        int(np.sum(decisions & ~truth)),
        int(np.sum(~decisions & ~truth)),
    )


def cross_validate(
    trials: TrialBatch,
    config: ProtocolConfig,
    *,
    repeats: int,
    folds: int,
    rng: np.random.Generator,
) -> CvResult:
    """Repeated stratified k-fold of the full pipeline at theta = 1, with
    the config's eta and m_max.

    Folds approximately preserve the oddball ratio; each repeat re-randomizes
    the folds. Priors and the classifier are refit per fold from its training
    partition alone. The folds are fitted by fork_map, in up to one forked
    process per core of this process's CPU affinity, at one BLAS thread
    each; the result is the same at any core count."""
    if repeats < 1 or folds < 2:
        raise ValueError("need repeats >= 1 and folds >= 2")
    x, y = trials.vectors, trials.is_oddball
    if not np.isfinite(x).all():
        raise ValueError("trial vectors must be finite")
    for cls in (True, False):
        if int(np.sum(y == cls)) < folds:
            raise ValueError("need at least one trial per class per fold")

    # every draw happens here, before any fit, so the folds do not depend on
    # where or in which order they are fitted
    assignments = [_stratified_folds(y, folds, rng) for _ in range(repeats)]

    # the fold fits call LAPACK; loaded here, the forked workers inherit it
    # instead of each loading it
    _lapack()

    jobs = [(r, k) for r in range(repeats) for k in range(folds)]
    counts = fork_map(_fold_counts, jobs, (x, y, assignments, config.eta, config.m_max))

    per_repeat = np.array(counts).reshape(repeats, folds, 4).sum(axis=1)
    acc = (per_repeat[:, 0] + per_repeat[:, 3]) / y.size
    hits, omissions, false_alarms, rejections = (int(c) for c in per_repeat.sum(axis=0))
    confusion = ConfusionMatrix.from_counts(hits, omissions, false_alarms, rejections)
    prior_o = float(np.mean(y))
    bits = mutual_information(ChannelSpec(confusion, prior_o))
    return CvResult(
        accuracy_mean=float(acc.mean()),
        accuracy_std=float(acc.std(ddof=1)) if acc.size > 1 else 0.0,
        accuracy_best=float(acc.max()),
        confusion=confusion,
        bits_per_trial=bits,
    )


def subsample_check(
    trials: TrialBatch,
    config: ProtocolConfig,
    target: int,
    *,
    repeats: int,
    folds: int,
    rng: np.random.Generator,
) -> CvResult:
    """Cross-validate a stratified random subsample of the session.

    The subsample keeps floor(target/7) oddballs, so the class ratio is
    preserved to within one trial of 1:6."""
    if len(trials) < target:
        raise ValueError(f"need at least {target} trials, got {len(trials)}")
    n_odd = target // _CYCLE_GROUPS
    n_rest = target - n_odd
    idx_odd = np.flatnonzero(trials.is_oddball)
    idx_rest = np.flatnonzero(~trials.is_oddball)
    if idx_odd.size < n_odd or idx_rest.size < n_rest:
        raise ValueError(
            f"class counts cannot support a stratified subsample of {target}: need {n_odd} "
            f"oddball and {n_rest} other trials; the session has {idx_odd.size} and {idx_rest.size}"
        )
    pick = np.concatenate(
        [
            idx_odd[rng.choice(idx_odd.size, size=n_odd, replace=False)],
            idx_rest[rng.choice(idx_rest.size, size=n_rest, replace=False)],
        ]
    )
    pick.sort()
    subsample = TrialBatch(trials.vectors[pick], trials.is_oddball[pick])
    return cross_validate(subsample, config, repeats=repeats, folds=folds, rng=rng)


def fit_final_model(
    trials: TrialBatch,
    config: ProtocolConfig,
) -> tuple[FeatureModel, ClassifierParams]:
    """Fit the deployment pipeline on every training trial.

    The classifier keeps the design priors (1:6), not the realized label
    counts; thresholds are applied per mode at decision time."""
    x, y = trials.vectors, trials.is_oddball
    with _one_blas_thread():
        model, f_train = _fit_with_training_features(x, y, config.eta, config.m_max)
    params = fit_classifier(f_train, y, priors=ONLINE_PRIORS)
    return model, params


# ---------------------------------------------------------------------------
# online sessions


@dataclass(frozen=True)
class SessionReport:
    completed: bool
    prompt: str
    target: str
    n_trials: int
    n_selections: int
    n_correct: int
    t_total_s: float
    t_active_s: float
    t_pause_s: float
    accuracy: float
    practical_bits_per_sec: float
    per_trial: ItrReport | None


def _desired_symbol(prompt: str, target: str) -> str:
    """What the simulated subject attends to next: the next target character
    while on track, backspace after any error."""
    if target.startswith(prompt) and len(prompt) < len(target):
        return target[len(prompt)]
    return BACKSPACE


def run_online(
    config: ProtocolConfig,
    subject: SubjectModel,
    model: FeatureModel,
    params: ClassifierParams,
    rng: np.random.Generator,
    *,
    sentence: str,
    trial_budget: int,
    dictionary: Dictionary,
    frequency: FrequencyTable,
) -> tuple[SessionLog, SessionReport]:
    """Closed-loop copy-spelling of one sentence.

    The subject attends the next needed character (backspace after errors);
    each trial is synthesized on a continuous timeline, classified with the
    mode's threshold, and fed to the speller. Stops at the exit symbol or
    after trial_budget trials (incomplete, not an error)."""
    if trial_budget < 1:
        raise ValueError("trial budget must be >= 1")
    if not sentence:
        raise ValueError("sentence must be nonempty")
    for symbol in sentence:
        if symbol not in SYMBOLS:
            raise ValueError(f"sentence symbol {symbol!r} not in the character set")
    speller = Speller(rng, frequency, dictionary, pause_s=config.pause_s)
    synth = SessionSynthesizer(subject, rng)
    group_params = with_theta(params, config.theta_stage1)
    single_params = with_theta(params, config.theta_stage2)

    log = SessionLog(
        meta={
            "iti_ms": config.iti_ms,
            "overhead_ms": config.overhead_ms,
            "pause_s": config.pause_s,
            "theta_stage1": config.theta_stage1,
            "theta_stage2": config.theta_stage2,
            "sentence": sentence,
            "trial_budget": trial_budget,
        }
    )

    hits = omissions = false_alarms = rejections = 0
    n_selections = 0
    # the prompt, and so the attended symbol, changes only on a selection
    desired = _desired_symbol(speller.prompt, sentence)
    while speller.mode != EXITED and speller.n_trials < trial_budget:
        stimulus = speller.next_stimulus()
        mode = speller.mode
        onset_s = speller.clock_s
        is_odd = desired in stimulus
        feature = extract(model, preprocess(synth.trial(onset_s, is_odd)))
        theta_params = group_params if mode == STAGE1 else single_params
        decision = classify(theta_params, feature)
        posterior = posterior_oddball(params, feature)

        events = speller.step(decision, posterior)
        speller.advance_clock(config.iti_ms, events, config.overhead_ms)

        log.trial(onset_s, mode, stimulus, ODDBALL if decision else NON_ODDBALL, posterior)
        if is_odd and decision:
            hits += 1
        elif is_odd:
            omissions += 1
        elif decision:
            false_alarms += 1
        else:
            rejections += 1
        for event in events:
            log.selection(event)
            n_selections += 1
        if events:
            desired = _desired_symbol(speller.prompt, sentence)

    t_total_s = speller.clock_s
    t_active_s = speller.trial_time_ms / 1000.0
    t_pause_s = speller.pause_time_ms / 1000.0
    n_trials = speller.n_trials
    # a character counts once, however often it was deleted and retyped
    n_correct = len(os.path.commonprefix((speller.prompt, sentence)))
    practical = practical_itr(n_correct, t_total_s, len(SYMBOLS))

    per_trial = None
    if hits + omissions > 0 and false_alarms + rejections > 0:
        confusion = ConfusionMatrix.from_counts(hits, omissions, false_alarms, rejections)
        prior_o = (hits + omissions) / n_trials
        spec = ChannelSpec(confusion, prior_o)
        per_trial = per_trial_itr_from_session(spec, n_trials, t_active_s)
    accuracy = (hits + rejections) / n_trials

    report = SessionReport(
        completed=speller.mode == EXITED and speller.prompt == sentence,
        prompt=speller.prompt,
        target=sentence,
        n_trials=n_trials,
        n_selections=n_selections,
        n_correct=n_correct,
        t_total_s=t_total_s,
        t_active_s=t_active_s,
        t_pause_s=t_pause_s,
        accuracy=accuracy,
        practical_bits_per_sec=practical,
        per_trial=per_trial,
    )
    return log, report


# ---------------------------------------------------------------------------
# tabular reports


def cv_row(subject: str, iti_ms: float, result: CvResult) -> dict:
    return {
        "subject": subject,
        "iti_ms": iti_ms,
        "accuracy_mean": result.accuracy_mean,
        "accuracy_std": result.accuracy_std,
        "accuracy_best": result.accuracy_best,
        "bits_per_trial": result.bits_per_trial,
    }


def session_row(subject: str, iti_ms: float, report: SessionReport) -> dict:
    return {
        "subject": subject,
        "iti_ms": iti_ms,
        "completed": int(report.completed),
        "time_s": report.t_total_s,
        "active_time_s": report.t_active_s,
        "n_selections": report.n_selections,
        "n_correct": report.n_correct,
        "practical_bits_per_sec": report.practical_bits_per_sec,
    }


def _write_csv(path, rows: list[dict]) -> None:
    """One header line, the keys of the first row, then one line per row."""
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def write_cv_csv(path, rows: list[dict]) -> None:
    """Offline accuracy table, one cv_row per line: mean, spread, best and
    bits/trial."""
    _write_csv(path, rows)


def write_session_csv(path, rows: list[dict]) -> None:
    """Online session table, one session_row per line: timing, selections
    and practical rate."""
    _write_csv(path, rows)
