"""Experimental protocol orchestration.

Owns the three concerns the other modules stay out of: generating labeled
training sessions (block-randomized cycles, one target character per 30 s
block), scoring the pipeline offline (stratified repeated cross-validation
plus the fixed-size subsample control), and running the closed online loop
(synthesize trial, extract, classify, step the speller, account the clock).

Everything is driven by one caller-provided Generator; identical seeds give
bit-identical sessions.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .alphabet import (
    BACKSPACE,
    CharacterSet,
    FrequencyTable,
    build_cdf,
    default_character_set,
    default_frequency_table,
    draw_permutation,
    form_cycle,
)
from .channel import ChannelSpec, ConfusionMatrix, ItrReport, mutual_information, per_trial_itr_from_session, practical_itr
from .classifier import ClassifierParams, decide_batch, fit as fit_classifier, posterior_oddball, with_theta
from .features import FeatureModel, _fit_with_training_features, extract, extract_batch
from .signal import N_CHANNELS, N_SAMPLES, NON_ODDBALL, ODDBALL, SessionSynthesizer, SubjectModel, preprocess
from .speller import EXITED, STAGE1, Dictionary, SessionLog, Speller

__all__ = [
    "BENCHMARK_SENTENCE",
    "ONLINE_PRIORS",
    "SPEED_ITI_MS",
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

# online classification uses the design ratio, not training label counts
ONLINE_PRIORS = (1.0 / 7.0, 1.0 - 1.0 / 7.0)

SPEED_ITI_MS = {"slow": 400.0, "medium": 240.0, "fast": 160.0}


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
        if self.train_chars < 1:
            raise ValueError("train_chars must be >= 1")
        if self.theta_stage1 <= 0.0 or self.theta_stage2 <= 0.0:
            raise ValueError("thresholds must be positive")
        if self.overhead_ms < 0.0:
            raise ValueError("overhead must be nonnegative")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        per_char = self.train_seconds_per_char * 1000.0 // self.iti_ms
        if not 1.0 <= per_char < math.inf:
            raise ValueError(
                f"train_seconds_per_char = {self.train_seconds_per_char!r} at iti_ms = "
                f"{self.iti_ms!r} gives {per_char} trials per character; need a finite count >= 1"
            )

    @property
    def trials_per_char(self) -> int:
        return int(self.train_seconds_per_char * 1000.0 // self.iti_ms)

    @property
    def train_trial_count(self) -> int:
        return self.train_chars * self.trials_per_char


@dataclass(frozen=True)
class TrialBatch:
    """A labeled session, one column per field: trial i is the (8, 80)
    window samples[i], shown with the illuminated group stimuli[i] at
    onsets_s[i] on its block's timeline, and an oddball iff is_oddball[i]."""

    samples: np.ndarray                   # (n, 8, 80) microvolt
    is_oddball: np.ndarray                # (n,) bool
    stimuli: tuple[tuple[str, ...], ...]  # n groups
    onsets_s: np.ndarray                  # (n,)

    def __post_init__(self) -> None:
        if not len(self.samples) == len(self.is_oddball) == len(self.stimuli) == len(self.onsets_s):
            raise ValueError("trial batch columns must have the same length")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class CvResult:
    accuracy_mean: float
    accuracy_std: float
    accuracy_best: float
    accuracies: tuple[float, ...]
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
    charset: CharacterSet | None = None,
    frequency: FrequencyTable | None = None,
) -> TrialBatch:
    """Labeled copy-task session: block-randomized cycles, one target per block.

    Each target character gets floor(30 s / ITI) consecutive trials on its
    own signal timeline, so evoked responses bleed between that block's
    overlapping windows but not across blocks. A trial is an oddball iff the
    target's group is the one illuminated."""
    charset = charset if charset is not None else default_character_set()
    frequency = frequency if frequency is not None else default_frequency_table()
    cdf = build_cdf(frequency)
    letters = [s for s in charset.symbols if s.isalpha()]
    targets = [letters[int(i)] for i in rng.choice(len(letters), size=config.train_chars, replace=False)]

    # onsets advance by ITI plus the per-trial setup overhead, matching the
    # online stimulus timing so overlap between windows has the same shape
    # in both phases; the trial count stays floor(30 s / ITI) per character
    step_s = (config.iti_ms + config.overhead_ms) / 1000.0
    per_char = config.trials_per_char
    n = config.train_trial_count
    samples = np.empty((n, N_CHANNELS, N_SAMPLES))
    is_oddball = np.empty(n, dtype=bool)
    onsets_s = np.empty(n)
    stimuli: list[tuple[str, ...]] = []
    for target in targets:
        synth = SessionSynthesizer(subject, rng)
        produced = 0
        while produced < per_char:
            cycle = form_cycle(draw_permutation(cdf, rng))
            for group in cycle.groups[: per_char - produced]:
                i = len(stimuli)
                is_oddball[i] = is_odd = target in group
                onsets_s[i] = produced * step_s
                samples[i] = synth.trial(onsets_s[i], is_odd)
                stimuli.append(group)
                produced += 1
    return TrialBatch(samples, is_oddball, tuple(stimuli), onsets_s)


# ---------------------------------------------------------------------------
# offline evaluation


def _stratified_folds(y: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Fold index per trial; each class spread round-robin after a shuffle."""
    assignment = np.empty(y.shape[0], dtype=int)
    for cls in (True, False):
        idx = np.flatnonzero(y == cls)
        order = rng.permutation(idx.size)
        assignment[idx[order]] = np.arange(idx.size) % folds
    return assignment


def cross_validate(
    trials: TrialBatch,
    repeats: int = 10,
    folds: int = 10,
    rng: np.random.Generator | None = None,
    *,
    eta: float = 0.9,
    m_max: int = 30,
) -> CvResult:
    """Repeated stratified k-fold of the full pipeline at theta = 1.

    Folds approximately preserve the oddball ratio; each repeat re-randomizes
    the folds. Priors and the classifier are refit per fold from its training
    partition alone."""
    if rng is None:
        rng = np.random.default_rng(0)
    if repeats < 1 or folds < 2:
        raise ValueError("need repeats >= 1 and folds >= 2")
    x, y = preprocess(trials.samples), trials.is_oddball
    for cls in (True, False):
        if int(np.sum(y == cls)) < folds:
            raise ValueError("need at least one trial per class per fold")

    accuracies = []
    hits = omissions = false_alarms = rejections = 0
    for _ in range(repeats):
        for _attempt in range(100):
            assignment = _stratified_folds(y, folds, rng)
            ok = all(
                np.any(y[assignment != k]) and np.any(~y[assignment != k]) for k in range(folds)
            )
            if ok:
                break
        else:
            raise RuntimeError("could not stratify folds with both classes present")
        correct = 0
        for k in range(folds):
            train = assignment != k
            test = ~train
            model, f_train = _fit_with_training_features(x[train], y[train], eta, m_max)
            params = fit_classifier(f_train, y[train])
            decisions = decide_batch(params, extract_batch(model, x[test]))
            truth = y[test]
            correct += int(np.sum(decisions == truth))
            hits += int(np.sum(decisions & truth))
            omissions += int(np.sum(~decisions & truth))
            false_alarms += int(np.sum(decisions & ~truth))
            rejections += int(np.sum(~decisions & ~truth))
        accuracies.append(correct / y.size)

    acc = np.array(accuracies)
    confusion = ConfusionMatrix.from_counts(hits, omissions, false_alarms, rejections)
    prior_o = float(np.mean(y))
    bits = mutual_information(ChannelSpec(confusion, prior_o, 1.0 - prior_o))
    return CvResult(
        accuracy_mean=float(acc.mean()),
        accuracy_std=float(acc.std(ddof=1)) if acc.size > 1 else 0.0,
        accuracy_best=float(acc.max()),
        accuracies=tuple(float(a) for a in acc),
        confusion=confusion,
        bits_per_trial=bits,
    )


def subsample_check(
    trials: TrialBatch,
    target: int = 750,
    rng: np.random.Generator | None = None,
    **cv_kwargs,
) -> CvResult:
    """Cross-validate a stratified random subsample of the session.

    The subsample keeps floor(target/7) oddballs, so the class ratio is
    preserved to within one trial of 1:6."""
    if rng is None:
        rng = np.random.default_rng(0)
    if len(trials) < target:
        raise ValueError(f"need at least {target} trials, got {len(trials)}")
    n_odd = target // 7
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
    stimuli = tuple(trials.stimuli[i] for i in pick)
    subsample = TrialBatch(trials.samples[pick], trials.is_oddball[pick], stimuli, trials.onsets_s[pick])
    return cross_validate(subsample, rng=rng, **cv_kwargs)


def fit_final_model(
    trials: TrialBatch,
    config: ProtocolConfig,
) -> tuple[FeatureModel, ClassifierParams]:
    """Fit the deployment pipeline on every training trial.

    The classifier keeps the design priors (1:6), not the realized label
    counts; thresholds are applied per mode at decision time."""
    x, y = preprocess(trials.samples), trials.is_oddball
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
    confusion: ConfusionMatrix | None


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
    sentence: str = BENCHMARK_SENTENCE,
    trial_budget: int = 50_000,
    dictionary: Dictionary | None = None,
    charset: CharacterSet | None = None,
    frequency: FrequencyTable | None = None,
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
    speller = Speller(
        rng,
        charset=charset,
        frequency=frequency,
        dictionary=dictionary,
        pause_s=config.pause_s,
    )
    for symbol in sentence:
        if symbol not in speller.charset.symbols:
            raise ValueError(f"sentence symbol {symbol!r} not in the character set")
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
    n_correct = 0
    n_selections = 0
    while speller.mode != EXITED and speller.n_trials < trial_budget:
        stimulus = speller.next_stimulus()
        mode = speller.mode
        onset_s = speller.clock_s
        desired = _desired_symbol(speller.prompt, sentence)
        is_odd = desired in stimulus
        feature = extract(model, preprocess(synth.trial(onset_s, is_odd)))
        theta_params = group_params if mode == STAGE1 else single_params
        decision = bool(decide_batch(theta_params, np.array([feature]))[0])
        posterior = posterior_oddball(params, feature)

        prompt_before = speller.prompt
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
            landing = len(prompt_before)
            if event.symbol != BACKSPACE and landing < len(sentence) and sentence[landing] == event.symbol:
                n_correct += 1

    t_total_s = speller.clock_s
    t_active_s = speller.trial_time_ms / 1000.0
    t_pause_s = speller.pause_time_ms / 1000.0
    n_trials = speller.n_trials
    practical = practical_itr(n_correct, t_total_s, len(speller.charset.symbols)) if t_total_s > 0 else 0.0

    confusion = None
    per_trial = None
    if hits + omissions > 0 and false_alarms + rejections > 0:
        confusion = ConfusionMatrix.from_counts(hits, omissions, false_alarms, rejections)
        prior_o = (hits + omissions) / n_trials
        spec = ChannelSpec(confusion, prior_o, 1.0 - prior_o)
        per_trial = per_trial_itr_from_session(spec, n_trials, t_active_s)
    accuracy = (hits + rejections) / n_trials if n_trials else 0.0

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
        confusion=confusion,
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


def _write_csv(path, rows: list[dict], fields: list[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})


def write_cv_csv(path, rows: list[dict]) -> None:
    """Offline accuracy table: mean, spread, best, bits/trial per row."""
    _write_csv(
        path,
        rows,
        ["subject", "iti_ms", "accuracy_mean", "accuracy_std", "accuracy_best", "bits_per_trial"],
    )


def write_session_csv(path, rows: list[dict]) -> None:
    """Online session table: timing, selections, practical rate per row."""
    _write_csv(
        path,
        rows,
        [
            "subject",
            "iti_ms",
            "completed",
            "time_s",
            "active_time_s",
            "n_selections",
            "n_correct",
            "practical_bits_per_sec",
        ],
    )
