"""Two-stage selection state machine.

Stage 1 cycles biased 6-symbol groups; an oddball decision on a group opens
stage 2, which illuminates that group's characters one at a time. A second
oddball selects the character. Three side channels modify the loop: a
dictionary-completion mode (1 to 5 next-character candidates, only inside a
word), a posterior-integration shortcut (same strict accumulator argmax on
10 consecutive trials selects outright), and a notification pause after
every selection except the terminal exit symbol.

Stage 2 and completion are two uses of one single-symbol scan: each pass
lights its symbols one at a time, an oddball selects the lit symbol, and
after 3 unanswered passes stage 1 resumes. They differ only in how a pass
is redrawn. The pause is time on the clock, not a mode: the mode that
follows a selection is entered when the selection is made.

The machine is a single-owner sequential object: call next_stimulus(),
classify the resulting trial elsewhere, feed the decision to step(), then
advance_clock() with the trial's timing. It never inspects signals; only
decisions and posteriors enter.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .alphabet import (
    EXIT,
    BACKSPACE,
    SYMBOLS,
    _LETTERS,
    FrequencyTable,
    _require_symbols,
    draw_permutation,
    form_cycle,
)

__all__ = [
    "STAGE1",
    "STAGE2",
    "COMPLETION",
    "EXITED",
    "INTEGRATION",
    "SelectionEvent",
    "Dictionary",
    "load_dictionary",
    "default_dictionary",
    "current_word",
    "completion_candidates",
    "apply_selection",
    "Speller",
    "SessionLog",
    "load_session_log",
]

STAGE1 = "Stage1"
STAGE2 = "Stage2"
COMPLETION = "CompletionMode"
EXITED = "Exited"

# selection mechanisms: STAGE2 and COMPLETION double as mode names
INTEGRATION = "Integration"

_CLAMP = 1e-12
# consecutive trials with the same strict evidence argmax that select it
_STREAK_TARGET = 10
# unanswered passes of a single-symbol scan before stage 1 resumes
_MAX_PASSES = 3


@dataclass
class SelectionEvent:
    """One committed symbol. time_s is stamped by advance_clock."""

    symbol: str
    mechanism: str
    pause_s: float
    time_s: float | None = None


class Dictionary:
    """Uppercase word list with next-character prefix lookup."""

    def __init__(self, words) -> None:
        cleaned = sorted({w.strip().upper() for w in words if w.strip()})
        for word in cleaned:
            if not set(word).issubset(_LETTERS):
                raise ValueError(f"dictionary word {word!r} contains non-letters")
        self.words: tuple[str, ...] = tuple(cleaned)
        self._next_chars: dict[str, tuple[str, ...]] = {}

    def lookup(self, prefix: str) -> tuple[str, ...]:
        """Distinct next characters of words strictly extending prefix, sorted.

        Each prefix scans the word list once; later lookups are memoized."""
        chars = self._next_chars.get(prefix)
        if chars is None:
            key = prefix.upper()
            found = {w[len(key)] for w in self.words if w.startswith(key) and len(w) > len(key)}
            chars = self._next_chars[prefix] = tuple(sorted(found))
        return chars


def load_dictionary(path) -> Dictionary:
    with open(path, "r", encoding="utf-8") as fh:
        words = [line.split("#", 1)[0].strip() for line in fh]
    return Dictionary(w for w in words if w)


def default_dictionary() -> Dictionary:
    ref = resources.files("spellersim").joinpath("data/dictionary_en.txt")
    with resources.as_file(ref) as path:
        return load_dictionary(path)


def current_word(prompt: str) -> str:
    """Trailing run of letters; empty at a word boundary."""
    end = len(prompt)
    start = end
    while start > 0 and prompt[start - 1] in _LETTERS:
        start -= 1
    return prompt[start:end]


def completion_candidates(dictionary: Dictionary, prompt: str) -> tuple[str, ...]:
    """Completion characters to offer, or empty when completion stays off.

    Off at a word boundary (every word would match) and when more than 5
    continuations exist."""
    partial = current_word(prompt)
    if not partial:
        return ()
    chars = dictionary.lookup(partial)
    if 1 <= len(chars) <= 5:
        return chars
    return ()


def apply_selection(prompt: str, symbol: str) -> str:
    """Prompt after committing symbol.

    Backspace drops the last character (no-op when empty). The exit symbol
    is appended like any other; the caller handles session termination. The
    typed transcript therefore ends with the exit symbol, matching how the
    benchmark sentence is counted."""
    if symbol == BACKSPACE:
        return prompt[:-1]
    return prompt + symbol


class Speller:
    """Selection state machine over the 42 SYMBOLS.

    The frequency table must hold exactly the SYMBOLS, as training requires.

    Drive it one trial at a time:

        stimulus = speller.next_stimulus()
        ... synthesize + classify the trial ...
        events = speller.step(is_oddball, posterior)
        speller.advance_clock(iti_ms, events, overhead_ms)
    """

    def __init__(
        self,
        rng: np.random.Generator,
        frequency: FrequencyTable,
        dictionary: Dictionary,
        *,
        pause_s: float,
    ) -> None:
        if not 0.0 <= pause_s < math.inf:
            raise ValueError(f"pause must be nonnegative and finite, got {pause_s!r}")
        self.rng = rng
        self.frequency = frequency
        self.dictionary = dictionary
        _require_symbols(frequency)
        self.pause_s = pause_s

        self._index = {s: i for i, s in enumerate(SYMBOLS)}
        self._log_reset = math.log(1.0 / len(SYMBOLS))

        self.mode = STAGE1
        self.prompt = ""
        self.n_trials = 0
        self._trial_ms = 0.0
        self._pause_ms = 0.0

        self._cycle: tuple[tuple[str, ...], ...] = ()
        self._cycle_pos = 0
        # the single-symbol pass of stage 2 or completion
        self._symbols: tuple[str, ...] = ()
        self._order: tuple[str, ...] = ()
        self._pos = 0
        self._passes = 0
        self._stage2_table: FrequencyTable | None = None
        self._pending: tuple[str, ...] | None = None

        self._log_acc = np.full(len(SYMBOLS), self._log_reset)
        self._evidence = np.empty(len(SYMBOLS))  # one trial's step, refilled per trial
        self._streak = 0
        self._streak_idx: int | None = None

    # -- read-only views ----------------------------------------------------

    @property
    def clock_s(self) -> float:
        return (self._trial_ms + self._pause_ms) / 1000.0

    @property
    def trial_time_ms(self) -> float:
        return self._trial_ms

    @property
    def pause_time_ms(self) -> float:
        return self._pause_ms

    # -- the trial loop -----------------------------------------------------

    def next_stimulus(self) -> tuple[str, ...]:
        """Symbols illuminated on the upcoming trial.

        Idempotent until step() consumes the stimulus."""
        if self.mode == EXITED:
            raise RuntimeError("session has exited")
        if self._pending is None:
            if self.mode == STAGE1:
                if self._cycle_pos >= len(self._cycle):
                    self._cycle = form_cycle(draw_permutation(self.frequency, self.rng))
                    self._cycle_pos = 0
                self._pending = self._cycle[self._cycle_pos]
            else:
                self._pending = (self._order[self._pos],)
        return self._pending

    def step(self, is_oddball: bool, posterior: float) -> list[SelectionEvent]:
        """Consume one classified trial; returns selection events (0 or 1)."""
        if self.mode == EXITED:
            raise RuntimeError("session has exited")
        if self._pending is None:
            raise RuntimeError("call next_stimulus() before step()")
        stimulus = self._pending
        self._pending = None

        self.update_integration(stimulus, posterior)

        selected: str | None = None
        mechanism = ""
        if self.mode == STAGE1:
            if is_oddball:
                # the first pass keeps the stage-1 draw order
                self._enter_pass(STAGE2, stimulus, stimulus)
            else:
                self._cycle_pos += 1
        elif is_oddball:
            selected, mechanism = stimulus[0], self.mode
        else:
            self._pos += 1
            if self._pos == len(self._order):
                self._passes += 1
                if self._passes == _MAX_PASSES:
                    self.mode = STAGE1
                    self._cycle = ()
                else:
                    self._order = self._redraw()
                    self._pos = 0

        # integrated evidence can select outright, skipping stage 2; a
        # same-trial single-trial selection takes precedence. A streak holds
        # the index of the strict argmax.
        if selected is None and self._streak >= _STREAK_TARGET:
            selected, mechanism = SYMBOLS[self._streak_idx], INTEGRATION

        events: list[SelectionEvent] = []
        if selected is not None:
            self.prompt = apply_selection(self.prompt, selected)
            self._reset_integration()
            if selected == EXIT:
                self.mode = EXITED
                pause = 0.0
            else:
                pause = self.pause_s
                candidates = completion_candidates(self.dictionary, self.prompt)
                if candidates:
                    self._enter_pass(COMPLETION, candidates, None)
                else:
                    self.mode = STAGE1
                    self._cycle = ()
            events.append(SelectionEvent(symbol=selected, mechanism=mechanism, pause_s=pause))
        return events

    def advance_clock(self, iti_ms: float, events: list[SelectionEvent], overhead_ms: float) -> None:
        """Account one trial's time plus any selection pauses."""
        if not 0.0 < iti_ms < math.inf:
            raise ValueError(f"iti must be positive and finite, got {iti_ms!r}")
        if not 0.0 <= overhead_ms < math.inf:
            raise ValueError(f"overhead must be nonnegative and finite, got {overhead_ms!r}")
        for event in events:
            if not 0.0 <= event.pause_s < math.inf:
                raise ValueError(f"pause must be nonnegative and finite, got {event.pause_s!r}")
        self.n_trials += 1
        self._trial_ms += iti_ms + overhead_ms
        for event in events:
            event.time_s = self.clock_s
            self._pause_ms += event.pause_s * 1000.0

    # -- internals ----------------------------------------------------------

    def _enter_pass(self, mode: str, symbols: tuple[str, ...], first_order: tuple[str, ...] | None) -> None:
        """Start a single-symbol scan of symbols in first_order, or in a
        redrawn order when first_order is None."""
        self.mode = mode
        self._symbols = symbols
        self._stage2_table = None
        self._order = first_order if first_order is not None else self._redraw()
        self._pos = 0
        self._passes = 0

    def _redraw(self) -> tuple[str, ...]:
        """A new order for the pass: completion candidates uniformly; a
        stage-2 group with the frequency bias restricted to the group, from
        a table built on the first redraw (most entries select or leave
        before one)."""
        if self.mode == COMPLETION:
            return tuple(self._symbols[int(i)] for i in self.rng.permutation(len(self._symbols)))
        if self._stage2_table is None:
            self._stage2_table = self.frequency.restrict(self._symbols)
        return draw_permutation(self._stage2_table, self.rng)

    def update_integration(self, stimulus: tuple[str, ...], posterior: float) -> None:
        """Fold one trial's posterior into the per-symbol evidence sums.

        Illuminated symbols gain log(p), the rest log(1 - p), both clamped
        away from log(0); only differences matter for the argmax. step()
        calls this on every trial, whatever the mode."""
        if not (math.isfinite(posterior) and 0.0 <= posterior <= 1.0):
            raise ValueError(f"posterior must lie in [0, 1], got {posterior!r}")
        p = min(max(posterior, _CLAMP), 1.0 - _CLAMP)
        # one add per symbol: log(p) where lit, log(1 - p) elsewhere; the
        # step buffer holds no state, so an unknown symbol leaves it as is
        step = self._evidence
        step.fill(math.log(1.0 - p))
        log_p = math.log(p)
        index = self._index
        try:
            for symbol in stimulus:
                step[index[symbol]] = log_p
        except KeyError as exc:
            raise ValueError(f"unknown symbol {exc.args[0]!r}") from None
        acc = self._log_acc
        acc += step
        idx = int(acc.argmax())
        # the maximum is strict when the first one from either end is the same
        if idx + acc[::-1].argmax() == acc.size - 1:
            self._streak = self._streak + 1 if idx == self._streak_idx else 1
            self._streak_idx = idx
        else:
            self._streak = 0
            self._streak_idx = None

    def _reset_integration(self) -> None:
        self._log_acc.fill(self._log_reset)
        self._streak = 0
        self._streak_idx = None


# -- session logging ---------------------------------------------------------

SCHEMA_VERSION = 1


# json's own string encoder, the one json.dumps uses at ensure_ascii=True
_quote = json.encoder.encode_basestring_ascii


def _number(name: str, value) -> str:
    """A float as json.dumps writes it; json would write nan and inf as
    NaN and Infinity, which are not JSON."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float.__repr__(value)


class SessionLog:
    """JSON-lines record of every trial and selection in one session.

    Each record is encoded once, when it is logged, into the line
    json.dumps(record, sort_keys=True) gives, newline included; records
    and selections() decode those lines for their readers."""

    def __init__(self, meta: dict) -> None:
        self.meta = meta
        self._lines: list[str] = []

    def trial(self, t_s: float, mode: str, illuminated, decision: str, posterior: float) -> None:
        self._lines.append(
            f'{{"decision": {_quote(decision)}, '
            f'"illuminated": [{", ".join(map(_quote, illuminated))}], '
            f'"mode": {_quote(mode)}, "posterior": {_number("posterior", posterior)}, '
            f'"record": "trial", "t_s": {_number("t_s", t_s)}}}\n'
        )

    def selection(self, event: SelectionEvent) -> None:
        t_s = "null" if event.time_s is None else _number("t_s", event.time_s)
        self._lines.append(
            f'{{"mechanism": {_quote(event.mechanism)}, "pause_s": {_number("pause_s", event.pause_s)}, '
            f'"record": "selection", "symbol": {_quote(event.symbol)}, "t_s": {t_s}}}\n'
        )

    @property
    def records(self) -> list[dict]:
        return [json.loads(line) for line in self._lines]

    def write(self, path) -> None:
        header = {"record": "header", "schema_version": SCHEMA_VERSION, "meta": self.meta}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.writelines(self._lines)

    def selections(self) -> list[dict]:
        return [r for r in self.records if r["record"] == "selection"]


def load_session_log(path) -> SessionLog:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() + "\n" for line in fh if line.strip()]
    # every line must parse, though only the header is kept decoded
    decoded = [json.loads(line) for line in lines]
    if not decoded or not isinstance(decoded[0], dict) or decoded[0].get("record") != "header":
        raise ValueError("session log must start with a header record")
    header = decoded[0]
    if header.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {header.get('schema_version')!r}")
    log = SessionLog(meta=header.get("meta", {}))
    log._lines = lines[1:]
    return log
