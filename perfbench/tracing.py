"""Span tracing of the spellersim layers, installed from outside the package.

Each wrapper replaces the name that the *calling* module looks up, for example
``spellersim.harness.fit_feature_model`` (called by ``cross_validate``) or the
``SessionSynthesizer.trial`` method, so no file of the package changes. A span
is ``[name, start, end, parent, op, size]``: the layer is the part of the name
before the first dot, ``parent`` indexes the enclosing span (-1 at the top),
``op`` numbers the benchmark operation and ``size`` is a count taken at the
boundary (rows passed to a model fit). Spans stay in memory until the run
ends; ``per_layer_metrics`` turns them into the benchmark's per-layer numbers.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from contextlib import contextmanager

LAYERS = ("cli", "harness", "signal", "features", "classifier", "speller", "alphabet", "channel")

# (module[:class], attribute the caller looks up, span name)
TARGETS = (
    ("spellersim.cli", "main", "cli.main"),
    ("spellersim.cli", "load_config", "cli.load_config"),
    ("spellersim.cli", "_write_manifest", "cli.write_manifest"),
    ("spellersim.cli", "run_training", "harness.run_training"),
    ("spellersim.cli", "cross_validate", "harness.cross_validate"),
    ("spellersim.cli", "fit_final_model", "harness.fit_final_model"),
    ("spellersim.cli", "run_online", "harness.run_online"),
    ("spellersim.cli", "write_cv_csv", "harness.write_cv_csv"),
    ("spellersim.cli", "write_session_csv", "harness.write_session_csv"),
    ("spellersim.signal:SessionSynthesizer", "trial", "signal.synth"),
    ("spellersim.harness", "preprocess", "signal.preprocess"),
    ("spellersim.signal", "preprocess", "signal.preprocess"),
    ("spellersim.harness", "trials_to_matrix", "signal.trials_to_matrix"),
    ("spellersim.harness", "fit_feature_model", "features.fit"),
    ("spellersim.features", "fit_cpca", "features.fit_cpca"),
    ("spellersim.features", "fit_discriminant", "features.fit_discriminant"),
    ("spellersim.harness", "extract_batch", "features.extract_batch"),
    ("spellersim.harness", "extract", "features.extract"),
    ("spellersim.cli", "save_model", "features.save_model"),
    ("spellersim.cli", "load_model", "features.load_model"),
    ("spellersim.harness", "fit_classifier", "classifier.fit"),
    ("spellersim.harness", "decide_batch", "classifier.decide_batch"),
    ("spellersim.harness", "posterior_oddball", "classifier.posterior_oddball"),
    ("spellersim.harness", "with_theta", "classifier.with_theta"),
    ("spellersim.speller:Speller", "next_stimulus", "speller.next_stimulus"),
    ("spellersim.speller:Speller", "step", "speller.step"),
    ("spellersim.speller:Speller", "advance_clock", "speller.advance_clock"),
    ("spellersim.speller:SessionLog", "trial", "speller.log_trial"),
    ("spellersim.speller:SessionLog", "selection", "speller.log_selection"),
    ("spellersim.speller:SessionLog", "write", "speller.log_write"),
    ("spellersim.harness", "draw_permutation", "alphabet.draw_permutation"),
    ("spellersim.speller", "draw_permutation", "alphabet.draw_permutation"),
    ("spellersim.harness", "form_cycle", "alphabet.form_cycle"),
    ("spellersim.speller", "form_cycle", "alphabet.form_cycle"),
    ("spellersim.cli", "monte_carlo_group_stats", "alphabet.mc_stats"),
    ("spellersim.alphabet", "draw_permutations", "alphabet.draw_permutations"),
    ("spellersim.harness", "mutual_information", "channel.mutual_information"),
    ("spellersim.harness", "practical_itr", "channel.practical_itr"),
    ("spellersim.harness", "per_trial_itr_from_session", "channel.per_trial_itr"),
)

# spans whose time is writing an artifact the CLI registers in a manifest
ARTIFACT_SPANS = (
    "cli.write_manifest",
    "features.save_model",
    "harness.write_cv_csv",
    "harness.write_session_csv",
    "speller.log_write",
)


def _rows(args: tuple) -> int:
    return len(args[0])


SIZES = {"features.fit": _rows}


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0]
            if size is not None:
                record[5] = size(args)
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self, op: int):
        """Wrap every target for the duration of one operation."""
        self.op = op
        restore = []
        try:
            for path, attr, name in TARGETS:
                owner = _owner(path)
                original = owner.__dict__.get(attr)
                if original is None:
                    if f"{path}.{attr}" not in self.missing:
                        self.missing.append(f"{path}.{attr}")
                    continue
                setattr(owner, attr, self.wrap(name, original))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)
            self.op = -1

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0].split(".", 1)[0]] += own
        return totals

    def write(self, path, extra: dict) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "op", "size"],
            "spans": self.spans,
            "layer_self_s": self.layer_self_s(),
            "missing": self.missing,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def per_layer_metrics(tracer: Tracer, n_ops: int, outcomes: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced operations.

    Counts and times are per operation (the traced total over ``n_ops``);
    ``_p50``/``_p99`` are percentiles over every call; a metric with no
    calls behind it reads 0. ``outcomes`` carries what the worker measured
    outside the spans (import time, artifact bytes, speller and CV results,
    tracing overhead).
    """
    spans = tracer.spans
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(*names):
        return [i for name in names for i in by_name.get(name, [])]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    def covered(*names):
        """Time inside the named spans, counting nested ones once."""
        total = 0.0
        for i in idx(*names):
            parent = spans[i][3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                total += dur(i)
        return total

    def count(*names):
        return per_op(len(idx(*names)))

    def p_us(q, *names):
        return _percentile([dur(i) * 1e6 for i in idx(*names)], q)

    starts: dict[int, list[float]] = {}
    for i in idx("speller.next_stimulus"):
        starts.setdefault(spans[i][4], []).append(spans[i][1])
    intervals = [(b - a) * 1e6 for seq in starts.values() for a, b in zip(seq, seq[1:])]

    synth: dict[int, list[float]] = {}
    for i in idx("signal.synth"):
        synth.setdefault(spans[i][4], []).append(dur(i) * 1e6)
    first = [statistics.median(seq[:500]) for seq in synth.values()]
    last = [statistics.median(seq[-500:]) for seq in synth.values()]

    layer_self = tracer.layer_self_s()
    harness_cv_self = sum(own[i] for i in idx("harness.cross_validate"))

    m: dict[str, tuple[float, str]] = {
        "harness.run_training_s": (per_op(covered("harness.run_training")), "s"),
        "harness.cross_validate_self_s": (per_op(harness_cv_self), "s"),
        "harness.trial_interval_us_p50": (_percentile(intervals, 50), "us"),
        "harness.trial_interval_us_p99": (_percentile(intervals, 99), "us"),
        "harness.cv_accuracy": (outcomes["cv_accuracy"], "ratio"),
        "signal.synth_calls": (count("signal.synth"), "count"),
        "signal.synth_s": (per_op(covered("signal.synth")), "s"),
        "signal.synth_us_first500": (statistics.median(first) if first else 0.0, "us"),
        "signal.synth_us_last500": (statistics.median(last) if last else 0.0, "us"),
        "signal.preprocess_s": (
            per_op(covered("signal.preprocess", "signal.trials_to_matrix")),
            "s",
        ),
        "features.fit_calls": (count("features.fit"), "count"),
        "features.fit_rows": (per_op(sum(spans[i][5] for i in idx("features.fit"))), "count"),
        "features.fit_cpca_s": (per_op(covered("features.fit_cpca")), "s"),
        "features.fit_discriminant_s": (per_op(covered("features.fit_discriminant")), "s"),
        "features.extract_batch_s": (per_op(covered("features.extract_batch")), "s"),
        "features.extract_calls": (count("features.extract"), "count"),
        "features.extract_us_p50": (p_us(50, "features.extract"), "us"),
        "features.model_io_s": (
            per_op(covered("features.save_model", "features.load_model")),
            "s",
        ),
        "classifier.fit_s": (per_op(covered("classifier.fit")), "s"),
        "classifier.decide_calls": (
            count("classifier.decide_batch", "classifier.posterior_oddball"),
            "count",
        ),
        "classifier.decide_us_p50": (
            p_us(50, "classifier.decide_batch", "classifier.posterior_oddball"),
            "us",
        ),
        "speller.step_calls": (count("speller.step"), "count"),
        "speller.step_us_p50": (p_us(50, "speller.step"), "us"),
        "speller.next_stimulus_us_p50": (p_us(50, "speller.next_stimulus"), "us"),
        "speller.selections": (count("speller.log_selection"), "count"),
        "speller.correct_ratio": (outcomes["correct_ratio"], "ratio"),
        "speller.trials_per_correct": (outcomes["trials_per_correct"], "ratio"),
        "alphabet.draw_permutation_calls": (count("alphabet.draw_permutation"), "count"),
        "alphabet.draw_permutation_us_p50": (p_us(50, "alphabet.draw_permutation"), "us"),
        "alphabet.mc_stats_s": (per_op(covered("alphabet.mc_stats")), "s"),
        "channel.s": (per_op(layer_self["channel"]), "s"),
        "channel.practical_bits_per_s": (outcomes["practical_bits_per_s"], "bits/s"),
        "cli.import_s": (outcomes["import_s"], "s"),
        "cli.artifact_write_s": (per_op(covered(*ARTIFACT_SPANS)), "s"),
        "cli.artifact_bytes": (outcomes["artifact_bytes"], "bytes"),
        "trace.overhead_s": (outcomes["overhead_s"], "s"),
        "trace.spans": (per_op(len(spans)), "count"),
    }
    for layer in LAYERS:
        if layer != "channel":
            m[f"{layer}.self_s"] = (per_op(layer_self[layer]), "s")
    return m
