"""Command-line front end.

Subcommands wrap the library layers into reproducible experiments: ``train``
(fit and persist a pipeline), ``spell`` (closed-loop copy task), ``cv``
(offline scoring without persisting a model), ``itr`` (information-rate
arithmetic on explicit inputs: ``practical``, ``wolpaw`` or ``channel``),
``mc`` (randomization statistics). Each command but ``itr`` honors
``--seed`` and repeats its artifacts byte for byte, each registered in a
manifest JSON carrying the digest of the run identity.

Config files are plain ``key = value`` text with ``#`` comments. Recognized
keys: the protocol fields (iti_ms, train_chars, train_seconds_per_char,
pause_s, theta_stage1, theta_stage2, overhead_ms, eta, m_max, seed) plus the
run settings (subject, cv_repeats, cv_folds, sentence, trial_budget,
frequency_table, dictionary). Bundled presets cover
{slow, medium, fast} x {oracle, midsnr, noise}.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from ._fork import _one_blas_thread
from .alphabet import (
    _CYCLE_GROUPS,
    FrequencyTable,
    default_frequency_table,
    load_frequency_table,
    monte_carlo_group_stats,
    uniform_frequency_table,
)
from .channel import (
    ChannelSpec,
    ConfusionMatrix,
    fano_lower_bound,
    mutual_information,
    practical_itr,
    wolpaw_itr,
)
from .features import load_model, save_model
from .harness import (
    BENCHMARK_SENTENCE,
    ONLINE_PRIORS,
    ProtocolConfig,
    cross_validate,
    cv_row,
    fit_final_model,
    run_online,
    run_training,
    session_row,
    subsample_check,
    write_cv_csv,
    write_session_csv,
)
from .seeding import substream
from .signal import subject_preset
from .speller import default_dictionary, load_dictionary

__all__ = ["RunSpec", "load_config", "build_parser", "main"]

# the majority-class accuracy at the design ratio
CHANCE_LEVEL = ONLINE_PRIORS[1]

# the most CV repeats a config may ask for: 1,000 repeats of 10 folds are
# 10,000 fold fits, minutes of work on the presets
_MAX_CV_REPEATS = 1_000

# the longest spell a config may ask for: about 0.42 KB of log and 61 us a
# trial, so 500,000 trials are about 250 MB and 30 s (10x the default)
_MAX_TRIAL_BUDGET = 500_000


@dataclass(frozen=True)
class RunSpec:
    """A parsed config file: the protocol plus experiment-level settings."""

    protocol: ProtocolConfig
    subject: str = "midsnr"
    cv_repeats: int = 10
    cv_folds: int = 10
    sentence: str = BENCHMARK_SENTENCE
    trial_budget: int = 50_000
    frequency_table: str | None = None
    dictionary: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.cv_repeats <= _MAX_CV_REPEATS:
            raise ValueError(f"cv_repeats must lie in [1, {_MAX_CV_REPEATS:,}], got {self.cv_repeats}")
        most = min(self.protocol.class_floors)
        if not 2 <= self.cv_folds <= most:
            raise ValueError(
                f"cv_folds must lie in [2, {most}], the fewest trials of a class that a training "
                f"session of this protocol holds, got {self.cv_folds}"
            )
        if not 1 <= self.trial_budget <= _MAX_TRIAL_BUDGET:
            raise ValueError(f"trial_budget must lie in [1, {_MAX_TRIAL_BUDGET:,}], got {self.trial_budget}")
        if not self.sentence:
            raise ValueError("sentence must be nonempty")
        subject_preset(self.subject)

    def snapshot(self) -> dict:
        """Every effective setting, defaults included, as plain JSON data."""
        return dataclasses.asdict(self)


# config key -> annotated type of the field it sets
_PROTOCOL_KEYS = {f.name: f.type for f in dataclasses.fields(ProtocolConfig)}
_RUN_KEYS = {f.name: f.type for f in dataclasses.fields(RunSpec) if f.name != "protocol"}


def _parse_value(kind: str, key: str, raw: str, lineno: int, path) -> object:
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc


def load_config(path) -> RunSpec:
    """Parse a key=value config file into a RunSpec."""
    protocol: dict = {}
    run: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in _PROTOCOL_KEYS:
                protocol[key] = _parse_value(_PROTOCOL_KEYS[key], key, value, lineno, path)
            elif key in _RUN_KEYS:
                run[key] = _parse_value(_RUN_KEYS[key], key, value, lineno, path)
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return RunSpec(protocol=ProtocolConfig(**protocol), **run)


def _resolve_config(name: str) -> Path:
    """A filesystem path, or the name of a bundled preset."""
    path = Path(name)
    if path.exists():
        return path
    stem = name if name.endswith(".cfg") else name + ".cfg"
    ref = resources.files("spellersim").joinpath(f"presets/{stem}")
    with resources.as_file(ref) as preset:
        if preset.exists():
            return Path(preset)
    raise FileNotFoundError(f"no config file or bundled preset named {name!r}")


# ---------------------------------------------------------------------------
# manifests


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_digest(identity: dict) -> str:
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@functools.cache
def _scipy_version() -> str:
    """scipy's version from its installed metadata, read once per process
    (a few ms a read): importing scipy for it would load scipy into the
    commands that fit no model."""
    from importlib.metadata import version

    return version("scipy")


def _run_identity(command: str, seed: int, config: dict, inputs: dict[str, str]) -> dict:
    return {
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "versions": {
            "spellersim": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
        },
    }


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, name: str, identity: dict, outputs: dict[str, Path]) -> Path:
    doc = dict(identity)
    doc["digest"] = _run_digest(identity)
    doc["outputs"] = {key: _sha256(path) for key, path in sorted(outputs.items())}
    path = out_dir / name
    _write_json(path, doc)
    return path


# ---------------------------------------------------------------------------
# shared loading helpers


def _frequency_table(spec: RunSpec) -> FrequencyTable:
    return load_frequency_table(spec.frequency_table) if spec.frequency_table else default_frequency_table()


def _table_inputs(spec: RunSpec) -> dict[str, str]:
    """Digests of the files the config names: the snapshot holds only their
    paths, and an edited file must change the run identity. Taken before the
    run, so a missing file fails before any work."""
    named = {"frequency_table": spec.frequency_table, "dictionary": spec.dictionary}
    return {key: _sha256(Path(path)) for key, path in named.items() if path}


def _effective_seed(args, spec: RunSpec) -> int:
    return args.seed if args.seed is not None else spec.protocol.seed


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _chance_tag(accuracy: float) -> str:
    if abs(accuracy - CHANCE_LEVEL) <= 0.01:
        return "at chance"
    return "above chance" if accuracy > CHANCE_LEVEL else "below chance"


# ---------------------------------------------------------------------------
# subcommands


def _calibrate(spec: RunSpec, seed: int):
    """Training session and its cross-validation, with their summary lines."""
    subject = subject_preset(spec.subject)
    trials = run_training(spec.protocol, subject, substream(seed, "train"), _frequency_table(spec))
    cv = cross_validate(
        trials, spec.protocol, repeats=spec.cv_repeats, folds=spec.cv_folds, rng=substream(seed, "cv")
    )
    print(f"subject: {spec.subject}")
    print(f"training trials: {len(trials)}")
    print(
        f"cv accuracy: {100.0 * cv.accuracy_mean:.2f}% "
        f"+- {100.0 * cv.accuracy_std:.2f} (best {100.0 * cv.accuracy_best:.2f}%)"
    )
    print(f"chance level: {100.0 * CHANCE_LEVEL:.2f}% -> {_chance_tag(cv.accuracy_mean)}")
    print(f"bits/trial: {cv.bits_per_trial:.4f}")
    return trials, cv


# train and cv hold one BLAS thread from start to end: each fork pool and the
# final fit pin one thread and then restore the count, and a restore to more
# threads restarts OpenBLAS threads that spin beside the next fit
@_one_blas_thread()
def cmd_train(args) -> int:
    spec = load_config(_resolve_config(args.config))
    seed = _effective_seed(args, spec)
    inputs = _table_inputs(spec)

    trials, cv = _calibrate(spec, seed)
    model, params = fit_final_model(trials, spec.protocol)

    identity = _run_identity("train", seed, spec.snapshot(), inputs=inputs)
    digest = _run_digest(identity)
    out = _out_dir(args)
    model_path = out / "model.bin"
    save_model(
        model_path,
        model,
        params,
        meta={
            "iti_ms": spec.protocol.iti_ms,
            "subject": spec.subject,
            "seed": seed,
            "manifest_digest": digest,
        },
    )
    cv_path = out / "train_cv.csv"
    write_cv_csv(cv_path, [cv_row(spec.subject, spec.protocol.iti_ms, cv)])
    manifest = _write_manifest(
        out, "train_manifest.json", identity, {"model.bin": model_path, "train_cv.csv": cv_path}
    )
    print(f"model: {model_path}")
    print(f"manifest: {manifest}")
    return 0


@_one_blas_thread()
def cmd_cv(args) -> int:
    spec = load_config(_resolve_config(args.config))
    seed = _effective_seed(args, spec)
    inputs = _table_inputs(spec)
    if args.subsample is not None:
        # subsample_check keeps floor(N/7) oddballs and N - floor(N/7) others:
        # each fold needs an oddball, and every session of the protocol must
        # hold both shares
        odd, other = spec.protocol.class_floors
        low = _CYCLE_GROUPS * spec.cv_folds
        high = min(_CYCLE_GROUPS * (odd + 1) - 1, other * _CYCLE_GROUPS // (_CYCLE_GROUPS - 1))
        if not low <= args.subsample <= high:
            raise ValueError(f"--subsample must lie in [{low}, {high}] for this config, got {args.subsample}")

    trials, cv = _calibrate(spec, seed)
    rows = [cv_row(spec.subject, spec.protocol.iti_ms, cv)]
    if args.subsample is not None:
        sub = subsample_check(
            trials,
            spec.protocol,
            args.subsample,
            repeats=spec.cv_repeats,
            folds=spec.cv_folds,
            rng=substream(seed, "subsample"),
        )
        rows.append(cv_row(f"{spec.subject}[n={args.subsample}]", spec.protocol.iti_ms, sub))
        print(
            f"subsample n={args.subsample}: {100.0 * sub.accuracy_mean:.2f}% "
            f"+- {100.0 * sub.accuracy_std:.2f}"
        )

    config = spec.snapshot()
    if args.subsample is not None:
        config["subsample"] = args.subsample
    identity = _run_identity("cv", seed, config, inputs=inputs)
    out = _out_dir(args)
    cv_path = out / "cv.csv"
    write_cv_csv(cv_path, rows)
    manifest = _write_manifest(out, "cv_manifest.json", identity, {"cv.csv": cv_path})
    print(f"table: {cv_path}")
    print(f"manifest: {manifest}")
    return 0


def cmd_spell(args) -> int:
    spec = load_config(_resolve_config(args.config))
    seed = _effective_seed(args, spec)
    frequency = _frequency_table(spec)
    dictionary = load_dictionary(spec.dictionary) if spec.dictionary else default_dictionary()
    subject = subject_preset(spec.subject)

    model_path = Path(args.model)
    model, params, meta = load_model(model_path)
    trained_iti = meta.get("iti_ms")
    if trained_iti is not None and trained_iti != spec.protocol.iti_ms:
        raise ValueError(
            f"model was trained at iti_ms={trained_iti}, "
            f"config asks for iti_ms={spec.protocol.iti_ms}"
        )

    inputs = {"model.bin": _sha256(model_path), **_table_inputs(spec)}
    identity = _run_identity("spell", seed, spec.snapshot(), inputs=inputs)
    digest = _run_digest(identity)

    log, report = run_online(
        spec.protocol,
        subject,
        model,
        params,
        substream(seed, "spell"),
        sentence=spec.sentence,
        trial_budget=spec.trial_budget,
        dictionary=dictionary,
        frequency=frequency,
    )
    log.meta["subject"] = spec.subject
    log.meta["seed"] = seed
    log.meta["manifest_digest"] = digest

    out = _out_dir(args)
    log_path = out / "session.jsonl"
    log.write(log_path)
    report_path = out / "session_report.json"
    _write_json(report_path, {**dataclasses.asdict(report), "manifest_digest": digest})
    csv_path = out / "session.csv"
    write_session_csv(csv_path, [session_row(spec.subject, spec.protocol.iti_ms, report)])
    manifest = _write_manifest(
        out,
        "spell_manifest.json",
        identity,
        {"session.jsonl": log_path, "session_report.json": report_path, "session.csv": csv_path},
    )

    accounted = (
        report.n_trials * (spec.protocol.iti_ms + spec.protocol.overhead_ms) / 1000.0
        + report.t_pause_s
    )
    print(f"completed: {'yes' if report.completed else 'no'}")
    print(f"transcript: {report.prompt}")
    print(
        f"T: {report.t_total_s:.3f} s "
        f"(active {report.t_active_s:.3f} s + pauses {report.t_pause_s:.3f} s)"
    )
    print(
        f"accounting identity: trials*(iti+overhead) + pauses = {accounted:.3f} s, "
        f"|difference| = {abs(report.t_total_s - accounted):.6f} s"
    )
    print(f"N_c: {report.n_correct} of {report.n_selections} selections")
    print(f"practical ITR: {report.practical_bits_per_sec:.4f} bits/s")
    if report.per_trial is not None:
        print(
            f"active-time ITR: {report.per_trial.bits_per_sec:.4f} bits/s "
            f"({report.per_trial.bits_per_trial:.4f} bits/trial x "
            f"{report.per_trial.trials_per_sec:.4f} trials/s)"
        )
    else:
        print("active-time ITR: n/a (a trial class is missing)")
    print(f"log: {log_path}")
    print(f"manifest: {manifest}")
    return 0


def cmd_itr(args) -> int:
    if args.form == "wolpaw":
        print(f"wolpaw: {wolpaw_itr(args.classes, args.pc):.4f} bits/trial")
    elif args.form == "practical":
        print(f"practical ITR: {practical_itr(args.nc, args.t, args.alphabet):.4f} bits/s")
    else:
        confusion = ConfusionMatrix(args.p_oo, 1.0 - args.p_oo, 1.0 - args.p_ee, args.p_ee)
        spec = ChannelSpec(confusion, args.prior_o)
        mi = mutual_information(spec)
        accuracy = spec.accuracy()
        print(f"mutual information: {mi:.4f} bits/trial")
        print(f"fano lower bound: {fano_lower_bound(args.prior_o, accuracy):.4f} bits/trial")
        print(f"wolpaw (C=2, p_c=accuracy): {wolpaw_itr(2, accuracy):.4f} bits/trial")
        print(f"accuracy: {accuracy:.6f}")
    return 0


def cmd_mc(args) -> int:
    if args.runs < 1:
        raise ValueError("--runs must be >= 1")
    if args.uniform:
        table = uniform_frequency_table(default_frequency_table().symbols)
    elif args.table is not None:
        table = load_frequency_table(args.table)
    else:
        table = default_frequency_table()

    seed = args.seed if args.seed is not None else 0
    stats = monte_carlo_group_stats(table, args.runs, substream(seed, "mc"))
    order = np.argsort(table.probs)[::-1]
    print(f"runs: {args.runs}")
    print("symbol  prob      mean_group  mean_position")
    for i in order:
        print(
            f"{table.symbols[i]:>6}  {table.probs[i]:.6f}  "
            f"{stats.mean_group[i]:10.3f}  {stats.mean_position[i]:13.3f}"
        )
    top = order[0]
    top12 = order[:12]
    print(f"most frequent symbol: {table.symbols[top]!r} mean group {stats.mean_group[top]:.3f}")
    print(f"top-12 pooled mean group: {float(stats.mean_group[top12].mean()):.3f}")

    if args.out is not None:
        out = _out_dir(args)
        csv_path = out / "mc.csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["symbol", "prob", "mean_group", "mean_position"])
            for i in order:
                values = (table.probs[i], stats.mean_group[i], stats.mean_position[i])
                writer.writerow([table.symbols[i], *(repr(float(v)) for v in values)])
        identity = _run_identity(
            "mc",
            seed,
            {"runs": args.runs, "table": table.source, "uniform": bool(args.uniform)},
            inputs={"table": _sha256(Path(args.table))} if args.table is not None else {},
        )
        manifest = _write_manifest(out, "mc_manifest.json", identity, {"mc.csv": csv_path})
        print(f"table: {csv_path}")
        print(f"manifest: {manifest}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spellersim",
        description="Simulated high-speed oddball speller: training, online spelling, "
        "information-rate arithmetic and randomization statistics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=None, help="output directory (default: .)")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", required=True, help="config file or bundled preset name")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train", parents=[configured], help="fit the pipeline on a synthetic session")

    p_cv = sub.add_parser(
        "cv", parents=[configured], help="score the pipeline offline without saving a model"
    )
    p_cv.add_argument(
        "--subsample", type=int, default=None, help="also score a fixed-size stratified subsample"
    )

    p_spell = sub.add_parser(
        "spell", parents=[configured], help="run the closed-loop copy task with a trained model"
    )
    p_spell.add_argument("--model", required=True, help="model container written by train")

    p_itr = sub.add_parser("itr", help="information-rate arithmetic on explicit inputs")
    forms = p_itr.add_subparsers(dest="form", required=True)
    p_practical = forms.add_parser("practical", help="bits/s of a spelling session")
    p_practical.add_argument("--nc", type=int, required=True, help="correct selections")
    p_practical.add_argument("--t", type=float, required=True, help="total time, seconds")
    p_practical.add_argument("--alphabet", type=int, default=42, help="alphabet size (default 42)")
    p_wolpaw = forms.add_parser("wolpaw", help="Wolpaw bits/trial")
    p_wolpaw.add_argument("--classes", type=int, required=True, help="number of classes")
    p_wolpaw.add_argument("--pc", type=float, required=True, help="classification accuracy")
    p_channel = forms.add_parser("channel", help="bits/trial of the binary oddball channel")
    p_channel.add_argument("--p-oo", type=float, required=True, help="hit rate")
    p_channel.add_argument("--p-ee", type=float, required=True, help="rejection rate")
    p_channel.add_argument(
        "--prior-o", type=float, default=ONLINE_PRIORS[0], help="rare-class prior (default 1/7)"
    )

    p_mc = sub.add_parser(
        "mc", parents=[common], help="Monte Carlo statistics of the biased randomization"
    )
    table = p_mc.add_mutually_exclusive_group()
    table.add_argument("--table", default=None, help="frequency table file (default: bundled)")
    table.add_argument(
        "--uniform", action="store_true", help="use a uniform table over the default symbols"
    )
    p_mc.add_argument("--runs", type=int, default=100_000, help="number of cycles (default 1e5)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the output directory is made at the first write, after the run
        out = getattr(args, "out", None)
        if out is not None and Path(out).exists() and not Path(out).is_dir():
            raise ValueError(f"--out {out!r} exists and is not a directory")
        commands = {"train": cmd_train, "cv": cmd_cv, "spell": cmd_spell, "itr": cmd_itr, "mc": cmd_mc}
        return commands[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
