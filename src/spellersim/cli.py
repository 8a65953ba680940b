"""Command-line front end.

Subcommands wrap the library layers into reproducible experiments: ``train``
(fit and persist a pipeline), ``spell`` (closed-loop copy task), ``cv``
(offline scoring without persisting a model), ``itr`` (channel arithmetic on
explicit inputs), ``mc`` (randomization statistics). Every command honors
``--seed`` and writes byte-identical artifacts when repeated; every artifact
is registered in a manifest JSON carrying the digest of the run identity.

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
import hashlib
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .alphabet import (
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
from .speller import Dictionary, load_dictionary

__all__ = ["RunSpec", "load_config", "build_parser", "main"]

CHANCE_LEVEL = 6.0 / 7.0


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
        if self.cv_repeats < 1 or self.cv_folds < 2:
            raise ValueError("need cv_repeats >= 1 and cv_folds >= 2")
        if self.trial_budget < 1:
            raise ValueError("trial_budget must be >= 1")
        if not self.sentence:
            raise ValueError("sentence must be nonempty")
        subject_preset(self.subject)

    def snapshot(self) -> dict:
        """Every effective setting, defaults included, as plain JSON data."""
        doc = dataclasses.asdict(self)
        doc["protocol"] = dataclasses.asdict(self.protocol)
        return doc


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


def _run_identity(command: str, seed: int, config: dict, inputs: dict[str, str]) -> dict:
    return {
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "versions": {
            "spellersim": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def _write_manifest(out_dir: Path, name: str, identity: dict, outputs: dict[str, Path]) -> Path:
    doc = dict(identity)
    doc["digest"] = _run_digest(identity)
    doc["outputs"] = {key: _sha256(path) for key, path in sorted(outputs.items())}
    path = out_dir / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# shared loading helpers


def _load_tables(spec: RunSpec) -> tuple[FrequencyTable | None, Dictionary | None]:
    frequency = load_frequency_table(spec.frequency_table) if spec.frequency_table else None
    dictionary = load_dictionary(spec.dictionary) if spec.dictionary else None
    return frequency, dictionary


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


def _calibrate(spec: RunSpec, seed: int, frequency: FrequencyTable | None):
    """Training session and its cross-validation, with their summary lines."""
    subject = subject_preset(spec.subject)
    trials = run_training(spec.protocol, subject, substream(seed, "train"), frequency=frequency)
    cv = cross_validate(
        trials,
        repeats=spec.cv_repeats,
        folds=spec.cv_folds,
        rng=substream(seed, "cv"),
        eta=spec.protocol.eta,
        m_max=spec.protocol.m_max,
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


def cmd_train(args) -> int:
    spec = load_config(_resolve_config(args.config))
    seed = _effective_seed(args, spec)
    out = _out_dir(args)
    frequency, _ = _load_tables(spec)

    trials, cv = _calibrate(spec, seed, frequency)
    model, params = fit_final_model(trials, spec.protocol)

    identity = _run_identity("train", seed, spec.snapshot(), inputs={})
    digest = _run_digest(identity)
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


def cmd_cv(args) -> int:
    spec = load_config(_resolve_config(args.config))
    seed = _effective_seed(args, spec)
    out = _out_dir(args)
    frequency, _ = _load_tables(spec)

    trials, cv = _calibrate(spec, seed, frequency)
    rows = [cv_row(spec.subject, spec.protocol.iti_ms, cv)]
    if args.subsample is not None:
        sub = subsample_check(
            trials,
            target=args.subsample,
            rng=substream(seed, "subsample"),
            repeats=spec.cv_repeats,
            folds=spec.cv_folds,
            eta=spec.protocol.eta,
            m_max=spec.protocol.m_max,
        )
        rows.append(cv_row(f"{spec.subject}[n={args.subsample}]", spec.protocol.iti_ms, sub))
        print(
            f"subsample n={args.subsample}: {100.0 * sub.accuracy_mean:.2f}% "
            f"+- {100.0 * sub.accuracy_std:.2f}"
        )

    identity = _run_identity("cv", seed, spec.snapshot(), inputs={})
    cv_path = out / "cv.csv"
    write_cv_csv(cv_path, rows)
    manifest = _write_manifest(out, "cv_manifest.json", identity, {"cv.csv": cv_path})
    print(f"table: {cv_path}")
    print(f"manifest: {manifest}")
    return 0


def cmd_spell(args) -> int:
    spec = load_config(_resolve_config(args.config))
    seed = _effective_seed(args, spec)
    out = _out_dir(args)
    frequency, dictionary = _load_tables(spec)
    subject = subject_preset(spec.subject)

    model_path = Path(args.model)
    model, params, meta = load_model(model_path)
    if params is None:
        print("error: model container carries no classifier", file=sys.stderr)
        return 2
    trained_iti = meta.get("iti_ms")
    if trained_iti is not None and trained_iti != spec.protocol.iti_ms:
        print(
            f"error: model was trained at iti_ms={trained_iti}, "
            f"config asks for iti_ms={spec.protocol.iti_ms}",
            file=sys.stderr,
        )
        return 2

    sentence = args.sentence if args.sentence is not None else spec.sentence
    identity = _run_identity(
        "spell", seed, spec.snapshot(), inputs={"model.bin": _sha256(model_path)}
    )
    digest = _run_digest(identity)

    log, report = run_online(
        spec.protocol,
        subject,
        model,
        params,
        substream(seed, "spell"),
        sentence=sentence,
        trial_budget=spec.trial_budget,
        dictionary=dictionary,
        frequency=frequency,
    )
    log.meta["subject"] = spec.subject
    log.meta["seed"] = seed
    log.meta["manifest_digest"] = digest

    log_path = out / "session.jsonl"
    log.write(log_path)
    report_doc = dataclasses.asdict(report)
    del report_doc["confusion"]
    report_doc["manifest_digest"] = digest
    report_path = out / "session_report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    if report.per_trial is not None and report.per_trial.bits_per_sec is not None:
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


def _itr_mode(args, parser: argparse.ArgumentParser) -> str:
    wolpaw = args.wolpaw or args.classes is not None or args.pc is not None
    practical = args.nc is not None or args.t is not None
    channel = args.p_oo is not None or args.p_ee is not None or args.prior_o is not None
    chosen = [name for name, active in (("wolpaw", wolpaw), ("practical", practical), ("channel", channel)) if active]
    if len(chosen) != 1:
        parser.error(
            "give exactly one input group: --wolpaw --classes --pc, "
            "or --nc --t [--alphabet], or --p-oo --p-ee [--prior-o]"
        )
    return chosen[0]


def cmd_itr(args, parser: argparse.ArgumentParser) -> int:
    mode = _itr_mode(args, parser)
    if mode == "wolpaw":
        if not args.wolpaw or args.classes is None or args.pc is None:
            parser.error("wolpaw mode needs --wolpaw --classes --pc")
        bits = wolpaw_itr(args.classes, args.pc)
        print(f"wolpaw: {bits:.4f} bits/trial")
    elif mode == "practical":
        if args.nc is None or args.t is None:
            parser.error("practical mode needs --nc and --t")
        bits = practical_itr(args.nc, args.t, args.alphabet)
        print(f"practical ITR: {bits:.4f} bits/s")
    else:
        if args.p_oo is None or args.p_ee is None:
            parser.error("channel mode needs --p-oo and --p-ee")
        prior_o = args.prior_o if args.prior_o is not None else 1.0 / 7.0
        confusion = ConfusionMatrix(args.p_oo, 1.0 - args.p_oo, 1.0 - args.p_ee, args.p_ee)
        spec = ChannelSpec(confusion, prior_o, 1.0 - prior_o)
        mi = mutual_information(spec)
        accuracy = spec.accuracy()
        print(f"mutual information: {mi:.4f} bits/trial")
        print(f"fano lower bound: {fano_lower_bound(prior_o, accuracy):.4f} bits/trial")
        print(f"wolpaw (C=2, p_c=accuracy): {wolpaw_itr(2, accuracy):.4f} bits/trial")
        print(f"accuracy: {accuracy:.6f}")
    return 0


def cmd_mc(args) -> int:
    if args.uniform and args.table is not None:
        print("error: --uniform and --table are mutually exclusive", file=sys.stderr)
        return 2
    if args.runs < 1:
        print("error: --runs must be >= 1", file=sys.stderr)
        return 2
    try:
        if args.uniform:
            table = uniform_frequency_table(default_frequency_table().symbols)
        elif args.table is not None:
            table = load_frequency_table(args.table)
        else:
            table = default_frequency_table()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
            inputs={},
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

    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser(
        "train", parents=[common], help="fit the pipeline on a synthetic session"
    )
    p_train.add_argument("--config", required=True, help="config file or bundled preset name")

    p_cv = sub.add_parser(
        "cv", parents=[common], help="score the pipeline offline without saving a model"
    )
    p_cv.add_argument("--config", required=True, help="config file or bundled preset name")
    p_cv.add_argument(
        "--subsample", type=int, default=None, help="also score a fixed-size stratified subsample"
    )

    p_spell = sub.add_parser(
        "spell", parents=[common], help="run the closed-loop copy task with a trained model"
    )
    p_spell.add_argument("--config", required=True, help="config file or bundled preset name")
    p_spell.add_argument("--model", required=True, help="model container written by train")
    p_spell.add_argument(
        "--sentence", default=None, help="target sentence (default: the config's sentence)"
    )

    p_itr = sub.add_parser(
        "itr", parents=[common], help="information-rate arithmetic on explicit inputs"
    )
    p_itr.add_argument("--wolpaw", action="store_true", help="evaluate the Wolpaw formula")
    p_itr.add_argument("--classes", type=int, default=None, help="wolpaw: number of classes")
    p_itr.add_argument("--pc", type=float, default=None, help="wolpaw: classification accuracy")
    p_itr.add_argument("--nc", type=int, default=None, help="practical: correct selections")
    p_itr.add_argument("--t", type=float, default=None, help="practical: total time, seconds")
    p_itr.add_argument(
        "--alphabet", type=int, default=42, help="practical: alphabet size (default 42)"
    )
    p_itr.add_argument("--p-oo", dest="p_oo", type=float, default=None, help="channel: hit rate")
    p_itr.add_argument(
        "--p-ee", dest="p_ee", type=float, default=None, help="channel: rejection rate"
    )
    p_itr.add_argument(
        "--prior-o",
        dest="prior_o",
        type=float,
        default=None,
        help="channel: rare-class prior (default 1/7)",
    )

    p_mc = sub.add_parser(
        "mc", parents=[common], help="Monte Carlo statistics of the biased randomization"
    )
    p_mc.add_argument("--table", default=None, help="frequency table file (default: bundled)")
    p_mc.add_argument(
        "--uniform", action="store_true", help="use a uniform table over the default symbols"
    )
    p_mc.add_argument("--runs", type=int, default=100_000, help="number of cycles (default 1e5)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "cv":
            return cmd_cv(args)
        if args.command == "spell":
            return cmd_spell(args)
        if args.command == "itr":
            return cmd_itr(args, parser)
        if args.command == "mc":
            return cmd_mc(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
