"""The names the benchmark imports from the package, and the names it traces,
still exist, so a change that removes one cannot break the benchmark's set-up
or drop its spans unnoticed."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKER = PERFBENCH / "worker.py"

# trace targets the program lost before this check existed; the benchmark
# still names them, and reports them as missing at run time
STALE_TARGETS = {"spellersim.harness.trials_to_matrix", "spellersim.harness.fit_feature_model"}


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` would succeed: an attribute, or a
    submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_the_benchmark_worker_imports_from_the_package_resolves():
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "spellersim"
        for alias in node.names
    ]
    assert imports, "found no import from the package"
    assert [f"{module}.{name}" for module, name in imports if not _resolves(module, name)] == []


def test_every_name_the_benchmark_traces_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS, "found no trace target"
    # the tracer wraps only what the owner itself holds, not inherited names
    missing = {
        f"{path}.{attr}" for path, attr, _ in tracing.TARGETS if tracing._owner(path).__dict__.get(attr) is None
    }
    assert sorted(missing - STALE_TARGETS) == []


# the spans a traced spell records, and those of them that the online loop
# records once per trial
SPELL_SPANS = (
    "cli.main", "cli.load_config", "features.load_model", "harness.run_online", "classifier.with_theta",
    "speller.next_stimulus", "alphabet.draw_permutation", "alphabet.form_cycle",
    "signal.synth", "signal.preprocess", "features.extract", "classifier.posterior_oddball",
    "speller.step", "speller.advance_clock", "speller.log_trial", "speller.log_selection",
    "channel.practical_itr", "channel.per_trial_itr", "speller.log_write", "harness.write_session_csv",
    "cli.write_manifest",
)
PER_TRIAL_SPANS = (
    "speller.next_stimulus", "signal.synth", "signal.preprocess", "features.extract",
    "classifier.posterior_oddball", "speller.step", "speller.advance_clock", "speller.log_trial",
)


def test_a_traced_spell_records_every_online_span(tmp_path, capsys):
    from importlib import resources

    from spellersim import cli

    cfg = tmp_path / "oracle.cfg"
    preset = resources.files("spellersim").joinpath("presets/fast_oracle.cfg").read_text()
    cfg.write_text(preset + "cv_repeats = 1\ncv_folds = 2\ntrial_budget = 300\n")
    assert cli.main(["train", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "model")]) == 0
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    argv = ["spell", "--config", str(cfg), "--model", str(tmp_path / "model" / "model.bin")]
    with tracer.installed(0):
        # looked up on the module, as the benchmark worker does, so that the
        # cli.main span is recorded too
        assert cli.main([*argv, "--seed", "0", "--out", str(tmp_path / "spell")]) == 0
    capsys.readouterr()
    counts: dict[str, int] = {}
    for span in tracer.spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    assert [name for name in SPELL_SPANS if counts.get(name, 0) < 1] == []
    n_trials = json.loads((tmp_path / "spell" / "session_report.json").read_text())["n_trials"]
    assert n_trials == 153
    assert {name: counts[name] for name in PER_TRIAL_SPANS} == dict.fromkeys(PER_TRIAL_SPANS, n_trials)
