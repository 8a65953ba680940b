"""The names the benchmark imports from the package, and the names it traces,
still exist, so a change that removes one cannot break the benchmark's set-up
or drop its spans unnoticed."""

import ast
import importlib
import importlib.util
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
