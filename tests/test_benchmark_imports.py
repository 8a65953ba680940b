"""The names the benchmark imports from the package still exist, so a change
that removes one cannot break the benchmark's set-up unnoticed."""

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


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
