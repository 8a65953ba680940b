"""Every public module of the package declares __all__, and every name in it
resolves, so a removal cannot leave a stale export behind. No module imports
scipy, so its package import cannot creep back into a command's start-up."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spellersim

PUBLIC_MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(spellersim.__path__, "spellersim.")
    if not info.name.rpartition(".")[2].startswith("_")
)


def test_the_public_modules_are_found():
    assert "spellersim.features" in PUBLIC_MODULES and "spellersim._fork" not in PUBLIC_MODULES


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _scipy_imports(path: Path) -> list[str]:
    """The scipy import statements of one source file, as module:line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        names += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    return names


def test_no_module_imports_scipy():
    # the fits load scipy's LAPACK extension from its file (features._lapack);
    # importing scipy.linalg costs about 0.2 s and 28 MB
    sources = sorted(Path(spellersim.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    assert [name for path in sources for name in _scipy_imports(path)] == []
