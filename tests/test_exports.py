"""Every public module of the package declares __all__, and every name in it
resolves, so a removal cannot leave a stale export behind. No module imports
scipy, so its package import cannot creep back into a command's start-up,
every name a module imports is used or exported, and every attribute a
module sets on self is read somewhere in the package. The library entry points
that a config drives declare no defaults: a setting's default lives in the
config alone."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import spellersim
from spellersim import features, harness, signal, speller

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


SOURCES = sorted(Path(spellersim.__file__).parent.glob("*.py"))


def test_no_module_imports_scipy():
    # the fits load scipy's LAPACK extension from its file (features._lapack);
    # importing scipy.linalg costs about 0.2 s and 28 MB
    assert len(SOURCES) > 1
    assert [name for path in SOURCES for name in _scipy_imports(path)] == []


def _unused_imports(path: Path) -> list[str]:
    """The names one source file imports but neither reads nor lists in its
    __all__, as module:line:name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}:{name}" for name, line in sorted(imported.items()) if name not in used]


def test_every_imported_name_is_used():
    assert [name for path in SOURCES for name in _unused_imports(path)] == []


def _attributes(path: Path, ctx: type) -> dict[str, int]:
    """The attribute names one source file stores (ast.Store, through
    self.x = ..., augmented or annotated) or loads (ast.Load, through any
    object), each with the line it first appears on."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx):
            if ctx is ast.Load or (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.setdefault(node.attr, node.lineno)
    return found


def test_every_instance_attribute_is_read():
    # state that is written but never read, in the module or by a caller,
    # is dead; a store alone is no read, so self.n += 1 does not count
    read = set().union(*(_attributes(path, ast.Load) for path in SOURCES))
    written = [
        f"{path.name}:{line}:{name}"
        for path in SOURCES
        for name, line in sorted(_attributes(path, ast.Store).items())
        if name not in read
    ]
    assert written == []


# every setting these take comes from the config, or from a table the
# command line loads, so none of them states a default of its own
CONFIG_DRIVEN = [
    features.fit_cpca,
    signal.erp_waveform,
    harness.run_training,
    harness.cross_validate,
    harness.subsample_check,
    harness.run_online,
    speller.Speller,
    speller.Speller.advance_clock,
    speller.SessionLog,
]


@pytest.mark.parametrize("entry", CONFIG_DRIVEN, ids=lambda entry: entry.__qualname__)
def test_config_driven_entry_points_declare_no_defaults(entry):
    parameters = inspect.signature(entry).parameters.values()
    assert [p.name for p in parameters if p.default is not inspect.Parameter.empty] == []

