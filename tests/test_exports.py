"""Every public module of the package declares __all__, and every name in it
resolves, so a removal cannot leave a stale export behind."""

import importlib
import pkgutil

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
