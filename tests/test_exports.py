"""The package's public names: every ``__all__`` entry resolves, and every
public name a package imports is listed, so a deleted helper cannot stay
behind as a stale export."""

import importlib
from types import ModuleType

import pytest


@pytest.mark.parametrize("package", ["gplab.gpexpr", "gplab.realnum", "gplab.constructions"])
def test_all_lists_exactly_the_public_imports(package):
    mod = importlib.import_module(package)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    public = {
        name
        for name, value in vars(mod).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(mod.__all__)
