"""The package's public names: every exported name resolves."""

import importlib
import pkgutil

import pytest

import kirkman

MODULES = ["kirkman"] + sorted(f"kirkman.{m.name}" for m in pkgutil.iter_modules(kirkman.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_removed_rendering_settings_are_not_exported():
    from kirkman import audio, colors

    for gone in ("SynthConfig", "TilingSpec"):
        assert gone not in kirkman.__all__
        assert not any(hasattr(module, gone) for module in (kirkman, audio, colors))
