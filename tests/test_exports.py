"""Public names: everything a module exports in ``__all__`` exists."""

import importlib
import pkgutil

import skewforms


def test_every_exported_name_resolves():
    modules = [skewforms] + [importlib.import_module(f"skewforms.{info.name}")
                             for info in pkgutil.iter_modules(skewforms.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    assert len(modules) > 1
    assert missing == []
