"""Lazy package facades (PEP 562).

A facade package re-exports names its submodules define.  Importing all
of them when the package loads makes every ``import repro.x.y`` pay for
the whole package.  :func:`lazy_facade` gives the package a module
``__getattr__`` instead: the first read of a public name imports the
submodule that defines it and binds the name on the package, so a
process imports only what it uses.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Dict, Sequence


def lazy_facade(package: str, exports: Dict[str, Sequence[str]]) -> None:
    """Resolve the public names of ``package`` on first access.

    ``exports`` maps each submodule, by its name within the package, to
    the names the package re-exports from it; the submodule's own name
    resolves to the submodule.  The re-exported names, in map order,
    become the package's ``__all__``.  A public name that is also the
    name of the submodule defining it (``repro.sim.trace``) keeps naming
    the public object: the import system binds every submodule it loads
    on its package, and the package ignores that binding for such a
    name.
    """
    module = sys.modules[package]
    origin = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in origin:
            source = importlib.import_module(f"{package}.{origin[name]}")
            value = getattr(source, name)
        elif name in exports:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(module, name, value)
        return value

    def __dir__():
        return sorted({*vars(module), *origin, *exports})

    module.__getattr__ = __getattr__
    module.__dir__ = __dir__
    module.__all__ = list(origin)
    shadowed = origin.keys() & exports.keys()
    if shadowed:
        class Facade(ModuleType):
            def __setattr__(self, name, value):
                if not (name in shadowed and isinstance(value, ModuleType)):
                    super().__setattr__(name, value)

        module.__class__ = Facade
