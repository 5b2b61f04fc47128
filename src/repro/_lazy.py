"""Lazy (PEP 562) re-exports for the package ``__init__`` modules.

A package names what it re-exports as ``{module: (name, ...)}``.  Each name
is imported from its module on first attribute access and then cached in
the package namespace, so ``import repro`` — or importing any one submodule,
which imports its parent packages first — loads nothing it does not use.
``from repro import Grass``, ``from repro import *`` and ``dir(repro)``
behave exactly as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair serving ``package``'s re-exports."""
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
