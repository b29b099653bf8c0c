"""Lazy package exports (PEP 562).

A package ``__init__`` names the submodule that defines each name it
re-exports; the submodule is imported on the name's first access and
the value bound in the package namespace, so later lookups are plain
attribute reads.  Importing a package thus loads none of its
submodules, and a process loads only the modules whose names it uses.
Concurrent first accesses are serialised by the import system's
per-module lock, and binding the same object twice is harmless.
"""

from importlib import import_module
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, Sequence[str]],
                 submodules: Sequence[str] = ()
                 ) -> Tuple[List[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module, relative to the package as in a
    ``from .module import name`` statement, to the names it defines
    that the package re-exports; ``submodules`` are re-exported as
    modules.  A name spelled like its own submodule (``numa.numastat``)
    is bound at once: a direct import of that submodule would otherwise
    leave the module, not the name, on the package.
    ``__getattr__.homes`` maps each name to its module (``None`` for a
    submodule).
    """
    homes: Dict[str, Optional[str]] = {
        name: module for module, names in exports.items() for name in names}
    homes.update(dict.fromkeys(submodules))
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        if home is None:
            value = import_module("." + name, package)
        else:
            value = getattr(import_module(home, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(homes))

    __getattr__.homes = homes
    for name, home in homes.items():
        if home == "." + name:
            __getattr__(name)
    return list(homes), __getattr__, __dir__
