"""Package surfaces that import on first use (PEP 562).

A package calls :func:`lazy_surface` with its own ``globals()`` and a
table of the submodules and re-exported names it does not import up
front.  The returned ``__getattr__`` imports a name's module on the
first lookup and binds the result in the package namespace, so every
later lookup is a plain attribute read.  ``from package import name``
and ``from package import *`` go through the same hook.  The package
builds the lazy part of its ``__all__`` from the same table, so each
name is listed once.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, MutableMapping, Tuple

__all__ = ["lazy_surface"]


def lazy_surface(
    namespace: MutableMapping[str, Any],
    submodules: Iterable[str],
    exports: Mapping[str, Iterable[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are *namespace*.

    *submodules* are names of the package's own submodules, bound as
    the module itself.  *exports* maps a submodule, relative to the
    package (``".core"``), to the names it re-exports.
    """
    package = namespace["__name__"]
    origin: Dict[str, str] = {name: f"{package}.{name}" for name in submodules}
    modules = set(origin)
    for module, names in exports.items():
        origin.update(dict.fromkeys(names, f"{package}{module}"))

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module)
        if name not in modules:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
