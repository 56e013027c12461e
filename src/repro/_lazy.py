"""Lazy package exports (PEP 562 module ``__getattr__``).

Every package ``__init__`` except :mod:`repro.protocols` names its
public API in one table, submodule → exported names, and resolves a
name only when it is first accessed.  Importing a package therefore
costs one dictionary, and a ``repro`` process loads the submodules of
the subsystems it actually runs rather than the whole library.
"""

from __future__ import annotations

import sys
from typing import Any, Mapping


def exports(namespace: dict[str, Any],
            table: Mapping[str, tuple[str, ...]]) -> list[str]:
    """Make the package whose ``globals()`` is *namespace* resolve the
    names of *table* on first access; returns them as ``__all__``.

    *table* maps a submodule, relative to the package, to the names it
    exports.  A name equal to its submodule's own name exports that
    submodule.  A resolved value is stored in *namespace*, so later
    accesses are plain attribute reads.

    A package must not export a name that is also the name of one of
    its submodules unless that submodule is the export: importing the
    submodule binds it on the package and shadows the lazily resolved
    value.  :mod:`repro.protocols` (``coloring`` is a function and a
    module) stays eager for that reason.
    """
    package = namespace["__name__"]
    origin = {name: submodule for submodule, names in table.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        submodule = origin.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # ``__import__``, not ``importlib.import_module``: only the
        # former is seen by ``python -X importtime``.
        qualified = f"{package}.{submodule}"
        __import__(qualified)
        module = sys.modules[qualified]
        value = module if name == submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return list(origin)
