"""Lazy package exports: each name loads its module on first use.

Every ``repro`` package re-exports the public names of its modules,
but a process needs only some of them: a ``build`` never touches the
serving stack and a server never runs an experiment.  A package
declares once what it exports and where each name lives, and
:func:`lazy_exports` turns that into the module-level ``__getattr__``
and ``__dir__`` of PEP 562 and the package's ``__all__``, so
``from repro.core import InflexIndex`` imports :mod:`repro.core.index`
and nothing else of the package.

Importing a submodule binds it in its package under its own name, over
any lazily exported name it shares, so a package imports such a name
up front instead (``repro.clustering.gmeans``).
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The ``(__getattr__, __dir__, __all__)`` of a lazily exporting package.

    ``exports`` maps each defining module to the names the package
    exports from it, and the package itself to the submodules it
    exports as modules.  A resolved name is stored in the
    package namespace, so it is looked up once.  Any other name (but a
    dunder) resolves to the package's submodule of that name, if there
    is one.  ``__all__`` lists the mapped names in map order; a name
    the package binds itself is appended to it there.
    """
    namespace = sys.modules[package].__dict__
    where = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        module = where.get(name)
        if module is None and not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module == package:
            value = import_module(f"{package}.{name}")
        else:
            value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    exported = [name for names in exports.values() for name in names]
    return __getattr__, __dir__, exported
