"""Every package's ``__all__`` resolves.

Each ``repro`` package declares its exports once, in the map it hands
to :func:`repro._exports.lazy_exports`, and ``__all__`` is derived from
that map.  A name resolves only when its module imports and defines
it, so resolving every ``__all__`` name catches a map entry left behind
by a deleted module or a renamed function.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _packages() -> list[str]:
    return ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]


@pytest.mark.parametrize("package", _packages())
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    names = module.__all__
    assert names, f"{package} exports nothing"
    assert len(set(names)) == len(names), f"{package} exports a name twice"
    for name in names:
        getattr(module, name)
        assert name in dir(module), f"{package}.{name}"

