"""Every name that a module of the package lists in ``__all__`` exists.

The benchmark's tracer looks up each ``__all__`` entry by name, so one stale
entry breaks every traced run.
"""

import importlib
import pkgutil

import pytest

import dynframes

MODULES = [
    module
    for module in [dynframes] + [
        importlib.import_module(f"dynframes.{info.name}")
        for info in pkgutil.iter_modules(dynframes.__path__)
    ]
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_entry_exists(module):
    names = module.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(module, name)] == []
