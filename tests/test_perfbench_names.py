"""The benchmark's span recorder reaches the program through named module
attributes.  Renaming or removing one of them breaks only the traced
benchmark run, so the names are checked here against the live modules.
So are the public names: a stale `__all__` entry breaks only
`from module import *`, so a deletion could leave one behind unnoticed."""

import ast
import importlib.util
from pathlib import Path

import pytest

import wlstrack
from wlstrack import analysis, cli, estimator, io, simulation

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE_INIT = Path(wlstrack.__file__)
MODULES = {"estimator": estimator, "simulation": simulation, "analysis": analysis, "io": io, "cli": cli}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_slots_resolve_to_one_callable_each():
    spans = load_spans()
    for table in (spans._FUNCTIONS, spans._GENERATORS):
        for name, slots in table.items():
            targets = [getattr(MODULES[module], attr, None) for module, attr in slots]
            assert all(callable(t) for t in targets), f"{name}: unresolved slot in {slots}"
            assert all(t is targets[0] for t in targets), f"{name}: slots {slots} differ"


@pytest.mark.parametrize(
    "module", [m for m in MODULES.values() if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    unresolved = [name for name in module.__all__ if not hasattr(module, name)]
    assert unresolved == []
    # Every public name is a callable, or a constant named in capitals.
    assert all(callable(getattr(module, name)) or name.isupper() for name in module.__all__)


def test_package_imports_only_public_names():
    for node in ast.parse(PACKAGE_INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = MODULES[node.module]
            for alias in node.names:
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"
                assert getattr(wlstrack, alias.name) is getattr(module, alias.name)
