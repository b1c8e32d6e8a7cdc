"""The benchmark's span recorder reaches the program through named module
attributes.  Renaming or removing one of them breaks only the traced
benchmark run, so the names are checked here against the live modules."""

import importlib.util
from pathlib import Path

from wlstrack import analysis, cli, estimator, io, simulation

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
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


def test_io_all_names_resolve():
    assert all(callable(getattr(io, name, None)) for name in io.__all__)
