"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each module boundary: the
recorder replaces a public function in every module namespace where a caller
looks it up (``wlstrack.simulation.update``, ``wlstrack.cli.update``, ...)
and restores the originals afterwards.  Calls to ``numpy.linalg.svd`` and
``numpy.linalg.eigvalsh`` are counted, not timed, under their parent span.
Spans stay in memory; self times are computed once the traced body ends.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Span name -> the (module, attribute) slots through which callers reach it.
# MeasurementBatch is traced through its __init__, which runs validation.
_FUNCTIONS = {
    "estimator.update": [("estimator", "update"), ("simulation", "update"), ("cli", "update")],
    "estimator.information_matrix": [("estimator", "information_matrix"), ("analysis", "information_matrix")],
    "estimator.lambda_matrix": [("estimator", "lambda_matrix"), ("analysis", "lambda_matrix")],
    "simulation.generate_sequence": [("simulation", "generate_sequence")],
    "simulation.simulate_run": [("simulation", "simulate_run")],
    "simulation.monte_carlo": [("simulation", "monte_carlo")],
    "simulation.generate_trajectory": [("simulation", "generate_trajectory")],
    "simulation.generate_noise": [("simulation", "generate_noise")],
    "analysis.smallest_nonzero_eig": [("analysis", "smallest_nonzero_eig")],
    "analysis.ensemble_constants": [("analysis", "ensemble_constants")],
    "analysis.psi": [("analysis", "psi")],
    "analysis.observability_window": [("analysis", "observability_window")],
    "analysis.bound_report": [("analysis", "bound_report")],
    "analysis.gamma_star_stochastic": [("analysis", "gamma_star_stochastic")],
    "io.batch_from_dict": [("io", "batch_from_dict")],
    "io.ensemble_from_dict": [("io", "ensemble_from_dict")],
    "cli.main": [("cli", "main")],
}
# Generators: a span covers each next() on the returned iterator.
_GENERATORS = {"io.iter_batches_jsonl": [("io", "iter_batches_jsonl")]}
_COUNTED = ("svd", "eigvalsh")


class Recorder:
    """Records spans as [name, parent index, start ns, end ns] rows."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (counted function, parent span name) -> calls
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, perf_counter_ns(), 0])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][3] = perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return wrapper

    def _count(self, kind, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.spans[self.stack[-1]][0] if self.stack else "-"
            self.counts[(kind, parent)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, modules: dict, linalg) -> None:
        """Patch every traced slot; `modules` maps short names to wlstrack modules."""
        io_module, batch_class = modules["io"], modules["estimator"].MeasurementBatch
        for table, wrap in ((_FUNCTIONS, self._wrap), (_GENERATORS, self._wrap_generator)):
            for name, slots in table.items():
                original = getattr(modules[slots[0][0]], slots[0][1])
                wrapped = wrap(name, original)
                for module, attr in slots:
                    self._patch(modules[module], attr, wrapped)
        for attr in io_module.__all__:
            if attr.startswith("write_"):
                self._patch(io_module, attr, self._wrap(f"io.{attr}", getattr(io_module, attr)))
        self._patch(batch_class, "__init__", self._wrap("estimator.MeasurementBatch", batch_class.__init__))
        for kind in _COUNTED:
            self._patch(linalg, kind, self._count(kind, getattr(linalg, kind)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; the spans nest on one thread, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, _, start, end), inner in zip(self.spans, child_ns):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - inner) * 1e-9
        return dict(out)

    def count(self, kind: str, parent: str) -> int:
        return self.counts[(kind, parent)]
