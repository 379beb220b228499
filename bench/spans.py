"""In-memory span tracing of dynframes from outside the package.

``Tracer.install()`` replaces every public function of every dynframes
module, wherever a module holds a reference to it (``from .x import f``
included), by a wrapper that records a span: name, start, end, parent and
the task it ran under. Nothing under ``src/`` changes. The runner opens its
own ``setup``, ``pass`` and ``task`` spans around the calls it makes, so a
layer's span can be attributed to the phase it ran in.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("spectral", "gram", "analysis", "discretize", "reconstruct", "catalog", "cli")

# Public functions left unwrapped: ``cli.run`` is the CLI layer under
# ``cli.main`` (input loading, the report and its JSON output), so its work
# stays in ``cli.main``'s self time.
UNWRAPPED = {"cli.run"}

# Work counts read off a layer's return value and stored on its span: grids
# tried by the doubling search, conjugate-gradient iterations.
COUNTERS = {
    "discretize.find_discretization": lambda result: result.iterations,
    "reconstruct.reconstruct": lambda result: result.solver_iterations,
}


class Tracer:
    def __init__(self):
        # one row per span: [name, start, end, parent index, task index, count]
        self.spans = []
        self._stack = []
        self._task = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._task, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        outer = self._task
        if name == "task":
            self._task = index
        try:
            yield
        finally:
            self._task = outer
            self._close(index)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.spans[index][5] = counter(result)
                return result
            finally:
                self._close(index)

        return traced

    def install(self) -> None:
        """Wrap each public function of the dynframes modules but ``UNWRAPPED``."""
        package = importlib.import_module("dynframes")
        modules = [importlib.import_module(f"dynframes.{m}") for m in MODULES]
        replacements = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and name not in UNWRAPPED):
                    replacements[id(fn)] = (fn, self.wrap(name, fn))
        for mod in [package, *modules]:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, task, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task, "count": count}) + "\n")

    def layer_totals(self, phase: str) -> tuple:
        """Per layer: calls, self seconds and counts, over spans inside ``phase``.

        Returns (totals, number of ``phase`` spans). A span's self time is
        its duration minus the durations of its direct children; children
        are nested and sequential, so that is the part no child covers.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        # a span's phase is the name of its outermost setup or pass span, so
        # the warm-up pass inside a set-up belongs to the set-up
        phase_of = {}
        for i, (name, _, _, parent, _, _) in enumerate(spans):
            outer = phase_of.get(parent) if parent is not None else None
            phase_of[i] = outer or (name if name in ("setup", "pass") else None)
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0})
        for i, (name, start, end, _, _, count) in enumerate(spans):
            if phase_of.get(i) != phase or name in ("setup", "pass", "task"):
                continue
            row = totals[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            if count is not None:
                row["count"] += count
        phases = sum(1 for name, _, _, parent, _, _ in spans if name == phase and parent is None)
        return totals, phases


def tracing(tracer):
    """``tracer.span`` when tracing, else a no-op context of the same shape."""
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span
