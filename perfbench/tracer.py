"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` wraps every public function defined in a ``netevolve``
submodule (all but ``cli``, which is the entry point being timed) and
rebinds each wrapper wherever a module holds the original, so calls made
inside the program are caught too.  The layer of a span is the module that
defines the function.  Spans are kept in memory as
``[name, start, end, parent_index]`` and written by the caller once the run
ends.  Only single-threaded runs are traced: the span stack is not
thread-aware.

``summarize`` turns spans into per-layer and per-function totals and self
times.  A total counts only the outermost span of its layer (or function),
so recursion and same-layer nesting are not counted twice; a self time is
the span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time



def _ingest_counts(counts, result):
    records, warnings = result
    counts["ingest.rows"] = counts.get("ingest.rows", 0) + len(records) + len(warnings)
    counts["ingest.skipped"] = counts.get("ingest.skipped", 0) + len(warnings)


def _event_counts(counts, result):
    counts["ingest.events"] = counts.get("ingest.events", 0) + len(result[0])


# Counts read off return values, after the span has closed.
OBSERVERS = {
    "ingest.parse_edge_events_text": lambda c, r: (_ingest_counts(c, r), _event_counts(c, r)),
    "ingest.parse_publications_text": _ingest_counts,
    "ingest.expand_publications": _event_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "netevolve" or name.startswith("netevolve."))
        }
        wrappers = {}
        for name, module in modules.items():
            if name in ("netevolve", "netevolve.cli"):
                continue
            layer = name.split(".", 1)[1]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == name
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def summarize(spans: list[list]) -> dict:
    """Totals, self times and call counts per layer and per function."""
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    layers: dict[str, dict[str, float]] = {}
    functions: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        layer = layer_of[i]
        outer_layer = outer_function = True
        while parent is not None:
            outer_layer = outer_layer and layer_of[parent] != layer
            outer_function = outer_function and spans[parent][0] != name
            parent = spans[parent][3]
        lay = layers.setdefault(layer, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        fun = functions.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        lay["self_s"] += duration - child_time[i]
        fun["self_s"] += duration - child_time[i]
        lay["calls"] += 1
        fun["calls"] += 1
        if outer_layer:
            lay["total_s"] += duration
        if outer_function:
            fun["total_s"] += duration
    return {"layers": layers, "functions": functions}


def outermost_time(spans: list[list], counted) -> float:
    """Summed duration of spans for which ``counted(name)`` holds and that
    have no such span among their ancestors."""
    total = 0.0
    for name, start, end, parent in spans:
        if not counted(name):
            continue
        while parent is not None and not counted(spans[parent][0]):
            parent = spans[parent][3]
        if parent is None:
            total += end - start
    return total
