"""Spans and call counters for the traced benchmark run.

The tracer patches public entry points of ``nucx`` with span-recording
wrappers and the hot inner functions with call counters.  Every module
namespace that holds a reference to a patched function gets the wrapper,
so calls between the library's own modules are seen too.  ``restore``
puts every original back.

A span is kept in memory as ``[name, start, end, parent, busy, child]``:
``busy`` is the time spent inside the call (for an iterator, the time
spent inside its ``next`` calls) and ``child`` the part of it covered by
nested spans, so self time is ``busy - child``.  Nothing is recorded
while ``active`` is false, which is how the benchmark keeps its own
correctness checks out of the trace.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from nucx import Manager, cli, connectives, graph, metrics, queries, reduction

#: (module, attribute, span name) of every traced public entry point.
#: ``apply`` spans are named after their operator, as
#: ``connectives.apply.and`` and so on.
ENTRY_POINTS = (
    (cli, "parse_expr", "cli.parse_expr"),
    (connectives, "projection", "connectives.projection"),
    (connectives, "apply", "connectives.apply"),
    (connectives, "negb", "connectives.negb"),
    (connectives, "cofactor", "connectives.cofactor"),
    (reduction, "compile_table", "reduction.compile_table"),
    (reduction, "reduce", "reduction.reduce"),
    (graph, "signature", "graph.signature"),
    (graph, "dot_export", "graph.dot_export"),
    (graph, "eval_handle", "graph.eval_handle"),
    (graph, "to_truth_table", "graph.to_truth_table"),
    (queries, "count_sat", "queries.count_sat"),
    (queries, "any_sat", "queries.any_sat"),
    (queries, "all_sat", "queries.all_sat"),
    (queries, "is_sat", "queries.is_sat"),
    (queries, "is_taut", "queries.is_taut"),
    (queries, "equiv", "queries.equiv"),
    (metrics, "measure", "metrics.measure"),
    (metrics, "node_count", "metrics.node_count"),
)

#: (module, attribute, counter name) of the counted hot inner functions.
HOT_FUNCTIONS = (
    (reduction, "cons_diamond", "reduction.cons_diamond_calls"),
    (reduction, "push_neg", "reduction.push_neg_calls"),
)

#: Manager memo tables whose sizes are read after every job.
MEMO_TABLES = ("const", "compile", "reduce", "negate")

#: Manager counters read after every job, with their metric names.
MANAGER_COUNTERS = (
    ("const_steps", "reduction.const_steps"),
    ("negb_recursions", "reduction.negb_recursions"),
    ("andb_pairs", "connectives.andb_pairs"),
)


def nucx_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "nucx" or name.startswith("nucx."))]


class Tracer:
    """Collects spans and counts while ``active``; see the module doc."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self._patched: list[tuple[object, str, object]] = []
        self._seen_edges: set = set()

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0, 0.0])
        self.stack.append(index)
        return index

    def _leave(self, index: int, started: float) -> None:
        end = perf_counter()
        self.stack.pop()
        span = self.spans[index]
        span[2] = end
        span[4] += end - started
        if span[3] >= 0:
            self.spans[span[3]][5] += end - started

    def _resume(self, index: int, inner):
        """Yield from ``inner``, timing every ``next`` into span ``index``."""
        while True:
            if not self.active:
                yield from inner
                return
            self.stack.append(index)
            started = perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._leave(index, started)
            yield item

    def _span_wrapper(self, name: str, fn):
        tracer = self
        per_operator = name == "connectives.apply"
        # all_sat does its work while the returned iterator is consumed
        lazy = name == "queries.all_sat"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._enter(f"{name}.{args[0]}" if per_operator
                                  else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(index, tracer.spans[index][1])
            return tracer._resume(index, iter(result)) if lazy else result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ------------------------------------------------------

    def _count_wrapper(self, counter: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _edge_wrapper(self, fn):
        tracer = self

        def edge(manager, word, node):
            found = fn(manager, word, node)
            if tracer.active:
                counts = tracer.counts
                counts["graph.edge_calls"] += 1
                if found not in tracer._seen_edges:
                    tracer._seen_edges.add(found)
                    counts["graph.unique_edges"] += 1
                    counts["graph.stored_letters"] += len(found.word)
            return found

        edge.__wrapped__ = fn
        return edge

    def _diamond_wrapper(self, fn):
        tracer = self

        def diamond(manager, lo, hi):
            if tracer.active:
                tracer.counts["graph.diamond_calls"] += 1
            return fn(manager, lo, hi)

        diamond.__wrapped__ = fn
        return diamond

    # -- patching ------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for module in nucx_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Patch the library; always pair with :meth:`restore`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, attr, name in ENTRY_POINTS:
            original = getattr(module, attr)
            self._patch_everywhere(original,
                                   self._span_wrapper(name, original))
        for module, attr, counter in HOT_FUNCTIONS:
            original = getattr(module, attr)
            self._patch_everywhere(original,
                                   self._count_wrapper(counter, original))
        for attr, make in (("edge", self._edge_wrapper),
                           ("diamond", self._diamond_wrapper)):
            original = vars(Manager)[attr]
            self._patched.append((Manager, attr, original))
            setattr(Manager, attr, make(original))

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        self.active = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- per-job state -------------------------------------------------

    def end_job(self, manager: Manager) -> None:
        """Read a finished job's public manager state (outside timing)."""
        counts = self.counts
        counts["graph.unique_diamonds"] += len(manager)
        for table in MEMO_TABLES:
            counts[f"reduction.memo_entries.{table}"] += len(
                manager.cache(table))
        for key, metric in MANAGER_COUNTERS:
            counts[metric] += manager.counters.get(key, 0)
        # once the manager is gone its edges' ids may be reused
        self._seen_edges.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name, summed over all spans."""
        totals: Counter = Counter()
        for name, _start, _end, _parent, busy, child in self.spans:
            totals[name] += busy - child
        return totals

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write_spans(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for index, (name, start, end, parent, busy, child) in enumerate(
                    self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "busy": busy, "self": busy - child,
                }) + "\n")
