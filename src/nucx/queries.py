"""Decision and counting queries on reduced graphs.

Satisfiability and tautology are identity checks against the canonical
constant of matching arity (O(n), amortized O(1) once the constant
chain exists); equivalence is an identity check thanks to hash-consing.

Counting, witness search and enumeration read letters only through
``reduction.cofactors`` (counting also takes a run of ``U`` in one
step), and none recurses: counting runs on
``reduction.descend`` (a complement mark counts the complement, a run
of ``k`` ignored variables ``2^k`` times the count below it, a terminal
its value, anything else the sum over both cofactors),
``all_sat`` enumerates in lexicographic order from an explicit stack
over one shared path, and ``any_sat`` is its first valuation.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Optional

from .graph import FuncHandle, ManagerMismatchError
from .letters import N, U
from .reduction import cofactors, constant, descend, require_model


def is_sat(handle: FuncHandle) -> bool:
    """False iff the graph is the canonical all-zeros constant."""
    model = require_model(handle)
    zero = constant(model, handle.manager, 0, handle.edge.arity)
    return handle.edge is not zero


def is_taut(handle: FuncHandle) -> bool:
    """True iff the graph is the canonical all-ones constant."""
    model = require_model(handle)
    one = constant(model, handle.manager, 1, handle.edge.arity)
    return handle.edge is one


def equiv(a: FuncHandle, b: FuncHandle) -> bool:
    """Semantic equivalence as an identity comparison."""
    if a.manager is not b.manager:
        raise ManagerMismatchError(
            "cannot compare graphs from different managers")
    if require_model(a) != require_model(b):
        raise ValueError("cannot compare graphs reduced under "
                         "different models")
    return a.edge is b.edge


def count_sat(handle: FuncHandle) -> int:
    """Number of satisfying valuations (exact, arbitrary precision)."""
    model = require_model(handle)

    def skip(edge):
        while edge.letter is U:
            edge = edge.child
        return edge

    def split(item):
        edge = item[0]
        if edge.letter is N:
            return None, (edge.child,)
        if edge.letter is U:
            return None, (skip(edge),)
        if edge.letter is None and edge.node.lo is None:
            return edge.node.value
        lo, hi = cofactors(model, edge)
        return (lo,), (hi,)

    def flip(item, v):
        edge = item[0]
        if edge.letter is N:
            return (1 << edge.arity) - v
        # each ignored variable of the run doubles the count
        return v << edge.arity - skip(edge).arity

    return descend(handle.manager.cache("count"), (handle.edge,), split,
                   operator.add, flip)


def any_sat(handle: FuncHandle) -> Optional[tuple[int, ...]]:
    """The lexicographically least satisfying valuation, with ``x0``
    most significant, or ``None`` for the zero constant: the first
    valuation of :func:`all_sat`, so the same under every model."""
    return next(all_sat(handle), None)


def all_sat(handle: FuncHandle) -> Iterator[tuple[int, ...]]:
    """Lazily yield every satisfying valuation exactly once, in
    lexicographic order.

    The walk keeps one path of bits, cut back when it resumes a pending
    ``x = 1`` branch, so it holds O(n) state and each valuation costs
    O(n) steps beyond the one before it.
    """
    model = require_model(handle)
    manager = handle.manager

    def walk() -> Iterator[tuple[int, ...]]:
        path: list[int] = []
        # (depth, hi): the pending x = 1 branch at path[depth]; the walk
        # takes each x = 0 branch at once
        pending = []
        edge = handle.edge
        while True:
            arity = edge.arity
            if edge is constant(model, manager, 1, arity):
                prefix = tuple(path)
                yield from (prefix + suffix for suffix in
                            itertools.product((0, 1), repeat=arity))
            elif edge is not constant(model, manager, 0, arity):
                lo, hi = cofactors(model, edge)
                pending.append((len(path), hi))
                path.append(0)
                edge = lo
                continue
            if not pending:
                return
            depth, edge = pending.pop()
            del path[depth:]
            path.append(1)

    return walk()
