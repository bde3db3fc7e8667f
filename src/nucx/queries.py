"""Decision and counting queries on reduced graphs.

Satisfiability and tautology are identity checks against the canonical
constant of matching arity (O(n), amortized O(1) once the constant
chain exists); equivalence is an identity check thanks to hash-consing.

Counting, witness search and enumeration read letters only through
``reduction.cofactors``, apart from the steps each loop takes inline,
and none recurses.  ``count_sat`` is one loop on an explicit stack of
its own: a terminal counts its value, a complement mark the complement
of the count below it, a run of ``k`` ignored variables ``2^k`` times
the count below it (one shift), and anything else the sum over both
cofactors.  ``all_sat`` enumerates in lexicographic order from an
explicit stack over one shared path, and ``any_sat`` is its first
valuation.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .graph import FuncHandle, ManagerMismatchError
from .letters import N, U
from .reduction import cofactors, constant, require_model


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


#: Frame kinds on ``count_sat``'s stack.
_SPLIT, _JOIN, _NEG, _SHIFT = range(4)


def count_sat(handle: FuncHandle) -> int:
    """Number of satisfying valuations (exact, arbitrary precision).

    Memoized per manager in the ``count`` cache, keyed on the edge;
    terminals are not memoized, and neither are the inner links of a
    ``U`` run, which is taken in one step."""
    model = require_model(handle)
    memo = handle.manager.cache("count")
    edge = handle.edge
    # Pending work, innermost last, as (kind, edge, extra): a split whose
    # lo half is being counted and whose hi edge comes next, a join of
    # the hi half's count with the lo count, a complement, or a shift by
    # the length of a run.  All but a split write the memo under their
    # edge once its count is in.
    stack = []
    push = stack.append
    pop = stack.pop
    while True:
        value = memo.get(edge)
        if value is None:
            letter = edge.letter
            if letter is None:
                node = edge.node
                lo = node.lo
                if lo is not None:
                    push((_SPLIT, edge, node.hi))
                    edge = lo
                    continue
                # a terminal: a leaf, never memoized
                value = node.value
            elif letter is N:
                push((_NEG, edge, None))
                edge = edge.child
                continue
            elif letter is U:
                below = edge.child
                while below.letter is U:
                    below = below.child
                # each ignored variable of the run doubles the count
                push((_SHIFT, edge, edge.arity - below.arity))
                edge = below
                continue
            else:
                lo, hi = cofactors(model, edge)
                push((_SPLIT, edge, hi))
                edge = lo
                continue
        # hand the count up until a split needs its hi half next
        while stack:
            kind, key, extra = pop()
            if kind == _SPLIT:
                push((_JOIN, key, value))
                edge = extra
                break
            if kind == _JOIN:
                value += extra
            elif kind == _SHIFT:
                value <<= extra
            else:
                value = (1 << key.arity) - value
            memo[key] = value
        else:
            return value


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
        # both constant rows reach the root's arity, so each step is two
        # identity checks against the rows
        arity = handle.edge.arity
        constant(model, manager, 1, arity)
        constant(model, manager, 0, arity)
        space = manager.space(model)
        zeros, ones = space.zeros, space.ones
        path: list[int] = []
        # (depth, hi): the pending x = 1 branch at path[depth]; the walk
        # takes each x = 0 branch at once
        pending = []
        edge = handle.edge
        while True:
            arity = edge.arity
            if edge is ones[arity]:
                prefix = tuple(path)
                yield from (prefix + suffix for suffix in
                            itertools.product((0, 1), repeat=arity))
            elif edge is not zeros[arity]:
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
