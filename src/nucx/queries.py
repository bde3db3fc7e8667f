"""Decision and counting queries on reduced graphs.

Satisfiability and tautology are identity checks against the canonical
constant of matching arity (O(n), amortized O(1) once the constant
chain exists); equivalence is an identity check thanks to hash-consing;
counting is a memoized structural recursion over distinct edges.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .graph import Edge, FuncHandle, Manager, ManagerMismatchError
from .letters import N, U, X
from .reduction import ModelSpec, constant, require_model


def is_sat(handle: FuncHandle) -> bool:
    """False iff the graph is the canonical all-zeros constant."""
    model = require_model(handle)
    manager = handle.manager
    before = manager.counters.get("const_steps", 0)
    zero = constant(model, manager, 0, handle.arity)
    steps = manager.counters.get("const_steps", 0) - before + 1
    manager.bump("is_sat_steps", steps)
    return handle.edge is not zero


def is_taut(handle: FuncHandle) -> bool:
    """True iff the graph is the canonical all-ones constant."""
    model = require_model(handle)
    one = constant(model, handle.manager, 1, handle.arity)
    return handle.edge is one


def equiv(a: FuncHandle, b: FuncHandle) -> bool:
    """Semantic equivalence as an identity comparison."""
    if a.manager is not b.manager:
        raise ManagerMismatchError(
            "cannot compare graphs from different managers")
    if require_model(a) != require_model(b):
        raise ValueError("cannot compare graphs reduced under "
                         "different models")
    return a.edge is b.edge and a.arity == b.arity


def count_sat(handle: FuncHandle) -> int:
    """Number of satisfying valuations (exact, arbitrary precision)."""
    require_model(handle)
    return _count(handle.edge, handle.manager)


def _count(edge: Edge, manager: Manager) -> int:
    cache = manager.cache("count")
    found = cache.get(edge)
    if found is not None:
        return found
    word = edge.word
    arity = edge.arity
    if word:
        rest = manager.edge(word[1:], edge.node)
        first = word[0]
        if first is N:
            result = (1 << arity) - _count(rest, manager)
        elif first is U:
            result = 2 * _count(rest, manager)
        elif first is X:
            result = 1 << (arity - 1)
        elif first.const:
            result = (1 << (arity - 1)) + _count(rest, manager)
        else:
            result = _count(rest, manager)
    else:
        node = edge.node
        if node.lo is None:
            result = node.value
        else:
            result = _count(node.lo, manager) + _count(node.hi, manager)
    cache[edge] = result
    return result


def _const_value(edge: Edge, model: ModelSpec,
                 manager: Manager) -> Optional[int]:
    if edge is constant(model, manager, 0, edge.arity):
        return 0
    if edge is constant(model, manager, 1, edge.arity):
        return 1
    return None


def any_sat(handle: FuncHandle) -> Optional[tuple[int, ...]]:
    """One satisfying valuation, found by a single root-to-terminal
    descent, or ``None`` for the zero constant."""
    model = require_model(handle)
    manager = handle.manager
    if handle.edge is constant(model, manager, 0, handle.arity):
        return None
    out: list[int] = []
    edge = handle.edge
    goal = 1            # value the remaining subfunction must reach
    remaining = handle.arity
    while True:
        word = edge.word
        for i, letter in enumerate(word):
            if letter is N:
                goal ^= 1
            elif letter is U:
                out.append(0)
                remaining -= 1
            elif letter is X:
                rest = manager.edge(word[i + 1:], edge.node)
                value = _const_value(rest, model, manager)
                pick = 0 if value is None or value == goal else 1
                out.append(pick)
                goal ^= pick
                remaining -= 1
            else:
                if letter.const == goal:
                    out.append(letter.branch)
                    remaining -= 1
                    out.extend([0] * remaining)
                    return tuple(out)
                out.append(1 - letter.branch)
                remaining -= 1
        node = edge.node
        if node.lo is None:
            assert node.value == goal, "descent reached the wrong terminal"
            return tuple(out)
        value = _const_value(node.lo, model, manager)
        if value is None or value == goal:
            out.append(0)
            edge = node.lo
        else:
            out.append(1)
            edge = node.hi
        remaining -= 1


def all_sat(handle: FuncHandle) -> Iterator[tuple[int, ...]]:
    """Lazily yield every satisfying valuation exactly once, in
    lexicographic order; total work O(n * count)."""
    model = require_model(handle)
    manager = handle.manager

    def gen(edge: Edge, parity: int) -> Iterator[tuple[int, ...]]:
        value = _const_value(edge, model, manager)
        if value is not None:
            if value ^ parity:
                yield from itertools.product((0, 1), repeat=edge.arity)
            return
        word = edge.word
        if word:
            first = word[0]
            rest = manager.edge(word[1:], edge.node)
            if first is N:
                yield from gen(rest, parity ^ 1)
            elif first is U:
                for x in (0, 1):
                    for suffix in gen(rest, parity):
                        yield (x,) + suffix
            elif first is X:
                for x in (0, 1):
                    for suffix in gen(rest, parity ^ x):
                        yield (x,) + suffix
            else:
                for x in (0, 1):
                    if x == first.branch:
                        if first.const ^ parity:
                            for suffix in itertools.product(
                                    (0, 1), repeat=rest.arity):
                                yield (x,) + suffix
                    else:
                        for suffix in gen(rest, parity):
                            yield (x,) + suffix
            return
        node = edge.node
        if node.lo is None:       # non-constant edges never land here,
            if node.value ^ parity:  # but stay total just in case
                yield ()
            return
        for x, child in ((0, node.lo), (1, node.hi)):
            for suffix in gen(child, parity):
                yield (x,) + suffix

    return gen(handle.edge, 0)
