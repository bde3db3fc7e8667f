"""Decision and counting queries on reduced graphs.

Satisfiability and tautology are identity checks against the canonical
constant of matching arity (O(n), amortized O(1) once the constant
chain exists); equivalence is an identity check thanks to hash-consing.

No query recurses, and none interns an edge beyond the model's constant
rows: each reads the letters itself.  ``count_sat`` is Bryant's
satisfy-count as one post-order loop, with one count rule per letter.
``all_sat`` enumerates in lexicographic order from an explicit stack
over one shared path, carrying a complement parity as
``graph.eval_handle`` does, and ``any_sat`` is its first valuation.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .graph import FuncHandle, ManagerMismatchError
from .letters import N, U, X
from .reduction import constant, require_model


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
    """Number of satisfying valuations (exact, arbitrary precision).

    Memoized per manager in the ``count`` cache, keyed on the edge, but
    for a diamond below the root that is in a constant row of the model:
    it is read off the row, as ``s`` and ``o-c10`` build constants as
    towers of diamonds, and a k-bit count per level would hold Θ(n²)."""
    zeros, ones = handle.manager.space(require_model(handle)).rows
    memo = handle.manager.cache("count")
    get = memo.get

    def fixed(edge):
        # the count of a diamond in a constant row, else None
        k = edge.arity
        if edge.letter is None and k:
            if k < len(ones) and ones[k] is edge:
                return 1 << k
            if k < len(zeros) and zeros[k] is edge:
                return 0

    edge = handle.edge
    count = get(edge)
    # A post-order walk on an explicit stack, as ``graph.edge_mask`` is:
    # the edge on top is done once the counts it needs are in ``memo``,
    # and until then the missing edges go on top of it.  Below a letter
    # is a function of k variables and count c.
    stack = [edge] if count is None else []
    push = stack.append
    pop = stack.pop
    while stack:
        edge = stack[-1]
        letter = edge.letter
        if letter is None:
            lo = edge.lo
            if lo is None:
                count = edge.value
            else:
                hi = edge.hi
                a = get(lo)
                if a is None:
                    a = fixed(lo)
                b = get(hi)
                if b is None:
                    b = fixed(hi)
                if a is None or b is None:
                    if b is None:
                        push(hi)
                    if a is None:
                        push(lo)
                    continue
                count = a + b
        elif letter is X:
            count = 1 << edge.child.arity       # 2^k, whatever c is
        else:
            below = edge.child
            count = get(below)
            if count is None:
                count = fixed(below)
                if count is None:
                    push(below)
                    continue
            if letter is U:
                count <<= edge.arity - below.arity  # c << k for U^k
            elif letter is N:
                count = (1 << below.arity) - count  # 2^k - c
            elif letter.const:
                count += 1 << below.arity       # c + t * 2^k, forcing t
        pop()
        memo[edge] = count
    return count


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
    O(n) steps beyond the one before it.  A run of ``U`` is walked one
    level at a time: its link stays the edge at hand until the path has
    passed all but its last level.
    """
    model = require_model(handle)
    manager = handle.manager

    def walk() -> Iterator[tuple[int, ...]]:
        # both constant rows reach the root's arity, so each step is two
        # identity checks against them, and a canalizing letter's forced
        # half is read from them
        arity = handle.edge.arity
        constant(model, manager, 1, arity)
        constant(model, manager, 0, arity)
        rows = manager.space(model).rows
        path: list[int] = []
        # (depth, hi, parity), flat, with no tuple per level: the
        # pending x = 1 branch at path[depth].  The function at hand is
        # the edge's, complemented when ``parity`` is 1, as in
        # ``eval_handle``: a mark is a step.  It has ``size - len(path)``
        # variables, fewer than the edge's arity only inside a run of U,
        # which is a constant iff its child is.
        size = arity
        pending = []
        edge = handle.edge
        parity = 0
        while True:
            arity = edge.arity
            if edge is rows[1 ^ parity][arity]:
                free = size - len(path)
                if free:
                    prefix = tuple(path)
                    yield from (prefix + suffix
                                for suffix in itertools.product(
                                    (0, 1), repeat=free))
                else:
                    yield tuple(path)
            elif edge is not rows[parity][arity]:
                letter = edge.letter
                if letter is N:
                    edge = edge.child
                    parity ^= 1
                    continue
                if letter is None:
                    lo, hi = edge.lo, edge.hi
                else:
                    lo = hi = edge.child
                    if letter is U:
                        if edge.child.arity < size - len(path) - 1:
                            lo = hi = edge
                    elif letter is not X:
                        const = rows[letter.const][arity - 1]
                        lo, hi = (lo, const) if letter.branch else (const, hi)
                pending += (len(path), hi, parity ^ (letter is X))
                path.append(0)
                edge = lo
                continue
            if not pending:
                return
            parity = pending.pop()
            edge = pending.pop()
            del path[pending.pop():]
            path.append(1)

    return walk()
