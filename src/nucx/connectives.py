"""Boolean operations on reduced graphs.

Every binary connective runs through one memoized apply core, after
Brace, Rudell and Bryant (DAC 1990).  An operator is a 4-bit truth
table whose bit ``2a+b`` is ``op(a, b)``; the terminal cases (an operand
is a constant, or the operands are equal) are read off that table.
Every other pair splits both operands on the leading variable and
recombines the results through the normalized constructor, so results
stay reduced.  The walk is ``reduction.descend``, which does not
recurse; its memo is keyed on the operator and the edge identities,
with the operands of commutative operators ordered, so repeated
subproblems across calls are free.

In complement-bearing models negation is a constant-time mark toggle;
in mark-free models it is ``reduction.rebuild`` with parity 1.
"""

from __future__ import annotations

from functools import partial

from .graph import Edge, FuncHandle, Manager, ManagerMismatchError
from .oracle import ArityError
from .reduction import (
    ModelSpec,
    cofactors,
    cons_diamond,
    constant,
    descend,
    push_neg,
    rebuild,
    require_model,
)

#: Operator truth tables: bit ``2a+b`` is ``op(a, b)``.
_OPERATORS = {"and": 0b1000, "or": 0b1110, "xor": 0b0110, "implies": 0b1011}
_AND = _OPERATORS["and"]


def _require_pair(a: FuncHandle, b: FuncHandle) -> ModelSpec:
    model = require_model(a)
    if a.manager is not b.manager:
        raise ManagerMismatchError("operands live in different managers")
    if b.model != model:
        other = b.model.name if b.model is not None else "raw"
        raise ValueError(f"operands reduced under different models: "
                         f"{model.name} vs {other}")
    if a.edge.arity != b.edge.arity:
        raise ArityError(
            f"arity mismatch: {a.edge.arity} vs {b.edge.arity}")
    return model


def cofactor(v0: int, handle: FuncHandle) -> FuncHandle:
    """Restrict the first variable to ``v0``; one O(1) step on a
    reduced graph."""
    if handle.edge.arity < 1:
        raise ArityError("cannot cofactor a constant")
    model = require_model(handle)
    return FuncHandle(cofactors(model, handle.edge)[1 if v0 else 0],
                      model=model)


def _unary(model: ModelSpec, table: int, edge: Edge) -> Edge:
    """The reduced graph of ``v -> bit v of table`` applied to ``edge``:
    a constant, ``edge`` itself or its complement."""
    if table == 0b10:
        return edge
    if table == 0b01:
        if model.negation:
            return push_neg(edge)
        return rebuild(model, edge, 1)
    return constant(model, edge.manager, table & 1, edge.arity)


def negb(handle: FuncHandle) -> FuncHandle:
    """Complement; constant-time in complement-bearing models."""
    model = require_model(handle)
    return FuncHandle(_unary(model, 0b01, handle.edge), model=model)


def _apply(model: ModelSpec, op: int, x: Edge, y: Edge) -> Edge:
    """The reduced graph of ``op`` applied pointwise to ``x`` and ``y``."""
    manager = x.manager

    def pair(x: Edge, y: Edge) -> tuple:
        if (op >> 1 ^ op >> 2) & 1 == 0 and id(y) < id(x):   # commutative
            x, y = y, x
        return model, op, x, y

    def split(key):
        _, _, x, y = key
        arity = x.arity
        zero = constant(model, manager, 0, arity)
        one = constant(model, manager, 1, arity)
        a = 0 if x is zero else 1 if x is one else None
        b = 0 if y is zero else 1 if y is one else None
        # each terminal case does the same work for both operand orders
        # of a commutative operator, so the counters do not depend on id
        if a is not None and b is not None:
            return one if op >> (2 * a + b) & 1 else zero
        if a is not None:
            return _unary(model, op >> 2 * a & 3, y)
        if b is not None:
            return _unary(model, (op >> b & 1) | (op >> 1 >> b & 2), x)
        if x is y:
            return _unary(model, (op & 1) | (op >> 2 & 2), x)
        if op == _AND:
            manager.bump("andb_pairs")
        x0, x1 = cofactors(model, x)
        y0, y1 = cofactors(model, y)
        return pair(x0, y0), pair(x1, y1)

    return descend(manager.cache("apply"), pair(x, y), split,
                   partial(cons_diamond, model))


def apply(op: str, a: FuncHandle, b: FuncHandle) -> FuncHandle:
    """Binary connective: ``and``, ``or``, ``xor`` or ``implies``."""
    table = _OPERATORS.get(op)
    if table is None:
        raise ValueError(f"unknown operation {op!r}")
    model = _require_pair(a, b)
    return FuncHandle(_apply(model, table, a.edge, b.edge), model=model)


def andb(a: FuncHandle, b: FuncHandle) -> FuncHandle:
    """Conjunction of two reduced graphs from one manager."""
    return apply("and", a, b)


def projection(model: ModelSpec, manager: Manager, index: int,
               arity: int) -> FuncHandle:
    """Canonical graph of the variable ``x<index>`` at the given arity,
    built bottom-up through the normalized constructor."""
    if not 0 <= index < arity:
        raise ValueError(f"variable index {index} out of range for "
                         f"arity {arity}")
    rest = arity - index - 1
    edge = cons_diamond(model, constant(model, manager, 0, rest),
                        constant(model, manager, 1, rest))
    for _ in range(index):
        edge = cons_diamond(model, edge, edge)
    return FuncHandle(edge, model=model)


def build_expr(model: ModelSpec, ast, arity: int,
               manager: Manager) -> FuncHandle:
    """Evaluate an expression tree to a reduced graph.

    Nodes are tuples: ``("const", 0|1)``, ``("var", i)``, ``("not", e)``
    and ``("and"|"or"|"xor", e1, e2)``.  The walk is post-order, left
    operand first, on an explicit stack, so a deep tree (a long flat
    chain parses left-deep) cannot hit the recursion limit.
    """
    values: list[FuncHandle] = []
    stack = [(ast, False)]          # (node, operands already evaluated)
    while stack:
        node, ready = stack.pop()
        kind = node[0]
        if kind == "const":
            values.append(FuncHandle(constant(model, manager, node[1], arity),
                                     model=model))
        elif kind == "var":
            values.append(projection(model, manager, node[1], arity))
        elif kind not in ("not", "and", "or", "xor"):
            raise ValueError(f"unknown expression node {kind!r}")
        elif not ready:
            stack.append((node, True))
            stack.extend((operand, False) for operand in reversed(node[1:]))
        elif kind == "not":
            values.append(negb(values.pop()))
        else:
            right = values.pop()
            values.append(apply(kind, values.pop(), right))
    return values[0]
