"""Boolean operations on reduced graphs.

Every binary connective runs through one memoized apply core, after
Brace, Rudell and Bryant (DAC 1990).  An operator is a 4-bit truth
table whose bit ``2a+b`` is ``op(a, b)``; the terminal cases (an operand
is a constant, or the operands are equal) are read off that table.
Levels that both operands skip alike are one step, as in the classic
BDD level skip.  Each operand's leading ``U`` run is one link
(``graph``), so the core strips it in one step: the stripped pair
stands for its function at the larger of its operands' arities, the
other operand being padded with ``U`` up to it, and the common run
above that arity is one ``reduction.cons_run`` over the pair's value.
Under xor it also skips the levels where each operand is padded or
leads with ``X`` (``X`` in the result if one is padded, ``U``
otherwise; only where the model has both letters), kept as one word
of ``U`` run lengths and ``X`` letters and interned one link per step.
Every other pair splits on its leading variable the operands at its
arity, reuses a padded operand for both halves as it is, so a diamond
against a ``U`` run interns nothing, and recombines the results
through the normalized constructor, so results stay reduced.  The
split reads a diamond's children and the cofactors of ``X`` inline;
only the canalizing letters go through ``reduction.cofactors``.  The
walk is one loop over an explicit stack of pending splits, complements
and runs, so it does not recurse; its memo is keyed on the table and
two stripped, mark-free, id-ordered operands, so repeated subproblems
across calls are free.

A key is normalized as in complement-edge BDD packages: a leading
complement mark on an operand is folded into the table instead of kept
on the edge (``_NOT_A`` or ``_NOT_B``), the operand with the lower
``id`` comes first (``_SWAP`` transposes the table to match), and in
complement-bearing models a table with ``op(0, 0) = 1`` is the
complement of ``op ^ 15``.  So ``xor(~f, g)``, ``and(~f, ~g)`` and
``or(g, f)`` reuse the entries of ``xor(f, g)`` and ``or(f, g)``, and
no split complements a cofactor to build a key.

In complement-bearing models negation is a constant-time mark toggle;
in mark-free models it is ``reduction.rebuild`` with parity 1.
"""

from __future__ import annotations

from .graph import Edge, FuncHandle, Manager, ManagerMismatchError, Space
from .letters import N, U, X
from .oracle import ArityError
from .reduction import (
    ModelSpec,
    cofactors,
    cons_diamond,
    cons_run,
    constant,
    push_neg,
    rebuild,
    require_model,
)

#: Operator truth tables: bit ``2a+b`` is ``op(a, b)``.
_OPERATORS = {"and": 0b1000, "or": 0b1110, "xor": 0b0110, "implies": 0b1011}
_AND = _OPERATORS["and"]
_XOR = _OPERATORS["xor"]
_XNOR = _XOR ^ 15


def _tables(inputs) -> tuple[int, ...]:
    """Indexed by table ``op``: the table whose bit ``2a+b`` is
    ``op(*inputs(a, b))``."""
    def bit(op, a, b):
        return op >> 2 * a + b & 1
    return tuple(sum(bit(op, *inputs(a, b)) << 2 * a + b
                     for a in (0, 1) for b in (0, 1))
                 for op in range(16))


#: Indexed by ``op``: ``op`` with its first operand complemented
#: (``_NOT_A``), its second (``_NOT_B``), or its operands swapped
#: (``_SWAP``).
_NOT_A = _tables(lambda a, b: (1 - a, b))
_NOT_B = _tables(lambda a, b: (a, 1 - b))
_SWAP = _tables(lambda a, b: (b, a))

#: Frame kinds on the apply core's stack.
_SPLIT, _JOIN, _NEG, _RUN, _WORD = range(5)


def cofactor(v0: int, handle: FuncHandle) -> FuncHandle:
    """Restrict the first variable to ``v0``; one O(1) step on a
    reduced graph."""
    model = require_model(handle)
    edge = handle.edge
    if edge.arity < 1:
        raise ArityError("cannot cofactor a constant")
    return FuncHandle(cofactors(model, edge)[1 if v0 else 0], model=model)


def negb(handle: FuncHandle) -> FuncHandle:
    """Complement; constant-time in complement-bearing models."""
    model = require_model(handle)
    edge = handle.edge
    edge = push_neg(edge) if model.negation else rebuild(model, edge, 1)
    return FuncHandle(edge, model=model)


def _intern_run(manager: Manager, steps: list, edge: Edge) -> Edge:
    """The word ``steps`` (outermost first) interned over ``edge``: an
    int ``k`` is the run ``U^k``, one ``Manager.run`` call, and ``X`` is
    one ``Manager.edge`` call.  Both commute with the complement, so a
    leading mark on ``edge`` goes above them all, where ``cons_diamond``
    would pull it one level at a time, as ``reduction.cons_run`` moves
    it above a run."""
    mark = edge.letter is N
    if mark:
        edge = edge.child
    for step in reversed(steps):
        edge = (manager.edge(X, edge) if step is X
                else manager.run(step, edge))
    return manager.edge(N, edge) if mark else edge


def _unary(model: ModelSpec, space: Space, table: int, edge: Edge) -> Edge:
    """``v -> bit v of table`` applied to ``edge``, whose arity the
    constant rows of ``space`` reach."""
    if table == 0b10:
        return edge
    if table == 0b01:
        return push_neg(edge) if model.negation else rebuild(model, edge, 1)
    return (space.ones if table & 1 else space.zeros)[edge.arity]


def _apply(model: ModelSpec, op: int, x: Edge, y: Edge) -> Edge:
    """The reduced graph of ``op`` applied pointwise to ``x`` and ``y``.

    A pair is visited at an arity ``n`` that its operands reach once
    each is padded with ``U`` up to it, so a split reuses an operand it
    does not reach as it is.  The visit folds each operand's mark into
    the table, strips its leading ``U`` run and, under xor, the levels
    the module docstring names.  The stripped pair stands for one
    function at the larger arity ``m`` of its operands, so only it is
    memoized, on ``(id(x) << 64 | id(y)) << 4 | op``; the levels above
    ``m`` are interned over its value on each visit, which for a run of
    ``U`` is one lookup.  A split at ``m`` splits only the operands at
    ``m``.  ``andb_pairs`` counts the splits of a top-level ``and``,
    whatever table the normalized keys below it carry."""
    # apply's operands are handles, which keep the manager alive
    manager = x.owner()
    space = manager.space(model)
    memo = space.apply
    negation = model.negation
    not_a, not_b, swap = _NOT_A, _NOT_B, _SWAP
    count = op == _AND
    pairs = 0
    # fill both constant rows up to the operands' arity: every constant
    # below is then one index into them
    n = x.arity
    zeros, ones = space.zeros, space.ones
    if len(zeros) <= n:
        constant(model, manager, 0, n)
    if len(ones) <= n:
        constant(model, manager, 1, n)
    # each constant is a letter chain at every arity >= 1 or at none: if
    # both are chains, an operand ending at a diamond is no constant and
    # needs no terminal test (at arity 0 every operand is a terminal)
    chains = zeros[n].lo is None and ones[n].lo is None
    # a model without U has no run, and so no padded operand; an xor
    # level of X/X gives U, so an xor skips levels only with both
    runs = U in model.letters
    xor_runs = runs and X in model.letters

    # Pending work, innermost last, each frame tagged by its kind: a
    # split whose lo half is being computed and whose hi pair comes next,
    # a join of the hi half's value under ``lo``, a complement of the
    # value below, or a run or a word of skipped levels interned over
    # it.  A join or a complement writes the memo under ``key`` once its
    # value is in.
    stack = []
    while True:
        # the pair (op, x, y) at arity n: fold its marks into the table
        # and strip its leading U runs, and under xor also the levels
        # where each operand is padded or leads with X (the result
        # leads with X there if one is padded, else with U)
        word = None
        run = 0
        while True:
            if x.letter is N:
                x = x.child
                op = not_a[op]
            if y.letter is N:
                y = y.child
                op = not_b[op]
            if not runs:
                m = n
                break
            if x.letter is U:
                x = x.child
            if y.letter is U:
                y = y.child
            a = x.arity
            b = y.arity
            m = a if a > b else b
            # a constant operand (arity 0 once stripped) or equal
            # operands are a leaf below, read off the table
            if not (xor_runs and (op == _XOR or op == _XNOR) and a and b
                    and x is not y):
                break
            p = x.letter if a == m else U
            q = y.letter if b == m else U
            if not ((p is X or p is U) and (q is X or q is U)):
                break
            # the padding above m and an X/X level add to the run; an
            # X level ends it
            run += n - m
            if p is q:
                run += 1
            else:
                if word is None:
                    word = []
                if run:
                    word.append(run)
                    run = 0
                word.append(X)
            if p is X:
                x = x.child
            if q is X:
                y = y.child
            n = m - 1
        run += n - m
        if word is not None:
            if run:
                word.append(run)
            stack.append((_WORD, word))
        elif run:
            stack.append((_RUN, run))
        # order the operands by id and look the pair up
        i = id(x)
        j = id(y)
        if j < i:
            x, y, i, j = y, x, j, i
            op = swap[op]
        key = (i << 64 | j) << 4 | op
        value = memo.get(key)
        # x is y is a leaf below; its key's table depends on the order the
        # operands came in, so it must not be memoized through a flip
        if value is None and op & 1 and negation and i != j:
            stack.append((_NEG, key))
            key ^= 15
            op ^= 15
            value = memo.get(key)
        if value is None:
            # a leaf: a constant operand or equal operands, read off the
            # table and never memoized; an operand is compared with the
            # constants of its own arity
            if not chains or x.lo is None or y.lo is None:
                a = x.arity
                b = y.arity
                a = 0 if x is zeros[a] else 1 if x is ones[a] else None
                b = 0 if y is zeros[b] else 1 if y is ones[b] else None
                if a is not None and b is not None:
                    value = (ones if op >> 2 * a + b & 1 else zeros)[m]
                elif a is not None:
                    value = _unary(model, space, op >> 2 * a & 3, y)
                elif b is not None:
                    value = _unary(model, space,
                                   op >> b & 1 | op >> 1 >> b & 2, x)
            if value is None and i == j:
                value = _unary(model, space, op & 1 | op >> 2 & 2, x)
        if value is None:
            if count:
                pairs += 1
            # split the operands at arity m on their leading variable:
            # both cofactors of a padded operand are itself, and the hi
            # cofactor of X.c is ~c, so its mark goes into the hi table
            op1 = op
            if x.arity == m:
                a = x.letter
                if a is None:
                    x0, x1 = x.lo, x.hi
                elif a is X:
                    x0 = x1 = x.child
                    op1 = not_a[op1]
                else:
                    x0, x1 = cofactors(model, x)
            else:
                x0 = x1 = x
            if y.arity == m:
                b = y.letter
                if b is None:
                    y0, y1 = y.lo, y.hi
                elif b is X:
                    y0 = y1 = y.child
                    op1 = not_b[op1]
                else:
                    y0, y1 = cofactors(model, y)
            else:
                y0 = y1 = y
            n = m - 1
            stack.append((_SPLIT, key, op1, x1, y1, n))
            x, y = x0, y0
            continue
        # hand the value up until a split needs its hi half next
        while stack:
            frame = stack.pop()
            tag = frame[0]
            if tag == _SPLIT:
                _, key, op, x, y, n = frame
                stack.append((_JOIN, key, value))
                break
            if tag == _RUN:
                value = cons_run(model, manager, frame[1], value)
                continue
            if tag == _WORD:
                value = _intern_run(manager, frame[1], value)
                continue
            if tag == _NEG:
                value = push_neg(value)
            else:
                value = cons_diamond(model, manager, frame[2], value)
            memo[frame[1]] = value
        else:
            break
    if pairs:
        manager.bump("andb_pairs", pairs)
    return value


def apply(op: str, a: FuncHandle, b: FuncHandle) -> FuncHandle:
    """Binary connective: ``and``, ``or``, ``xor`` or ``implies``."""
    table = _OPERATORS.get(op)
    if table is None:
        raise ValueError(f"unknown operation {op!r}")
    model = require_model(a)
    if a.manager is not b.manager:
        raise ManagerMismatchError("operands live in different managers")
    if b.model != model:
        other = b.model.name if b.model is not None else "raw"
        raise ValueError(f"operands reduced under different models: "
                         f"{model.name} vs {other}")
    x = a.edge
    y = b.edge
    if x.arity != y.arity:
        raise ArityError(f"arity mismatch: {x.arity} vs {y.arity}")
    return FuncHandle(_apply(model, table, x, y), model=model)


def projection(model: ModelSpec, manager: Manager, index: int,
               arity: int) -> FuncHandle:
    """Canonical graph of the variable ``x<index>`` at the given arity.

    The level of ``x<index>`` is built through the normalized
    constructor, and the ``index`` levels above it, which ignore their
    variable, through ``cons_run``: one run link where the model has
    ``U``, else one diamond per level."""
    if not 0 <= index < arity:
        raise ValueError(f"variable index {index} out of range for "
                         f"arity {arity}")
    rest = arity - index - 1
    space = manager.space(model)
    zeros, ones = space.zeros, space.ones
    if len(zeros) <= rest:
        constant(model, manager, 0, rest)
    if len(ones) <= rest:
        constant(model, manager, 1, rest)
    edge = cons_diamond(model, manager, zeros[rest], ones[rest])
    return FuncHandle(cons_run(model, manager, index, edge), model=model)


def build_expr(model: ModelSpec, ast, arity: int,
               manager: Manager) -> FuncHandle:
    """Evaluate an expression tree to a reduced graph.

    Nodes are tuples: ``("const", 0|1)``, ``("var", i)``, ``("not", e)``
    and ``("and"|"or"|"xor", e1, e2)``.  Each run of one associative
    operator (a flat chain parses left-deep) is flattened into its
    operands, which are evaluated left to right and then folded
    pairwise, so its merges are balanced.  The walk is post-order on an
    explicit stack, so a deep tree cannot hit the recursion limit.
    """
    values: list[FuncHandle] = []
    stack = [(ast, 0)]          # (node, its operand count once evaluated)
    while stack:
        node, count = stack.pop()
        kind = node[0]
        if count:
            operands = values[-count:]
            del values[-count:]
            if kind == "not":
                values.append(negb(operands[0]))
                continue
            while len(operands) > 1:
                folded = [apply(kind, a, b)
                          for a, b in zip(operands[::2], operands[1::2])]
                operands = folded + operands[len(folded) * 2:]
            values.append(operands[0])
        elif kind == "const":
            values.append(FuncHandle(constant(model, manager, node[1], arity),
                                     model=model))
        elif kind == "var":
            values.append(projection(model, manager, node[1], arity))
        elif kind not in ("not", "and", "or", "xor"):
            raise ValueError(f"unknown expression node {kind!r}")
        else:
            operands = [node[1]]
            if kind != "not":
                operands, run = [], [node]
                while run:
                    part = run.pop()
                    if part[0] == kind:
                        run.extend(reversed(part[1:]))
                    else:
                        operands.append(part)
            stack.append((node, len(operands)))
            stack.extend((operand, 0) for operand in reversed(operands))
    return values[0]
