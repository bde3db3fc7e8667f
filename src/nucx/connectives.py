"""Boolean operations on reduced graphs.

Every binary connective runs through one memoized apply core, after
Brace, Rudell and Bryant (DAC 1990).  An operator is a 4-bit truth
table whose bit ``2a+b`` is ``op(a, b)``; the terminal cases (an operand
is a constant, or the operands are equal) are read off that table.
Levels that both operands skip alike are one step, as in the classic
BDD level skip: a common leading run of ``U`` under any table, and
under xor also of mixed ``U``/``X`` levels (``X`` in the result) and,
where the model has ``U``, of ``X``/``X`` levels (``U``).  The run is
stripped in a pointer loop and interned over the result of the pair
below it in one ``Manager.chain`` call, as ``projection`` interns its
``U`` run.  Every other pair splits both operands on the leading
variable and recombines the results through the normalized
constructor, so results stay reduced.  The split reads a diamond's
children and the cofactors of ``U`` and ``X`` inline; only the
canalizing letters go through ``reduction.cofactors``.  The walk is
one loop over an explicit stack of pending splits, complements and
runs, so it does not recurse; its memo is keyed on the table and two
mark-free, id-ordered operands, so repeated subproblems across calls
are free.

A key is normalized as in complement-edge BDD packages: a leading
complement mark on an operand is folded into the table instead of kept
on the edge, the operand with the lower ``id`` comes first (the table
is transposed to match), and in complement-bearing models a table with
``op(0, 0) = 1`` is the complement of ``op ^ 15``.  So ``xor(~f, g)``,
``and(~f, ~g)`` and ``or(g, f)`` reuse the entries of ``xor(f, g)`` and
``or(f, g)``, and no split complements a cofactor to build a key.

In complement-bearing models negation is a constant-time mark toggle;
in mark-free models it is ``reduction.rebuild`` with parity 1.
"""

from __future__ import annotations

from .graph import Edge, FuncHandle, Manager, ManagerMismatchError
from .letters import N, U, X
from .oracle import ArityError
from .reduction import (
    ModelSpec,
    cofactors,
    cons_diamond,
    constant,
    push_neg,
    rebuild,
    require_model,
)

#: Operator truth tables: bit ``2a+b`` is ``op(a, b)``.
_OPERATORS = {"and": 0b1000, "or": 0b1110, "xor": 0b0110, "implies": 0b1011}
_AND = _OPERATORS["and"]
_XOR = _OPERATORS["xor"]

#: Frame kinds on the apply core's stack.
_SPLIT, _JOIN, _NEG, _RUN = range(4)


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


def negb(handle: FuncHandle) -> FuncHandle:
    """Complement; constant-time in complement-bearing models."""
    model = require_model(handle)
    edge = handle.edge
    edge = push_neg(edge) if model.negation else rebuild(model, edge, 1)
    return FuncHandle(edge, model=model)


def _intern_run(manager: Manager, letters: list, edge: Edge) -> Edge:
    """``letters`` (outermost first) interned over ``edge`` in one
    ``Manager.chain`` call.  Each is ``U`` or ``X``, which commute with
    the complement, so a leading mark on ``edge`` goes above them all,
    where ``cons_diamond`` would pull it one level at a time."""
    if edge.letter is N:
        return manager.edge(N, manager.chain(letters, edge.child))
    return manager.chain(letters, edge)


def _apply(model: ModelSpec, op: int, x: Edge, y: Edge) -> Edge:
    """The reduced graph of ``op`` applied pointwise to ``x`` and ``y``.

    Memoized in the model's space on ``(id(x) << 64 | id(y)) << 4 |
    op``; a run of skipped levels is one entry, and the levels inside
    it get none.  ``andb_pairs`` counts the splits of a top-level
    ``and``, whatever table the normalized keys below it carry; a run
    step is no split."""
    manager = x.manager
    space = manager.space(model)
    memo = space.apply
    negation = model.negation
    count = op == _AND
    pairs = 0
    # fill both constant rows up to the operands' arity: every constant
    # below is then one index into them
    constant(model, manager, 0, x.arity)
    constant(model, manager, 1, x.arity)
    zeros, ones = space.zeros, space.ones
    # Each constant is a letter chain at every arity >= 1 or at none, so
    # when both are chains an operand ending at a diamond is no constant
    # and needs no terminal test (at arity 0, ``chains`` may be unset and
    # every operand is a terminal).
    chains = space.chains
    # a model without U has no run: two X levels would need it
    runs = U in model.letters

    def unary(table: int, edge: Edge) -> Edge:
        """``v -> bit v of table`` applied to ``edge``."""
        if table == 0b10:
            return edge
        if table == 0b01:
            return push_neg(edge) if negation else rebuild(model, edge, 1)
        return (ones if table & 1 else zeros)[edge.arity]

    # Pending work, innermost last, each frame tagged by its kind: a
    # split whose lo half is being computed and whose hi pair comes next,
    # a join of the hi half's value under ``lo``, a complement of the
    # value below, or a run interned over it.  All but a split write the
    # memo under ``key`` once their value is in.
    stack = []
    while True:
        # the pair (op, x, y) to compute: fold its marks into the table
        # and order its operands by id, then look it up
        if x.letter is N:
            x = x.child
            op = op >> 2 & 3 | (op & 3) << 2
        if y.letter is N:
            y = y.child
            op = op >> 1 & 5 | op << 1 & 10
        i = id(x)
        j = id(y)
        if j < i:
            x, y, i, j = y, x, j, i
            op = op & 9 | op >> 1 & 2 | op << 1 & 4
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
            # table and never memoized
            if not chains or x.node.lo is None or y.node.lo is None:
                zero = zeros[x.arity]
                one = ones[x.arity]
                a = 0 if x is zero else 1 if x is one else None
                b = 0 if y is zero else 1 if y is one else None
                if a is not None and b is not None:
                    value = one if op >> 2 * a + b & 1 else zero
                elif a is not None:
                    value = unary(op >> 2 * a & 3, y)
                elif b is not None:
                    value = unary(op >> b & 1 | op >> 1 >> b & 2, x)
            if value is None and i == j:
                value = unary(op & 1 | op >> 2 & 2, x)
        if value is None:
            # strip the leading levels both skip alike: both lead with U
            # or, under xor, each with U or X; the result leads with U
            # there (X for a mixed level)
            if runs:
                letters = None
                while x is not y:
                    a, b = x.letter, y.letter
                    if a is U and b is U:
                        letter = U
                    elif (op == _XOR and (a is U or a is X)
                          and (b is U or b is X)):
                        letter = U if a is b else X
                    else:
                        break
                    if letters is None:
                        letters = []
                    letters.append(letter)
                    x, y = x.child, y.child
                if letters is not None:
                    stack.append((_RUN, key, letters))
                    continue
            if count:
                pairs += 1
            # split on the leading variable: both cofactors of U.c are
            # c, and the hi cofactor of X.c is ~c, so its mark goes into
            # the hi pair's table
            op1 = op
            a = x.letter
            if a is None:
                x0, x1 = x.node.lo, x.node.hi
            elif a is U:
                x0 = x1 = x.child
            elif a is X:
                x0 = x1 = x.child
                op1 = op1 >> 2 & 3 | (op1 & 3) << 2
            else:
                x0, x1 = cofactors(model, x)
            b = y.letter
            if b is None:
                y0, y1 = y.node.lo, y.node.hi
            elif b is U:
                y0 = y1 = y.child
            elif b is X:
                y0 = y1 = y.child
                op1 = op1 >> 1 & 5 | op1 << 1 & 10
            else:
                y0, y1 = cofactors(model, y)
            stack.append((_SPLIT, key, op1, x1, y1))
            x, y = x0, y0
            continue
        # hand the value up until a split needs its hi half next
        while stack:
            frame = stack.pop()
            tag = frame[0]
            if tag == _SPLIT:
                _, key, op, x, y = frame
                stack.append((_JOIN, key, value))
                break
            if tag == _NEG:
                value = push_neg(value)
            elif tag == _RUN:
                value = _intern_run(manager, frame[2], value)
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
    model = _require_pair(a, b)
    return FuncHandle(_apply(model, table, a.edge, b.edge), model=model)


def projection(model: ModelSpec, manager: Manager, index: int,
               arity: int) -> FuncHandle:
    """Canonical graph of the variable ``x<index>`` at the given arity.

    The level of ``x<index>`` is built through the normalized
    constructor.  The ``index`` levels above it ignore their variable:
    where the model has ``U`` they are ``U^index`` interned straight
    over it, with a leading mark moved above them as ``cons_diamond``
    would; other models pair the level with itself once per level."""
    if not 0 <= index < arity:
        raise ValueError(f"variable index {index} out of range for "
                         f"arity {arity}")
    rest = arity - index - 1
    edge = cons_diamond(model, manager, constant(model, manager, 0, rest),
                        constant(model, manager, 1, rest))
    if U in model.letters:
        edge = _intern_run(manager, [U] * index, edge)
    else:
        for _ in range(index):
            edge = cons_diamond(model, manager, edge, edge)
    return FuncHandle(edge, model=model)


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
