"""The normalization engine.

A *model* picks a subset of the elementary letters, plus optionally the
complement mark.  ``cons_diamond`` is the normalized node constructor:
given two reduced children it introduces the highest-priority letter of
the model whose pattern matches, so graphs built bottom-up through it
are reduced by construction.  ``reduce`` re-normalizes arbitrary raw
graphs (including graphs reduced under another model) by eliminating
every letter back to its diamond pattern and rebuilding.
``rebuild`` (every ``reduce``, and negation in a mark-free model) and
the apply core are each one loop of their own on an explicit stack, and
``compile_table`` builds its chunks and the levels above them level by
level, so none can hit the interpreter's recursion limit.

Letter introduction priority is the order of ``letters.ELEMENTARY``,
restricted to the model's alphabet.

In complement-bearing models the constructor first applies the
complement normalization: a mark on the ``lo`` child is pulled above the
node (toggling the ``hi`` child), so marks only ever appear at the front
of a word and never twice.

The conjugate rule.  A canalizing letter ``Cbt`` (branch ``b`` forces
the constant ``t``) over a marked child ``N.y`` is ``N.Cb(1-t).y``, the
mark over its ``conjugate``: ``cons_diamond`` builds that form, so under
the mark ``C01`` comes only out of ``C00``'s check (see
``ModelSpec.canalizing``).

The plain rule.  A pair ``(lo, hi)`` of reduced children of one arity
in one manager is *plain* when ``lo is not hi``, both end at a diamond
(``.lo is not None``), ``lo`` carries no mark and ``hi`` is not the mark
over ``lo``.  No rule of ``cons_diamond`` fires on a plain pair under
any model: ``U`` needs ``lo is hi``, ``X`` needs ``hi`` to be the mark
over ``lo``, a canalizing letter needs a child that ends at a terminal,
and the mark pull needs a marked ``lo``.  So ``cons_diamond`` returns
``manager.diamond(lo, hi)`` for it, and the two builders of this
module, ``compile_table``'s levels above its chunks and ``rebuild``'s
join, test the rule inline, as one expression, and call
``Manager.diamond`` directly; every other pair goes through
``cons_diamond``, which stays the one statement of the normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import Edge, FuncHandle, Manager, to_truth_table
from .letters import C00, C01, C10, C11, ELEMENTARY, N, U, X, Letter, from_token
from .oracle import COMBINATORS, ArityError, TruthTable


def _letters_stable(letters: frozenset[Letter]) -> bool:
    return all(l.conjugate in letters for l in letters)


#: Every model made so far, keyed by its value (see ``ModelSpec``).
_MODELS: dict[tuple[frozenset[Letter], bool], ModelSpec] = {}


@dataclass(frozen=True, eq=False, init=False)
class ModelSpec:
    """An alphabet subset plus a complement-edge flag.

    Complement-bearing alphabets must be closed under conjugation,
    otherwise marks could not be pushed to the front of words and the
    normal form would break; construction enforces this.  A mark-free
    alphabet drops ``X``: ``cons_diamond`` only sees that two children
    are complements when one is the mark over the other, and a mark-free
    model never builds a mark, so ``custom:u,x`` is ``o-u``.

    ``canalizing``, the letters ``cons_diamond`` checks after ``U`` and
    ``X``, is the model's canalizing letters in the priority order of
    ``letters.ELEMENTARY``, without ``C01`` under the mark: a pulled
    ``lo`` is unmarked and the constant 1 leads with the mark, so its
    check never matches.

    Models are interned like edges: constructing an existing model
    returns the existing instance, so ``==`` is ``is`` and a manager
    finds a model's table space (``Manager.space``) by identity.
    """

    letters: frozenset[Letter]
    negation: bool = False
    canalizing: tuple[Letter, ...]

    def __new__(cls, letters, negation: bool = False):
        letters = frozenset(letters)
        negation = bool(negation)
        if not negation:
            letters -= {X}
        found = _MODELS.get((letters, negation))
        if found is not None:
            return found
        for letter in letters:
            if letter not in ELEMENTARY:
                raise ValueError(f"{letter!r} is not an elementary letter")
        if negation and not _letters_stable(letters):
            raise ValueError(
                "complement-bearing alphabet is not closed under "
                "conjugation; cannot propagate negation")
        model = super().__new__(cls)
        object.__setattr__(model, "letters", letters)
        object.__setattr__(model, "negation", negation)
        object.__setattr__(model, "canalizing", tuple(
            letter for letter in ELEMENTARY
            if letter.branch is not None and letter in letters
            and not (negation and letter is C01)))
        # setdefault is atomic: of two threads making one model, both
        # get the instance that was stored first
        return _MODELS.setdefault((letters, negation), model)

    def __reduce__(self):
        return ModelSpec, (self.letters, self.negation)

    @cached_property
    def name(self) -> str:
        """The preset's name, else ``custom:<tokens>`` (``+neg`` with
        the mark); made on first use, once the presets are named."""
        preset = _PRESET_BY_VALUE.get(self)
        if preset is not None:
            return preset
        tokens = ",".join(l.token for l in ELEMENTARY if l in self.letters)
        return f"custom:{tokens}" + ("+neg" if self.negation else "")

    def __repr__(self):
        return f"ModelSpec({self.name!r})"


def require_model(handle: FuncHandle) -> ModelSpec:
    """The model a handle is reduced under; raw handles are rejected."""
    if handle.model is None:
        raise ValueError("operation requires a reduced handle "
                         "(no model recorded)")
    return handle.model


def _model(tokens: str, negation: bool = False) -> ModelSpec:
    letters = frozenset(from_token(t) for t in tokens.split(",") if t)
    return ModelSpec(letters, negation)


#: Named models, one per classical diagram variant.
PRESETS: dict[str, ModelSpec] = {
    "s": _model(""),
    "s-n": _model("", True),
    "o-u": _model("u"),
    "o-nu": _model("u", True),
    "o-c10": _model("c10"),
    "o-uc10": _model("u,c10"),
    "o-nuc10c11": _model("u,c10,c11", True),
    "o-uc0": _model("u,c00,c10"),
    "o-uc": _model("u,c00,c01,c10,c11"),
    "o-nuc": _model("u,c00,c01,c10,c11", True),
    "o-nucx": _model("u,x,c00,c01,c10,c11", True),
}

_PRESET_BY_VALUE = {m: name for name, m in PRESETS.items()}

NUCX = PRESETS["o-nucx"]


def lattice_leq(a: ModelSpec, b: ModelSpec) -> bool:
    """Is ``b`` at least as expressive as ``a``?  The one statement of
    the model order: ``HASSE_EDGES`` (through ``_below``),
    ``metrics.bound_verdict`` and ``nucx bench`` read it."""
    return a.letters <= b.letters and (b.negation or not a.negation)


def _below(a: ModelSpec, b: ModelSpec) -> bool:
    return a is not b and lattice_leq(a, b)


#: The covering relation of ``lattice_leq`` on the presets (less
#: expressive -> more expressive), in ``PRESETS`` order.
HASSE_EDGES: tuple[tuple[str, str], ...] = tuple(
    (low, high)
    for low, a in PRESETS.items() for high, b in PRESETS.items()
    if _below(a, b)
    and not any(_below(a, c) and _below(c, b) for c in PRESETS.values()))


def parse_model(name: str) -> ModelSpec:
    """Resolve a CLI model name: a preset or ``custom:U,C00+neg``."""
    key = name.strip().lower()
    preset = PRESETS.get(key)
    if preset is not None:
        return preset
    if key.startswith("custom:"):
        body = key[len("custom:"):]
        negation = body.endswith("+neg")
        if negation:
            body = body[:-len("+neg")]
        return _model(body, negation)
    raise ValueError(f"unknown model {name!r}")


def valid_models() -> list[ModelSpec]:
    """Every distinct model of the class (48): each subset of the
    elementary letters without ``X`` (a mark-free model never builds
    ``X``; see ``ModelSpec``), and each subset closed under conjugation
    with the complement mark."""
    models = []
    for bits in range(1 << len(ELEMENTARY)):
        letters = frozenset(letter for i, letter in enumerate(ELEMENTARY)
                            if bits >> i & 1)
        if X not in letters:
            models.append(ModelSpec(letters))
        if _letters_stable(letters):
            models.append(ModelSpec(letters, True))
    return models


def push_neg(edge: Edge) -> Edge:
    """Toggle a leading complement mark: strip it if present, else
    prepend one.  Involutive on mark-normalized words.  The edge's
    manager must be alive."""
    if edge.letter is N:
        return edge.child
    # the weak reference itself, not the checked ``Edge.manager``: this
    # runs once per node of a rebuild
    return edge.owner().edge(N, edge)


def constant(model: ModelSpec, manager: Manager, value: int,
             arity: int) -> Edge:
    """The model-canonical graph of a constant function.

    Built bottom-up through :func:`cons_diamond`, so it is whatever
    chain (or diamond tree, for letterless models) the model reduces
    constants to; recognizing a constant is then an identity check
    against this edge.  Each is kept in ``Space.rows[value]``, indexed
    by arity, for as long as the manager lives.
    """
    row = manager.space(model).rows[value]
    if 0 <= arity < len(row):
        return row[arity]
    if arity < 0:
        raise ArityError(f"negative arity {arity}")
    # the row holds every arity below its length: build upward from it
    for level in range(len(row), arity + 1):
        manager.bump("const_steps")
        if level:
            found = cons_diamond(model, manager, row[-1], row[-1])
        elif not value:
            found = manager.zero
        elif model.negation:
            found = push_neg(manager.zero)
        else:
            found = manager.one
        row.append(found)
    return row[arity]


def cons_diamond(model: ModelSpec, manager: Manager, e0: Edge,
                 e1: Edge) -> Edge:
    """Normalized node constructor over two reduced children of
    ``manager``.

    ``e0`` is the ``x0 = 0`` branch.  Introduces the highest-priority
    applicable letter of the model, or interns a plain diamond.  A
    canalizing letter fires when its ``branch`` child is the constant
    ``const``, over the other child by the conjugate rule (see the module
    docstring).  The manager is passed rather than read from the
    children, so building a graph reads no weak reference per node.
    ``compile_table`` and ``rebuild`` bypass it for a plain pair (see the
    module docstring), whose result is ``manager.diamond(e0, e1)``.
    """
    if e0.arity != e1.arity:
        raise ArityError(
            f"operands must agree on arity: {e0.arity} vs {e1.arity}")
    # Pull a mark on e0 above the node: strip it, toggle e1, build the
    # node over the two, and toggle that.  e0's child carries no mark,
    # so the node below is built as an unmarked e0's would be.
    pulled = model.negation and e0.letter is N
    if pulled:
        e0 = e0.child
        e1 = e1.child if e1.letter is N else manager.edge(N, e1)
    letters = model.letters
    arity = e0.arity
    if U in letters and e1 is e0:
        found = manager.edge(U, e0)
    # compared structurally: interning the complement of e0 would leave
    # an unreachable edge behind.  Only a complement-bearing model has
    # X, and a mark on e0 was pulled above the node.
    elif X in letters and e1.letter is N and e1.child is e0:
        found = manager.edge(X, e0)
    # A child that ends at a diamond cannot be a constant that the loop
    # compares against, so the loop is skipped without building the
    # constant: each such constant is a letter chain down to a terminal.
    # By induction on the arity: ``constant`` pairs two copies of the
    # level below, which the comparing letter matches (under the mark the
    # constant 1 is the mark over the constant 0, and the alphabet has a
    # letter forcing 0).  Tested for all 48 models.
    elif e0.lo is not None and e1.lo is not None:
        found = manager.diamond(e0, e1)
    else:
        # A letter reads its constant from the model's row, or below the
        # row's length calls ``constant`` to extend it, only where it is
        # reached: the rows grow as if every letter called ``constant``.
        rows = manager.space(model).rows
        for letter in model.canalizing:
            if letter.branch:
                forced = e1
                other = e0
            else:
                forced = e0
                other = e1
            if forced.lo is None:
                row = rows[letter.const]
                if forced is (row[arity] if arity < len(row) else constant(
                        model, manager, letter.const, arity)):
                    if other.letter is N:
                        found = manager.edge(
                            N, manager.edge(letter.conjugate, other.child))
                    else:
                        found = manager.edge(letter, other)
                    break
        else:
            found = manager.diamond(e0, e1)
    if pulled:
        return found.child if found.letter is N else manager.edge(N, found)
    return found


def cons_run(model: ModelSpec, manager: Manager, length: int,
             edge: Edge) -> Edge:
    """The reduced graph of ``length`` ignored variables over the
    reduced ``edge``: where the model has ``U``, the run ``U^length`` as
    one link, with a leading mark of ``edge`` moved above it as
    :func:`cons_diamond` would pull it; else one :func:`cons_diamond`
    per level."""
    if U not in model.letters:
        for _ in range(length):
            edge = cons_diamond(model, manager, edge, edge)
        return edge
    if edge.letter is N:
        return manager.edge(N, manager.run(length, edge.child))
    return manager.run(length, edge)


def cofactors(model: ModelSpec, edge: Edge) -> tuple[Edge, Edge]:
    """Both cofactors of an edge on its first variable, as the two
    children whose normalized combination is ``edge``.

    The cofactor rule of the code that builds graphs: :func:`rebuild`
    (every ``reduce``, and negation in a mark-free model), which takes
    a mark and a run of ``U`` itself, ``connectives.cofactor`` and the
    apply core, which strips ``U`` runs and splits ``X`` inline (``X``
    to fold its mark into the key), so only canalizing letters reach
    this from there.  It may intern the halves it returns; the queries
    and ``graph.eval_handle`` read the letters themselves and intern
    nothing.  Constants come out in ``model``'s canonical form.
    """
    letter = edge.letter
    if letter is None:
        return edge.lo, edge.hi
    child = edge.child
    if letter is N:
        lo, hi = cofactors(model, child)
        return push_neg(lo), push_neg(hi)
    # every other letter reverses its introduction rule in cons_diamond;
    # both cofactors of the run U^k.c are U^(k-1).c
    if letter is U:
        below = edge.owner().run(edge.arity - child.arity - 1, child)
        return below, below
    if letter is X:
        return child, push_neg(child)
    # read off the model's row once it reaches the child's arity, as the
    # apply core reads it; below that, ``constant`` extends it
    manager = edge.owner()
    row = manager.space(model).rows[letter.const]
    arity = child.arity
    const = (row[arity] if arity < len(row)
             else constant(model, manager, letter.const, arity))
    if letter.branch == 0:
        return const, child
    return child, const


#: Frame kinds on ``rebuild``'s stack.
_SPLIT, _JOIN, _NEG, _RUN = range(4)


def rebuild(model: ModelSpec, edge: Edge, parity: int = 0) -> Edge:
    """The ``model``-canonical graph of ``edge``'s function, complemented
    when ``parity`` is 1, rebuilt through :func:`cons_diamond` (a plain
    pair straight through ``Manager.diamond``; see the module
    docstring).  A complement mark toggles the result's root mark in a
    complement-bearing model and flips the parity in a mark-free one.
    Memoized in the model's space on the edge itself, or on its ``id``
    (an int, never equal to an edge) for the complement; terminals are
    not memoized.

    One loop on an explicit stack, as the apply core is: a diamond's
    children and a leading mark are read inline, a run of ``U`` is one
    step (:func:`cons_run` over its child's value), every other letter
    goes through :func:`cofactors`, and both halves are joined lo
    first.  ``negb_recursions`` counts the memo misses under parity 1."""
    manager = edge.manager
    space = manager.space(model)
    memo = space.reduce
    rows = space.rows
    negation = model.negation
    diamond = manager.diamond
    flips = 0
    # Pending work, innermost last: a split whose lo half is being
    # computed and whose hi edge comes next, a join of the hi half's
    # value under ``lo``, a complement of the value below, or a run over
    # it.  All but a split write the memo under ``key`` once their value
    # is in.
    stack = []
    while True:
        # the key is taken before a mark-free model strips the marks
        key = id(edge) if parity else edge
        value = memo.get(key)
        if value is None:
            if not negation:
                while edge.letter is N:
                    edge = edge.child
                    parity ^= 1
            if parity:
                flips += 1
            letter = edge.letter
            if letter is N:
                stack.append((_NEG, key))
                edge = edge.child
                continue
            if letter is U:
                stack.append((_RUN, key, edge.arity - edge.child.arity))
                edge = edge.child
                continue
            if letter is None:
                lo, hi = edge.lo, edge.hi
            else:
                lo, hi = cofactors(model, edge)
            if lo is not None:
                stack.append((_SPLIT, key, hi, parity))
                edge = lo
                continue
            # a terminal: a leaf, never memoized
            row = rows[edge.value ^ parity]
            value = (row[0] if row
                     else constant(model, manager, edge.value ^ parity, 0))
        # hand the value up until a split needs its hi half next
        while stack:
            frame = stack.pop()
            tag = frame[0]
            if tag == _SPLIT:
                _, key, edge, parity = frame
                stack.append((_JOIN, key, value))
                break
            if tag == _NEG:
                value = push_neg(value)
            elif tag == _RUN:
                value = cons_run(model, manager, frame[2], value)
            else:
                e0 = frame[2]
                e1 = value
                # a plain pair (see the module docstring) is a diamond
                if (e0 is not e1 and e0.letter is not N
                        and e0.lo is not None and e1.lo is not None
                        and (e1.letter is not N or e1.child is not e0)):
                    value = diamond(e0, e1)
                else:
                    value = cons_diamond(model, manager, e0, e1)
            memo[frame[1]] = value
        else:
            break
    if flips:
        manager.bump("negb_recursions", flips)
    return value


def reduce(model: ModelSpec, handle: FuncHandle) -> FuncHandle:
    """Normalize any well-formed graph under ``model``.

    Input words may use the full alphabet, including letters outside the
    model and complement marks in mark-free models: every letter is
    eliminated to its diamond pattern and reintroduced only as the model
    allows.  Idempotent: reducing a reduced graph returns it unchanged.
    """
    return FuncHandle(rebuild(model, handle.edge), model=model)


def compile_table(model: ModelSpec, table: TruthTable,
                  manager: Manager) -> FuncHandle:
    """The model-canonical graph of a truth table, built level by level.

    The subtables of the last three variables are the bytes of the mask
    (little-endian, so byte ``j`` is the subtable of prefix ``j``; a
    table of arity 3 or less is one such chunk).  The distinct subtables
    of the distinct chunks that are not yet memoized are found level by
    level down from the chunks, and built level by level up, arity 1
    first, each through ``cons_diamond`` over its two halves (a
    memoized subtable is not split, and arity 0 is a terminal).  Each
    level above the chunks pairs neighbouring edges in one loop, up to
    the root, a plain pair (see the module docstring) straight through
    ``Manager.diamond`` and any other through ``cons_diamond``: a pair
    of the same two edges as one of the last two distinct pairs reuses
    that pair's edge, and any other repeated pair is built again, as a
    hit in the manager's tables.  The model's ``compile`` memo holds the
    chunks and their subtables of arity 1 and up, plus one root entry
    per table, so a repeated compile costs one lookup.  A table of arity
    ``n`` and mask ``m`` is keyed on ``m | 1 << 2**n``: the leading bit
    gives the arity, and a key's two halves below it are the keys of its
    cofactors.
    """
    memo = manager.space(model).compile
    arity = table.arity
    root = table.mask | 1 << (1 << arity)
    edge = memo.get(root)
    if edge is not None:
        return FuncHandle(edge, model=model)
    if root < 4:
        # arity 0: a terminal, never memoized
        return FuncHandle(constant(model, manager, root & 1, 0),
                          model=model)
    if arity <= 3:
        chunks = [root]
    else:
        chunks = [chunk | 256 for chunk in
                  table.mask.to_bytes(1 << (arity - 3), "little")]
    missing = [key for key in dict.fromkeys(chunks) if key not in memo]
    # the subtables that are not memoized, with the keys of their two
    # halves, level by level down from the chunks: a memoized one is not
    # split, and arity 0 is a leaf
    levels = []
    while missing:
        level = []
        below = {}
        for key in missing:
            half = key.bit_length() >> 1
            top = 1 << half
            lo = key & top - 1 | top
            hi = key >> half
            level.append((key, lo, hi))
            for part in (lo, hi):
                if part > 3 and part not in memo:
                    below[part] = None
        levels.append(level)
        missing = below
    for level in reversed(levels):
        for key, lo, hi in level:
            memo[key] = cons_diamond(
                model, manager,
                memo[lo] if lo > 3 else constant(model, manager, lo & 1, 0),
                memo[hi] if hi > 3 else constant(model, manager, hi & 1, 0))
    level = list(map(memo.__getitem__, chunks))
    diamond = manager.diamond
    while len(level) > 1:
        pairs = iter(level)
        level = []
        lo = hi = edge = lo2 = hi2 = edge2 = None
        for e0, e1 in zip(pairs, pairs):
            # a pair equal to one of the last two distinct pairs reuses
            # its edge: a constant or a projection repeats one pair, and
            # parity alternates two; any other repeat is a hit in the
            # manager's tables
            if e0 is not lo or e1 is not hi:
                if e0 is lo2 and e1 is hi2:
                    lo, hi, edge, lo2, hi2, edge2 = (
                        lo2, hi2, edge2, lo, hi, edge)
                else:
                    lo2, hi2, edge2 = lo, hi, edge
                    lo = e0
                    hi = e1
                    # a plain pair (see the module docstring) is a
                    # diamond
                    if (e0 is not e1 and e0.letter is not N
                            and e0.lo is not None and e1.lo is not None
                            and (e1.letter is not N or e1.child is not e0)):
                        edge = diamond(e0, e1)
                    else:
                        edge = cons_diamond(model, manager, e0, e1)
            level.append(edge)
    edge = memo[root] = level[0]
    return FuncHandle(edge, model=model)


_S_TO_DPOS = {U: C10, X: C11, C00: C00, C01: C01, C10: U, C11: X}
_S_TO_DNEG = {U: C10, X: C11, C00: U, C01: X, C10: C00, C11: C01}
_DPOS_TO_S = {v: k for k, v in _S_TO_DPOS.items()}
_DNEG_TO_S = {v: k for k, v in _S_TO_DNEG.items()}


def translate_letter(source: str, target: str, letter: Letter) -> Letter:
    """Carry a reduction-rule letter between combinator readings
    (``s``, ``d+``, ``d-``); a pure table lookup composed through ``s``."""
    if letter is N:
        raise ValueError("the complement mark does not translate")
    source = source.lower()
    target = target.lower()
    for comb in (source, target):
        if comb not in COMBINATORS:
            raise ValueError(f"unknown combinator {comb!r}")
    if source == "d+":
        letter = _DPOS_TO_S[letter]
    elif source == "d-":
        letter = _DNEG_TO_S[letter]
    if target == "d+":
        return _S_TO_DPOS[letter]
    if target == "d-":
        return _S_TO_DNEG[letter]
    return letter


def certify_canonicity(model: ModelSpec, max_arity: int = 3) -> None:
    """Exhaustively check injectivity, semantic round-tripping and the
    normal-form fixpoint of compilation for every function of arity <=
    ``max_arity``.

    Injectivity is edge identity in one manager (distinct masks must
    give distinct edges), and ``reduce`` must return each compiled edge
    itself.  Presets are covered by the acceptance suite; this is the
    opt-in certification for custom alphabets, which are otherwise only
    guaranteed reduction idempotence and semantic preservation.
    """
    manager = Manager()
    seen: dict[Edge, int] = {}
    for arity in range(max_arity + 1):
        for mask in range(1 << (1 << arity)):
            table = TruthTable(arity, mask)
            handle = compile_table(model, table, manager)
            other = seen.setdefault(handle.edge, mask)
            if other != mask:
                raise ValueError(
                    f"{model.name}: masks {other:#x} and {mask:#x} "
                    f"(arity {arity}) share one edge")
            if to_truth_table(handle) != table:
                raise ValueError(
                    f"{model.name}: compilation of arity-{arity} mask "
                    f"{mask:#x} does not round-trip")
            if reduce(model, handle).edge is not handle.edge:
                raise ValueError(
                    f"{model.name}: arity-{arity} mask {mask:#x} is not "
                    f"a fixpoint of reduce")
