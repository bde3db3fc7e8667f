"""The normalization engine.

A *model* picks a subset of the elementary letters, plus optionally the
complement mark.  ``cons_diamond`` is the normalized node constructor:
given two reduced children it introduces the highest-priority letter of
the model whose pattern matches, so graphs built bottom-up through it
are reduced by construction.  ``reduce`` re-normalizes arbitrary raw
graphs (including graphs reduced under another model) by eliminating
every letter back to its diamond pattern and rebuilding.

Letter introduction priority is fixed globally:

    U > X > C11 > C10 > C01 > C00

restricted to the model's alphabet.  U first keeps constants canonical,
which the canalizing patterns depend on; the placement of X is validated
by the exhaustive injectivity suite.

In complement-bearing models the constructor first applies the
complement normalization: a mark on the ``lo`` child is pulled above the
node (toggling the ``hi`` child), so marks only ever appear at the front
of a word and never twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Edge,
    FuncHandle,
    Manager,
    intern_diamond,
    prepend_letter,
    signature,
    to_truth_table,
)
from .letters import C00, C01, C10, C11, ELEMENTARY, N, U, X, Letter, from_token
from .oracle import ArityError, TruthTable


def neg_conjugate(letter: Letter) -> Letter:
    """The letter ``l'`` with ``l . N`` equivalent to ``N . l'``."""
    if not letter.elementary:
        raise ValueError("the complement mark has no conjugate")
    return letter.conjugate


def _letters_stable(letters: frozenset[Letter]) -> bool:
    return all(l.conjugate in letters for l in letters)


@dataclass(frozen=True)
class ModelSpec:
    """An alphabet subset plus a complement-edge flag.

    Complement-bearing alphabets must be closed under conjugation,
    otherwise marks could not be pushed to the front of words and the
    normal form would break; construction enforces this.
    """

    letters: frozenset[Letter]
    negation: bool = False

    def __post_init__(self):
        for letter in self.letters:
            if not letter.elementary:
                raise ValueError(f"{letter!r} is not an elementary letter")
        if self.negation and not _letters_stable(self.letters):
            raise ValueError(
                "complement-bearing alphabet is not closed under "
                "conjugation; cannot propagate negation")

    @property
    def name(self) -> str:
        preset = _PRESET_BY_VALUE.get(self)
        if preset is not None:
            return preset
        tokens = ",".join(l.token for l in ELEMENTARY if l in self.letters)
        return f"custom:{tokens}" + ("+neg" if self.negation else "")

    @property
    def is_preset(self) -> bool:
        return self in _PRESET_BY_VALUE

    def __repr__(self):
        return f"ModelSpec({self.name!r})"


def require_model(handle: FuncHandle) -> ModelSpec:
    """The model a handle is reduced under; raw handles are rejected."""
    if handle.model is None:
        raise ValueError("operation requires a reduced handle "
                         "(no model recorded)")
    return handle.model


def is_stable(model: ModelSpec) -> bool:
    """True iff every letter's conjugate is also in the alphabet."""
    return _letters_stable(model.letters)


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

#: Covering edges of the model lattice restricted to the presets
#: (less expressive -> more expressive).
HASSE_EDGES: tuple[tuple[str, str], ...] = (
    ("s", "o-u"),
    ("s", "o-c10"),
    ("s", "s-n"),
    ("o-u", "o-nu"),
    ("o-u", "o-uc10"),
    ("o-c10", "o-uc10"),
    ("o-uc10", "o-uc0"),
    ("s-n", "o-nu"),
    ("o-nu", "o-nucx"),
    ("o-uc0", "o-nucx"),
)


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


def lattice_leq(a: ModelSpec, b: ModelSpec) -> bool:
    """Is ``b`` at least as expressive as ``a``?"""
    return a.letters <= b.letters and (b.negation or not a.negation)


def push_neg(edge: Edge) -> Edge:
    """Toggle a leading complement mark: strip it if present, else
    prepend one.  Involutive on mark-normalized words."""
    if edge.letter is N:
        return edge.child
    return edge.manager.edge(N, edge)


def constant(model: ModelSpec, manager: Manager, value: int,
             arity: int) -> Edge:
    """The model-canonical graph of a constant function.

    Built bottom-up through :func:`cons_diamond`, so it is whatever
    chain (or diamond tree, for letterless models) the model reduces
    constants to; recognizing a constant is then an identity check
    against this edge.
    """
    cache = manager.cache("const")
    found = cache.get((model, value, arity))
    if found is not None:
        return found
    if arity < 0:
        raise ArityError(f"negative arity {arity}")
    # build upward from the highest arity already cached
    level = arity
    while level and (model, value, level - 1) not in cache:
        level -= 1
    found = cache.get((model, value, level - 1))
    for level in range(level, arity + 1):
        manager.bump("const_steps")
        if level:
            found = cons_diamond(model, found, found)
        elif not value:
            found = manager.zero
        elif model.negation:
            found = push_neg(manager.zero)
        else:
            found = manager.one
        cache[model, value, level] = found
    return found


def cons_diamond(model: ModelSpec, e0: Edge, e1: Edge) -> Edge:
    """Normalized node constructor over two reduced children.

    ``e0`` is the ``x0 = 0`` branch.  Introduces the highest-priority
    applicable letter of the model, or interns a plain diamond.
    """
    if e0.arity != e1.arity:
        raise ArityError(
            f"operands must agree on arity: {e0.arity} vs {e1.arity}")
    manager = e0.manager
    if model.negation and e0.letter is N:
        # pull the mark above the node, toggling the other branch
        return push_neg(cons_diamond(model, push_neg(e0), push_neg(e1)))
    letters = model.letters
    if U in letters and e1 is e0:
        return prepend_letter(U, e0)
    if X in letters and e1 is push_neg(e0):
        return prepend_letter(X, e0)
    arity = e0.arity
    if C11 in letters and e1 is constant(model, manager, 1, arity):
        return prepend_letter(C11, e0)
    if C10 in letters and e1 is constant(model, manager, 0, arity):
        return prepend_letter(C10, e0)
    if C01 in letters:
        if model.negation:
            if e0 is constant(model, manager, 0, arity) and e1.letter is N:
                return push_neg(prepend_letter(C01, push_neg(e1)))
        elif e0 is constant(model, manager, 1, arity):
            return prepend_letter(C01, e1)
    if C00 in letters and e0 is constant(model, manager, 0, arity):
        return prepend_letter(C00, e1)
    return intern_diamond(manager, e0, e1)


def elim_letter(model: ModelSpec, letter: Letter,
                edge: Edge) -> tuple[Edge, Edge]:
    """Reverse a letter's introduction rule: the two children whose
    normalized combination reintroduces it."""
    if not letter.elementary:
        raise ValueError("cannot eliminate the complement mark")
    if letter is U:
        return edge, edge
    if letter is X:
        return edge, push_neg(edge)
    const = constant(model, edge.manager, letter.const, edge.arity)
    if letter.branch == 0:
        return const, edge
    return edge, const


def cofactors(model: ModelSpec, edge: Edge) -> tuple[Edge, Edge]:
    """Both cofactors of an edge on its first variable, as the two
    children whose normalized combination is ``edge``.

    The one place that reads a letter's meaning: every diagram-side
    descent (reduction, negation, the connectives and the queries) goes
    through it.  Constants come out in ``model``'s canonical form.
    """
    letter = edge.letter
    if letter is None:
        return edge.node.lo, edge.node.hi
    if letter is N:
        lo, hi = cofactors(model, edge.child)
        return push_neg(lo), push_neg(hi)
    return elim_letter(model, letter, edge.child)


def negate_reduced(model: ModelSpec, edge: Edge) -> Edge:
    """Complement of a reduced graph in a mark-free model: swap the
    terminals and rebuild through the normalized constructor."""
    manager = edge.manager
    cache = manager.cache("negate")
    key = (model, edge)
    found = cache.get(key)
    if found is not None:
        return found
    manager.bump("negb_recursions")
    if edge.letter is N:
        raise ValueError("complement mark in a mark-free reduced graph")
    if edge.letter is None and edge.node.lo is None:
        found = manager.zero if edge.node.value else manager.one
    else:
        lo, hi = cofactors(model, edge)
        found = cons_diamond(model, negate_reduced(model, lo),
                             negate_reduced(model, hi))
    cache[key] = found
    return found


def reduce(model: ModelSpec, handle: FuncHandle) -> FuncHandle:
    """Normalize any well-formed graph under ``model``.

    Input words may use the full alphabet, including letters outside the
    model and complement marks in mark-free models: every letter is
    eliminated to its diamond pattern and reintroduced only as the model
    allows.  Idempotent: reducing a reduced graph returns it unchanged.
    """
    edge = _reduce_edge(model, handle.edge)
    return FuncHandle(edge, edge.arity, model)


def _reduce_edge(model: ModelSpec, edge: Edge) -> Edge:
    manager = edge.manager
    cache = manager.cache("reduce")
    key = (model, edge)
    found = cache.get(key)
    if found is not None:
        return found
    if edge.letter is N:
        child = _reduce_edge(model, edge.child)
        if model.negation:
            found = push_neg(child)
        else:
            found = negate_reduced(model, child)
    elif edge.letter is None and edge.node.lo is None:
        if edge.node.value and model.negation:
            found = push_neg(manager.zero)
        else:
            found = edge
    else:
        lo, hi = cofactors(model, edge)
        found = cons_diamond(model, _reduce_edge(model, lo),
                             _reduce_edge(model, hi))
    cache[key] = found
    return found


def compile_table(model: ModelSpec, table: TruthTable,
                  manager: Manager) -> FuncHandle:
    """The model-canonical graph of a truth table (recursive split on
    the leading variable, memoized on subtable identity)."""
    edge = _compile_mask(model, manager, table.mask, table.arity)
    return FuncHandle(edge, table.arity, model)


def _compile_mask(model: ModelSpec, manager: Manager, mask: int,
                  arity: int) -> Edge:
    cache = manager.cache("compile")
    key = (model, mask, arity)
    found = cache.get(key)
    if found is not None:
        return found
    if arity == 0:
        found = constant(model, manager, mask, 0)
    else:
        half = 1 << (arity - 1)
        lo = _compile_mask(model, manager, mask & ((1 << half) - 1), arity - 1)
        hi = _compile_mask(model, manager, mask >> half, arity - 1)
        found = cons_diamond(model, lo, hi)
    cache[key] = found
    return found


_S_TO_DPOS = {U: C10, X: C11, C00: C00, C01: C01, C10: U, C11: X}
_S_TO_DNEG = {U: C10, X: C11, C00: U, C01: X, C10: C00, C11: C01}
_DPOS_TO_S = {v: k for k, v in _S_TO_DPOS.items()}
_DNEG_TO_S = {v: k for k, v in _S_TO_DNEG.items()}


def translate_letter(source: str, target: str, letter: Letter) -> Letter:
    """Carry a reduction-rule letter between combinator readings
    (``s``, ``d+``, ``d-``); a pure table lookup composed through ``s``."""
    if not letter.elementary:
        raise ValueError("the complement mark does not translate")
    source = source.lower()
    target = target.lower()
    for comb in (source, target):
        if comb not in ("s", "d+", "d-"):
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
    """Exhaustively check injectivity and semantic round-tripping of
    compilation for every function of arity <= ``max_arity``.

    Presets are covered by the acceptance suite; this is the opt-in
    certification for custom alphabets, which are otherwise only
    guaranteed reduction idempotence and semantic preservation.
    """
    manager = Manager()
    for arity in range(max_arity + 1):
        seen: dict[str, int] = {}
        for mask in range(1 << (1 << arity)):
            table = TruthTable(arity, mask)
            handle = compile_table(model, table, manager)
            if to_truth_table(handle) != table:
                raise ValueError(
                    f"{model.name}: compilation of arity-{arity} mask "
                    f"{mask:#x} does not round-trip")
            text = signature(handle)
            other = seen.setdefault(text, mask)
            if other != mask:
                raise ValueError(
                    f"{model.name}: masks {other:#x} and {mask:#x} "
                    f"(arity {arity}) share the form {text}")
