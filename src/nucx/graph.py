"""Hash-consed diagram graphs: one :class:`Edge` per node and per link.

Every edge lives inside exactly one :class:`Manager`, which interns
structurally equal edges to a single identity.  After interning,
equality of subgraphs *is* identity (``is``), which is what the
reduction engine, the memo tables and the equivalence query rely on.
The term constructors are the manager's: ``Manager.edge(letter,
child)`` puts a letter over an edge, ``Manager.run(length, child)`` puts
a run of ``U`` over one, and ``Manager.diamond(lo, hi)`` returns the
bare edge to a Shannon diamond; the bare edges to the terminals are
``Manager.zero`` and ``Manager.one``.  None of them normalizes; the
reduced constructor is ``reduction.cons_diamond``.  :class:`Manager`
says how its tables are keyed.  :class:`Edge` itself has no
constructor: the three constructors and the manager's terminals
allocate an edge bare and set all of its slots in place, since an
``__init__`` frame was about a third of the cost of each new edge.

Structure of a graph:

* terminals ``0`` and ``1`` (arity 0);
* diamond nodes branching on one variable: the ``lo`` edge is the
  ``x0 = 0`` branch (drawn dashed), ``hi`` is ``x0 = 1`` (drawn solid);
* edges, each either one link over a child edge or a bare edge, which
  is the node itself.  The word ``l1.l2...lk`` over a node is the chain
  ``l1(l2(...lk(node)))``: every suffix of a word that starts at a link
  is itself an interned edge, so each word is stored once and a descent
  is a pointer step.

Run links: a link is one letter, except that a maximal run ``U^k`` of
the useless letter is one link, whose child never leads with ``U``.
Its length is ``arity - child.arity``, so an edge stores no length.
Every reader takes a run as its k letters: ``Edge.word`` lists them,
``signature`` and ``dot_export`` print them (their labels read the
links directly, k ``U`` tokens for a run), and ``metrics.measure``
counts k elementary letters.  Runs of the other letters are one link
per letter.

Arity bookkeeping: each elementary letter and each diamond consumes one
variable; the complement mark ``N`` consumes none.

Ownership: a :class:`FuncHandle` or the :class:`Manager` itself keeps a
graph alive; a bare :class:`Edge` does not.  Edges reach their manager
only through a weak reference, so no reference cycle runs through the
manager's tables, and reference counting frees a manager and its whole
graph as soon as its last handle goes, without the cycle collector.  A
handle reads its manager once, through its edge's weak reference, when
it is made, and holds it from then on.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Sequence

from .letters import C00, C01, C10, C11, Letter, N, U, X
from .oracle import ArityError, TruthTable, check_arity, letter_mask

Word = tuple[Letter, ...]


class ManagerMismatchError(ValueError):
    """Operands owned by different managers were mixed."""


def _freed() -> ManagerMismatchError:
    return ManagerMismatchError(
        "the edge's manager has been freed: keep a FuncHandle or the "
        "Manager alive while its edges are in use")


class Edge:
    """An interned letter chain: a link of ``letter`` over the ``child``
    edge, or, with ``letter`` ``None``, a bare edge, which is the node
    itself: a terminal of ``value`` 0/1, or a diamond (``value``
    ``None``) over ``lo`` and ``hi``.  A ``U`` link is the run ``U^k``
    with ``k = arity - child.arity``, and its child never leads with
    ``U``; any other link is one letter.

    A link copies ``lo``, ``hi`` and ``value`` from its child, so every
    edge reads its node's fields, and ``base`` is the bare edge at its
    end (``None`` on a bare edge, as a pointer to itself would be a
    reference cycle): ``edge.base or edge`` is an edge's node.  ``word``
    reads the letters down to it, each run as its k letters.  ``owner``
    is the weak reference to the manager that all of its edges share, so
    an edge does not keep its manager alive (see the module docstring).

    ``Edge`` has no constructor: ``Edge(...)`` raises ``TypeError``.
    :meth:`Manager.edge`, :meth:`Manager.run` and :meth:`Manager.diamond`
    allocate each new edge bare and store all eight slots in place, and
    the manager makes its terminals the same way, because the frame of
    an ``__init__`` call was about a third of a new edge's cost (a link
    took 330-400 ns through one, 207-242 ns in place, under ``timeit``
    on Python 3.11.7).
    """

    __slots__ = ("letter", "child", "base", "lo", "hi", "value", "arity",
                 "owner")

    @property
    def manager(self) -> Manager:
        """The owning manager; raises :class:`ManagerMismatchError` once
        it has been freed."""
        manager = self.owner()
        if manager is None:
            raise _freed()
        return manager

    @property
    def word(self) -> Word:
        """The letters of the chain, outermost first."""
        letters = []
        edge = self
        while edge.letter is not None:
            child = edge.child
            # a run stands for arity - child.arity letters, a mark for one
            letters += (edge.letter,) * (edge.arity - child.arity or 1)
            edge = child
        return tuple(letters)

    def __repr__(self):
        # the word and the node it ends at, never the whole DAG
        kind = "diamond" if self.lo is not None else f"terminal {self.value}"
        return f"<edge [{_label(self) or 'e'}] {kind} arity={self.arity}>"


def _terminal(value: int, owner: weakref.ref) -> Edge:
    """The bare edge to the terminal ``value`` of the manager ``owner``."""
    edge = object.__new__(Edge)
    edge.letter = edge.child = edge.base = edge.lo = edge.hi = None
    edge.value = value
    edge.arity = 0
    edge.owner = owner
    return edge


@dataclass(frozen=True, init=False)
class FuncHandle:
    """A rooted function: ``FuncHandle(edge, model=...)``.

    ``model`` records the model the graph is reduced under (``None`` for
    raw, unreduced graphs); operations that require reduced inputs read
    it from here.  The arity is the edge's.

    The handle holds the edge's manager strongly as ``manager`` (not a
    field), so a graph lives as long as some handle to it does.  It
    reads the manager once, through the edge's weak reference, when it
    is made, and raises :class:`ManagerMismatchError` if the manager has
    been freed by then.
    """

    edge: Edge
    model: object = field(default=None, kw_only=True)

    def __init__(self, edge: Edge, *, model=None):
        manager = edge.owner()
        if manager is None:
            raise _freed()
        # through object.__setattr__, as a frozen dataclass's own
        # __init__ writes: writing self.__dict__ directly is faster here
        # but makes every later read of the three attributes slower
        write = object.__setattr__
        write(self, "edge", edge)
        write(self, "model", model)
        write(self, "manager", manager)

    @property
    def arity(self) -> int:
        return self.edge.arity

    def __repr__(self):
        name = getattr(self.model, "name", None)
        tag = f", model={name}" if name else ""
        return f"FuncHandle({self.edge!r}{tag})"


class Space:
    """The tables of one model in one manager, made by
    :meth:`Manager.space` on first use.

    ``zeros`` and ``ones`` are the model-canonical constants, indexed by
    arity and always filled from arity 0 up (``reduction.constant``
    extends them).  ``apply``, ``reduce`` and ``compile`` are the memos
    of the apply core, ``reduction.rebuild`` and
    ``reduction.compile_table``; their keys are ints or interned edges,
    never tuples, so an entry adds no object for the cycle collector to
    walk.  A space holds no reference to its manager.
    """

    __slots__ = ("zeros", "ones", "apply", "reduce", "compile")

    def __init__(self):
        self.zeros: list[Edge] = []
        self.ones: list[Edge] = []
        self.apply: dict[int, Edge] = {}
        self.reduce: dict[int | Edge, Edge] = {}
        self.compile: dict[int, Edge] = {}


class Manager:
    """Interning and memoization authority for one diagram universe.

    :meth:`edge`, :meth:`run` and :meth:`diamond` are the only graph
    constructors.  Each diamond and each link of a letter chain is
    stored once, so words share their suffixes.  Each of the seven
    letters has one link table, made with the manager and keyed on the
    child edge.  A run of ``U`` is one link, ``U^k`` with ``k = arity -
    child.arity`` over a child that does not lead with ``U``: ``U``'s
    table keys it on that child when k is 1 and on ``k << 64 |
    id(child)`` otherwise, so :meth:`edge` and :meth:`run` extend a run
    with one lookup and make no link for its shorter runs.  The diamond
    table is keyed on a diamond's ``lo`` edge: it maps a ``lo`` with one
    parent straight to that parent's bare edge, and a ``lo`` with two or
    more to a dict keyed on ``hi``.  So a diamond that exists costs one
    lookup with an edge key plus an identity check or a second lookup,
    and a ``lo`` with one parent costs no dict.  A manager is a
    single-owner mutable object: all access to it and to its graphs,
    reads included, must be serialized by the caller, since
    complementing an edge may intern a new one and every query fills
    memo tables.  Graphs from different managers must never be mixed;
    every constructor raises :class:`ManagerMismatchError` when asked to
    intern over a child of another manager.  The module docstring says
    what keeps a manager alive.

    Memos are per model: :meth:`space` holds a model's constant rows and
    its ``apply``, ``reduce`` and ``compile`` memos; :meth:`cache` holds
    the model-free tables, keyed on edges.  Three tables key on ids: the
    ``apply`` memo, the ``reduce`` memo under parity 1 and ``U``'s runs
    longer than one.  An id key is sound only because no edge is ever
    dropped from the unique tables while the manager lives, so no id is
    reused by another edge: anything that reclaims edges must clear
    every space's memos in the same step.  Every memo lives as long as
    its manager: memory is given back by dropping the manager.

    ``counters`` holds running totals (:meth:`bump`; absent until
    bumped, reset by ``counters.clear()``): ``const_steps``, constant-row
    levels built; ``negb_recursions``, misses of the ``reduce`` memo
    under parity 1; ``andb_pairs``, splits under a top-level ``and``.
    """

    def __init__(self):
        self._diamonds: dict[Edge, Edge | dict[Edge, Edge]] = {}
        self._links: dict[Letter, dict[Edge | int, Edge]] = {
            U: {}, X: {}, C11: {}, C10: {}, C01: {}, C00: {}, N: {}}
        self._spaces: dict[object, Space] = {}
        self._caches: dict[str, dict] = {}
        self.counters: dict[str, int] = {}
        # the one weak reference every edge of this manager stores
        self._ref = weakref.ref(self)
        self.zero = _terminal(0, self._ref)
        self.one = _terminal(1, self._ref)

    def edge(self, letter: Letter, child: Edge) -> Edge:
        """Intern ``letter`` over the edge ``child``; ``U`` over a run of
        ``U`` is the run one longer."""
        links = self._links.get(letter)
        if links is None:
            raise ValueError(
                "bare edges come only from diamond(), zero and one"
                if letter is None else f"{letter!r} is not a letter")
        if letter is U and child.letter is U:
            return self.run(1, child)
        # any other link, a run of length 1 included, is keyed on its
        # child
        found = links.get(child)
        if found is None:
            # a foreign child is never a key here, so checking on a miss
            # catches every one
            if child.owner is not self._ref:
                raise ManagerMismatchError(
                    "child belongs to another manager")
            found = links[child] = object.__new__(Edge)
            found.letter = letter
            found.child = child
            found.base = child.base or child
            found.lo = child.lo
            found.hi = child.hi
            found.value = child.value
            found.arity = child.arity + (letter is not N)
            found.owner = self._ref
        return found

    def run(self, length: int, child: Edge) -> Edge:
        """Intern ``U^length`` over the edge ``child`` as one link, merged
        with the run that ``child`` leads with: one lookup, whatever the
        length.  A length of 0 gives ``child``."""
        if length < 0:
            raise ValueError(f"negative run length {length}")
        if child.letter is U:
            base = child.child
            length += child.arity - base.arity
        elif not length:
            return child
        else:
            base = child
        key = base if length == 1 else length << 64 | id(base)
        links = self._links[U]
        found = links.get(key)
        if found is None:
            # a foreign base is never a key here (an id key's base is
            # alive), so checking on a miss catches every one
            if base.owner is not self._ref:
                raise ManagerMismatchError(
                    "child belongs to another manager")
            found = links[key] = object.__new__(Edge)
            found.letter = U
            found.child = base
            found.base = base.base or base
            found.lo = base.lo
            found.hi = base.hi
            found.value = base.value
            found.arity = base.arity + length
            found.owner = self._ref
        return found

    def diamond(self, lo: Edge, hi: Edge) -> Edge:
        """The bare edge to the interned diamond with children
        ``lo``/``hi`` (no reduction)."""
        found = self._diamonds.get(lo)
        if found is not None:
            if found.__class__ is dict:
                parent = found.get(hi)
                if parent is not None:
                    return parent
            elif found.hi is hi:
                return found
        # every diamond passed these checks, so a hit needs neither: a
        # foreign edge is never a lo key nor a known diamond's hi, and
        # every hi under a lo has the lo's arity.  ``compile_table`` and
        # ``rebuild`` call this directly on a plain pair (the plain rule
        # of ``reduction``), so on those joins these are the only
        # ownership and arity checks
        if lo.owner is not self._ref or hi.owner is not self._ref:
            raise ManagerMismatchError("children belong to another manager")
        if lo.arity != hi.arity:
            raise ArityError(
                f"diamond children must agree on arity: "
                f"{lo.arity} vs {hi.arity}")
        parent = object.__new__(Edge)
        parent.letter = parent.child = parent.base = parent.value = None
        parent.lo = lo
        parent.hi = hi
        parent.arity = lo.arity + 1
        parent.owner = self._ref
        if found is None:
            self._diamonds[lo] = parent
        elif found.__class__ is dict:
            found[hi] = parent
        else:
            # lo's second parent: from here on its parents are a dict
            self._diamonds[lo] = {found.hi: found, hi: parent}
        return parent

    def space(self, model) -> Space:
        """The tables of ``model`` in this manager, made on first use."""
        found = self._spaces.get(model)
        if found is None:
            found = self._spaces[model] = Space()
        return found

    def cache(self, name: str) -> dict:
        """A named model-free memo table (``tt_mask``, ``count``),
        created on first use."""
        table = self._caches.get(name)
        if table is None:
            table = self._caches[name] = {}
        return table

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def __len__(self):
        """The number of diamonds."""
        return sum(len(parents) if parents.__class__ is dict else 1
                   for parents in self._diamonds.values())

    def __repr__(self):
        links = sum(map(len, self._links.values()))
        return f"<Manager diamonds={len(self)} edges={links}>"


def eval_handle(handle: FuncHandle, valuation: Sequence[int]) -> int:
    """Evaluate the function at ``(x0, ..., x_{n-1})`` by one descent."""
    edge = handle.edge
    if len(valuation) != edge.arity:
        raise ArityError(
            f"valuation length {len(valuation)} != arity {edge.arity}")
    parity = 0
    i = 0
    # the bare edge and U come first: they are most of the steps
    while True:
        letter = edge.letter
        if letter is None:
            if edge.lo is None:
                return edge.value ^ parity
            edge = edge.hi if valuation[i] else edge.lo
            i += 1
            continue
        if letter is U:
            # a run of k U's skips k variables
            child = edge.child
            i += edge.arity - child.arity
            edge = child
            continue
        if letter is N:
            parity ^= 1
        elif letter is X:
            if valuation[i]:
                parity ^= 1
            i += 1
        elif (not valuation[i]) != letter.branch:
            # the entry's truth value picks the branch, as at a diamond
            return letter.const ^ parity
        else:
            i += 1
        edge = edge.child


def edge_mask(edge: Edge) -> int:
    """Truth-table mask of an edge's function (memoized per manager)."""
    # A post-order walk on an explicit stack.  A diamond is done once
    # both halves are in ``cache``; until then its missing halves go on
    # top of it.  An edge pushed twice is done twice, to the same mask.
    cache = edge.manager.cache("tt_mask")
    get = cache.get
    found = get(edge)
    if found is not None:
        return found
    stack = [edge]
    push = stack.append
    pop = stack.pop
    while stack:
        edge = stack[-1]
        lo = edge.lo
        if lo is None:
            mask = edge.value
        else:
            hi = edge.hi
            a = get(lo)
            b = get(hi)
            if a is None or b is None:
                if b is None:
                    push(hi)
                if a is None:
                    push(lo)
                continue
            mask = a | b << (1 << lo.arity)
        pop()
        if edge.letter is not None:
            arity = edge.base.arity
            for letter in reversed(edge.word):
                mask = letter_mask(letter, mask, arity)
                arity += letter is not N
        cache[edge] = mask
    return mask


def to_truth_table(handle: FuncHandle) -> TruthTable:
    """Tabulate the function; arity must fit the dense-oracle cap."""
    return TruthTable(check_arity(handle.edge.arity), edge_mask(handle.edge))


def _label(edge: Edge) -> str:
    """The tokens of an edge's word, joined by dots, each run of ``U``
    expanded."""
    tokens = []
    letter = edge.letter
    while letter is not None:
        child = edge.child
        if letter is U:
            # a run stands for arity - child.arity letters
            tokens += ("U",) * (edge.arity - child.arity)
        else:
            tokens.append(letter.token)
        edge = child
        letter = edge.letter
    return ".".join(tokens)


#: The longest tree signature, in characters, that ``signature`` writes.
#: The tree form repeats every shared subgraph, so its length can be
#: exponential in the DAG's size (``x0`` under ``s`` at arity 1,200).
SIGNATURE_LIMIT = 1 << 22


class SignatureLimitError(ValueError):
    """A tree signature would be longer than :data:`SIGNATURE_LIMIT`."""


def _too_long() -> SignatureLimitError:
    return SignatureLimitError(
        f"the tree signature is longer than {SIGNATURE_LIMIT:,} characters")


def signature(handle: FuncHandle) -> str:
    """Deterministic text form: ``[tokens]target`` with ``e`` for the
    empty word, ``0``/``1`` terminals, ``(lo,hi)`` diamonds.  Raises
    :class:`SignatureLimitError` as soon as the text written passes
    :data:`SIGNATURE_LIMIT` characters.  Memory stays linear in the DAG
    plus the text: at most about twice the text, or the limit."""
    # A pre-order walk on an explicit stack that writes the text as a
    # list of pieces.  A diamond whose halves both have a string is
    # written whole, as one string; any other is written open: its head
    # now, then its halves with a "," between, then its closing bracket
    # and span (start index below it on the stack).  An edge met again
    # is written as one string: its whole text, or the join of its span.
    # Each string is appended once as it is made, so all of them
    # together are no longer than the text, and an open diamond's text
    # is never held apart from it.  ``written`` counts the characters of
    # the strings: all of the text but the heads, commas and brackets of
    # open diamonds, a few for each edge of the DAG.
    pieces = []
    append = pieces.append
    spans = {}
    get = spans.get
    stack = [handle.edge]
    push = stack.append
    pop = stack.pop
    written = 0
    while stack:
        edge = pop()
        kind = edge.__class__
        if kind is str:
            append(edge)
            continue
        if kind is int:
            start = edge
            edge = pop()
            append(")")
            spans[edge] = (start, len(pieces))
            continue
        text = get(edge)
        if text is None:
            lo = edge.lo
            if lo is None:
                text = spans[edge] = f"[{_label(edge) or 'e'}]{edge.value}"
            else:
                hi = edge.hi
                head = ("[e](" if edge.letter is None
                        else f"[{_label(edge)}](")
                a, b = get(lo), get(hi)
                if a.__class__ is not str or b.__class__ is not str:
                    push(edge)
                    push(len(pieces))
                    append(head)
                    push(hi)
                    push(",")
                    push(lo)
                    continue
                text = spans[edge] = f"{head}{a},{b})"
        elif text.__class__ is not str:
            text = spans[edge] = "".join(pieces[text[0]:text[1]])
        written += len(text)
        if written > SIGNATURE_LIMIT:
            raise _too_long()
        append(text)
    text = "".join(pieces)
    if len(text) > SIGNATURE_LIMIT:
        raise _too_long()
    return text


def dot_export(handle: FuncHandle) -> str:
    """Render as a Graphviz digraph.

    Diamond nodes are drawn as diamonds, terminals as boxes; ``lo``
    edges are dashed and ``hi`` edges solid; labels carry the word
    tokens.  Node numbering follows a deterministic preorder walk, which
    names each node by its bare edge and labels each edge once however
    many diamonds share it.
    """
    ids: dict[Edge, str] = {}
    # edge -> its label: an edge under several diamonds is labelled once
    labels: dict[Edge, str] = {}
    diamonds = 0
    lines = [
        "digraph dd {",
        '  root [shape=invtriangle, label="", height=0.2, width=0.3];',
    ]
    append = lines.append
    # a flat stack of (style, edge, source) triples, popped in reverse
    stack = ["solid", handle.edge, "root"]
    pop = stack.pop
    while stack:
        source = pop()
        edge = pop()
        style = pop()
        target = ids.get(edge.base or edge)
        if target is None:
            if edge.lo is None:
                target = f"t{edge.value}"
                append(f'  {target} [shape=box, label="{edge.value}"];')
            else:
                target = f"n{diamonds}"
                diamonds += 1
                append(f'  {target} [shape=diamond, label=""];')
                stack += ("solid", edge.hi, target,
                          "dashed", edge.lo, target)
            ids[edge.base or edge] = target
        if edge.letter is None:
            append(f"  {source} -> {target} [style={style}];")
        else:
            label = labels.get(edge)
            if label is None:
                label = labels[edge] = _label(edge)
            append(f'  {source} -> {target} '
                   f'[style={style}, label="{label}"];')
    append("}")
    return "\n".join(lines) + "\n"
