"""Hash-consed diagram graphs: terminals, diamond nodes, labeled edges.

Every node and edge lives inside exactly one :class:`Manager`, which
interns structurally equal objects to a single identity.  After
interning, equality of subgraphs *is* identity (``is``), which is what
the reduction engine, the memo tables and the equivalence query rely on.

Structure of a graph:

* terminals ``0`` and ``1`` (arity 0);
* diamond nodes branching on one variable: the ``lo`` edge is the
  ``x0 = 0`` branch (drawn dashed), ``hi`` is ``x0 = 1`` (drawn solid);
* edges carrying a word of letters applied outermost-first to the
  function denoted by their target.

Arity bookkeeping: each elementary letter and each diamond consumes one
variable; the complement mark ``N`` consumes none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .letters import Letter, N, U, X
from .oracle import ARITY_LIMIT, ArityError, OracleLimitError, TruthTable

Word = tuple[Letter, ...]


class ManagerMismatchError(ValueError):
    """Operands owned by different managers were mixed."""


class Node:
    """A terminal or a diamond.  ``value`` is 0/1 for terminals and
    ``None`` for diamonds; diamonds hold their two child edges."""

    __slots__ = ("lo", "hi", "value", "arity")

    def __init__(self, lo, hi, value, arity):
        self.lo = lo
        self.hi = hi
        self.value = value
        self.arity = arity

    @property
    def is_terminal(self) -> bool:
        return self.lo is None

    def __repr__(self):
        if self.lo is None:
            return f"<terminal {self.value}>"
        return f"<diamond arity={self.arity}>"


class Edge:
    """An interned (word, target) pair.

    ``neg`` caches the complement partner (the edge with a leading ``N``
    toggled) once it has been computed, making repeated complement
    lookups O(1).
    """

    __slots__ = ("word", "node", "arity", "manager", "neg")

    def __init__(self, word: Word, node: Node, arity: int, manager: Manager):
        self.word = word
        self.node = node
        self.arity = arity
        self.manager = manager
        self.neg: Edge | None = None

    def __repr__(self):
        return f"<edge {signature_of_edge(self)}>"


@dataclass(frozen=True)
class FuncHandle:
    """A rooted function: an edge plus its arity.

    ``model`` records the model the graph is reduced under (``None`` for
    raw, unreduced graphs); operations that require reduced inputs read
    it from here.
    """

    edge: Edge
    arity: int
    model: object = None

    def __post_init__(self):
        if self.arity != self.edge.arity:
            raise ArityError(
                f"handle arity {self.arity} != edge arity {self.edge.arity}")

    @property
    def manager(self) -> Manager:
        return self.edge.manager

    def __repr__(self):
        name = getattr(self.model, "name", None)
        tag = f", model={name}" if name else ""
        return f"FuncHandle({signature_of_edge(self.edge)}, n={self.arity}{tag})"


class Manager:
    """Interning and memoization authority for one diagram universe.

    A manager is a single-owner mutable object: all access to it and to
    its graphs, reads included, must be serialized by the caller, since
    complementing an edge caches its partner in ``Edge.neg`` and every
    query fills memo tables.  Graphs from different managers must never
    be mixed.

    ``memo_cap`` bounds each named memo table: a table exceeding the cap
    is flushed whole (results are recomputed identically, so only speed
    is affected).  Unique tables are never flushed.
    """

    def __init__(self, memo_cap: int | None = None):
        self.term0 = Node(None, None, 0, 0)
        self.term1 = Node(None, None, 1, 0)
        self.memo_cap = memo_cap
        # (lo edge, hi edge) -> diamond node; keys hash by identity
        self._diamonds: dict[tuple[Edge, Edge], Node] = {}
        # (word, node) -> edge
        self._edges: dict[tuple[Word, Node], Edge] = {}
        self._caches: dict[str, dict] = {}
        self.counters: dict[str, int] = {}
        self.zero = self.edge((), self.term0)
        self.one = self.edge((), self.term1)

    def edge(self, word: Word, node: Node) -> Edge:
        """Intern the edge labeled ``word`` pointing at ``node``."""
        key = (word, node)
        found = self._edges.get(key)
        if found is None:
            arity = node.arity + sum(1 for l in word if l is not N)
            found = self._edges[key] = Edge(word, node, arity, self)
        return found

    def diamond(self, lo: Edge, hi: Edge) -> Node:
        """Intern the diamond with children ``lo``/``hi``."""
        if lo.manager is not self or hi.manager is not self:
            raise ManagerMismatchError("children belong to another manager")
        if lo.arity != hi.arity:
            raise ArityError(
                f"diamond children must agree on arity: "
                f"{lo.arity} vs {hi.arity}")
        key = (lo, hi)
        found = self._diamonds.get(key)
        if found is None:
            found = self._diamonds[key] = Node(lo, hi, None, lo.arity + 1)
        return found

    def cache(self, name: str) -> dict:
        """A named memo table, created on first use."""
        table = self._caches.get(name)
        if table is None:
            table = self._caches[name] = {}
        elif self.memo_cap is not None and len(table) > self.memo_cap:
            table.clear()
        return table

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def reset_counters(self) -> None:
        self.counters.clear()

    def __len__(self):
        return len(self._diamonds)

    def __repr__(self):
        return (f"<Manager diamonds={len(self._diamonds)} "
                f"edges={len(self._edges)}>")


def intern_diamond(manager: Manager, lo: Edge, hi: Edge) -> Edge:
    """Raw diamond constructor: no reduction, empty root word."""
    return manager.edge((), manager.diamond(lo, hi))


def prepend(word: Word | Sequence[Letter], edge: Edge) -> Edge:
    """Concatenate ``word`` in front of an edge's label (no normalization)."""
    word = tuple(word)
    if not word:
        return edge
    return edge.manager.edge(word + edge.word, edge.node)


def prepend_letter(letter: Letter, edge: Edge) -> Edge:
    return edge.manager.edge((letter,) + edge.word, edge.node)


def eval_handle(handle: FuncHandle, valuation: Sequence[int]) -> int:
    """Evaluate the function at ``(x0, ..., x_{n-1})`` by one descent."""
    if len(valuation) != handle.arity:
        raise ArityError(
            f"valuation length {len(valuation)} != arity {handle.arity}")
    edge = handle.edge
    parity = 0
    i = 0
    while True:
        for letter in edge.word:
            if letter is N:
                parity ^= 1
            elif letter is U:
                i += 1
            elif letter is X:
                if valuation[i]:
                    parity ^= 1
                i += 1
            else:
                if valuation[i] == letter.branch:
                    return letter.const ^ parity
                i += 1
        node = edge.node
        if node.lo is None:
            return node.value ^ parity
        edge = node.hi if valuation[i] else node.lo
        i += 1


def edge_mask(edge: Edge) -> int:
    """Truth-table mask of an edge's function (memoized per manager)."""
    cache = edge.manager.cache("tt_mask")
    found = cache.get(edge)
    if found is not None:
        return found
    node = edge.node
    if node.lo is None:
        mask = node.value
    else:
        size = 1 << node.lo.arity
        mask = edge_mask(node.lo) | edge_mask(node.hi) << size
    arity = node.arity
    for letter in reversed(edge.word):
        size = 1 << arity
        ones = (1 << size) - 1
        if letter is N:
            mask ^= ones
            continue
        if letter is U:
            mask |= mask << size
        elif letter is X:
            mask |= (mask ^ ones) << size
        elif letter.branch == 0:
            low = ones if letter.const else 0
            mask = low | mask << size
        elif letter.const:
            mask |= ones << size
        arity += 1
    cache[edge] = mask
    return mask


def to_truth_table(handle: FuncHandle) -> TruthTable:
    """Tabulate the function; arity must fit the dense-oracle cap."""
    if handle.arity > ARITY_LIMIT:
        raise OracleLimitError(
            f"arity {handle.arity} exceeds the truth-table limit "
            f"of {ARITY_LIMIT}")
    return TruthTable(handle.arity, edge_mask(handle.edge))


def signature_of_edge(edge: Edge) -> str:
    """Deterministic text form: ``[tokens]target`` with ``e`` for the
    empty word, ``0``/``1`` terminals, ``(lo,hi)`` diamonds."""
    cache = edge.manager.cache("signature")
    found = cache.get(edge)
    if found is not None:
        return found
    word = ".".join(l.token for l in edge.word) if edge.word else "e"
    node = edge.node
    if node.lo is None:
        target = "01"[node.value]
    else:
        target = f"({signature_of_edge(node.lo)},{signature_of_edge(node.hi)})"
    text = cache[edge] = f"[{word}]{target}"
    return text


def signature(handle: FuncHandle) -> str:
    return signature_of_edge(handle.edge)


def iter_edges(root: Edge) -> Iterator[Edge]:
    """All distinct edges reachable from ``root``, root first."""
    seen = set()
    stack = [root]
    while stack:
        edge = stack.pop()
        if edge in seen:
            continue
        seen.add(edge)
        yield edge
        node = edge.node
        if node.lo is not None:
            stack.append(node.hi)
            stack.append(node.lo)


def dot_export(handle: FuncHandle) -> str:
    """Render as a Graphviz digraph.

    Diamond nodes are drawn as diamonds, terminals as boxes; ``lo``
    edges are dashed and ``hi`` edges solid; labels carry the word
    tokens.  Node numbering follows a deterministic preorder walk.
    """
    ids: dict[Node, str] = {}
    diamonds = 0
    lines = [
        "digraph dd {",
        '  root [shape=invtriangle, label="", height=0.2, width=0.3];',
    ]

    def node_id(node: Node) -> str:
        nonlocal diamonds
        found = ids.get(node)
        if found is None:
            if node.lo is None:
                found = f"t{node.value}"
                lines.append(f'  {found} [shape=box, label="{node.value}"];')
            else:
                found = f"n{diamonds}"
                diamonds += 1
                lines.append(f'  {found} [shape=diamond, label=""];')
            ids[node] = found
        return found

    def emit(source: str, edge: Edge, style: str) -> None:
        label = ".".join(l.token for l in edge.word)
        attrs = f'style={style}'
        if label:
            attrs += f', label="{label}"'
        target_known = edge.node in ids
        target = node_id(edge.node)
        lines.append(f"  {source} -> {target} [{attrs}];")
        if target_known or edge.node.lo is None:
            return
        emit(target, edge.node.lo, "dashed")
        emit(target, edge.node.hi, "solid")

    emit("root", handle.edge, "solid")
    lines.append("}")
    return "\n".join(lines) + "\n"


def recompute_arity(edge: Edge) -> int:
    """Bottom-up arity recomputation (consistency checks in tests)."""
    node = edge.node
    base = 0 if node.lo is None else recompute_arity(node.lo) + 1
    if node.lo is not None and recompute_arity(node.hi) + 1 != base:
        raise ArityError("inconsistent child arities")
    return base + sum(1 for l in edge.word if l is not N)
