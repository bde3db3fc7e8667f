"""Size accounting and compression-bound verdicts.

Sizes are reachable diamonds, with letters tallied separately
(complement marks apart from elementary letters) because their storage
cost is representation-dependent.  ``node_count`` adds the terminals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, FuncHandle, Manager
from .letters import N
from .oracle import TruthTable
from .reduction import ModelSpec, compile_table, lattice_leq

#: Bit-exact header for the benchmark/compare CSV output.
CSV_HEADER = "model,arity,seed,diamonds,letters,s_size"


@dataclass(frozen=True)
class SizeReport:
    """Size of one reduced graph."""

    model: str
    arity: int
    diamonds: int
    letters: int
    neg_letters: int

    @property
    def s_size(self) -> int:
        """Letter-free-equivalent size proxy: diamonds plus elementary
        letters (every letter stands for one expanded node)."""
        return self.diamonds + self.letters

    def csv_row(self, seed: int | str = "-") -> str:
        return (f"{self.model},{self.arity},{seed},"
                f"{self.diamonds},{self.letters},{self.s_size}")


def _reach(root: Edge) -> tuple[set[Edge], set[Edge]]:
    """The nodes reachable from ``root``, terminals included, each named
    by its bare edge, and the reachable edges that carry a word (the root
    and the children of the diamonds), in one loop over the diamonds."""
    edges = {root} if root.letter is not None else set()
    add = edges.add
    node = root.base or root
    nodes = {node}
    mark = nodes.add
    stack = [node] if node.lo is not None else []
    push = stack.append
    pop = stack.pop
    while stack:
        node = pop()
        hi = node.hi
        node = node.lo
        if node.letter is not None:
            add(node)
            node = node.base
        if node not in nodes:
            mark(node)
            if node.lo is not None:
                push(node)
        node = hi
        if node.letter is not None:
            add(node)
            node = node.base
        if node not in nodes:
            mark(node)
            if node.lo is not None:
                push(node)
    return nodes, edges


def measure(handle: FuncHandle) -> SizeReport:
    """Count distinct reachable diamonds and the letters of the words of
    the reachable edges: elementary letters apart from marks.  A word's
    elementary letters are ``edge.arity - edge.base.arity`` by the arity
    rule (``graph``), a run of ``U`` counting its k.  Each link's marks
    are counted once, so the count is linear in the links and diamonds
    it reaches, however long the words are."""
    nodes, edges = _reach(handle.edge)
    manager = handle.manager
    diamonds = len(nodes) - (manager.zero in nodes) - (manager.one in nodes)
    # link -> the marks of its word
    marks = {}
    get = marks.get
    letters = 0
    neg_letters = 0
    for edge in edges:
        letters += edge.arity - edge.base.arity
        # down to the bare edge or the first link already counted, then
        # back up
        path = []
        link = edge
        count = 0
        while link.letter is not None:
            found = get(link)
            if found is not None:
                count = found
                break
            path.append(link)
            link = link.child
        for link in reversed(path):
            if link.letter is N:
                count += 1
            marks[link] = count
        neg_letters += count
    name = handle.model.name if handle.model is not None else "raw"
    return SizeReport(name, handle.arity, diamonds, letters, neg_letters)


def node_count(handle: FuncHandle) -> int:
    """Reachable diamonds plus reachable terminals."""
    return len(_reach(handle.edge)[0])


@dataclass(frozen=True)
class BoundVerdict:
    """Measured check of the size bounds between two comparable models
    (``coarse`` at most as expressive as ``fine``) on one function of
    arity n, in ``measure``'s diamonds (``_d``) and fine letters:

    ``lower_ok``: fine_d <= coarse_d;
    ``upper_ok``: coarse_d <= k*(fine_d + fine_letters) + 2n, where k is
    2 when only the fine model has the complement mark, else 1;
    ``factor2_ok``: coarse_d <= 2*fine_d, only when the fine model is the
    coarse one plus the mark.

    Proof sketch.  A letter is introduced exactly where its pattern fits,
    so a diamond stands for a function (up to complement, under the mark)
    that no letter of its model fits; at level i it is a constant or a
    cofactor of the root on x0..x(i-1).  Lower: no coarse letter fits
    where no fine letter does, so distinct fine diamonds have distinct
    coarse ones.  Upper: a coarse diamond is on one of two constant
    chains of at most n diamonds, or is a cofactor g that the fine graph
    reaches at a letter or a diamond under some parity of marks.
    Position and parity fix g, and the parity matters only when the fine
    model alone has the mark (hence k).  Factor 2: equal alphabets closed
    under conjugation fit g iff they fit not-g, so a fine diamond stands
    for at most two coarse ones.  Linear in n: at most 2*d + 1 words (the
    root's, two per diamond) of at most n letters each give fine_letters
    <= (2*fine_d + 1)*n, so coarse_d <= k*(2n+1)*fine_d + (k+2)*n, that
    is (2n+1)*fine_d + 3n when k is 1.
    """

    arity: int
    coarse_model: ModelSpec
    fine_model: ModelSpec
    coarse_diamonds: int
    fine_diamonds: int
    fine_letters: int
    lower_ok: bool
    upper_ok: bool
    negation_pair: bool
    factor2_ok: bool | None

    @property
    def ok(self) -> bool:
        return (self.lower_ok and self.upper_ok
                and self.factor2_ok is not False)


def bound_verdict(coarse: ModelSpec, fine: ModelSpec,
                  coarse_size: SizeReport,
                  fine_size: SizeReport) -> BoundVerdict:
    """Test the size bounds on the measures of one function compiled
    under two comparable models."""
    if not lattice_leq(coarse, fine):
        raise ValueError(
            f"models {coarse.name} and {fine.name} are not comparable")
    coarse_d, fine_d = coarse_size.diamonds, fine_size.diamonds
    letters, n = fine_size.letters, fine_size.arity
    k = 2 if fine.negation and not coarse.negation else 1
    negation_pair = k == 2 and coarse.letters == fine.letters
    return BoundVerdict(
        n, coarse, fine, coarse_d, fine_d, letters,
        lower_ok=fine_d <= coarse_d,
        upper_ok=coarse_d <= k * (fine_d + letters) + 2 * n,
        negation_pair=negation_pair,
        factor2_ok=(coarse_d <= 2 * fine_d) if negation_pair else None)


def check_bounds(table: TruthTable, coarse: ModelSpec, fine: ModelSpec,
                 manager: Manager | None = None) -> BoundVerdict:
    """Compile ``table`` under both models and test the size bounds."""
    if manager is None:
        manager = Manager()
    return bound_verdict(coarse, fine,
                         measure(compile_table(coarse, table, manager)),
                         measure(compile_table(fine, table, manager)))
