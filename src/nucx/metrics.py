"""Size accounting and compression-bound verdicts.

Node counts follow one declared convention throughout: reachable
diamonds plus reachable terminals.  Letters are tallied separately
(complement marks apart from elementary letters) because their storage
cost is representation-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import FuncHandle, Manager, iter_edges
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

    @property
    def labels_within_bound(self) -> bool:
        """Total letters never exceed (2*diamonds + 1) * arity: one word
        per edge, at most ``arity`` elementary letters per word."""
        return self.letters <= (2 * self.diamonds + 1) * self.arity

    def csv_row(self, seed: int | str = "-") -> str:
        return (f"{self.model},{self.arity},{seed},"
                f"{self.diamonds},{self.letters},{self.s_size}")


def measure(handle: FuncHandle) -> SizeReport:
    """Count distinct reachable diamonds and per-edge letters."""
    diamonds = set()
    letters = 0
    neg_letters = 0
    for edge in iter_edges(handle.edge):
        if edge.node.lo is not None:
            diamonds.add(edge.node)
        while edge.letter is not None:
            if edge.letter is N:
                neg_letters += 1
            else:
                letters += 1
            edge = edge.child
    name = handle.model.name if handle.model is not None else "raw"
    return SizeReport(name, handle.arity, len(diamonds), letters,
                      neg_letters)


def node_count(handle: FuncHandle) -> int:
    """Reachable diamonds plus reachable terminals."""
    nodes = {edge.node for edge in iter_edges(handle.edge)}
    return len(nodes)


@dataclass(frozen=True)
class BoundVerdict:
    """Measured check of the size inequalities between two comparable
    models (``coarse`` less expressive than ``fine``).

    ``lower_ok``: fine_nodes <= coarse_nodes.
    ``upper_ok``: coarse_nodes <= (n+1)/2 * (fine_nodes + 1), compared
    rationally as 2*coarse <= (n+1)*(fine+1).
    ``factor2_ok``: coarse_nodes <= 2*fine_nodes, only when the fine
    model is exactly the coarse one plus complement edges.
    """

    arity: int
    coarse_model: str
    fine_model: str
    coarse_nodes: int
    fine_nodes: int
    lower_ok: bool
    upper_ok: bool
    negation_pair: bool
    factor2_ok: bool | None

    @property
    def ok(self) -> bool:
        checks = [self.lower_ok, self.upper_ok]
        if self.factor2_ok is not None:
            checks.append(self.factor2_ok)
        return all(checks)


def check_bounds(table: TruthTable, coarse: ModelSpec, fine: ModelSpec,
                 manager: Manager | None = None) -> BoundVerdict:
    """Compile ``table`` under both models and test the size bounds."""
    if not lattice_leq(coarse, fine):
        raise ValueError(
            f"models {coarse.name} and {fine.name} are not comparable")
    if manager is None:
        manager = Manager()
    n_coarse = node_count(compile_table(coarse, table, manager))
    n_fine = node_count(compile_table(fine, table, manager))
    n = table.arity
    negation_pair = (coarse.letters == fine.letters
                     and fine.negation and not coarse.negation)
    return BoundVerdict(
        arity=n,
        coarse_model=coarse.name,
        fine_model=fine.name,
        coarse_nodes=n_coarse,
        fine_nodes=n_fine,
        lower_ok=n_fine <= n_coarse,
        upper_ok=2 * n_coarse <= (n + 1) * (n_fine + 1),
        negation_pair=negation_pair,
        factor2_ok=(n_coarse <= 2 * n_fine) if negation_pair else None,
    )
