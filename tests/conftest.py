import random

import pytest

from nucx.graph import Manager
from nucx.letters import C00, C01, C10, C11, N, U, X
from nucx.oracle import TruthTable

ELEMENTARY_LETTERS = (U, X, C00, C01, C10, C11)


@pytest.fixture
def mgr():
    return Manager()


def interned_links(manager: Manager) -> list:
    """Every letter link a manager has interned, all letters together."""
    return [edge for links in manager._links.values()
            for edge in links.values()]


def chain_texts(arity: int) -> dict[str, str]:
    """The pair chain, parity and a sparse 3-CNF of ``arity`` variables."""
    rng = random.Random(arity)
    clauses = []
    for _ in range(arity // 2):
        start = rng.randrange(arity - 7)
        a, b, c = rng.sample(range(start, start + 8), 3)
        clauses.append(f"(~x{a} | x{b} | x{c})")
    return {
        "pair": " & ".join(f"(x{2 * i} | x{2 * i + 1})"
                           for i in range(arity // 2)),
        "parity": " ^ ".join(f"x{i}" for i in range(arity)),
        "cnf": " & ".join(clauses),
    }


def example1_table():
    """x1 xor x2 xor (not-x0 and x3), the running 4-variable example."""
    bits = []
    for i in range(16):
        x0, x1, x2, x3 = (i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1
        bits.append(x1 ^ x2 ^ ((1 - x0) & x3))
    return TruthTable.from_bits(bits)


EXAMPLE1_EXPR = "x1 ^ x2 ^ (~x0 & x3)"


def random_raw_edge(rng: random.Random, manager: Manager, arity: int):
    """A well-formed but unnormalized graph of the given arity.

    Words may mix elementary letters and complement marks at any
    position; both terminals occur.
    """
    if arity == 0:
        edge = manager.one if rng.random() < 0.5 else manager.zero
    elif rng.random() < 0.55:
        letter = rng.choice(ELEMENTARY_LETTERS)
        edge = manager.edge(letter, random_raw_edge(rng, manager, arity - 1))
    else:
        edge = manager.diamond(random_raw_edge(rng, manager, arity - 1),
                               random_raw_edge(rng, manager, arity - 1))
    while rng.random() < 0.25:
        edge = manager.edge(N, edge)
    return edge
