import random

import pytest

from nucx.graph import Manager
from nucx.letters import C00, C01, C10, C11, N, U, X
from nucx.oracle import TruthTable

ELEMENTARY_LETTERS = (U, X, C00, C01, C10, C11)


@pytest.fixture
def mgr():
    return Manager()


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
