import random

import pytest

from nucx.cli import parse_expr
from nucx.connectives import build_expr
from nucx.graph import FuncHandle, Manager
from nucx.letters import C00, C01, C10, C11, ELEMENTARY, N, U, X, from_token
from nucx.oracle import TruthTable
from nucx.reduction import (PRESETS, ModelSpec, compile_table, cons_diamond,
                            constant, parse_model)

ELEMENTARY_LETTERS = (U, X, C00, C01, C10, C11)


@pytest.fixture
def mgr():
    return Manager()


def model_param(letters: frozenset, negation: bool = False):
    """The model an alphabet spells, as a pytest param named after the
    spelling: a mark-free alphabet with ``X`` is its twin without ``X``
    (``custom:U,X`` is ``o-u``) but keeps its own id."""
    model = ModelSpec(letters, negation)
    name = model.name
    if model.letters != letters:
        tokens = ",".join(l.token for l in ELEMENTARY if l in letters)
        name = f"custom:{tokens}"
    return pytest.param(model, id=f"ModelSpec({name!r})")


def custom_param(name: str):
    """``model_param`` of a CLI spelling such as ``custom:u,x+neg``."""
    body = name[len("custom:"):]
    negation = body.endswith("+neg")
    letters = frozenset(from_token(t)
                        for t in body.removesuffix("+neg").split(",") if t)
    param = model_param(letters, negation)
    assert param.values[0] is parse_model(name)
    return param


def model_spellings(mark_free_only: bool = False) -> list:
    """Every alphabet spelling of the model class (80): each subset of
    the elementary letters, and each subset closed under conjugation with
    the complement mark.  They name the 48 distinct models of
    ``valid_models()``; the other 32 are the mark-free spellings with
    ``X``, which the CLI still accepts."""
    params = []
    for bits in range(1 << len(ELEMENTARY)):
        letters = frozenset(letter for i, letter in enumerate(ELEMENTARY)
                            if bits >> i & 1)
        params.append(model_param(letters))
        if not mark_free_only and all(l.conjugate in letters
                                      for l in letters):
            params.append(model_param(letters, True))
    return params


def interned_links(manager: Manager) -> list:
    """Every letter link a manager has interned, all letters together."""
    return [edge for links in manager._links.values()
            for edge in links.values()]


def iter_edges(root):
    """All distinct edges reachable from ``root``, root first: the
    plain walk that the library's read-only walks are checked against."""
    seen = set()
    stack = [root]
    while stack:
        edge = stack.pop()
        if edge in seen:
            continue
        seen.add(edge)
        yield edge
        if edge.lo is not None:
            stack.append(edge.hi)
            stack.append(edge.lo)


def chain(manager: Manager, letters, child=None):
    """The word ``letters`` (outermost first) interned over ``child``
    (``manager.zero`` if none): one ``Manager.edge`` call per letter,
    and one ``Manager.run`` call per run of ``U``, so no link is made
    for the run's shorter runs."""
    if child is None:
        child = manager.zero
    run = 0
    for letter in reversed(letters):
        if letter is U:
            run += 1
            continue
        child = manager.edge(letter, manager.run(run, child))
        run = 0
    return manager.run(run, child)


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


def one_hot(model, manager, n):
    """Exactly one of x0..x(n-1), built bottom-up: with ``none`` the
    function that no variable below is set, a level is ``one`` where its
    variable is 0 and ``none`` where it is 1."""
    none = constant(model, manager, 1, 0)
    one = constant(model, manager, 0, 0)
    for k in range(n):
        none, one = (
            cons_diamond(model, manager, none, constant(model, manager, 0, k)),
            cons_diamond(model, manager, one, none))
    return FuncHandle(one, model=model)


#: The graphs the read-only walks are checked on against their plain
#: references: random arity-8 tables under every preset, the pair chain
#: of 64 variables (long runs of ``U``), parity of 12 under ``o-nucx``
#: (``X`` letters) and one-hot of 12 under ``o-nucx`` (``C11`` chains and
#: marks).
WALK_GRAPHS = ([f"random8-{seed}/{name}" for seed in (1, 2)
                for name in PRESETS]
               + ["pair64/o-u", "pair64/o-nucx", "parity12/o-nucx",
                  "one-hot12/o-nucx"])


def walk_graph(label: str) -> FuncHandle:
    """The graph of ``WALK_GRAPHS`` named ``label``, in a new manager."""
    family, name = label.split("/")
    model = PRESETS[name]
    manager = Manager()
    if family.startswith("random8-"):
        seed = int(family[len("random8-"):])
        table = TruthTable(8, random.Random(seed).getrandbits(1 << 8))
        return compile_table(model, table, manager)
    if family == "one-hot12":
        return one_hot(model, manager, 12)
    arity, kind = {"pair64": (64, "pair"), "parity12": (12, "parity")}[family]
    text = chain_texts(arity)[kind]
    return build_expr(model, parse_expr(text, arity), arity, manager)


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
