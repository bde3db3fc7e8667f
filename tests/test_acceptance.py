"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The exhaustive sweep (criteria 1, 3, 4, 6, 9) compiles every Boolean
function of arity 0..4 under every named model once and shares the
results across criteria.
"""

import itertools
import random
import time
from dataclasses import dataclass, field

import pytest

from conftest import example1_table, iter_edges, random_raw_edge
from nucx.cli import run
from nucx.connectives import apply, negb
from nucx.graph import (
    FuncHandle,
    Manager,
    edge_mask,
    eval_handle,
    signature,
)
from nucx.letters import C00, C01, C10, C11, N, U, X
from nucx.metrics import check_bounds, measure
from nucx.oracle import TruthTable, combine, tt_apply
from nucx.queries import all_sat, any_sat, count_sat
from nucx.reduction import (
    HASSE_EDGES,
    NUCX,
    PRESETS,
    compile_table,
    lattice_leq,
    push_neg,
    reduce,
)

SWEEP_ARITY = 4
SWEEP_FUNCTIONS = sum(1 << (1 << n) for n in range(SWEEP_ARITY + 1))


@dataclass
class ModelSweep:
    name: str
    injectivity_failures: int = 0
    roundtrip_failures: int = 0
    count_mismatches: int = 0
    local_violations: int = 0
    negation_mismatches: int = 0
    diamond_counts: dict = field(default_factory=dict)
    seconds: float = 0.0


def _check_diamond(node, letters, ones):
    """A reduced diamond must not match any pattern the model's own
    letters would have factored out."""
    s0 = edge_mask(node.lo)
    s1 = edge_mask(node.hi)
    if U in letters and s0 == s1:
        return 1
    if X in letters and s1 == s0 ^ ones:
        return 1
    if C11 in letters and s1 == ones:
        return 1
    if C10 in letters and s1 == 0:
        return 1
    if C01 in letters and s0 == ones:
        return 1
    if C00 in letters and s0 == 0:
        return 1
    return 0


def _sweep_model(name, model):
    result = ModelSweep(name)
    manager = Manager()
    started = time.time()
    letters = model.letters
    checked_nodes = set()
    for arity in range(SWEEP_ARITY + 1):
        size = 1 << arity
        ones = (1 << size) - 1
        signatures = set()
        edges = {} if model.negation else None
        counts = []
        for mask in range(1 << size):
            handle = compile_table(model, TruthTable(arity, mask), manager)
            edge = handle.edge
            signatures.add(signature(handle))
            if edge_mask(edge) != mask:
                result.roundtrip_failures += 1
            if count_sat(handle) != mask.bit_count():
                result.count_mismatches += 1
            # census of reachable diamonds; check new ones once
            seen = set()
            stack = [edge]
            diamonds = 0
            while stack:
                e = stack.pop()
                if e in seen:
                    continue
                seen.add(e)
                node = e.base or e
                if node.lo is not None:
                    diamonds += 1
                    stack.append(node.lo)
                    stack.append(node.hi)
                    if node not in checked_nodes:
                        checked_nodes.add(node)
                        child_ones = (1 << (1 << node.lo.arity)) - 1
                        result.local_violations += _check_diamond(
                            node, letters, child_ones)
            # deduplicate diamonds shared through several edges
            diamonds = len({(e.base or e) for e in seen if e.lo is not None})
            counts.append(diamonds)
            if edges is not None:
                edges[mask] = edge
        result.injectivity_failures += (1 << size) - len(signatures)
        result.diamond_counts[arity] = counts
        if edges is not None:
            for mask, edge in edges.items():
                if push_neg(edge) is not edges[mask ^ ones]:
                    result.negation_mismatches += 1
    result.seconds = time.time() - started
    return result


@pytest.fixture(scope="session")
def sweeps():
    return {name: _sweep_model(name, model)
            for name, model in PRESETS.items()}


def test_criterion_1_canonicity(sweeps):
    for name, sweep in sweeps.items():
        assert sweep.injectivity_failures == 0, name
        assert sweep.roundtrip_failures == 0, name
    total = sum(s.seconds for s in sweeps.values())
    print(f"\ncriterion 1 PASS: {len(sweeps)} models x {SWEEP_FUNCTIONS} "
          f"functions (arity <= {SWEEP_ARITY}) compile to pairwise-distinct "
          f"forms and round-trip exactly [{total:.1f}s]")


def test_criterion_2_idempotence():
    failures = 0
    per_model = 10_000
    for index, (name, model) in enumerate(PRESETS.items()):
        manager = Manager()
        rng = random.Random(1000 + index)
        for _ in range(per_model):
            edge = random_raw_edge(rng, manager, rng.randint(0, 5))
            once = reduce(model, FuncHandle(edge))
            if reduce(model, once).edge is not once.edge:
                failures += 1
    assert failures == 0
    print(f"\ncriterion 2 PASS: reduce is idempotent on {per_model} random "
          f"raw graphs x {len(PRESETS)} models (0 failures)")


def test_criterion_3_local_canonicity(sweeps):
    assert sweeps["o-nucx"].local_violations == 0
    # the same restriction, per alphabet, in every other model
    for name, sweep in sweeps.items():
        assert sweep.local_violations == 0, name
    print("\ncriterion 3 PASS: every diamond of every reduced o-nucx graph "
          f"(arity <= {SWEEP_ARITY}) has non-equal, non-complementary, "
          "non-constant children; analogous checks hold per model alphabet")


def test_criterion_4_negation_invariance(sweeps):
    for name in ("o-nucx", "o-nu", "o-nuc"):
        assert sweeps[name].negation_mismatches == 0, name
    for name, model in PRESETS.items():
        if not model.negation:
            continue
        assert sweeps[name].negation_mismatches == 0, name
        manager = Manager()
        handle = compile_table(model, example1_table(), manager)
        manager.counters.clear()
        negb(handle)
        assert manager.counters.get("negb_recursions", 0) == 0, name
    print("\ncriterion 4 PASS: complementing a function only toggles the "
          f"root mark (all complement-bearing models, arity <= {SWEEP_ARITY});"
          " negb performs 0 recursions there")


def _s_size_cache(cache, edge):
    found = cache.get(edge)
    if found is None:
        letters = 0
        nodes = set()
        for e in iter_edges(edge):
            letters += sum(1 for l in e.word if l is not N)
            if e.lo is not None:
                nodes.add(e.base or e)
        found = cache[edge] = max(len(nodes) + letters, 1)
    return found


def test_criterion_5_connectives():
    manager = Manager()
    sizes = {}
    mismatches = 0
    bound_violations = 0
    pair_total = 0

    def check_pair(ha, hb, ma, mb, ones):
        nonlocal mismatches, bound_violations
        before = manager.counters.get("andb_pairs", 0)
        conj = apply("and", ha, hb)
        pairs = manager.counters.get("andb_pairs", 0) - before
        if pairs > _s_size_cache(sizes, ha.edge) * _s_size_cache(sizes,
                                                                 hb.edge):
            bound_violations += 1
        if edge_mask(conj.edge) != ma & mb:
            mismatches += 1
        if edge_mask(apply("or", ha, hb).edge) != ma | mb:
            mismatches += 1
        if edge_mask(apply("xor", ha, hb).edge) != ma ^ mb:
            mismatches += 1
        if edge_mask(apply("implies", ha, hb).edge) != (ma ^ ones) | mb:
            mismatches += 1

    for arity in range(4):
        size = 1 << arity
        ones = (1 << size) - 1
        handles = [compile_table(NUCX, TruthTable(arity, mask), manager)
                   for mask in range(1 << size)]
        for ma, ha in enumerate(handles):
            for mb, hb in enumerate(handles):
                check_pair(ha, hb, ma, mb, ones)
                pair_total += 1

    rng = random.Random(20260809)
    random_pairs = 1000
    for _ in range(random_pairs):
        ma = rng.getrandbits(64)
        mb = rng.getrandbits(64)
        ha = compile_table(NUCX, TruthTable(6, ma), manager)
        hb = compile_table(NUCX, TruthTable(6, mb), manager)
        check_pair(ha, hb, ma, mb, (1 << 64) - 1)
        pair_total += 1

    assert mismatches == 0
    assert bound_violations == 0
    print(f"\ncriterion 5 PASS: and/or/xor/implies match the oracle on "
          f"{pair_total} pairs (exhaustive arity <= 3 plus {random_pairs} "
          "random at arity 6); memoized call pairs always within the "
          "size product")


def test_criterion_6_queries(sweeps):
    for name, sweep in sweeps.items():
        assert sweep.count_mismatches == 0, name

    manager = Manager()
    for arity in range(SWEEP_ARITY + 1):
        for mask in range(1 << (1 << arity)):
            table = TruthTable(arity, mask)
            handle = compile_table(NUCX, table, manager)
            witness = any_sat(handle)
            if mask == 0:
                assert witness is None
            else:
                assert eval_handle(handle, witness) == 1
            assert sum(1 for _ in all_sat(handle)) == mask.bit_count()

    for name, model in PRESETS.items():
        other = Manager()
        for arity in range(4):
            for mask in range(1 << (1 << arity)):
                handle = compile_table(model, TruthTable(arity, mask), other)
                witness = any_sat(handle)
                if mask:
                    assert eval_handle(handle, witness) == 1
                else:
                    assert witness is None
                assert sum(1 for _ in all_sat(handle)) == mask.bit_count()

    example = compile_table(NUCX, example1_table(), manager)
    assert count_sat(example) == 8
    assert measure(example).diamonds == 1
    print(f"\ncriterion 6 PASS: counting matches popcount exhaustively "
          f"(arity <= {SWEEP_ARITY}, all models); witnesses are genuine and "
          "enumeration cardinalities agree; the running example counts 8 "
          "with a single diamond")


def test_criterion_7_size_bounds():
    models = list(PRESETS.values())
    comparable = [(a, b) for a, b in itertools.permutations(models, 2)
                  if lattice_leq(a, b)]
    negation_pairs = sum(1 for a, b in comparable
                         if a.letters == b.letters and b.negation)
    samples = 200
    label_failures = 0
    bound_failures = 0
    for arity in (6, 8):
        manager = Manager()
        rng = random.Random(arity)
        for _ in range(samples):
            table = TruthTable(arity, rng.getrandbits(1 << arity))
            for model in models:
                report = measure(compile_table(model, table, manager))
                if report.letters > (2 * report.diamonds + 1) * arity:
                    label_failures += 1
            for coarse, fine in comparable:
                verdict = check_bounds(table, coarse, fine, manager)
                if not verdict.ok:
                    bound_failures += 1
    assert label_failures == 0
    assert bound_failures == 0

    argv = ["bench", "--arity", "6", "--samples", "40", "--seed", "7",
            "--models", ",".join(PRESETS)]
    import io
    out = io.StringIO()
    assert run(argv, out=out) == 0
    assert out.getvalue().strip().splitlines()[-1] == "violations=0"
    print(f"\ncriterion 7 PASS: {samples} random functions at arity 6 and 8 "
          f"satisfy both diamond-count inequalities on {len(comparable)} "
          f"comparable model pairs (incl. {negation_pairs} factor-2 "
          "complement pairs) and the label bound; bench reports 0 violations")


DAVIO_ROWS = [
    ("u", "c10", "c10"),
    ("x", "c11", "c11"),
    ("c00", "c00", "u"),
    ("c01", "c01", "x"),
    ("c10", "u", "c00"),
    ("c11", "x", "c01"),
]


def _pattern(comb, token, table):
    if token == "u":
        return combine(comb, table, table)
    if token == "x":
        return combine(comb, table, tt_apply("not", table))
    const = TruthTable.constant(table.arity, int(token[2]))
    if token[1] == "0":
        return combine(comb, const, table)
    return combine(comb, table, const)


def test_criterion_8_davio_correspondence():
    tables = [TruthTable(n, mask)
              for n in range(4) for mask in range(1 << (1 << n))]
    for row in DAVIO_ROWS:
        for column, comb in ((1, "d+"), (2, "d-")):
            transforms = []
            for negate in (False, True):
                if all(_pattern("s", row[0], f) ==
                       _pattern(comb, row[column],
                                tt_apply("not", f) if negate else f)
                       for f in tables):
                    transforms.append(negate)
            assert transforms, (row, comb)
    zero_by_arity = {n: TruthTable.constant(n, 0) for n in range(4)}
    for f in tables:
        assert combine("s", f, f) == combine("d+", f, zero_by_arity[f.arity])
    print(f"\ncriterion 8 PASS: all 6 letter-translation rows validate "
          f"semantically (up to a uniform child complement) over "
          f"{len(tables)} functions; the useless-variable identity holds "
          "exactly")


def test_criterion_9_lattice_monotonicity(sweeps):
    checks = 0
    for low, high in HASSE_EDGES:
        for arity in range(SWEEP_ARITY + 1):
            coarse = sweeps[low].diamond_counts[arity]
            fine = sweeps[high].diamond_counts[arity]
            for mask, count in enumerate(fine):
                assert count <= coarse[mask], (low, high, arity, mask)
                checks += 1
    print(f"\ncriterion 9 PASS: diamond counts weakly decrease along all "
          f"{len(HASSE_EDGES)} lattice edges, exhaustively for arity <= "
          f"{SWEEP_ARITY} ({checks} comparisons)")
