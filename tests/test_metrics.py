import hashlib
import itertools
import random
import sys

import pytest

from conftest import (WALK_GRAPHS, example1_table, iter_edges, one_hot,
                      walk_graph)
from nucx.graph import FuncHandle, Manager, dot_export, signature
from nucx.letters import N
from nucx.metrics import (
    CSV_HEADER,
    bound_verdict,
    check_bounds,
    measure,
    node_count,
)
from nucx.oracle import TruthTable
from nucx.reduction import (
    HASSE_EDGES,
    NUCX,
    PRESETS,
    compile_table,
    lattice_leq,
    valid_models,
)

ALL_MODELS = list(PRESETS.items())


class TestMeasure:
    def test_constant_chain(self, mgr):
        report = measure(compile_table(NUCX, TruthTable.constant(3, 0), mgr))
        assert report.diamonds == 0
        assert report.letters == 3
        assert report.neg_letters == 0
        assert report.s_size == 3
        assert report.model == "o-nucx"

    def test_running_example(self, mgr):
        report = measure(compile_table(NUCX, example1_table(), mgr))
        assert report.diamonds == 1
        assert report.letters == 6
        assert report.s_size == 7

    def test_weakly_decreasing_along_expressiveness(self, mgr):
        table = example1_table()
        counts = [
            measure(compile_table(PRESETS[name], table, mgr)).diamonds
            for name in ("o-uc10", "o-nuc", "o-nucx")
        ]
        assert counts == sorted(counts, reverse=True)

    def test_sampled_monotonicity_at_larger_arities(self):
        manager = Manager()
        rng = random.Random(31)
        for arity in (6, 10):
            for _ in range(25):
                table = TruthTable(arity, rng.getrandbits(1 << arity))
                counts = {
                    name: measure(compile_table(model, table,
                                                manager)).diamonds
                    for name, model in ALL_MODELS
                }
                for low, high in HASSE_EDGES:
                    assert counts[high] <= counts[low], (low, high, arity)

    def test_node_count_includes_terminals(self, mgr):
        zero = compile_table(PRESETS["s"], TruthTable.constant(1, 0), mgr)
        assert node_count(zero) == 2  # one diamond over one terminal
        mixed = compile_table(PRESETS["s"], TruthTable.from_bits([0, 1]), mgr)
        assert node_count(mixed) == 3

    def test_csv_format(self, mgr):
        assert CSV_HEADER == "model,arity,seed,diamonds,letters,s_size"
        report = measure(compile_table(NUCX, example1_table(), mgr))
        assert report.csv_row(7) == "o-nucx,4,7,1,6,7"
        assert report.csv_row() == "o-nucx,4,-,1,6,7"

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_label_bound(self, name, model):
        manager = Manager()
        rng = random.Random(3)
        for _ in range(60):
            arity = rng.randint(0, 6)
            table = TruthTable(arity, rng.getrandbits(1 << arity))
            report = measure(compile_table(model, table, manager))
            # one word per edge, at most ``arity`` letters per word
            assert report.letters <= (2 * report.diamonds + 1) * arity


def traced_lines(fn, *args) -> int:
    """The line events of one call, in every frame it runs: an exact
    count of the work, where a time would be noise."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(outer)
    return lines


class TestMeasureIsLinear:
    """``measure`` tallies each link once, so its walk is linear in the
    links it reaches, not in the letters of their words: one-hot under
    ``o-nucx`` stores about 4n links, whose words hold about n²/2
    letters."""

    @pytest.mark.parametrize("name", ["o-nucx", "o-u", "s"])
    def test_work_at_most_2_5x_per_doubling(self, name):
        model = PRESETS[name]
        manager = Manager()
        small, large = (one_hot(model, manager, n) for n in (250, 500))
        counts = []
        for n, handle in ((250, small), (500, large)):
            report = measure(handle)
            assert report.arity == n
            counts.append(traced_lines(measure, handle))
        assert counts[1] <= 2.5 * counts[0], counts

    def test_counts_word_letters(self):
        manager = Manager()
        handle = one_hot(NUCX, manager, 40)
        report = measure(handle)
        # nucx compare gives 38 diamonds and an s_size of 819 here
        assert (report.diamonds, report.letters) == (38, 781)


def reference_measure(handle):
    """``measure`` from ``iter_edges`` and ``Edge.word``: the diamonds of
    the distinct reachable edges, and the letters of their words."""
    edges = list(iter_edges(handle.edge))
    words = [edge.word for edge in edges]
    return (len({(e.base or e) for e in edges if e.lo is not None}),
            sum(len(word) - word.count(N) for word in words),
            sum(word.count(N) for word in words))


class TestWalksMatchReferences:
    @pytest.mark.parametrize("label", WALK_GRAPHS)
    def test_measure(self, label):
        handle = walk_graph(label)
        report = measure(handle)
        assert (report.diamonds, report.letters,
                report.neg_letters) == reference_measure(handle)
        assert report.arity == handle.arity

    @pytest.mark.parametrize("label", WALK_GRAPHS)
    def test_node_count(self, label):
        handle = walk_graph(label)
        assert node_count(handle) == len(
            {(edge.base or edge) for edge in iter_edges(handle.edge)})

    def test_terminal_roots(self, mgr):
        for edge in (mgr.zero, mgr.edge(N, mgr.run(3, mgr.one))):
            handle = FuncHandle(edge)
            report = measure(handle)
            assert (report.diamonds, report.letters,
                    report.neg_letters) == reference_measure(handle)
            assert node_count(handle) == 1


class TestCheckBounds:
    def test_equal_models_touch_the_lower_bound(self, mgr):
        verdict = check_bounds(example1_table(), NUCX, NUCX, mgr)
        assert verdict.coarse_diamonds == verdict.fine_diamonds == 1
        assert verdict.fine_letters == 6
        assert verdict.ok
        assert verdict.factor2_ok is None

    def test_incomparable_rejected(self, mgr):
        with pytest.raises(ValueError):
            check_bounds(example1_table(), PRESETS["o-nu"],
                         PRESETS["o-uc10"], mgr)

    def test_incomparable_rejected_without_compiling(self, mgr):
        sizes = measure(compile_table(NUCX, example1_table(), mgr))
        with pytest.raises(ValueError):
            bound_verdict(PRESETS["o-uc10"], PRESETS["o-nu"], sizes, sizes)

    def test_chain_pair_on_random_functions(self):
        manager = Manager()
        rng = random.Random(17)
        for _ in range(30):
            table = TruthTable(6, rng.getrandbits(64))
            verdict = check_bounds(table, PRESETS["o-u"],
                                   PRESETS["o-uc10"], manager)
            assert verdict.ok
            assert not verdict.negation_pair

    def test_negation_pair_factor_two(self):
        manager = Manager()
        rng = random.Random(23)
        for _ in range(30):
            table = TruthTable(6, rng.getrandbits(64))
            verdict = check_bounds(table, PRESETS["o-u"], PRESETS["o-nu"],
                                   manager)
            assert verdict.negation_pair
            assert verdict.factor2_ok
            assert verdict.ok

    def test_incomparable_pair_via_common_lower_model(self):
        # two incomparable expressive models still bound each other
        manager = Manager()
        rng = random.Random(29)
        for _ in range(20):
            table = TruthTable(6, rng.getrandbits(64))
            n = table.arity
            for first, second in (("o-nu", "o-uc10"), ("o-uc10", "o-nu")):
                a = node_count(compile_table(PRESETS[first], table, manager))
                b = node_count(compile_table(PRESETS[second], table, manager))
                assert 2 * a <= (n + 1) * (b + 1)


def sweep_bounds(arity: int) -> int:
    """Check the size bounds of every comparable pair of the 48 models
    on every function of ``arity``; return the number of verdicts.
    Tables are measured 4,096 at a time, one manager per model, so
    memory stays bounded at arity 4."""
    models = valid_models()
    pairs = [(a, b) for a, b in itertools.permutations(models, 2)
             if lattice_leq(a, b)]
    assert len(pairs) == 426
    checks = 0
    total = 1 << (1 << arity)
    for start in range(0, total, 4096):
        tables = [TruthTable(arity, mask)
                  for mask in range(start, min(start + 4096, total))]
        sizes = {}
        for model in models:
            manager = Manager()
            sizes[model] = [measure(compile_table(model, table, manager))
                            for table in tables]
        for coarse, fine in pairs:
            for c, f in zip(sizes[coarse], sizes[fine]):
                verdict = bound_verdict(coarse, fine, c, f)
                assert verdict.ok, verdict
            checks += len(tables)
    return checks


class TestBoundsHold:
    """The bounds of ``BoundVerdict`` over the whole class; CI runs
    ``sweep_bounds(4)``."""

    def test_every_function_of_arity_3(self):
        assert sweep_bounds(3) == 426 * 256

    def test_x0_at_arity_1(self):
        # the old upper bound 2*coarse <= (n+1)*(fine+1) on diamonds
        # plus terminals failed here: s has 3 nodes, o-nucx 1
        table = TruthTable.projection(1, 0)
        verdict = check_bounds(table, PRESETS["s"], NUCX)
        assert verdict.ok
        assert (verdict.coarse_diamonds, verdict.fine_diamonds) == (1, 0)
        for coarse, fine in itertools.permutations(valid_models(), 2):
            if lattice_leq(coarse, fine):
                assert check_bounds(table, coarse, fine).ok, (coarse, fine)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_parity(self, n):
        mask = 0
        for row in range(1 << n):
            mask |= (row.bit_count() & 1) << row
        table = TruthTable(n, mask)
        manager = Manager()
        for coarse, fine in itertools.permutations(PRESETS.values(), 2):
            if lattice_leq(coarse, fine):
                verdict = check_bounds(table, coarse, fine, manager)
                assert verdict.ok, verdict
        assert check_bounds(table, PRESETS["s"], NUCX,
                            manager).fine_diamonds == 0

    def test_marks_double_the_upper_bound(self):
        # a mark-free coarse diamond tells f from not-f, so without the
        # factor k = 2 the upper bound fails on s against s-n
        table = TruthTable(9, random.Random(2).getrandbits(512))
        verdict = check_bounds(table, PRESETS["s"], PRESETS["s-n"])
        assert (verdict.coarse_diamonds, verdict.fine_diamonds,
                verdict.fine_letters) == (142, 122, 0)
        assert verdict.coarse_diamonds > verdict.fine_diamonds + 2 * 9
        assert verdict.ok


def test_exports_and_sizes_of_a_seeded_table_keep_their_bytes():
    """A seeded arity-12 table under ``o-u`` and ``o-nucx``: the sha256
    of its DOT and signature texts, its ``measure`` and its
    ``node_count`` are pinned."""
    table = TruthTable(12, random.Random(12).getrandbits(1 << 12))
    expected = {
        "o-u": ("4022355feec35b3e95a1efed6299eade"
                "776c3a4408a0871e3e0478b23881e19a",
                "b19d2ee69d1a13dd845329609135a0d5"
                "5fccf5d81ec3b94228507161585bf6c1",
                (727, 30, 0), 729),
        "o-nucx": ("4d56461893d8d033bd4cbd8034ad4227"
                   "cf5ed3e886a6ad23881e7fadec6a629b",
                   "60617a2794d98279606968cf01361164"
                   "dc7807a39b9cac731ec828b345d4d952",
                   (584, 247, 205), 585),
    }
    for name, pinned in expected.items():
        handle = compile_table(PRESETS[name], table, Manager())
        report = measure(handle)
        got = (hashlib.sha256(dot_export(handle).encode()).hexdigest(),
               hashlib.sha256(signature(handle).encode()).hexdigest(),
               (report.diamonds, report.letters, report.neg_letters),
               node_count(handle))
        assert got == pinned, name
