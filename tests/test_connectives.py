import collections
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (EXAMPLE1_EXPR, chain_texts, custom_param,
                      example1_table, interned_links, iter_edges,
                      model_spellings, one_hot)
from nucx import connectives, reduction
from nucx.connectives import (
    _NOT_A,
    _NOT_B,
    _SWAP,
    _apply,
    apply,
    build_expr,
    cofactor,
    negb,
    projection,
)
from nucx.graph import (
    Edge,
    Manager,
    dot_export,
    eval_handle,
    signature,
    to_truth_table,
)
from nucx.letters import N, U
from nucx.metrics import measure
from nucx.oracle import (
    ArityError,
    TruthTable,
    letter_mask,
    tt_apply,
)
from nucx.queries import count_sat, is_sat, is_taut
from nucx.reduction import (
    NUCX,
    PRESETS,
    compile_table,
    cons_diamond,
    constant,
    parse_model,
    reduce,
)
from nucx.cli import parse_expr

ALL_MODELS = list(PRESETS.items())
MARK_FREE_MODELS = [(n, m) for n, m in ALL_MODELS if not m.negation]


def compile_bits(model, bits, manager):
    return compile_table(model, TruthTable.from_bits(bits), manager)


def table_mask(op, ma, mb, ones):
    """The mask of the 4-bit table ``op`` applied pointwise to ``ma``
    and ``mb``."""
    result = 0
    for a in (0, 1):
        for b in (0, 1):
            if op >> (2 * a + b) & 1:
                result |= (ma if a else ~ma) & (mb if b else ~mb) & ones
    return result


def check_every_table(model, arities):
    """``_apply`` of each of the 16 tables on every pair of functions of
    each arity returns the compiled edge of the expected function."""
    manager = Manager()
    for arity in arities:
        ones = (1 << (1 << arity)) - 1
        edges = [compile_table(model, TruthTable(arity, mask), manager).edge
                 for mask in range(ones + 1)]
        for op in range(16):
            for ma, x in enumerate(edges):
                for mb, y in enumerate(edges):
                    expected = edges[table_mask(op, ma, mb, ones)]
                    if _apply(model, op, x, y) is not expected:
                        raise AssertionError(
                            f"{model.name}: table {op:#06b} on arity-"
                            f"{arity} masks {ma:#x}, {mb:#x}")


def s_size(handle):
    diamonds = set()
    letters = 0
    for edge in iter_edges(handle.edge):
        letters += sum(1 for l in edge.word if l is not N)
        if edge.lo is not None:
            diamonds.add(edge.base or edge)
    return len(diamonds) + letters


class TestCofactor:
    def test_xor_letter_high_branch(self, mgr):
        identity = compile_bits(NUCX, [0, 1], mgr)
        result = cofactor(1, identity)
        assert signature(result) == "[N]0"
        assert result.edge is constant(NUCX, mgr, 1, 0)

    def test_useless_letter(self, mgr):
        f = TruthTable(2, 0b0110)
        lifted = compile_table(NUCX, TruthTable(3, letter_mask(U, f.mask, 2)),
                               mgr)
        inner = compile_table(NUCX, f, mgr)
        assert cofactor(0, lifted).edge is inner.edge

    def test_conjunction_low_branch(self, mgr):
        conj = compile_table(NUCX, TruthTable(2, 0b1000), mgr)
        assert cofactor(0, conj).edge is constant(NUCX, mgr, 0, 1)

    def test_constant_rejected(self, mgr):
        with pytest.raises(ArityError):
            cofactor(0, compile_table(NUCX, TruthTable.constant(0, 0), mgr))

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_matches_table_restriction(self, name, model):
        manager = Manager()
        rng = random.Random(7)
        for _ in range(120):
            arity = rng.randint(1, 4)
            table = TruthTable(arity, rng.getrandbits(1 << arity))
            handle = compile_table(model, table, manager)
            half = 1 << arity - 1
            f0 = TruthTable(arity - 1, table.mask & (1 << half) - 1)
            f1 = TruthTable(arity - 1, table.mask >> half)
            for v0, expected in ((0, f0), (1, f1)):
                got = cofactor(v0, handle)
                assert to_truth_table(got) == expected
                assert got.edge is compile_table(model, expected,
                                                 manager).edge

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_recombination_is_identity(self, name, model):
        manager = Manager()
        for mask in range(256):
            handle = compile_table(model, TruthTable(3, mask), manager)
            rebuilt = cons_diamond(model, manager, cofactor(0, handle).edge,
                                   cofactor(1, handle).edge)
            assert rebuilt is handle.edge


class TestAndb:
    def test_idempotent(self, mgr):
        h = compile_table(NUCX, example1_table(), mgr)
        assert apply("and", h, h) is not None
        assert apply("and", h, h).edge is h.edge

    def test_contradiction(self, mgr):
        h = compile_table(NUCX, example1_table(), mgr)
        assert apply("and", h, negb(h)).edge is constant(NUCX, mgr, 0, 4)

    def test_projection_conjunction(self, mgr):
        x0 = compile_bits(NUCX, [0, 0, 1, 1], mgr)
        x1 = compile_bits(NUCX, [0, 1, 0, 1], mgr)
        assert signature(apply("and", x0, x1)) == "[C00.X]0"

    def test_arity_mismatch(self, mgr):
        a = compile_table(NUCX, TruthTable.constant(1, 0), mgr)
        b = compile_table(NUCX, TruthTable.constant(2, 0), mgr)
        with pytest.raises(ArityError):
            apply("and", a, b)

    def test_cross_manager_rejected(self, mgr):
        other = Manager()
        a = compile_table(NUCX, TruthTable.constant(1, 0), mgr)
        b = compile_table(NUCX, TruthTable.constant(1, 0), other)
        with pytest.raises(ValueError):
            apply("and", a, b)

    def test_cross_model_rejected(self, mgr):
        a = compile_table(NUCX, TruthTable.constant(1, 0), mgr)
        b = compile_table(PRESETS["o-u"], TruthTable.constant(1, 0), mgr)
        with pytest.raises(ValueError):
            apply("and", a, b)


class TestNegb:
    def test_involution(self, mgr):
        for name, model in ALL_MODELS:
            h = compile_table(model, example1_table(), mgr)
            assert negb(negb(h)).edge is h.edge

    def test_mark_toggle(self, mgr):
        identity = compile_bits(NUCX, [0, 1], mgr)
        assert signature(negb(identity)) == "[N.X]0"

    def test_terminal_swap_in_letterless_model(self, mgr):
        model = PRESETS["s"]
        zero = compile_table(model, TruthTable.constant(2, 0), mgr)
        flipped = negb(zero)
        assert to_truth_table(flipped) == TruthTable.constant(2, 1)
        assert flipped.edge is compile_table(
            model, TruthTable.constant(2, 1), mgr).edge

    @pytest.mark.parametrize("name,model",
                             [(n, m) for n, m in ALL_MODELS if m.negation])
    def test_no_recursion_with_complement_edges(self, name, model):
        manager = Manager()
        h = compile_table(model, example1_table(), manager)
        manager.counters.clear()
        negb(h)
        assert manager.counters.get("negb_recursions", 0) == 0


class TestApply:
    def test_or_with_zero(self, mgr):
        h = compile_table(NUCX, example1_table(), mgr)
        zero = compile_table(NUCX, TruthTable.constant(4, 0), mgr)
        assert apply("or", h, zero).edge is h.edge

    def test_xor_self_cancels(self, mgr):
        h = compile_table(NUCX, example1_table(), mgr)
        assert apply("xor", h, h).edge is constant(NUCX, mgr, 0, 4)

    def test_running_example_composition(self, mgr):
        parity = tt_apply("xor", TruthTable.projection(4, 1),
                          TruthTable.projection(4, 2))
        guard = tt_apply("and",
                         tt_apply("not", TruthTable.projection(4, 0)),
                         TruthTable.projection(4, 3))
        result = apply("xor", compile_table(NUCX, parity, mgr),
                       compile_table(NUCX, guard, mgr))
        assert result.edge is compile_table(NUCX, example1_table(), mgr).edge

    def test_unknown_operation(self, mgr):
        h = compile_table(NUCX, TruthTable.constant(0, 0), mgr)
        with pytest.raises(ValueError):
            apply("nand", h, h)

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_matches_oracle_on_random_pairs(self, name, model):
        manager = Manager()
        rng = random.Random(99)
        for _ in range(60):
            arity = rng.randint(0, 4)
            fa = TruthTable(arity, rng.getrandbits(1 << arity))
            fb = TruthTable(arity, rng.getrandbits(1 << arity))
            ha = compile_table(model, fa, manager)
            hb = compile_table(model, fb, manager)
            assert (to_truth_table(apply("and", ha, hb))
                    == tt_apply("and", fa, fb))
            assert to_truth_table(apply("or", ha, hb)) == \
                tt_apply("or", fa, fb)
            assert to_truth_table(apply("xor", ha, hb)) == \
                tt_apply("xor", fa, fb)
            implies = tt_apply("or", tt_apply("not", fa), fb)
            assert to_truth_table(apply("implies", ha, hb)) == implies
            assert to_truth_table(negb(ha)) == tt_apply("not", fa)
            for result, expected in (
                    (apply("and", ha, hb), tt_apply("and", fa, fb)),
                    (apply("or", ha, hb), tt_apply("or", fa, fb)),
                    (apply("xor", ha, hb), tt_apply("xor", fa, fb)),
                    (apply("implies", ha, hb), implies),
                    (negb(ha), tt_apply("not", fa))):
                assert result.edge is compile_table(model, expected,
                                                    manager).edge

    @pytest.mark.parametrize("name,model", MARK_FREE_MODELS)
    def test_mark_free_negations_only_of_operands(self, name, model):
        # or and implies are not built by De Morgan: the only negations
        # left are the terminal cases xor(f, 1) = xor(1, f) = ~f and
        # implies(f, 0) = ~f, on subfunctions of the operand f
        def negations(table):
            solo = Manager()
            negb(compile_table(model, table, solo))
            return solo.counters.get("negb_recursions", 0)

        rng = random.Random(17)
        for _ in range(40):
            arity = rng.randint(1, 5)
            fa = TruthTable(arity, rng.getrandbits(1 << arity))
            fb = TruthTable(arity, rng.getrandbits(1 << arity))
            bounds = {"and": 0, "or": 0, "implies": negations(fa),
                      "xor": negations(fa) + negations(fb)}
            for op, bound in bounds.items():
                manager = Manager()
                ha = compile_table(model, fa, manager)
                hb = compile_table(model, fb, manager)
                manager.counters.clear()
                apply(op, ha, hb)
                assert manager.counters.get("negb_recursions", 0) <= bound
                assert not any(N in e.word for e in interned_links(manager))

    def test_memoized_pair_count_within_size_product(self):
        rng = random.Random(5)
        for _ in range(40):
            manager = Manager()
            arity = rng.randint(1, 5)
            fa = TruthTable(arity, rng.getrandbits(1 << arity))
            fb = TruthTable(arity, rng.getrandbits(1 << arity))
            ha = compile_table(NUCX, fa, manager)
            hb = compile_table(NUCX, fb, manager)
            manager.counters.clear()
            apply("and", ha, hb)
            pairs = manager.counters.get("andb_pairs", 0)
            assert pairs <= max(s_size(ha), 1) * max(s_size(hb), 1)


class TestApplyKeys:
    """The apply memo is keyed on mark-free, id-ordered operands and a
    4-bit table; these pin what that normalization must keep."""

    @pytest.mark.parametrize("model", model_spellings())
    def test_every_table_on_every_pair(self, model):
        check_every_table(model, range(3))

    def test_normalizing_tables_mean_what_they_say(self):
        def bit(op, a, b):
            return op >> 2 * a + b & 1
        for op in range(16):
            for a, b in itertools.product((0, 1), repeat=2):
                assert bit(_NOT_A[op], a, b) == bit(op, 1 - a, b)
                assert bit(_NOT_B[op], a, b) == bit(op, a, 1 - b)
                assert bit(_SWAP[op], a, b) == bit(op, b, a)
            for table in (_NOT_A, _NOT_B, _SWAP):
                assert table[table[op]] == op

    @pytest.mark.parametrize("name", ["o-nu", "o-nucx"])
    def test_complement_and_swap_share_entries(self, name):
        model = PRESETS[name]
        rng = random.Random(11)
        for _ in range(20):
            manager = Manager()
            a, b = (compile_table(model, TruthTable(6, rng.getrandbits(64)),
                                  manager) for _ in range(2))
            apply("xor", a, b)
            apply("or", a, b)
            memo = manager.space(model).apply
            entries = len(memo)
            assert entries
            manager.counters.clear()
            apply("xor", negb(a), b)
            apply("and", negb(a), negb(b))
            apply("xor", b, a)
            # at most the two complemented tables, each a flip of a key
            # already memoized; the conjunction splits nothing
            assert len(memo) - entries <= 2
            assert manager.counters.get("andb_pairs", 0) == 0

    def test_counts_do_not_depend_on_ids(self):
        model = NUCX
        rng = random.Random(23)
        tables = [TruthTable(5, rng.getrandbits(32)) for _ in range(12)]
        steps = [(rng.randrange(16), rng.randrange(12), rng.randrange(12),
                  rng.getrandbits(2)) for _ in range(60)]

        def run(order):
            manager = Manager()
            handles = {}
            for i in order:
                handles[i] = compile_table(model, tables[i], manager)
            manager.counters.clear()
            for op, i, j, marks in steps:
                x, y = handles[i], handles[j]
                if marks & 1:
                    x = negb(x)
                if marks & 2:
                    y = negb(y)
                _apply(model, op, x.edge, y.edge)
            return (dict(manager.counters), len(manager.space(model).apply),
                    len(interned_links(manager)), len(manager))

        forward = run(range(12))
        assert all(forward[1:])
        assert forward == run(reversed(range(12)))
        assert forward == run(rng.sample(range(12), 12))

    @pytest.mark.parametrize("model", model_spellings(mark_free_only=True))
    def test_mark_free_models_intern_no_mark(self, model):
        manager = Manager()
        rng = random.Random(31)
        for _ in range(20):
            arity = rng.randint(0, 5)
            fa = TruthTable(arity, rng.getrandbits(1 << arity))
            fb = TruthTable(arity, rng.getrandbits(1 << arity))
            ha = compile_table(model, fa, manager)
            hb = compile_table(model, fb, manager)
            for op in range(16):
                _apply(model, op, ha.edge, hb.edge)
        assert not any(e.letter is N for e in interned_links(manager))


def fold(model, manager, ast, arity):
    """An expression built one connective call at a time, operands
    first, as a user (or ``perfbench``'s ``apply-chain``) would."""
    kind = ast[0]
    if kind == "var":
        return projection(model, manager, ast[1], arity)
    if kind == "not":
        return negb(fold(model, manager, ast[1], arity))
    return apply(kind, fold(model, manager, ast[1], arity),
                 fold(model, manager, ast[2], arity))


class TestKernelWork:
    """The work of the apply core on left-deep chains, pinned exactly:
    a change to how the core walks must not change what it memoizes,
    splits or interns."""

    # apply entries, andb_pairs, diamonds, links
    WORK = {
        ("pair", "o-u"): (1024, 992, 1088, 718),
        ("pair", "o-nu"): (1056, 992, 1088, 719),
        ("pair", "o-nucx"): (1056, 992, 496, 1311),
        ("parity", "o-u"): (3969, 0, 4096, 191),
        ("parity", "o-nu"): (4032, 0, 2080, 2208),
        ("parity", "o-nucx"): (0, 0, 0, 2272),
        ("cnf", "o-u"): (1671, 1587, 1713, 1282),
        ("cnf", "o-nu"): (2389, 1587, 1688, 2437),
        ("cnf", "o-nucx"): (1853, 1587, 993, 4183),
    }

    @pytest.mark.parametrize("family,name", list(WORK))
    def test_left_deep_chain(self, family, name):
        arity = 64
        model = PRESETS[name]
        manager = Manager()
        fold(model, manager, parse_expr(chain_texts(arity)[family], arity),
             arity)
        work = (len(manager.space(model).apply),
                manager.counters.get("andb_pairs", 0), len(manager),
                len(interned_links(manager)))
        assert work == self.WORK[family, name]


def build_family(name, family, arity):
    """Diamonds, links, apply entries and ``andb_pairs`` of a fresh
    manager after ``build_expr`` of a ``chain_texts`` family."""
    model = PRESETS[name]
    manager = Manager()
    build_expr(model, parse_expr(chain_texts(arity)[family], arity), arity,
               manager)
    return (len(manager), len(interned_links(manager)),
            len(manager.space(model).apply),
            manager.counters.get("andb_pairs", 0))


class TestApplyWork:
    """The work of balanced builds through ``build_expr``, pinned exactly
    under every preset: projections and the apply core must intern,
    memoize and split just what they did."""

    # diamonds, links, apply entries, andb_pairs at arity 40
    WORK = {
        ("parity", "s"): (1804, 0, 865, 0),
        ("parity", "s-n"): (1640, 165, 904, 0),
        ("parity", "o-u"): (288, 152, 209, 0),
        ("parity", "o-nu"): (164, 277, 248, 0),
        ("parity", "o-c10"): (1744, 60, 865, 0),
        ("parity", "o-uc10"): (268, 172, 209, 0),
        ("parity", "o-nuc10c11"): (124, 317, 248, 0),
        ("parity", "o-uc0"): (228, 212, 209, 0),
        ("parity", "o-uc"): (228, 212, 209, 0),
        ("parity", "o-nuc"): (124, 317, 248, 0),
        ("parity", "o-nucx"): (0, 317, 0, 0),
        ("pair", "s"): (1713, 0, 813, 413),
        ("pair", "s-n"): (1673, 41, 833, 413),
        ("pair", "o-u"): (164, 204, 124, 104),
        ("pair", "o-nu"): (164, 205, 144, 104),
        ("pair", "o-c10"): (1673, 40, 813, 413),
        ("pair", "o-uc10"): (164, 204, 124, 104),
        ("pair", "o-nuc10c11"): (104, 265, 144, 104),
        ("pair", "o-uc0"): (72, 296, 124, 104),
        ("pair", "o-uc"): (52, 316, 124, 104),
        ("pair", "o-nuc"): (52, 317, 144, 104),
        ("pair", "o-nucx"): (52, 317, 144, 104),
        ("cnf", "s"): (2511, 0, 1520, 753),
        ("cnf", "s-n"): (2154, 259, 1750, 753),
        ("cnf", "o-u"): (389, 426, 355, 302),
        ("cnf", "o-nu"): (373, 748, 557, 302),
        ("cnf", "o-c10"): (2424, 87, 1520, 753),
        ("cnf", "o-uc10"): (342, 473, 355, 302),
        ("cnf", "o-nuc10c11"): (280, 841, 557, 302),
        ("cnf", "o-uc0"): (245, 570, 355, 302),
        ("cnf", "o-uc"): (189, 626, 355, 302),
        ("cnf", "o-nuc"): (189, 1019, 422, 302),
        ("cnf", "o-nucx"): (189, 1019, 422, 302),
    }

    @pytest.mark.parametrize("family,name", list(WORK))
    def test_balanced_build(self, family, name):
        assert build_family(name, family, 40) == self.WORK[family, name]


def count_entry_calls(monkeypatch) -> collections.Counter:
    """Count the calls of ``reduction.constant`` and of the
    ``Edge.manager`` property from here on."""
    calls = collections.Counter()
    real_constant = reduction.constant
    real_manager = Edge.manager.fget

    def constant(*args):
        calls["constant"] += 1
        return real_constant(*args)

    def manager(edge):
        calls["manager"] += 1
        return real_manager(edge)

    monkeypatch.setattr(reduction, "constant", constant)
    monkeypatch.setattr(connectives, "constant", constant)
    monkeypatch.setattr(Edge, "manager", property(manager))
    return calls


class TestEntryCode:
    """Once a model's constant rows reach an operation's arity, its
    entry code reads them directly, and the manager through the edge's
    weak reference."""

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_warm_rows_are_read_directly(self, name, model, monkeypatch):
        arity = 8
        manager = Manager()
        rng = random.Random(8)
        handles = [compile_table(model, TruthTable(
            arity, rng.getrandbits(1 << arity)), manager) for _ in range(3)]
        handles += [projection(model, manager, i, arity)
                    for i in (0, arity - 1)]
        constant(model, manager, 0, arity)
        constant(model, manager, 1, arity)
        space = manager.space(model)
        # a mark-free model complements by a rebuild, which reads the
        # manager property once; and and or never complement a leaf
        ops = (("and", "or", "xor", "implies") if model.negation
               else ("and", "or"))
        calls = count_entry_calls(monkeypatch)
        for index in range(arity):
            projection(model, manager, index, arity)
        for f in handles:
            cofactor(0, f)
            cofactor(1, f)
            for g in handles:
                for op in ops:
                    apply(op, f, g)
            if model.negation:
                negb(f)
        assert not calls
        # the complements of a mark-free model read the rows too
        for f in handles:
            negb(f)
            apply("xor", f, handles[0])
            apply("implies", f, handles[0])
        assert not calls["constant"]
        assert len(space.rows[0]) == len(space.rows[1]) == arity + 1

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_first_apply_fills_both_rows(self, name, model):
        arity = 8
        manager = Manager()
        space = manager.space(model)
        x0 = projection(model, manager, 0, arity)
        assert len(space.rows[0]) == len(space.rows[1]) == arity
        apply("and", x0, x0)
        assert len(space.rows[0]) == len(space.rows[1]) == arity + 1
        assert manager.counters["const_steps"] == 2 * (arity + 1)


class TestCountGuards:
    """Exact counts of the flat xor, the pair chain, the sparse CNF and
    one-hot at n and 2n.  Diamonds, links and apply entries each grow at
    most 2.5x per doubling: a run of ``U`` is one link, so the
    projections and the runs above the apply core's pairs no longer make
    a link per letter."""

    # diamonds, links, apply entries at n = 150 and n = 300
    COUNTS = {
        ("parity", "o-u"): ((1416, 590, 1117), (3132, 1189, 2533)),
        ("parity", "o-nucx"): ((0, 1374, 0), (0, 2906, 0)),
        ("pair", "o-u"): ((783, 869, 633), (1716, 1822, 1416)),
        ("pair", "o-nucx"): ((279, 1374, 708), (633, 2906, 1566)),
        ("cnf", "o-u"): ((1989, 2159, 1905), (4329, 4921, 4143)),
        ("cnf", "o-nucx"): ((1076, 5053, 2197), (2370, 8043, 4610)),
    }

    @pytest.mark.parametrize("family,name", list(COUNTS))
    def test_doubling(self, family, name):
        small, large = (build_family(name, family, n)[:3] for n in (150, 300))
        assert (small, large) == self.COUNTS[family, name]
        for before, after in zip(small, large):
            assert after <= 2.5 * before

    # diamonds and links of one-hot, built bottom-up through
    # cons_diamond, at n = 150 and n = 300
    ONE_HOT = {
        "o-u": ((300, 149), (600, 299)),
        "o-nucx": ((148, 600), (298, 1200)),
    }

    @pytest.mark.parametrize("name", list(ONE_HOT))
    def test_one_hot_doubling(self, name):
        counts = []
        for n in (150, 300):
            manager = Manager()
            handle = one_hot(PRESETS[name], manager, n)
            assert count_sat(handle) == n
            counts.append((len(manager), len(interned_links(manager))))
        small, large = counts
        assert (small, large) == self.ONE_HOT[name]
        for before, after in zip(small, large):
            assert after <= 2.5 * before


def run_mask(arity, tail, xored, tail_mask):
    """The mask of ``g ^ x_i ^ ...``: ``g`` is the table ``tail_mask``
    of the last ``tail`` variables, and bit ``j`` of ``xored`` puts
    ``x_{k-1-j}`` of the ``k = arity - tail`` leading ones in the xor."""
    mask = 0
    for i in range(1 << arity):
        bit = tail_mask >> (i & (1 << tail) - 1) & 1
        mask |= (bit ^ (i >> tail & xored).bit_count() & 1) << i
    return mask


def run_pairs(rng, count):
    """Operand masks at arity 6-8 that lead with a long run of ignored or
    xored variables over a small tail: equal, complementary, constant or
    unrelated tails, so a run can end at a diamond, a mark, a constant
    or an operand shared by both sides."""
    for _ in range(count):
        arity = rng.randint(6, 8)
        tail = rng.randint(1, 3)
        ones = (1 << (1 << tail)) - 1
        gx = rng.getrandbits(1 << tail)
        gy = rng.choice([gx, gx ^ ones, 0, ones, rng.getrandbits(1 << tail)])
        prefix = arity - tail
        xored = [rng.getrandbits(prefix) for _ in range(2)]
        if rng.random() < 0.5:
            xored[1] = xored[0] ^ rng.getrandbits(2) << rng.randrange(prefix)
        yield (arity, run_mask(arity, tail, xored[0], gx),
               run_mask(arity, tail, xored[1] & (1 << prefix) - 1, gy))


class TestRuns:
    """A common leading run of ``U`` (and, under xor, of ``U``/``X``) is
    one apply step; its result must still be the compiled table's edge."""

    @pytest.mark.parametrize("model", model_spellings())
    def test_deep_runs_match_compiled_tables(self, model):
        manager = Manager()
        rng = random.Random(13)
        for arity, ma, mb in run_pairs(rng, 10):
            ones = (1 << (1 << arity)) - 1
            x, y = (compile_table(model, TruthTable(arity, m), manager).edge
                    for m in (ma, mb))
            for op in range(16):
                expected = compile_table(
                    model, TruthTable(arity, table_mask(op, ma, mb, ones)),
                    manager).edge
                assert _apply(model, op, x, y) is expected, \
                    f"table {op:#06b} on {ma:#x}, {mb:#x} at arity {arity}"

    def test_xor_of_x_runs_needs_u(self):
        # six X/X levels of an xor give six U levels: skipped, with one
        # split of the tail, where the model has U (the skipped levels
        # are not memoized), six splits and the tail's where it has not
        arity = 8
        ones = (1 << (1 << arity)) - 1
        ma = run_mask(arity, 2, 0b111111, 0b0110)
        mb = run_mask(arity, 2, 0b111111, 0b1000)
        for name, entries in (("o-nucx", 1), ("custom:u,x+neg", 1),
                              ("custom:x+neg", 7)):
            model = parse_model(name)
            manager = Manager()
            x, y = (compile_table(model, TruthTable(arity, m), manager).edge
                    for m in (ma, mb))
            expected = compile_table(model, TruthTable(arity, ma ^ mb),
                                     manager).edge
            assert _apply(model, 0b0110, x, y) is expected
            assert len(manager.space(model).apply) == entries


def evaluate(ast, valuation):
    """The value of an expression tree at a valuation, on an explicit
    stack, so a flat chain of any length evaluates."""
    values = []
    stack = [(ast, False)]
    while stack:
        node, ready = stack.pop()
        kind = node[0]
        if kind == "const":
            values.append(node[1])
        elif kind == "var":
            values.append(valuation[node[1]])
        elif not ready:
            stack.append((node, True))
            stack.extend((part, False) for part in node[1:])
        elif kind == "not":
            values.append(1 - values.pop())
        else:
            a, b = values.pop(), values.pop()
            values.append({"and": a & b, "or": a | b, "xor": a ^ b}[kind])
    return values[0]


@st.composite
def wide_exprs(draw):
    """A random expression over a few variables of a wide arity: a
    random tree of up to 16 leaves, then steps that each combine any two
    of its subterms or of the steps before, reused as the same tuple, so
    operands are often equal, complementary or share their parts.  The
    expression has at most 64 leaves, counted with repeats."""
    arity = draw(st.integers(200, 1000))
    leaves = st.one_of(
        st.tuples(st.just("var"), st.integers(0, arity - 1)),
        st.tuples(st.just("const"), st.integers(0, 1)))
    ast = draw(st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(["and", "or", "xor"]), sub, sub)),
        max_leaves=16))
    nodes = []      # (subterm, its leaves), each after its parts

    def visit(node):
        count = (1 if node[0] in ("var", "const")
                 else sum(visit(part) for part in node[1:]))
        nodes.append((node, count))
        return count

    visit(ast)
    steps = st.tuples(st.sampled_from(["not", "and", "or", "xor"]),
                      st.integers(0, 63), st.integers(0, 63))
    # the latest node is nodes[~0], so steps that shrink to 0 build on it
    for kind, p, q in draw(st.lists(steps, max_size=16)):
        a, m = nodes[~(p % len(nodes))]
        b, n = nodes[~(q % len(nodes))]
        if kind == "not":
            nodes.append((("not", a), m))
        elif m + n <= 64:
            nodes.append(((kind, a, b), m + n))
    return arity, nodes[-1][0]


class TestLevelSkipping:
    """A run of levels both operands skip costs at most one apply entry,
    however long; projection interns its ``U`` run as one link, and
    ``rebuild`` takes it in one step."""

    @pytest.mark.parametrize("name", ["o-u", "o-nu", "o-nucx"])
    def test_or_of_the_last_two_variables(self, name):
        model = PRESETS[name]
        n = 100_000
        manager = Manager()
        space = manager.space(model)
        made = []
        for index in (n - 2, n - 1):
            links = len(interned_links(manager))
            rows = len(space.rows[0]) + len(space.rows[1])
            made.append(projection(model, manager, index, n))
            # besides the new entries of the constant rows, one link each
            assert (len(interned_links(manager)) - links
                    - (len(space.rows[0]) + len(space.rows[1]) - rows)) <= 4
        a, b = made
        memo = space.apply
        entries = len(memo)
        h = apply("or", a, b)
        assert len(memo) - entries <= 4
        assert count_sat(h) == 3 << (n - 2)
        assert eval_handle(h, [0] * (n - 1) + [1]) == 1
        assert eval_handle(h, [1] * (n - 2) + [0, 0]) == 0
        entries = len(space.reduce)
        complement = negb(b)
        assert len(space.reduce) - entries <= 4
        assert eval_handle(complement, [0] * n) == 1

    @pytest.mark.parametrize("model", [
        pytest.param(NUCX, id="o-nucx"), custom_param("custom:u,x+neg")])
    def test_xor_of_the_first_and_last_variables(self, model):
        # the xor skip keeps its padding as one run length: a word of
        # one letter per padded level made about 1.6 MB in this test
        n = 100_000
        manager = Manager()
        a, b = (projection(model, manager, index, n)
                for index in (0, n - 1))
        apply("and", a, b)  # fills the constant rows up to n
        tracemalloc.start()
        try:
            h = apply("xor", a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
        assert count_sat(h) == 2 ** (n - 1)

    @pytest.mark.parametrize("name,family", [
        ("o-nucx", "parity"), ("o-u", "pair"), ("o-nucx", "pair")])
    def test_flat_chain_memo(self, name, family):
        # balanced merges of operands that share their U runs: at most
        # 12 entries per variable (the flat xor under o-nucx one per
        # merge), where a left-deep fold level by level made O(n^2);
        # TestBuildExpr has the flat xor under o-u
        n = 1200
        model = PRESETS[name]
        manager = Manager()
        h = build_expr(model, parse_expr(chain_texts(n)[family], n), n,
                       manager)
        entries = len(manager.space(model).apply)
        assert entries <= (n if (name, family) == ("o-nucx", "parity")
                           else 12 * n)
        assert count_sat(h) == (2 ** (n - 1) if family == "parity"
                                else 3 ** (n // 2))

    @settings(max_examples=30, deadline=None)
    @given(wide_exprs(), st.integers(0, 2**32))
    def test_wide_builds_agree_across_models(self, case, seed):
        # o-nu is the chain model where the complement flip of a key
        # meets the U run step
        arity, ast = case
        manager = Manager()
        wide = build_expr(NUCX, ast, arity, manager)
        narrow = [build_expr(PRESETS[name], ast, arity, manager)
                  for name in ("o-u", "o-nu")]
        for handle in (wide, *narrow):
            assert reduce(handle.model, handle).edge is handle.edge
        for handle in narrow:
            assert reduce(NUCX, handle).edge is wide.edge
        rng = random.Random(seed)
        for _ in range(8):
            valuation = [rng.getrandbits(1) for _ in range(arity)]
            expected = evaluate(ast, valuation)
            for handle in (wide, *narrow):
                assert eval_handle(handle, valuation) == expected


class TestFlatChainsPastRecursionLimit:
    """The flat xor and the flat and of 5,000 variables, built with
    ``build_expr``: far deeper than the recursion limit, and each in
    links linear in n, where one link per letter of each ``U`` run made
    about n²/2."""

    ARITY = 5000

    @pytest.mark.parametrize("name", ["o-u", "o-nu", "o-nucx"])
    @pytest.mark.parametrize("op", ["xor", "and"])
    def test_count_eval_and_links(self, name, op):
        n = self.ARITY
        count = 2 ** (n - 1) if op == "xor" else 1
        ast = parse_expr(f" {'^' if op == 'xor' else '&'} ".join(
            f"x{i}" for i in range(n)), n)
        manager = Manager()
        h = build_expr(PRESETS[name], ast, n, manager)
        assert count_sat(h) == count
        assert count_sat(negb(h)) == 2 ** n - count
        rng = random.Random(n)
        samples = [[rng.getrandbits(1) for _ in range(n)] for _ in range(8)]
        samples += [[1] * n, [1] * (n - 1) + [0]]
        for valuation in samples:
            assert eval_handle(h, valuation) == evaluate(ast, valuation)
        # U runs are one link each; a run of X or of a canalizing letter
        # is still one link per letter, so the o-nucx and-chain's
        # balanced merges leave about 12n
        assert len(interned_links(manager)) <= 16 * n


class TestClearedMemos:
    """Clearing a model's memos between operations changes no result;
    the constant rows are no memo and stay."""

    @pytest.mark.parametrize("name", ["o-u", "o-nu", "o-nucx", "s"])
    def test_clearing_keeps_constant_rows_and_results(self, name):
        model = PRESETS[name]
        arity = 64
        cleared, free = Manager(), Manager()
        zero = constant(model, cleared, 0, arity)
        one = constant(model, cleared, 1, arity)
        space = cleared.space(model)

        def clear():
            space.apply.clear()
            space.reduce.clear()
            space.compile.clear()

        for family, text in chain_texts(arity).items():
            ast = parse_expr(text, arity)
            clear()
            a = build_expr(model, ast, arity, cleared)
            b = build_expr(model, ast, arity, free)
            # the flat xor under o-nucx is all skipped levels, which are
            # not memoized
            assert space.apply or (name, family) == ("o-nucx", "parity")
            assert dot_export(a) == dot_export(b)
            assert count_sat(a) == count_sat(b)
            clear()
            complement = negb(a)
            clear()
            never = apply("and", a, complement)
            clear()
            always = apply("or", complement, a)
            assert never.edge is zero and not is_sat(never)
            assert always.edge is one and is_taut(always)
        # a rebuilt row would count its steps again
        steps = cleared.counters["const_steps"]
        assert constant(model, cleared, 0, arity) is zero
        assert constant(model, cleared, 1, arity) is one
        assert cleared.counters["const_steps"] == steps
        assert space.rows[0][arity] is zero and space.rows[1][arity] is one
        assert len(space.apply) < len(free.space(model).apply)


class TestBuildExpr:
    def test_single_variable(self, mgr):
        h = build_expr(NUCX, ("var", 0), 1, mgr)
        assert signature(h) == "[X]0"

    def test_running_example(self, mgr):
        ast = parse_expr(EXAMPLE1_EXPR, 4)
        h = build_expr(NUCX, ast, 4, mgr)
        diamonds = {(e.base or e) for e in iter_edges(h.edge)
                    if e.lo is not None}
        assert len(diamonds) == 1
        assert h.edge is compile_table(NUCX, example1_table(), mgr).edge

    def test_constant_leaf(self, mgr):
        h = build_expr(NUCX, ("const", 0), 3, mgr)
        assert h.edge is constant(NUCX, mgr, 0, 3)

    def test_double_negation(self, mgr):
        ast = parse_expr("~~x0", 1)
        assert ast == ("not", ("not", ("var", 0)))
        assert build_expr(NUCX, ast, 1, mgr).edge is \
            compile_bits(NUCX, [0, 1], mgr).edge

    def test_out_of_range_variable(self, mgr):
        with pytest.raises(ValueError):
            build_expr(NUCX, ("var", 5), 4, mgr)

    def test_unknown_node_kind(self, mgr):
        ast = ("and", ("var", 0), ("nand", ("var", 0), ("var", 1)))
        with pytest.raises(ValueError,
                           match="unknown expression node 'nand'"):
            build_expr(NUCX, ast, 2, mgr)

    @pytest.mark.parametrize("model", [
        pytest.param(m, id=repr(m)) for _, m in ALL_MODELS] + [
        custom_param(name) for name in (
            "custom:x", "custom:c01,c11", "custom:c00,c11", "custom:u,x+neg",
            "custom:c00,c01+neg")])
    def test_projection_matches_compiled_table(self, model):
        manager = Manager()
        for arity in range(1, 11):
            for index in range(arity):
                expected = compile_table(
                    model, TruthTable.projection(arity, index), manager)
                assert projection(model, manager, index, arity).edge is \
                    expected.edge

    def test_projection_beyond_oracle_limit(self):
        manager = Manager()
        wide = projection(NUCX, manager, 3, 30)
        assert wide.arity == 30
        # canonical shape: useless prefix, one xor letter, useless tail
        assert signature(wide) == "[" + "U." * 3 + "X" + ".U" * 26 + "]0"

    @pytest.mark.parametrize("name,index,diamonds,letters", [
        ("o-nucx", 1199, 0, 1200),
        ("o-nucx", 3, 0, 1200),
        ("o-u", 1199, 1, 1199),
        ("o-u", 3, 1, 3 + 2 * 1196),
    ])
    def test_projection_deeper_than_recursion_limit(self, name, index,
                                                    diamonds, letters):
        manager = Manager()
        h = projection(PRESETS[name], manager, index, 1200)
        assert h.arity == h.edge.arity == 1200
        report = measure(h)
        assert (report.diamonds, report.letters, report.neg_letters) == \
            (diamonds, letters, 0)
        rng = random.Random(index)
        for _ in range(20):
            valuation = [rng.getrandbits(1) for _ in range(1200)]
            assert eval_handle(h, valuation) == valuation[index]

    def test_flat_chain_deeper_than_recursion_limit(self):
        # parses left-deep, one level per operator
        ast = parse_expr("^".join(f"x{i}" for i in range(1200)), 1200)
        manager = Manager()
        h = build_expr(PRESETS["o-u"], ast, 1200, manager)
        assert count_sat(h) == 2 ** 1199
        assert len(manager.space(PRESETS["o-u"]).apply) <= 12 * 1200
        rng = random.Random(1200)
        for _ in range(20):
            valuation = [rng.getrandbits(1) for _ in range(1200)]
            assert eval_handle(h, valuation) == sum(valuation) & 1

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_matches_oracle_semantics(self, name, model):
        manager = Manager()
        ast = parse_expr("(x0 | ~x1) ^ (x2 & 1)", 3)
        h = build_expr(model, ast, 3, manager)
        expected = []
        for x0, x1, x2 in itertools.product((0, 1), repeat=3):
            expected.append((x0 | (1 - x1)) ^ (x2 & 1))
        assert to_truth_table(h) == TruthTable.from_bits(expected)


def test_run_interning_keeps_the_flat_xor_counts():
    """The xor of 600 variables, folded balanced by ``build_expr``: the
    diamonds, links and apply entries it leaves are pinned."""
    n = 600
    ast = parse_expr(" ^ ".join(f"x{i}" for i in range(n)), n)
    expected = {
        "o-u": ("<Manager diamonds=6864 edges=2388>", 5665),
        "o-nucx": ("<Manager diamonds=0 edges=6121>", 0),
    }
    for name, counts in expected.items():
        model, manager = PRESETS[name], Manager()
        build_expr(model, ast, n, manager)
        got = (repr(manager), len(manager.space(model).apply))
        assert got == counts, name
