import itertools
import random
import tracemalloc

import pytest

from conftest import chain, custom_param, example1_table
from nucx.cli import parse_expr
from nucx.connectives import apply, build_expr, negb, projection
from nucx.graph import FuncHandle, Manager, eval_handle
from nucx.letters import C00, C11, X
from nucx.oracle import TruthTable, tt_eval
from nucx.queries import all_sat, any_sat, count_sat, equiv, is_sat, is_taut
from nucx.reduction import NUCX, PRESETS, compile_table, constant, reduce

ALL_MODELS = list(PRESETS.items())
WITNESS_PARAMS = [pytest.param(m, id=repr(m)) for _, m in ALL_MODELS] + [
    custom_param(name) for name in ("custom:x", "custom:c01,c11",
                                    "custom:c00,c11", "custom:u,x+neg",
                                    "custom:c00,c01+neg")]
WITNESS_MODELS = [param.values[0] for param in WITNESS_PARAMS]
#: every non-zero function of arity <= 3, as (arity, mask)
NONZERO = [(arity, mask) for arity in range(4)
           for mask in range(1, 1 << (1 << arity))]


def least_witness(table):
    """The lexicographically least satisfying valuation, x0 first."""
    return next(v for v in itertools.product((0, 1), repeat=table.arity)
                if tt_eval(table, v))


def compiled(model, table, manager):
    return compile_table(model, table, manager)


class TestSatTaut:
    def test_zero_constant(self, mgr):
        h = compiled(NUCX, TruthTable.constant(2, 0), mgr)
        assert not is_sat(h)
        assert not is_taut(h)

    def test_one_constant(self, mgr):
        h = compiled(NUCX, TruthTable.constant(2, 1), mgr)
        assert is_sat(h)
        assert is_taut(h)

    def test_running_example(self, mgr):
        h = compiled(NUCX, example1_table(), mgr)
        assert is_sat(h)
        assert not is_taut(h)

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_every_model_agrees_with_popcount(self, name, model):
        manager = Manager()
        for mask in range(256):
            table = TruthTable(3, mask)
            h = compiled(model, table, manager)
            assert is_sat(h) == (table.popcount() > 0)
            assert is_taut(h) == (table.popcount() == table.size)

    def test_step_budget(self):
        manager = Manager()
        h = compiled(NUCX, example1_table(), manager)
        manager.counters.clear()
        is_sat(h)
        assert manager.counters.get("const_steps", 0) <= h.arity


class TestEquiv:
    def test_reflexive(self, mgr):
        h = compiled(NUCX, example1_table(), mgr)
        assert equiv(h, h)

    def test_separate_compilations_coincide(self, mgr):
        a = compiled(NUCX, example1_table(), mgr)
        b = compiled(NUCX, example1_table(), mgr)
        assert equiv(a, b)

    def test_never_equal_to_own_complement(self, mgr):
        for mask in range(16):
            h = compiled(NUCX, TruthTable(2, mask), mgr)
            assert not equiv(h, negb(h))

    def test_matches_truth_tables_exhaustively(self, mgr):
        for arity in (2, 3):
            handles = [compiled(NUCX, TruthTable(arity, m), mgr)
                       for m in range(1 << (1 << arity))]
            for a, b in itertools.product(range(len(handles)), repeat=2):
                assert equiv(handles[a], handles[b]) == (a == b)

    def test_cross_manager_rejected(self, mgr):
        other = Manager()
        a = compiled(NUCX, TruthTable.constant(1, 0), mgr)
        b = compiled(NUCX, TruthTable.constant(1, 0), other)
        with pytest.raises(ValueError):
            equiv(a, b)

    def test_cross_model_rejected(self, mgr):
        a = compiled(NUCX, TruthTable.constant(1, 0), mgr)
        b = compiled(PRESETS["o-u"], TruthTable.constant(1, 0), mgr)
        with pytest.raises(ValueError):
            equiv(a, b)


class TestCountSat:
    def test_zero_chain(self, mgr):
        assert count_sat(compiled(NUCX, TruthTable.constant(3, 0), mgr)) == 0

    def test_xor_letter(self, mgr):
        h = compiled(NUCX, TruthTable.from_bits([0, 1]), mgr)
        assert count_sat(h) == 1

    def test_running_example(self, mgr):
        assert count_sat(compiled(NUCX, example1_table(), mgr)) == 8

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_matches_popcount(self, name, model):
        manager = Manager()
        for arity in range(4):
            for mask in range(1 << (1 << arity)) if arity < 3 else \
                    range(0, 256, 3):
                table = TruthTable(arity, mask)
                h = compiled(model, table, manager)
                assert count_sat(h) == table.popcount()

    def test_complement_identity(self, mgr):
        rng = random.Random(11)
        for _ in range(50):
            arity = rng.randint(0, 5)
            table = TruthTable(arity, rng.getrandbits(1 << arity))
            h = compiled(NUCX, table, mgr)
            assert count_sat(negb(h)) == (1 << arity) - count_sat(h)


class TestQueryWork:
    """The work of ``count_sat`` on seeded graphs, pinned exactly: a
    change to how it walks must not change what it memoizes.  The
    entries are those of the post-order walk that reads each letter's
    count directly: every edge it visits, terminals included, and no
    inner link of a ``U`` run, no constant a canalizing letter forces
    and no complement under an ``X``, which it never visits, nor any
    diamond of a constant row, which it reads off the row."""

    EXPRS = ("(x0 | x31) & ~(x5 ^ x20)",
             " & ".join(f"(x{2 * i} | x{2 * i + 1})" for i in range(16)),
             "x3 ^ x9 ^ (~x14 & x30)")
    # count entries after counting every graph, per model
    ENTRIES = {
        "s": 1300, "s-n": 830, "o-u": 1190, "o-nu": 775, "o-c10": 1330,
        "o-uc10": 1189, "o-nuc10c11": 770, "o-uc0": 1170, "o-uc": 1158,
        "o-nuc": 769, "o-nucx": 754,
    }
    # three arity-10 tables and EXPRS at arity 32, then their negations
    COUNTS = (502, 540, 506, 1610612736, 43046721, 2147483648,
              522, 484, 518, 2684354560, 4251920575, 2147483648)

    @classmethod
    def handles(cls, model, manager):
        rng = random.Random(18)
        found = [compiled(model, TruthTable(10, rng.getrandbits(1 << 10)),
                          manager) for _ in range(3)]
        found += [build_expr(model, parse_expr(text, 32), 32, manager)
                  for text in cls.EXPRS]
        return found + [negb(h) for h in found]

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_count_entries_and_counts(self, name):
        manager = Manager()
        handles = self.handles(PRESETS[name], manager)
        assert tuple(count_sat(h) for h in handles) == self.COUNTS
        assert len(manager.cache("count")) == self.ENTRIES[name]

    @pytest.mark.parametrize("name", ["s", "o-c10"])
    def test_constant_towers_are_not_memoized(self, name):
        # s builds both constants as towers of diamonds, o-c10 the
        # constant 1: a k-bit count per level would hold n**2 / 2 bits
        n = 5000
        manager = Manager()
        handle = projection(PRESETS[name], manager, 0, n)
        assert count_sat(handle) == 1 << (n - 1)
        memo = manager.cache("count")
        assert len(memo) <= n + 1
        assert sum(count.bit_length() for count in memo.values()) <= n

    #: the arity-64 expression of the no-interning test
    WIDE = " ^ ".join(f"x{i}" for i in range(64)) + " & x1 | x5"

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_queries_intern_nothing(self, name):
        # once the constant rows reach a graph's arity, a query only
        # reads: it interns no diamond or link and extends no row
        model = PRESETS[name]
        manager = Manager()
        handles = self.handles(model, manager)
        wide = build_expr(model, parse_expr(self.WIDE, 64), 64, manager)
        handles += [wide, negb(wide)]
        for h in handles:
            for value in (0, 1):
                constant(model, manager, value, h.arity)
        space = manager.space(model)
        before = (repr(manager), len(space.zeros), len(space.ones))
        for h in handles:
            count_sat(h)
            any_sat(h)
            list(itertools.islice(all_sat(h), 1000))
            is_sat(h)
            is_taut(h)
            equiv(h, h)
        assert (repr(manager), len(space.zeros), len(space.ones)) == before


class TestAnySat:
    def test_unsat(self, mgr):
        assert any_sat(compiled(NUCX, TruthTable.constant(2, 0), mgr)) is None

    def test_xor_letter(self, mgr):
        h = compiled(NUCX, TruthTable.from_bits([0, 1]), mgr)
        assert any_sat(h) == (1,)

    def test_witnesses_are_genuine(self):
        manager = Manager()
        rng = random.Random(20260809)
        for _ in range(1000):
            arity = rng.randint(0, 6)
            table = TruthTable(arity, rng.getrandbits(1 << arity))
            h = compiled(NUCX, table, manager)
            witness = any_sat(h)
            if table.popcount() == 0:
                assert witness is None
            else:
                assert witness is not None
                assert len(witness) == arity
                assert eval_handle(h, witness) == 1

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_all_models(self, name, model):
        manager = Manager()
        for mask in range(256):
            h = compiled(model, TruthTable(3, mask), manager)
            witness = any_sat(h)
            if mask == 0:
                assert witness is None
            else:
                assert eval_handle(h, witness) == 1


class TestLeastWitness:
    @pytest.mark.parametrize("model", WITNESS_PARAMS)
    def test_any_sat_is_first_of_all_sat(self, model):
        manager = Manager()
        for arity, mask in NONZERO:
            table = TruthTable(arity, mask)
            h = compiled(model, table, manager)
            assert any_sat(h) == next(all_sat(h)) == least_witness(table)

    def test_witness_is_model_independent(self):
        manager = Manager()
        for arity, mask in NONZERO:
            table = TruthTable(arity, mask)
            witnesses = {any_sat(compiled(model, table, manager))
                         for model in WITNESS_MODELS}
            assert len(witnesses) == 1, (arity, mask, witnesses)


class TestAllSat:
    def test_tautology(self, mgr):
        h = compiled(NUCX, TruthTable.constant(2, 1), mgr)
        assert list(all_sat(h)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_running_example(self, mgr):
        h = compiled(NUCX, example1_table(), mgr)
        got = list(all_sat(h))
        table = example1_table()
        expected = [v for v in itertools.product((0, 1), repeat=4)
                    if table.bits[int("".join(map(str, v)), 2)]]
        assert got == expected
        assert len(got) == 8

    def test_lazy(self, mgr):
        h = compiled(NUCX, TruthTable.constant(4, 1), mgr)
        stream = all_sat(h)
        assert next(stream) == (0, 0, 0, 0)

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_cardinality_and_order(self, name, model):
        manager = Manager()
        for arity in range(4):
            for mask in range(1 << (1 << arity)) if arity < 3 else \
                    range(0, 256, 5):
                table = TruthTable(arity, mask)
                h = compiled(model, table, manager)
                valuations = list(all_sat(h))
                assert len(valuations) == count_sat(h)
                assert valuations == sorted(valuations)
                for v in valuations:
                    assert eval_handle(h, v) == 1


class TestDeeperThanRecursionLimit:
    """Arity 1200: every descent runs on an explicit stack.  ``s`` has no
    letters, so its diamond chains are the deepest of these inputs."""

    ARITY = 1200

    def xor_ends(self, model, manager):
        last = self.ARITY - 1
        return apply("xor", projection(model, manager, 0, self.ARITY),
                     projection(model, manager, last, self.ARITY))

    @pytest.mark.parametrize("name", ["o-u", "o-nucx", "s"])
    def test_count_and_complement(self, name):
        manager = Manager()
        h = self.xor_ends(PRESETS[name], manager)
        assert count_sat(h) == 2 ** 1199
        g = apply("and", projection(PRESETS[name], manager, 0, self.ARITY),
                  projection(PRESETS[name], manager, 1, self.ARITY))
        for f in (h, g):
            assert count_sat(negb(f)) == 2 ** self.ARITY - count_sat(f)
        assert count_sat(g) == 2 ** 1198

    @pytest.mark.parametrize("name", ["o-u", "o-nucx", "s"])
    def test_eval_matches_expression(self, name):
        h = self.xor_ends(PRESETS[name], Manager())
        rng = random.Random(1200)
        for _ in range(20):
            valuation = [rng.getrandbits(1) for _ in range(self.ARITY)]
            assert eval_handle(h, valuation) == valuation[0] ^ valuation[-1]
            assert eval_handle(negb(h), valuation) == \
                1 - (valuation[0] ^ valuation[-1])

    @pytest.mark.parametrize("target", ["o-u", "o-uc"])
    def test_reduce_across_models(self, target):
        manager = Manager()
        source = self.xor_ends(NUCX, manager)
        direct = self.xor_ends(PRESETS[target], manager)
        assert reduce(PRESETS[target], source).edge is direct.edge

    @pytest.mark.parametrize("name", ["o-u", "o-nucx", "s"])
    def test_all_sat_first_witness(self, name):
        manager = Manager()
        model = PRESETS[name]
        h = apply("and", projection(model, manager, 0, self.ARITY),
                  projection(model, manager, self.ARITY - 1, self.ARITY))
        witnesses = all_sat(h)
        assert next(witnesses) == (1,) + (0,) * 1198 + (1,)
        assert next(witnesses) == (1,) + (0,) * 1197 + (1, 1)


class TestChainsPastRecursionLimit:
    """The or-chain and the and-chain of 5,000 variables and their
    complements, counted and witnessed under every preset."""

    ARITY = 5000

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_counts_and_witnesses(self, name):
        n = self.ARITY
        manager = Manager()
        # the raw words C11^(n-1).X and C00^(n-1).X over 0 are the or and
        # the and of x0..x(n-1); reduce puts them in the model's form
        handles = [reduce(PRESETS[name], FuncHandle(chain(
            manager, [letter] * (n - 1) + [X]))) for letter in (C11, C00)]
        handles += [negb(h) for h in handles]
        assert [count_sat(h) for h in handles] == \
            [2 ** n - 1, 1, 1, 2 ** n - 1]
        witnesses = [any_sat(h) for h in handles]
        assert witnesses == [(0,) * (n - 1) + (1,), (1,) * n,
                             (0,) * n, (0,) * n]
        for h, witness in zip(handles, witnesses):
            assert eval_handle(h, witness) == 1


@pytest.mark.parametrize("name", ["o-u", "o-nucx"])
def test_first_witness_holds_one_path(name):
    # a tuple per pending branch would hold O(n^2) bits: about 61 MB here
    arity = 4000
    h = projection(PRESETS[name], Manager(), arity - 1, arity)
    tracemalloc.start()
    try:
        witness = next(all_sat(h))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness == (0,) * (arity - 1) + (1,)
    assert peak < 2 << 20
