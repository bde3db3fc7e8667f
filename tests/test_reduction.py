import copy
import dataclasses
import itertools
import pickle
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import (example1_table, interned_links, iter_edges,
                      model_spellings, random_raw_edge)
from nucx import reduction
from nucx.connectives import apply, cofactor, negb, projection
from nucx.graph import (
    FuncHandle,
    Manager,
    signature,
    to_truth_table,
)
from nucx.letters import C00, C01, C10, C11, ELEMENTARY, N, U, X
from nucx.oracle import ArityError, TruthTable, tt_apply
from nucx.queries import (all_sat, any_sat, count_sat, equiv, is_sat,
                          is_taut)
from nucx.reduction import (
    HASSE_EDGES,
    NUCX,
    PRESETS,
    ModelSpec,
    certify_canonicity,
    compile_table,
    cons_diamond,
    cofactors,
    constant,
    lattice_leq,
    parse_model,
    push_neg,
    rebuild,
    reduce,
    translate_letter,
    valid_models,
)

ALL_MODELS = list(PRESETS.items())
VALID_MODELS = valid_models()
NEGATION_MODELS = [(n, m) for n, m in ALL_MODELS if m.negation]


def diamonds_of(edge):
    return {(e.base or e) for e in iter_edges(edge) if e.lo is not None}


class TestConjugation:
    def test_table(self):
        pairs = {U: U, X: X, C00: C01, C01: C00, C10: C11, C11: C10}
        for letter, expected in pairs.items():
            assert letter.conjugate is expected

    def test_involution(self):
        for letter in ELEMENTARY:
            assert letter.conjugate.conjugate is letter

    def test_mark_rejected(self):
        assert N.conjugate is None
        with pytest.raises(ValueError):
            ModelSpec(frozenset({N}), True)


class TestModelSpec:
    def test_stability_examples(self):
        # test_unstable_negation_rejected has the unclosed case
        assert ModelSpec(frozenset({U, C10})).letters == {U, C10}
        assert ModelSpec(frozenset({U, C10, C11}), True).negation
        assert ModelSpec(frozenset(), True) is PRESETS["s-n"]

    def test_unstable_negation_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(frozenset({U, C10}), negation=True)

    def test_mark_not_an_alphabet_letter(self):
        with pytest.raises(ValueError):
            ModelSpec(frozenset({N}))

    def test_presets_match_catalog(self):
        catalog = {
            "s": (set(), False),
            "s-n": (set(), True),
            "o-u": ({U}, False),
            "o-nu": ({U}, True),
            "o-c10": ({C10}, False),
            "o-uc10": ({U, C10}, False),
            "o-nuc10c11": ({U, C10, C11}, True),
            "o-uc0": ({U, C00, C10}, False),
            "o-uc": ({U, C00, C01, C10, C11}, False),
            "o-nuc": ({U, C00, C01, C10, C11}, True),
            "o-nucx": ({U, X, C00, C01, C10, C11}, True),
        }
        assert set(PRESETS) == set(catalog)
        for name, (letters, negation) in catalog.items():
            model = PRESETS[name]
            assert model.letters == letters
            assert model.negation is negation
            assert model.name == name

    def test_parse_custom(self):
        model = parse_model("custom:U,X,C00,c01+neg")
        assert model.letters == {U, X, C00, C01}
        assert model.negation
        assert model.name.startswith("custom:")
        assert parse_model(model.name) == model

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            parse_model("o-zdd")

    def test_canalizing_letters(self):
        # the letters cons_diamond's loop checks: C01 is left out under
        # the mark, where C00's check over a marked child makes it
        for model in VALID_MODELS:
            expected = tuple(
                letter for letter in (C11, C10, C01, C00)
                if letter in model.letters)
            if model.negation:
                expected = tuple(l for l in expected if l is not C01)
            assert model.canalizing == expected, model
        assert NUCX.canalizing == (C11, C10, C00)
        assert PRESETS["o-uc"].canalizing == (C11, C10, C01, C00)


class TestModelInterning:
    def test_custom_spelling_of_a_preset_is_the_preset(self):
        assert parse_model("custom:u,c00,c01,c10,c11+neg") is PRESETS["o-nuc"]
        assert ModelSpec(frozenset({U})) is PRESETS["o-u"]
        assert ModelSpec([X, U, C00, C01, C10, C11], True) is NUCX

    def test_equal_custom_models_are_identical(self):
        first = parse_model("custom:x,c10")
        assert parse_model("custom:C10,X") is first
        assert ModelSpec(frozenset({X, C10}), negation=False) is first
        assert parse_model(first.name) is first
        assert first is not parse_model("custom:x,c10,c11+neg")

    def test_names_are_computed_once(self):
        for model in VALID_MODELS:
            assert model.name is model.name
            assert parse_model(model.name) is model

    def test_equality_is_identity(self):
        model = parse_model("custom:u,x")
        assert model == parse_model("custom:x,u")
        assert model != parse_model("custom:u,x+neg")
        assert hash(model) == object.__hash__(model)

    def test_shared_instance_is_never_rewritten(self):
        # no generated __init__ runs over an interned instance
        assert "__init__" not in vars(ModelSpec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            NUCX.negation = False
        assert NUCX.negation is True

    def test_copies_are_the_instance(self):
        for model in (NUCX, parse_model("custom:x,c00")):
            assert copy.copy(model) is model
            assert copy.deepcopy(model) is model
            assert pickle.loads(pickle.dumps(model)) is model

    def test_threads_get_one_instance(self):
        key = (frozenset({C00, C11}), False)
        original = reduction._MODELS[key]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                del reduction._MODELS[key]
                barrier = threading.Barrier(8, timeout=10)
                made = []

                def build():
                    barrier.wait()
                    made.append(ModelSpec(*key))

                threads = [threading.Thread(target=build) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(made) == 8
                assert all(model is made[0] for model in made)
                assert reduction._MODELS[key] is made[0]
        finally:
            sys.setswitchinterval(interval)
            reduction._MODELS[key] = original

    @pytest.mark.parametrize("letters,negation", [
        ({U, C10}, True), ({N}, False), ({U, N}, True), ({C00, X}, True)])
    def test_bad_alphabets_still_raise(self, letters, negation):
        for _ in range(2):
            with pytest.raises(ValueError):
                ModelSpec(frozenset(letters), negation)


class TestValidModels:
    def test_the_whole_class(self):
        assert len(VALID_MODELS) == 48
        assert len(set(VALID_MODELS)) == 48
        assert set(PRESETS.values()) <= set(VALID_MODELS)
        assert sum(m.negation for m in VALID_MODELS) == 16
        spellings = [param.values[0] for param in model_spellings()]
        assert len(spellings) == 80
        assert set(spellings) == set(VALID_MODELS)
        for model in VALID_MODELS:
            if model.negation:
                assert {l.conjugate for l in model.letters} == model.letters
            else:
                assert X not in model.letters

    def test_mark_free_x_spellings_are_their_twins(self):
        assert ModelSpec(frozenset({U, X})) is PRESETS["o-u"]
        assert parse_model("custom:x") is PRESETS["s"]
        assert parse_model("custom:x,c10,c11+neg") is not parse_model(
            "custom:c10,c11+neg")
        for bits in range(1 << len(ELEMENTARY)):
            letters = frozenset(letter for i, letter in enumerate(ELEMENTARY)
                                if bits >> i & 1)
            twin = ModelSpec(letters - {X})
            assert ModelSpec(letters) is twin
            assert twin in VALID_MODELS

    def test_distinct_models_compile_distinctly(self):
        # every function of arity <= 3 at once: one key per model
        manager = Manager()
        tables = [TruthTable(n, mask)
                  for n in range(4) for mask in range(1 << (1 << n))]
        keys = {tuple(compile_table(model, table, manager).edge
                      for table in tables)
                for model in VALID_MODELS}
        assert len(keys) == len(VALID_MODELS) == 48

    def test_nucx_is_the_most_expressive(self):
        manager = Manager()
        for n in range(4):
            for mask in range(1 << (1 << n)):
                table = TruthTable(n, mask)
                least = len(diamonds_of(compile_table(NUCX, table,
                                                      manager).edge))
                for model in VALID_MODELS:
                    edge = compile_table(model, table, manager).edge
                    assert len(diamonds_of(edge)) >= least, (model, mask)

    @pytest.mark.parametrize("model", model_spellings())
    def test_certify_canonicity(self, model):
        certify_canonicity(model, 3)

    @pytest.mark.parametrize("model", model_spellings())
    def test_compared_constants_end_at_a_terminal(self, model):
        # ``cons_diamond`` skips the canalizing checks for a child that
        # ends at a diamond; that is sound because every constant a check
        # compares against is a letter chain down to a terminal
        compared = {letter.const for letter in model.canalizing}
        manager = Manager()
        for arity in range(41):
            for value in compared:
                edge = constant(model, manager, value, arity)
                assert edge.lo is None, (value, arity)

    def test_constants_are_chains_at_every_arity_or_at_none(self):
        # the apply core reads this once per call, at the root's arity,
        # to skip the terminal test for operands ending at a diamond
        manager = Manager()
        chains = 0
        for model in VALID_MODELS:
            shapes = {tuple(constant(model, manager, value, arity).lo
                            is None for value in (0, 1))
                      for arity in range(1, 31)}
            assert len(shapes) == 1, model
            chains += shapes == {(True, True)}
        assert chains == 39


class TestLattice:
    def test_examples(self):
        assert lattice_leq(PRESETS["o-u"], PRESETS["o-uc10"])
        assert not lattice_leq(PRESETS["o-nu"], PRESETS["o-uc10"])
        assert not lattice_leq(PRESETS["o-uc10"], PRESETS["o-nu"])
        for _, model in ALL_MODELS:
            assert lattice_leq(model, model)

    def test_hasse_edges_are_ordered(self):
        for low, high in HASSE_EDGES:
            assert lattice_leq(PRESETS[low], PRESETS[high])
            assert not lattice_leq(PRESETS[high], PRESETS[low])

    def test_hasse_edges_are_the_covering_relation(self):
        # the transitive reduction of the strict order: its closure is
        # the order, and no edge follows from the others
        def closure(edges):
            closed = set(edges)
            while True:
                more = {(a, d) for a, b in closed for c, d in closed
                        if b == c} - closed
                if not more:
                    return closed
                closed |= more

        order = {(low, high)
                 for low, a in PRESETS.items() for high, b in PRESETS.items()
                 if a is not b and lattice_leq(a, b)}
        edges = set(HASSE_EDGES)
        assert len(HASSE_EDGES) == len(edges) == 14
        assert closure(edges) == order
        for edge in edges:
            assert edge not in closure(edges - {edge}), edge
        assert {("o-uc0", "o-uc"), ("o-nuc", "o-nucx")} <= edges
        assert ("o-nu", "o-nucx") not in edges
        assert ("o-uc0", "o-nucx") not in edges


class TestPushNeg:
    def test_strip(self, mgr):
        marked = mgr.edge(N, mgr.edge(X, mgr.zero))
        assert push_neg(marked).word == (X,)

    def test_prepend(self, mgr):
        plain = mgr.edge(U, mgr.zero)
        assert push_neg(plain).word == (N, U)

    def test_mark_is_one_link_over_the_edge(self, mgr):
        plain = mgr.edge(X, mgr.edge(U, mgr.zero))
        diamond = mgr.diamond(plain, mgr.edge(U, plain.child))
        for edge in (plain, diamond):
            assert push_neg(edge).child is edge
            assert push_neg(push_neg(edge)) is edge

    @given(st.integers(0, 2**32))
    def test_involution(self, seed):
        manager = Manager()
        rng = random.Random(seed)
        edge = random_raw_edge(rng, manager, rng.randint(0, 4))
        while edge.word[:2] == (N, N):  # raw graphs may stack marks
            edge = push_neg(edge)
        assert push_neg(push_neg(edge)) is edge


class TestConsDiamond:
    def test_useless_first(self, mgr):
        assert signature(FuncHandle(cons_diamond(NUCX, mgr, mgr.zero,
                                                 mgr.zero))) == "[U]0"

    def test_xor_beats_canalizing(self, mgr):
        one = push_neg(mgr.zero)
        assert signature(FuncHandle(cons_diamond(NUCX, mgr, mgr.zero,
                                                 one))) == "[X]0"

    def test_chain_model_zero_suppression(self, mgr):
        model = PRESETS["o-uc10"]
        e = compile_table(model, TruthTable.from_bits([0, 1]), mgr).edge
        zero1 = constant(model, mgr, 0, 1)
        result = cons_diamond(model, mgr, e, zero1)
        assert result.word == (C10,) + e.word
        assert (result.base or result) is (e.base or e)

    def test_arity_mismatch(self, mgr):
        with pytest.raises(ArityError):
            cons_diamond(NUCX, mgr, mgr.zero, constant(NUCX, mgr, 0, 1))

    @pytest.mark.parametrize(
        "model", [model for _, model in NEGATION_MODELS]
        + [parse_model("custom:u,x+neg")], ids=lambda model: model.name)
    def test_mark_pull_matches_recursive_rule(self, model):
        # the reference rule: the node over the toggled children, toggled
        manager = Manager()
        edges = [compile_table(model, TruthTable(2, mask), manager).edge
                 for mask in range(16)]
        marked = [edge for edge in edges if edge.letter is N]
        assert marked
        for e0 in marked:
            for e1 in edges:
                assert cons_diamond(model, manager, e0, e1) is push_neg(
                    cons_diamond(model, manager, push_neg(e0),
                                 push_neg(e1))), (e0.word, e1.word)

    def test_builders_join_as_cons_diamond(self, monkeypatch):
        # compile_table's levels above the chunks and rebuild's join send
        # a plain pair (the plain rule of the ``reduction`` module
        # docstring) straight to Manager.diamond; under every model both
        # must give the edge that cons_diamond gives.  rebuild meets every
        # pair of reduced edges of arity <= 2 in the raw trees of arity
        # <= 3, all diamonds; an arity-4 table joins two arity-3 edges at
        # the top of both builders, here each edge with itself, with its
        # complement and every pair from a complement-closed 64 of them
        masks = [mask for mask in range(256) if mask % 8 in (0, 7)]
        pairs = {(a, b) for a in masks for b in masks}
        pairs |= {(a, b) for a in range(256) for b in (a, a ^ 255)}
        calls = []
        inner = reduction.cons_diamond

        def counted(*args):
            calls.append(None)
            return inner(*args)

        monkeypatch.setattr(reduction, "cons_diamond", counted)
        for model in VALID_MODELS:
            manager = Manager()
            raw = [manager.zero, manager.one]
            for arity in range(1, 4):
                raw = [manager.diamond(lo, hi) for hi in raw for lo in raw]
                for mask, edge in enumerate(raw):
                    assert rebuild(model, edge) is compile_table(
                        model, TruthTable(arity, mask), manager).edge
            edges = [rebuild(model, edge) for edge in raw]
            bypassed = [0, 0]
            for a, b in sorted(pairs):
                expected = cons_diamond(model, manager, edges[a], edges[b])
                table = TruthTable(4, a | b << 8)
                before = len(calls)
                handle = compile_table(model, table, manager)
                assert handle.edge is expected, (model, a, b)
                compiled = len(calls)
                source = manager.diamond(raw[a], raw[b])
                assert rebuild(model, source) is expected, (model, a, b)
                bypassed[0] += compiled == before
                bypassed[1] += len(calls) == compiled
            # both builders skip cons_diamond on some pairs
            assert all(bypassed), model


class TestConstant:
    def test_negative_arity_rejected(self, mgr):
        with pytest.raises(ArityError):
            constant(NUCX, mgr, 0, -1)


class TestElim:
    def test_canalizing(self, mgr):
        e = compile_table(NUCX, TruthTable.from_bits([0, 1]), mgr).edge
        lo, hi = cofactors(NUCX, mgr.edge(C00, e))
        assert lo is constant(NUCX, mgr, 0, 1)
        assert hi is e

    def test_useless(self, mgr):
        e = compile_table(NUCX, TruthTable.from_bits([0, 1]), mgr).edge
        assert cofactors(NUCX, mgr.edge(U, e)) == (e, e)

    def test_xor(self, mgr):
        lo, hi = cofactors(NUCX, mgr.edge(X, mgr.zero))
        assert lo is mgr.zero
        assert hi.word == (N,)

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_elim_inverts_cons(self, name, model, mgr):
        # splitting a reduced graph and recombining is the identity
        for mask in range(16):
            handle = compile_table(model, TruthTable(2, mask), mgr)
            word = handle.edge.word
            if not word or word[0] is N:
                continue
            lo, hi = cofactors(model, handle.edge)
            assert cons_diamond(model, mgr, lo, hi) is handle.edge


class TestChunkMemo:
    """The chunk subtables ``compile_table`` memoizes: every one of
    arity 1 and up, none of arity 0, and none below a memoized one."""

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_leaves_are_not_memoized(self, name, model):
        manager = Manager()
        memo = manager.space(model).compile
        rng = random.Random(30)
        for arity in range(7):
            compile_table(model, TruthTable(arity, rng.getrandbits(
                1 << arity)), manager)
        assert memo and min(memo) >= 4
        compile_table(model, TruthTable(0, 1), manager)
        compile_table(model, TruthTable(0, 0), manager)
        assert min(memo) >= 4

    def test_memo_hits_are_not_split(self):
        # the arity-3 table whose halves are 0b0110 and 0b1100: with the
        # lo half memoized alone, only the hi half is split
        manager = Manager()
        memo = manager.space(NUCX).compile
        lo = 0b0110 | 16
        kept = compile_table(NUCX, TruthTable(2, 0b0110), manager).edge
        assert set(memo) == {lo, 0b10 | 4, 0b01 | 4}
        memo.clear()
        memo[lo] = kept
        compile_table(NUCX, TruthTable(3, 0b1100_0110), manager)
        assert set(memo) == {lo, 0b1100 | 16, 0b00 | 4, 0b11 | 4,
                             0b1100_0110 | 256}


class TestReduce:
    def test_chain_to_useless(self, mgr):
        raw = FuncHandle(mgr.edge(C10, mgr.zero))
        reduced = reduce(PRESETS["o-uc"], raw)
        assert signature(reduced) == "[U]0"

    def test_paper_tree_example(self, mgr):
        top = mgr.diamond(mgr.diamond(mgr.one, mgr.one),
                          mgr.diamond(mgr.zero, mgr.zero))
        reduced = reduce(PRESETS["o-uc"], FuncHandle(top))
        assert signature(reduced) == "[C10.U]1"

    def test_square_terminal_normalized(self, mgr):
        reduced = reduce(NUCX, FuncHandle(mgr.one))
        assert signature(reduced) == "[N]0"

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_idempotent_on_random_graphs(self, name, model):
        manager = Manager()
        rng = random.Random(20260809)
        for _ in range(300):
            raw = random_raw_edge(rng, manager, rng.randint(0, 5))
            once = reduce(model, FuncHandle(raw))
            twice = reduce(model, once)
            assert twice.edge is once.edge

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_semantics_preserved_and_reduce_agrees_with_compile(
            self, name, model):
        manager = Manager()
        rng = random.Random(42)
        for _ in range(250):
            raw = random_raw_edge(rng, manager, rng.randint(0, 4))
            table = to_truth_table(FuncHandle(raw))
            reduced = reduce(model, FuncHandle(raw))
            assert to_truth_table(reduced) == table
            assert reduced.edge is compile_table(model, table, manager).edge

    def test_cross_model_conversion(self, mgr):
        table = example1_table()
        chain = compile_table(PRESETS["o-uc10"], table, mgr)
        converted = reduce(NUCX, chain)
        assert converted.edge is compile_table(NUCX, table, mgr).edge

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_random_canonicity_beyond_exhaustive_range(self, name, model):
        manager = Manager()
        rng = random.Random(77)
        for arity in (5, 6):
            ones = (1 << (1 << arity)) - 1
            for _ in range(60):
                table = TruthTable(arity, rng.getrandbits(1 << arity))
                handle = compile_table(model, table, manager)
                assert to_truth_table(handle) == table
                flipped = compile_table(
                    model, tt_apply("not", table), manager)
                if model.negation:
                    assert flipped.edge is push_neg(handle.edge)
                assert flipped.edge is not handle.edge

    def test_rebuild_deeper_than_recursion_limit(self):
        arity = 5000
        manager = Manager()
        x0 = projection(PRESETS["s"], manager, 0, arity)
        flipped = negb(x0)
        assert count_sat(flipped) == 2 ** (arity - 1)
        assert negb(flipped).edge is x0.edge
        model = PRESETS["o-u"]
        last = projection(NUCX, manager, arity - 1, arity)
        assert count_sat(reduce(model, last)) == 2 ** (arity - 1)
        # the U run is one step: one entry for it and one for the level
        # below it
        assert len(manager.space(model).reduce) == 2


#: Each operation that needs a reduced handle, given a raw one and a
#: reduced one.
NEEDS_A_MODEL = {
    "is_sat": lambda raw, h: is_sat(raw),
    "is_taut": lambda raw, h: is_taut(raw),
    "equiv-first": lambda raw, h: equiv(raw, h),
    "equiv-second": lambda raw, h: equiv(h, raw),
    "count_sat": lambda raw, h: count_sat(raw),
    "any_sat": lambda raw, h: any_sat(raw),
    # before the first valuation is asked for
    "all_sat": lambda raw, h: all_sat(raw),
    "negb": lambda raw, h: negb(raw),
    "cofactor": lambda raw, h: cofactor(0, raw),
    "apply-first": lambda raw, h: apply("and", raw, h),
    "apply-second": lambda raw, h: apply("and", h, raw),
}


class TestRequireModel:
    @pytest.mark.parametrize("name", list(NEEDS_A_MODEL))
    def test_raw_handle_is_rejected(self, name, mgr):
        reduced = compile_table(NUCX, example1_table(), mgr)
        raw = FuncHandle(reduced.edge)
        # a raw second operand of apply is a model mismatch
        with pytest.raises(ValueError,
                           match="requires a reduced handle|vs raw"):
            NEEDS_A_MODEL[name](raw, reduced)

    @pytest.mark.parametrize("name", list(NEEDS_A_MODEL))
    def test_raw_constant_is_rejected(self, name, mgr):
        # the model is checked before the arity: a raw constant is no
        # "cannot cofactor a constant"
        reduced = compile_table(NUCX, TruthTable.constant(0, 0), mgr)
        raw = FuncHandle(reduced.edge)
        with pytest.raises(ValueError,
                           match="requires a reduced handle|vs raw"):
            NEEDS_A_MODEL[name](raw, reduced)


class TestRebuildWork:
    """The work of ``rebuild`` on seeded arity-10 tables, pinned exactly:
    a change to how it walks must not change what it memoizes, interns
    or counts."""

    # reduce entries, negb_recursions, const_steps, diamonds, links
    REDUCE = {
        "s": (684, 358, 18, 1054, 423),
        "s-n": (680, 0, 18, 965, 662),
        "o-u": (680, 355, 18, 1035, 439),
        "o-nu": (676, 0, 18, 953, 668),
        "o-c10": (684, 358, 18, 1032, 445),
        "o-uc10": (680, 355, 18, 1016, 458),
        "o-nuc10c11": (676, 0, 18, 933, 688),
        "o-uc0": (680, 355, 18, 1000, 474),
        "o-uc": (680, 355, 20, 975, 500),
        "o-nuc": (676, 0, 20, 916, 635),
        "o-nucx": (676, 0, 10, 454, 423),
    }
    NEGATE = {
        "s": (600, 608, 2, 1022, 0),
        "o-u": (600, 610, 2, 998, 24),
        "o-c10": (600, 608, 5, 999, 23),
        "o-uc10": (600, 610, 5, 978, 44),
        "o-uc0": (600, 610, 6, 958, 65),
        "o-uc": (600, 610, 10, 924, 100),
    }

    @staticmethod
    def tables():
        rng = random.Random(10)
        return [TruthTable(10, rng.getrandbits(1 << 10)) for _ in range(3)]

    @staticmethod
    def work(model, manager):
        return (len(manager.space(model).reduce),
                manager.counters.get("negb_recursions", 0),
                manager.counters.get("const_steps", 0), len(manager),
                len(interned_links(manager)))

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_reduce_from_nucx(self, name):
        model = PRESETS[name]
        manager = Manager()
        for table in self.tables():
            reduce(model, compile_table(NUCX, table, manager))
        assert self.work(model, manager) == self.REDUCE[name]

    @pytest.mark.parametrize(
        "name", [name for name, model in PRESETS.items()
                 if not model.negation])
    def test_negate_mark_free(self, name):
        model = PRESETS[name]
        manager = Manager()
        for table in self.tables():
            negb(compile_table(model, table, manager))
        assert self.work(model, manager) == self.NEGATE[name]


class TestCompile:
    def test_conjunction_form(self, mgr):
        handle = compile_table(NUCX, TruthTable(2, 0b1000), mgr)
        assert signature(handle) == "[C00.X]0"

    def test_paper_canalizing(self, mgr):
        # x0 and not x1 is 0 *s (not x1); with the complement mark its
        # normal form is not (1 *s x1): the mark over a C01 link over x1
        handle = compile_table(NUCX, TruthTable.from_bits([0, 0, 1, 0]), mgr)
        assert handle.edge.letter is N
        assert handle.edge.child.letter is C01
        assert handle.edge.child.child is compile_table(
            NUCX, TruthTable.from_bits([0, 1]), mgr).edge

    @pytest.mark.parametrize("arity", [2, 3])
    def test_top_letter_matches_semantic_definitions(self, arity, mgr):
        # the letter above a compiled table is read off its cofactors on
        # x0, taken of the function below a leading mark: U if they are
        # equal, X if complements, Cbt if branch b is the constant t (at
        # most one side is constant when neither holds), else a diamond
        for mask in range(1 << (1 << arity)):
            table = TruthTable(arity, mask)
            edge = compile_table(NUCX, table, mgr).edge
            if edge.letter is N:
                edge = edge.child
                table = tt_apply("not", table)
            half = 1 << arity - 1
            sides = (TruthTable(arity - 1, table.mask & (1 << half) - 1),
                     TruthTable(arity - 1, table.mask >> half))
            canalizing = [
                letter for letter in (C00, C01, C10, C11)
                if sides[letter.branch]
                == TruthTable.constant(arity - 1, letter.const)]
            if sides[0] == sides[1]:
                expected = U
            elif sides[1] == tt_apply("not", sides[0]):
                expected = X
            else:
                assert len(canalizing) <= 1
                expected = canalizing[0] if canalizing else None
            assert edge.letter is expected, (mask, edge.word)

    def test_letterless_model_is_a_shannon_tree(self, mgr):
        model = PRESETS["s"]
        for mask in range(256):
            handle = compile_table(model, TruthTable(3, mask), mgr)
            for edge in iter_edges(handle.edge):
                assert edge.word == ()
            assert len(diamonds_of(handle.edge)) <= 7

    def test_running_example_single_diamond(self, mgr):
        handle = compile_table(NUCX, example1_table(), mgr)
        assert len(diamonds_of(handle.edge)) == 1
        assert signature(handle) == "[e]([X.X.X]0,[X.X.U]0)"

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_small_canonicity(self, name, model):
        manager = Manager()
        for arity in range(3):
            forms = set()
            for mask in range(1 << (1 << arity)):
                table = TruthTable(arity, mask)
                handle = compile_table(model, table, manager)
                assert to_truth_table(handle) == table
                forms.add(signature(handle))
            assert len(forms) == 1 << (1 << arity)

    def test_interning_across_recompilation(self, mgr):
        table = example1_table()
        first = compile_table(NUCX, table, mgr)
        second = compile_table(NUCX, table, mgr)
        assert first.edge is second.edge

    def test_certify_custom_model(self):
        certify_canonicity(parse_model("custom:u,x+neg"), max_arity=2)

    def test_certify_rejects_two_masks_on_one_edge(self, monkeypatch):
        compile_real = reduction.compile_table

        def colliding(model, table, manager):
            if table == TruthTable(1, 2):
                table = TruthTable(1, 1)
            return compile_real(model, table, manager)

        monkeypatch.setattr(reduction, "compile_table", colliding)
        with pytest.raises(ValueError, match="share one edge"):
            certify_canonicity(NUCX, max_arity=1)

    def test_certify_rejects_a_wrong_round_trip(self, monkeypatch):
        tabulate_real = reduction.to_truth_table

        def flipped(handle):
            table = tabulate_real(handle)
            if table == TruthTable(1, 2):
                table = TruthTable(1, 1)
            return table

        monkeypatch.setattr(reduction, "to_truth_table", flipped)
        with pytest.raises(ValueError, match="o-nucx: compilation of "
                           "arity-1 mask 0x2 does not round-trip"):
            certify_canonicity(NUCX, max_arity=1)

    def test_certify_rejects_a_reduce_off_its_fixpoint(self, monkeypatch):
        reduce_real = reduction.reduce

        def moved(model, handle):
            found = reduce_real(model, handle)
            if handle.arity == 1:
                found = FuncHandle(push_neg(found.edge), model=model)
            return found

        monkeypatch.setattr(reduction, "reduce", moved)
        with pytest.raises(ValueError, match="o-nucx: arity-1 mask 0x0 is "
                           "not a fixpoint of reduce"):
            certify_canonicity(NUCX, max_arity=1)


def compile_top_down(model, table, manager):
    """Reference compile: split on the leading variable down to the
    constants, memoized on every subtable in a memo of its own."""
    memo = {}

    def walk(mask, arity):
        if arity == 0:
            return constant(model, manager, mask, 0)
        found = memo.get((mask, arity))
        if found is None:
            half = 1 << (arity - 1)
            found = memo[mask, arity] = cons_diamond(
                model, manager, walk(mask & (1 << half) - 1, arity - 1),
                walk(mask >> half, arity - 1))
        return found

    return walk(table.mask, table.arity)


def reference_tables():
    """Random tables at arities 0-12, parity and one-hot at arity 16, a
    mask whose bytes repeat apart, and both constants."""
    rng = random.Random(9)
    tables = [TruthTable(arity, rng.getrandbits(1 << arity))
              for arity in range(13) for _ in range(2)]
    wide = 16
    tables.append(TruthTable(wide, sum(
        1 << i for i in range(1 << wide) if bin(i).count("1") & 1)))
    tables.append(TruthTable(wide, sum(1 << (1 << v) for v in range(wide))))
    tables.append(TruthTable(6, int.from_bytes(
        bytes([0x5A, 0x3C, 0x5A, 0x99, 0x3C, 0x5A, 0x00, 0x3C]), "little")))
    for arity in (0, 3, 4, 9):
        tables += [TruthTable(arity, 0),
                   TruthTable(arity, (1 << (1 << arity)) - 1)]
    return tables


REFERENCE_TABLES = reference_tables()


class TestLevelCompile:
    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_agrees_with_top_down(self, name, model):
        manager = Manager()
        for table in REFERENCE_TABLES:
            edge = compile_table(model, table, manager).edge
            assert edge is compile_top_down(model, table, manager), table

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_agrees_with_top_down_without_memo(self, name, model):
        manager = Manager()
        memo = manager.space(model).compile
        for table in REFERENCE_TABLES[::3]:
            memo.clear()
            edge = compile_table(model, table, manager).edge
            assert edge is compile_top_down(model, table, manager), table

    def test_repeated_compile_adds_no_entry(self):
        manager = Manager()
        memo = manager.space(NUCX).compile
        for table in REFERENCE_TABLES:
            first = compile_table(NUCX, table, manager)
            entries = len(memo)
            assert entries or table.arity == 0
            assert compile_table(NUCX, table, manager).edge is first.edge
            assert len(memo) == entries

    def test_memo_holds_chunks_and_one_root_per_table(self):
        manager = Manager()
        rng = random.Random(4)
        models = (NUCX, PRESETS["s"], PRESETS["o-u"])
        roots = set()
        for _ in range(60):
            arity = rng.randint(0, 11)
            table = TruthTable(arity, rng.getrandbits(1 << arity))
            for model in models:
                compile_table(model, table, manager)
                roots.add((model, table.mask, arity))

        def table_of(key):
            # a key is the mask under one leading bit at 2**arity
            size = key.bit_length() - 1
            arity = size.bit_length() - 1
            assert size == 1 << arity
            return key ^ 1 << size, arity

        for model in models:
            keys = [table_of(key) for key in manager.space(model).compile]
            wide = {(model, mask, arity) for mask, arity in keys if arity > 3}
            assert wide == {key for key in roots
                            if key[0] is model and key[2] > 3}
            chunks = [key for key in keys if key[1] <= 3]
            assert len(chunks) <= 256 + 16 + 4 + 2


def parity_mask(arity):
    """The mask of ``x0 ^ ... ^ x(arity-1)``, doubled one variable at a
    time."""
    mask = 0
    for k in range(arity):
        mask |= (mask ^ (1 << (1 << k)) - 1) << (1 << k)
    return mask


class TestStructuredCompileWork:
    """Constants and projections repeat one pair across each level above
    the chunks, and parity alternates two, so compiling one builds each
    pair's edge once per level: joins stay linear in the arity, not in
    the table.  A join is a ``cons_diamond`` call or a plain pair sent
    straight to ``Manager.diamond`` (the plain rule of ``reduction``)."""

    @pytest.mark.parametrize("name", ["o-u", "o-nucx", "s", "s-n"])
    def test_calls_linear_in_arity(self, name, monkeypatch):
        calls = []
        inside = []
        inner = reduction.cons_diamond
        diamond = Manager.diamond

        def counted(*args):
            calls.append(None)
            inside.append(None)
            try:
                return inner(*args)
            finally:
                inside.pop()

        def direct(self, lo, hi):
            # a diamond interned by cons_diamond is already counted
            if not inside:
                calls.append(None)
            return diamond(self, lo, hi)

        monkeypatch.setattr(reduction, "cons_diamond", counted)
        monkeypatch.setattr(Manager, "diamond", direct)
        n = 16
        parity = TruthTable(n, parity_mask(n))
        tables = (TruthTable.constant(n, 0), TruthTable.constant(n, 1),
                  TruthTable.projection(n, 0),
                  TruthTable.projection(n, n - 1), parity,
                  tt_apply("not", parity))
        for table in tables:
            calls.clear()
            handle = compile_table(PRESETS[name], table, Manager())
            assert len(calls) <= 3 * n, table
            assert to_truth_table(handle) == table


def reduced_edges(model, manager, max_arity):
    for arity in range(max_arity + 1):
        for mask in range(1 << (1 << arity)):
            yield compile_table(model, TruthTable(arity, mask), manager)


class TestNormalForm:
    @pytest.mark.parametrize("name,model", NEGATION_MODELS)
    def test_mark_only_leads_words(self, name, model):
        manager = Manager()
        for handle in reduced_edges(model, manager, 3):
            for edge in iter_edges(handle.edge):
                assert edge.word.count(N) <= 1
                assert N not in edge.word[1:]
                node = edge.base or edge
                if node.lo is not None:
                    assert not (node.lo.word and node.lo.word[0] is N)

    @pytest.mark.parametrize("name,model", [(n, m) for n, m in ALL_MODELS
                                            if not m.negation])
    def test_no_marks_in_mark_free_models(self, name, model):
        manager = Manager()
        for handle in reduced_edges(model, manager, 3):
            for edge in iter_edges(handle.edge):
                assert N not in edge.word

    @pytest.mark.parametrize("name,model", NEGATION_MODELS)
    def test_negation_invariance(self, name, model):
        manager = Manager()
        for arity in range(3):
            for mask in range(1 << (1 << arity)):
                table = TruthTable(arity, mask)
                straight = compile_table(model, table, manager)
                flipped = compile_table(model, tt_apply("not", table), manager)
                assert flipped.edge is push_neg(straight.edge)


class TestTranslate:
    def test_examples(self):
        assert translate_letter("s", "d+", U) is C10
        assert translate_letter("s", "d-", C00) is U
        assert translate_letter("s", "d+", X) is C11

    def test_roundtrips(self):
        for a, b in itertools.permutations(("s", "d+", "d-"), 2):
            for letter in ELEMENTARY:
                assert translate_letter(b, a,
                                        translate_letter(a, b, letter)) \
                    is letter

    def test_composition_through_shannon(self):
        for letter in ELEMENTARY:
            direct = translate_letter("d+", "d-", letter)
            via_s = translate_letter("s", "d-",
                                     translate_letter("d+", "s", letter))
            assert direct is via_s

    def test_identity(self):
        for letter in ELEMENTARY:
            assert translate_letter("s", "s", letter) is letter

    def test_mark_rejected(self):
        with pytest.raises(ValueError):
            translate_letter("s", "d+", N)

    def test_unknown_combinator(self):
        with pytest.raises(ValueError):
            translate_letter("s", "davio", U)


def test_compile_and_reduce_keep_their_tables():
    """Two seeded arity-12 tables compiled under every preset, and the
    ``o-nucx`` graphs reduced into each: the diamonds, links, memo
    entries and counters they leave are pinned."""
    rng = random.Random(12)
    manager = Manager()
    for _ in range(2):
        table = TruthTable(12, rng.getrandbits(1 << 12))
        compiled = {name: compile_table(model, table, manager)
                    for name, model in PRESETS.items()}
        for name, model in PRESETS.items():
            assert reduce(model, compiled["o-nucx"]).edge is \
                compiled[name].edge, name
    reduced = {"s": 1477, "s-n": 1540, "o-u": 1473, "o-nu": 1536,
               "o-c10": 1477, "o-uc10": 1473, "o-nuc10c11": 1536,
               "o-uc0": 1473, "o-uc": 1473, "o-nuc": 1536, "o-nucx": 1536}
    expected = ("<Manager diamonds=12716 edges=4255>",
                {name: (273, entries) for name, entries in reduced.items()},
                {"const_steps": 98, "negb_recursions": 4318})
    got = (repr(manager),
           {name: (len(manager.space(model).compile),
                   len(manager.space(model).reduce))
            for name, model in PRESETS.items()},
           manager.counters)
    assert got == expected


INTERNED_COUNTS = Path(__file__).parent / "data" / "interned_counts.txt"


def interned_counts(model):
    """What the builders intern under ``model`` in one fresh manager:
    every table of arity 0-3 compiled, then six seeded arity-8 tables
    compiled under ``o-nucx`` and reduced into ``model``.  One line of
    the model's name, the lengths of its constant rows (zeros, ones),
    the link-table sizes of U X C11 C10 C01 C00 N and the diamonds."""
    manager = Manager()
    for arity in range(4):
        for mask in range(1 << (1 << arity)):
            compile_table(model, TruthTable(arity, mask), manager)
    for seed in range(6):
        table = TruthTable(8, random.Random(seed).getrandbits(256))
        reduce(model, compile_table(NUCX, table, manager))
    space = manager.space(model)
    counts = [len(space.rows[0]), len(space.rows[1])]
    counts += [len(manager._links[letter])
               for letter in (U, X, C11, C10, C01, C00, N)]
    counts.append(len(manager))
    return " ".join([model.name] + [str(count) for count in counts])


def test_builders_intern_the_pinned_counts():
    # a change to which letters cons_diamond checks, or in which order,
    # can keep every function's canonical graph and still grow a
    # constant row or intern more; the golden pins all 48 models
    expected = INTERNED_COUNTS.read_text().splitlines()
    assert [interned_counts(model) for model in VALID_MODELS] == expected
