import collections
import contextlib
import dataclasses
import functools
import gc
import itertools
import random
import re
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from conftest import (WALK_GRAPHS, chain, chain_texts, example1_table,
                      interned_links, iter_edges, random_raw_edge,
                      walk_graph)
from nucx import graph
from nucx.cli import parse_expr
from nucx.connectives import apply, build_expr, cofactor, negb, projection
from nucx.graph import (
    SIGNATURE_LIMIT,
    Edge,
    FuncHandle,
    Manager,
    ManagerMismatchError,
    SignatureLimitError,
    dot_export,
    edge_mask,
    eval_handle,
    signature,
    to_truth_table,
)
from nucx.letters import C10, N, U, X
from nucx.metrics import check_bounds, measure, node_count
from nucx.oracle import (ArityError, OracleLimitError, TruthTable,
                         letter_mask, tt_eval)
from nucx.queries import all_sat, any_sat, count_sat, equiv, is_sat, is_taut
from nucx.reduction import (PRESETS, certify_canonicity, cofactors,
                            compile_table, cons_diamond, constant,
                            parse_model, push_neg, reduce)


def recompute_arity(edge):
    """Bottom-up arity recomputation, independent of the stored one."""
    node = edge.base or edge
    base = 0 if node.lo is None else recompute_arity(node.lo) + 1
    if node.lo is not None and recompute_arity(node.hi) + 1 != base:
        raise ArityError("inconsistent child arities")
    return base + sum(1 for l in edge.word if l is not N)


def example1_edge(manager):
    # reduced shape of the running example: one diamond, X/U words
    lo = chain(manager, [X, X, X])
    hi = chain(manager, [X, X, U])
    return manager.diamond(lo, hi)


class TestInterning:
    def test_same_children_same_node(self, mgr):
        e = chain(mgr, [U])
        d1 = mgr.diamond(e, e)
        d2 = mgr.diamond(e, e)
        assert d1 is d2
        assert (d1.base or d1) is (d2.base or d2)
        assert d1.letter is None and d1.child is None

    def test_terminal_diamond_arity(self, mgr):
        assert mgr.diamond(mgr.zero, mgr.zero).arity == 1

    def test_child_arity_mismatch(self, mgr):
        with pytest.raises(ArityError):
            mgr.diamond(chain(mgr, [U, U]), chain(mgr, [U]))

    def test_edges_interned_by_word_and_target(self, mgr):
        assert chain(mgr, [U, X]) is chain(mgr, [U, X])
        assert chain(mgr, [U, X]) is not chain(mgr, [X, U])

    def test_no_cross_manager_mixing(self, mgr):
        other = Manager()
        with pytest.raises(ValueError):
            mgr.diamond(mgr.zero, other.zero)
        with pytest.raises(ValueError):
            mgr.edge(U, other.zero)

    def test_no_bare_edge_from_edge(self, mgr):
        # bare edges come only from diamond(), zero and one
        own = mgr.diamond(mgr.zero, mgr.one)
        edges = len(interned_links(mgr))
        # a bare edge the manager never interned, built as the manager
        # builds its diamonds: Edge has no constructor
        stray = object.__new__(Edge)
        stray.letter = stray.child = stray.base = stray.value = None
        stray.lo, stray.hi = mgr.zero, mgr.one
        stray.arity = 1
        stray.owner = mgr._ref
        other = Manager()
        foreign = other.diamond(other.zero, other.one)
        for target in (own, mgr.one, stray, foreign):
            with pytest.raises(ValueError):
                mgr.edge(None, target)
        assert len(interned_links(mgr)) == edges
        assert mgr.diamond(mgr.zero, mgr.one) is own
        assert len(mgr) == 1

    def test_only_letters_link(self, mgr):
        for junk in ("U", 0, Edge):
            with pytest.raises(ValueError, match="is not a letter"):
                mgr.edge(junk, mgr.zero)
        assert interned_links(mgr) == []


def arity1_edges(manager):
    """Sixteen distinct arity-1 edges: the diamonds over every pair of
    the terminals and their marks."""
    leaves = [manager.zero, manager.one,
              manager.edge(N, manager.zero), manager.edge(N, manager.one)]
    return [manager.diamond(a, b) for a in leaves for b in leaves]


class TestDiamondTable:
    """The diamond table is keyed on the ``lo`` edge: a ``lo`` with one
    parent maps to that parent's bare edge, and one with two or more to
    a dict keyed on ``hi``."""

    def test_one_parent(self, mgr):
        lo = mgr.diamond(mgr.zero, mgr.one)
        hi = mgr.diamond(mgr.one, mgr.zero)
        parent = mgr.diamond(lo, hi)
        assert mgr._diamonds[lo] is parent
        assert mgr.diamond(lo, hi) is parent
        assert (parent.lo, parent.hi) == (lo, hi)

    def test_second_parent_makes_a_dict(self, mgr):
        lo = mgr.diamond(mgr.zero, mgr.one)
        hi = mgr.diamond(mgr.one, mgr.zero)
        first = mgr.diamond(lo, hi)
        second = mgr.diamond(lo, lo)
        assert first is not second
        assert mgr._diamonds[lo] == {hi: first, lo: second}
        assert mgr.diamond(lo, hi) is first
        assert mgr.diamond(lo, lo) is second
        assert (second.lo, second.hi) == (lo, lo)

    def test_many_parents(self, mgr):
        lo = mgr.diamond(mgr.zero, mgr.one)
        his = arity1_edges(mgr)
        parents = [mgr.diamond(lo, hi) for hi in his]
        assert len(set(parents)) == len(his)
        assert mgr._diamonds[lo] == dict(zip(his, parents))
        for hi, parent in zip(reversed(his), reversed(parents)):
            assert mgr.diamond(lo, hi) is parent
            assert parent.hi is hi and parent.arity == 2

    @pytest.mark.parametrize("parents", [1, 2])
    def test_foreign_children_under_a_known_lo(self, mgr, parents):
        other = Manager()
        lo = mgr.diamond(mgr.zero, mgr.one)
        his = arity1_edges(mgr)[:parents]
        for hi in his:
            mgr.diamond(lo, hi)
        shape = mgr._diamonds[lo]
        # the same function in another manager, and another manager's
        # edges under a foreign lo
        twin = other.diamond(other.zero, other.one)
        for a, b in ((lo, twin), (lo, other.diamond(other.one, other.zero)),
                     (twin, his[0]), (twin, twin)):
            with pytest.raises(ManagerMismatchError):
                mgr.diamond(a, b)
        assert mgr._diamonds[lo] is shape and len(mgr) == 16 + parents

    @pytest.mark.parametrize("parents", [0, 1, 2])
    def test_arity_mismatch(self, mgr, parents):
        lo = mgr.diamond(mgr.zero, mgr.one)
        for hi in arity1_edges(mgr)[:parents]:
            mgr.diamond(lo, hi)
        deeper = mgr.edge(U, lo)
        before = len(mgr)
        # lo with no parent, one or two; a lo that is no key; and the
        # terminal 1, a lo with four parents
        for a, b in ((lo, mgr.zero), (lo, deeper), (deeper, lo),
                     (mgr.one, lo)):
            with pytest.raises(ArityError):
                mgr.diamond(a, b)
        assert len(mgr) == before

    def test_len_counts_distinct_pairs(self, mgr):
        rng = random.Random(3)
        pool = arity1_edges(mgr)
        made = {(edge.lo, edge.hi) for edge in pool}
        pool += [mgr.edge(X, mgr.zero), mgr.edge(U, mgr.one),
                 mgr.edge(N, pool[5])]
        for _ in range(400):
            a, b = rng.choice(pool), rng.choice(pool)
            mgr.diamond(a, b)
            made.add((a, b))
        assert len(mgr) == len(made)
        assert repr(mgr) == (f"<Manager diamonds={len(made)} "
                             f"edges={len(interned_links(mgr))}>")
        for a, b in made:
            edge = mgr.diamond(a, b)
            assert (edge.lo, edge.hi) == (a, b)
        assert len(mgr) == len(made)


class TestPrepend:
    def test_empty_word_is_identity(self, mgr):
        assert chain(mgr, []) is mgr.zero
        assert mgr.zero.word == ()

    def test_useless_chain(self, mgr):
        e = mgr.edge(U, mgr.edge(U, mgr.zero))
        assert e.word == (U, U)
        assert e.arity == 2

    def test_no_normalization(self, mgr):
        e = mgr.edge(N, mgr.edge(N, mgr.zero))
        assert e.word == (N, N)
        assert e.arity == 0

    def test_concatenation(self, mgr):
        e = mgr.edge(U, mgr.edge(N, chain(mgr, [X])))
        assert e.word == (U, N, X)

    def test_chains_share_suffixes(self, mgr):
        e = mgr.diamond(chain(mgr, [U]), chain(mgr, [X]))
        e_ux = mgr.edge(U, mgr.edge(X, e))
        assert e_ux.letter is U
        assert e_ux.child is mgr.edge(X, e)
        assert e_ux.child.child is e
        assert (e_ux.base or e_ux) is (e.base or e)
        assert e.letter is None and e.child is None

    @pytest.mark.parametrize("name", ["s", "o-u", "o-nucx"])
    def test_links_copy_their_node(self, name):
        # a link holds the bare edge at the end of its word and that
        # node's fields; a bare edge holds no base
        manager = Manager()
        for text in chain_texts(24).values():
            build_expr(PRESETS[name], parse_expr(text, 24), 24, manager)
        for parents in manager._diamonds.values():
            for bare in (parents.values() if type(parents) is dict
                         else [parents]):
                assert bare.base is None and bare.value is None
                assert bare.lo.arity == bare.hi.arity == bare.arity - 1
        for link in interned_links(manager) + [manager.zero, manager.one]:
            base = link.base or link
            assert base.letter is None and base.base is None
            assert link.base is (link.child.base or link.child
                                 if link.child else None)
            assert (link.lo, link.hi) == (base.lo, base.hi)
            assert link.value == base.value


class TestRunLinks:
    """A maximal run ``U^k`` is one link: its child never leads with
    ``U``, its length is ``arity - child.arity``, and every reader takes
    it as its k letters."""

    def test_edge_extends_a_run(self, mgr):
        one = mgr.edge(U, mgr.zero)
        two = mgr.edge(U, one)
        assert two.child is mgr.zero and two.arity == 2
        assert two.word == (U, U)
        assert mgr.run(2, mgr.zero) is two
        assert mgr.run(1, one) is two
        assert mgr.run(0, two) is two
        assert mgr.run(0, mgr.zero) is mgr.zero
        assert len(interned_links(mgr)) == 2
        with pytest.raises(ValueError, match="negative run length"):
            mgr.run(-1, two)

    def test_word_makes_one_link_per_run(self, mgr):
        diamond = mgr.diamond(mgr.zero, mgr.one)
        edge = chain(mgr, [U] * 1000 + [X] + [U] * 5, diamond)
        assert edge.word == (U,) * 1000 + (X,) + (U,) * 5
        assert edge.arity == 1007
        assert len(interned_links(mgr)) == 3
        assert edge.child.child.child is diamond
        assert mgr.run(1000, mgr.edge(X, mgr.run(5, diamond))) is edge
        assert len(interned_links(mgr)) == 3

    WORDS = ([U], [N], [U, U, U], [X, U, U, N, C10], [N, U, U, X, X, X, U],
             [C10, C10, N, U], [U] * 40 + [X] * 3 + [U] * 5)

    @staticmethod
    def children(manager):
        zero, one = manager.zero, manager.one
        diamond = manager.diamond(manager.edge(U, zero), manager.edge(X, one))
        return [zero, one, diamond, manager.edge(N, diamond),
                manager.edge(U, diamond)]

    @staticmethod
    def by_edges(manager, word, child):
        for letter in reversed(word):
            child = manager.edge(letter, child)
        return child

    def test_same_edge_as_edge_calls(self):
        # one run call per run of U gives the edge of one edge call per U
        grouped, stepped = Manager(), Manager()
        for word in self.WORDS:
            for a, b in zip(self.children(grouped), self.children(stepped)):
                edge = chain(grouped, word, a)
                assert edge.word == self.by_edges(stepped, word, b).word
                assert edge.arity == a.arity + sum(l is not N for l in word)
                assert (edge.base or edge) is (a.base or a)
                assert self.by_edges(grouped, word, a) is edge

    def test_links_are_a_subset_of_the_edge_calls(self):
        grouped, stepped = Manager(), Manager()
        for word in self.WORDS:
            for a, b in zip(self.children(grouped), self.children(stepped)):
                chain(grouped, word, a)
                self.by_edges(stepped, word, b)
        mine = collections.Counter(map(repr, interned_links(grouped)))
        theirs = collections.Counter(map(repr, interned_links(stepped)))
        assert not mine - theirs
        # [U] * 40 alone is 40 links stepped and one grouped
        assert sum(theirs.values()) - sum(mine.values()) >= 39

    def test_foreign_child(self, mgr):
        other = Manager()
        for child in (other.zero, other.edge(U, other.zero)):
            with pytest.raises(ManagerMismatchError):
                mgr.run(3, child)
            with pytest.raises(ManagerMismatchError):
                mgr.edge(U, child)
        assert interned_links(mgr) == []

    @pytest.mark.parametrize("name", PRESETS)
    def test_run_children_never_lead_with_u(self, name):
        manager = Manager()
        for text in chain_texts(48).values():
            build_expr(PRESETS[name], parse_expr(text, 48), 48, manager)
        for link in interned_links(manager):
            if link.letter is U:
                assert link.child.letter is not U
                assert link.arity > link.child.arity

    def test_readers_expand_runs(self, mgr):
        model = PRESETS["o-u"]
        h = projection(model, mgr, 3, 5)
        assert len(interned_links(mgr)) == 3  # U.0, U.1 and U^3 over x3
        assert h.edge.word == (U, U, U)
        assert signature(h) == "[U.U.U]([U]0,[U]1)"
        assert 'label="U.U.U"' in dot_export(h)
        assert repr(h.edge) == "<edge [U.U.U] diamond arity=5>"
        assert to_truth_table(h) == TruthTable.projection(5, 3)
        assert count_sat(h) == 16
        for bits in itertools.product((0, 1), repeat=5):
            assert eval_handle(h, bits) == bits[3]
        assert list(all_sat(h)) == [
            bits for bits in itertools.product((0, 1), repeat=5) if bits[3]]
        report = measure(h)
        assert (report.diamonds, report.letters) == (1, 5)


def check_construction(manager: Manager) -> int:
    """Read all eight slots of every edge ``manager`` holds (each link
    table, the diamond table with its per-``lo`` dicts, and the
    terminals) and check what the constructors store; returns the number
    of edges checked.  ``Edge`` has no constructor, so a slot that a
    constructor fails to set is caught here, as an ``AttributeError``,
    not in some later read."""
    ref = manager._ref

    def slots(edge):
        fields = {name: getattr(edge, name) for name in Edge.__slots__}
        assert fields.pop("owner") is ref
        return fields

    for value, terminal in enumerate((manager.zero, manager.one)):
        assert slots(terminal) == dict(letter=None, child=None, base=None,
                                       lo=None, hi=None, value=value,
                                       arity=0)
    checked = 2
    for lo, parents in manager._diamonds.items():
        if type(parents) is Edge:
            parents = {parents.hi: parents}
        for hi, diamond in parents.items():
            fields = slots(diamond)
            assert fields.pop("lo") is lo and fields.pop("hi") is hi
            assert fields == dict(letter=None, child=None, base=None,
                                  value=None, arity=lo.arity + 1)
            assert diamond.arity == hi.arity + 1
            checked += 1
    for letter, links in manager._links.items():
        for key, link in links.items():
            fields = slots(link)
            child = fields["child"]
            node = child.base or child
            assert fields["letter"] is letter
            assert fields["base"] is node
            assert fields["lo"] is node.lo and fields["hi"] is node.hi
            assert fields["value"] == node.value
            if type(key) is int:
                # U's runs longer than one: k << 64 | id(child)
                assert letter is U and key & (1 << 64) - 1 == id(child)
                length = key >> 64
                assert length > 1
            else:
                assert key is child
                length = letter is not N
            if letter is U:
                assert child.letter is not U
            assert fields["arity"] == child.arity + length
            checked += 1
    return checked


class TestConstruction:
    """``Edge`` has no constructor: the manager's constructors and
    terminals set every slot of each edge they make."""

    def test_edge_has_no_constructor(self, mgr):
        with pytest.raises(TypeError):
            Edge(None, None, 1, mgr._ref)

    @pytest.mark.parametrize("name", PRESETS)
    def test_every_slot_is_set(self, name):
        model = PRESETS[name]
        manager = Manager()
        rng = random.Random(name)
        for arity in range(9):
            table = TruthTable(arity, rng.getrandbits(1 << arity))
            compile_table(model, table, manager)
        assert check_construction(manager) > 2
        fine = compile_table(PRESETS["o-nucx"], table, Manager())
        reduce(model, fine)
        assert check_construction(fine.manager) > 2
        manager = Manager()
        for text in chain_texts(16).values():
            build_expr(model, parse_expr(text, 16), 16, manager)
        assert check_construction(manager) > 2


class TestEval:
    def test_constant_chain(self, mgr):
        h = FuncHandle(chain(mgr, [U, U]))
        assert eval_handle(h, (1, 0)) == 0

    def test_xor_letter(self, mgr):
        h = FuncHandle(chain(mgr, [X]))
        assert eval_handle(h, (1,)) == 1
        assert eval_handle(h, (0,)) == 0

    def test_running_example(self, mgr):
        h = FuncHandle(example1_edge(mgr))
        assert eval_handle(h, (0, 1, 0, 1)) == 0
        table = example1_table()
        for v in itertools.product((0, 1), repeat=4):
            assert eval_handle(h, v) == tt_eval(table, v)

    def test_valuation_length_checked(self, mgr):
        with pytest.raises(ArityError):
            eval_handle(FuncHandle(mgr.zero), (0,))

    @pytest.mark.parametrize("name", PRESETS)
    def test_reads_entries_by_truth_value(self, name):
        # 2 counts as 1 at every kind of level, as in tt_eval
        model = PRESETS[name]
        manager = Manager()
        for arity in range(4):
            for mask in range(1 << (1 << arity)):
                table = TruthTable(arity, mask)
                h = compile_table(model, table, manager)
                for v in itertools.product((0, 1, 2), repeat=arity):
                    assert eval_handle(h, v) == tt_eval(table, v), (mask, v)

    @given(st.integers(0, 2**32), st.integers(0, 5))
    def test_agrees_with_truth_table(self, seed, arity):
        rng = random.Random(seed)
        manager = Manager()
        edge = random_raw_edge(rng, manager, arity)
        h = FuncHandle(edge)
        table = to_truth_table(h)
        for v in itertools.product((0, 1), repeat=min(arity, 4)):
            full = v + (0,) * (arity - len(v))
            assert eval_handle(h, full) == tt_eval(table, full)


class TestToTruthTable:
    def test_useless_constant(self, mgr):
        assert to_truth_table(FuncHandle(chain(mgr, [U]))) == \
            TruthTable.from_bits([0, 0])

    def test_complemented_terminal(self, mgr):
        h = FuncHandle(mgr.edge(N, mgr.zero))
        assert to_truth_table(h) == TruthTable.constant(0, 1)

    def test_running_example_popcount(self, mgr):
        h = FuncHandle(example1_edge(mgr))
        table = to_truth_table(h)
        assert table.popcount() == 8
        assert table == example1_table()

    def test_limit_enforced(self, mgr):
        edge = mgr.zero
        for _ in range(30):
            edge = mgr.edge(U, edge)
        with pytest.raises(OracleLimitError):
            to_truth_table(FuncHandle(edge))


def reference_edge_mask(edge, cache):
    """The recursive truth-table walk: memoized on the root and on every
    diamond child, with each word read through ``letter_mask``."""
    found = cache.get(edge)
    if found is not None:
        return found
    node = edge.base or edge
    if node.lo is None:
        mask = node.value
    else:
        mask = (reference_edge_mask(node.lo, cache)
                | reference_edge_mask(node.hi, cache) << (1 << node.lo.arity))
    arity = 0 if node.lo is None else node.lo.arity + 1
    for letter in reversed(edge.word):
        mask = letter_mask(letter, mask, arity)
        arity += letter is not N
    cache[edge] = mask
    return mask


class TestEdgeMask:
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_cache_matches_the_recursive_walk(self, name):
        # compiled tables and their negations, sharing one cache, so
        # later walks stop at the entries of earlier ones
        model = PRESETS[name]
        manager = Manager()
        rng = random.Random(12)
        expected = {}
        for arity in (0, 1, 3, 6, 9, 12):
            for _ in range(3):
                table = TruthTable(arity, rng.getrandbits(1 << arity))
                handle = compile_table(model, table, manager)
                for h in (handle, negb(handle)):
                    assert edge_mask(h.edge) == \
                        reference_edge_mask(h.edge, expected)
                    assert manager.cache("tt_mask") == expected
                assert to_truth_table(handle) == table


class TestSignature:
    def test_constant_chain(self, mgr):
        assert signature(FuncHandle(chain(mgr, [U, U]))) == "[U.U]0"

    def test_terminals_and_empty_word(self, mgr):
        assert signature(FuncHandle(mgr.zero)) == "[e]0"
        assert signature(FuncHandle(mgr.one)) == "[e]1"

    def test_complement_prefix(self, mgr):
        assert signature(FuncHandle(chain(mgr, [N, X]))) == "[N.X]0"

    def test_diamond_form(self, mgr):
        assert signature(FuncHandle(example1_edge(mgr))) == \
            "[e]([X.X.X]0,[X.X.U]0)"

    @pytest.mark.parametrize("name", PRESETS)
    def test_matches_the_recursive_tree_expansion(self, name):
        # random tables share subgraphs, so the walk writes diamonds
        # whole, open, and again from the span of an open one
        def expand(edge):
            tokens = [letter.token for letter in edge.word]
            node = edge.base or edge
            body = ("01"[node.value] if node.lo is None
                    else f"({expand(node.lo)},{expand(node.hi)})")
            return f"[{'.'.join(tokens) or 'e'}]{body}"

        rng = random.Random(18)
        manager = Manager()
        for arity in (3, 6, 9):
            for _ in range(4):
                table = TruthTable(arity, rng.getrandbits(1 << arity))
                h = compile_table(PRESETS[name], table, manager)
                assert signature(h) == expand(h.edge)

    @staticmethod
    def and_chain(n):
        # n diamonds, each over the U run of the constant 0
        model = PRESETS["o-u"]
        manager = Manager()
        edge = manager.one
        for k in range(n):
            edge = cons_diamond(model, manager,
                                constant(model, manager, 0, k), edge)
        return FuncHandle(edge, model=model)

    def test_and_chain_deeper_than_recursion_limit(self):
        expected = "".join(f"[e]([{'.'.join('U' * k)}]0,"
                           for k in range(1199, 0, -1))
        expected += "[e]([e]0,[e]1)" + ")" * 1199
        assert len(expected) == 1448406
        assert signature(self.and_chain(1200)) == expected

    def test_memory_is_linear_in_the_text(self):
        # keeping the text of every level would hold about n**3 / 3
        # characters (577M here) for a text of about n**2
        h = self.and_chain(1200)
        tracemalloc.start()
        try:
            text = signature(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 1448406
        assert peak < 4 * len(text)

    def test_exponential_text_is_refused(self):
        # x0 under s repeats both constant trees: 2**1200 leaves
        h = projection(PRESETS["s"], Manager(), 0, 1200)
        tracemalloc.start()
        try:
            with pytest.raises(SignatureLimitError, match="4,194,304"):
                signature(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * SIGNATURE_LIMIT

    def test_limit_bounds_the_text(self, mgr, monkeypatch):
        text = "[e]([X.X.X]0,[X.X.U]0)"
        monkeypatch.setattr(graph, "SIGNATURE_LIMIT", len(text))
        assert signature(FuncHandle(example1_edge(mgr))) == text
        monkeypatch.setattr(graph, "SIGNATURE_LIMIT", len(text) - 1)
        fresh = Manager()
        with pytest.raises(SignatureLimitError):
            signature(FuncHandle(example1_edge(fresh)))

    def test_repr_shows_word_node_kind_and_arity(self, mgr):
        handle = FuncHandle(chain(mgr, [N, X]), model=PRESETS["o-nucx"])
        assert repr(handle) == \
            "FuncHandle(<edge [N.X] terminal 0 arity=1>, model=o-nucx)"
        assert repr(example1_edge(mgr)) == "<edge [e] diamond arity=4>"

    def test_repr_does_not_expand_the_dag(self, mgr):
        # the tree signature of the pair chain grows exponentially, and
        # that of a deep Shannon projection recurses once per level
        model = PRESETS["o-u"]
        xs = [projection(model, mgr, i, 28) for i in range(28)]
        pairs = [apply("or", xs[2 * i], xs[2 * i + 1]) for i in range(14)]
        deep = projection(PRESETS["s"], Manager(), 0, 1200)
        conj = functools.reduce(lambda a, b: apply("and", a, b), pairs)
        for handle in (conj, deep):
            assert len(repr(handle)) < 80
            assert repr(handle.edge) in repr(handle)


# loose structural check: every line is a node, an edge, or a brace
DOT_LINE = re.compile(
    r"^(digraph \w+ \{|\}|"
    r"  \w+ \[[^\]]*\];|"
    r"  \w+ -> \w+ \[[^\]]*\];)$")


def assert_valid_dot(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("digraph")
    assert lines[-1] == "}"
    for line in lines:
        assert DOT_LINE.match(line), f"bad DOT line: {line!r}"


class TestDotExport:
    def test_single_terminal(self, mgr):
        text = dot_export(FuncHandle(mgr.zero))
        assert_valid_dot(text)
        assert text.count("shape=box") == 1
        assert text.count("shape=diamond") == 0

    def test_running_example_has_one_diamond(self, mgr):
        text = dot_export(FuncHandle(example1_edge(mgr)))
        assert_valid_dot(text)
        assert text.count("shape=diamond") == 1

    def test_running_example_text_is_pinned(self, mgr):
        assert dot_export(FuncHandle(example1_edge(mgr))) == (
            'digraph dd {\n'
            '  root [shape=invtriangle, label="", height=0.2, width=0.3];\n'
            '  n0 [shape=diamond, label=""];\n'
            '  root -> n0 [style=solid];\n'
            '  t0 [shape=box, label="0"];\n'
            '  n0 -> t0 [style=dashed, label="X.X.X"];\n'
            '  n0 -> t0 [style=solid, label="X.X.U"];\n'
            '}\n')

    def test_diamonds_numbered_in_preorder(self, mgr):
        # nine diamonds, two of them shared: ids follow first visits
        h = compile_table(PRESETS["o-u"], example1_table(), mgr)
        text = dot_export(h)
        declared = re.findall(r"^  (\w+) \[shape", text, re.M)
        assert declared == ["root", "n0", "n1", "n2", "n3", "t0", "t1",
                            "n4", "n5", "n6", "n7", "n8"]
        arrows = " ".join(a + ">" + b for a, b in
                          re.findall(r"(\w+) -> (\w+)", text))
        assert arrows == (
            "root>n0 n0>n1 n1>n2 n2>n3 n3>t0 n3>t1 n2>n4 n4>t1 n4>t0 "
            "n1>n5 n5>n4 n5>n3 n0>n6 n6>n7 n7>t0 n7>t1 n6>n8 n8>t1 n8>t0")

    def test_letters_and_marks_text_is_pinned(self, mgr):
        # bare edges to diamonds, words, and a mark on a diamond's hi edge
        h = compile_table(PRESETS["o-nucx"], TruthTable(4, 0xd38a), mgr)
        assert dot_export(h) == (
            'digraph dd {\n'
            '  root [shape=invtriangle, label="", height=0.2, width=0.3];\n'
            '  n0 [shape=diamond, label=""];\n'
            '  root -> n0 [style=solid];\n'
            '  n1 [shape=diamond, label=""];\n'
            '  n0 -> n1 [style=dashed];\n'
            '  t0 [shape=box, label="0"];\n'
            '  n1 -> t0 [style=dashed, label="U.X"];\n'
            '  n1 -> t0 [style=solid, label="C00.X"];\n'
            '  n2 [shape=diamond, label=""];\n'
            '  n0 -> n2 [style=solid, label="N"];\n'
            '  n2 -> t0 [style=dashed, label="X.U"];\n'
            '  n2 -> t0 [style=solid, label="C10.X"];\n'
            '}\n')

    def test_styles_and_labels(self, mgr):
        text = dot_export(FuncHandle(example1_edge(mgr)))
        assert "style=dashed" in text and "style=solid" in text
        assert 'label="X.X.X"' in text and 'label="X.X.U"' in text

    def test_deeper_than_the_recursion_limit(self):
        # one diamond level per variable: 1,200 levels, 2,399 diamonds
        h = projection(PRESETS["s"], Manager(), 0, 1200)
        text = dot_export(h)
        assert_valid_dot(text)
        assert text.count("shape=diamond") == 2399

    @given(st.integers(0, 2**32))
    def test_random_graphs_export_cleanly(self, seed):
        rng = random.Random(seed)
        manager = Manager()
        edge = random_raw_edge(rng, manager, rng.randint(0, 4))
        assert_valid_dot(dot_export(FuncHandle(edge)))


def reference_label(edge):
    return ".".join(letter.token for letter in edge.word)


def reference_dot(handle):
    """``dot_export`` as a plain walk: a ``(source, edge, style)`` tuple
    per line to write, each label read from ``Edge.word``."""
    ids = {}
    lines = [
        "digraph dd {",
        '  root [shape=invtriangle, label="", height=0.2, width=0.3];',
    ]
    stack = [("root", handle.edge, "solid")]
    while stack:
        source, edge, style = stack.pop()
        node = edge.base or edge
        if node not in ids:
            if node.lo is None:
                ids[node] = f"t{node.value}"
                lines.append(
                    f'  {ids[node]} [shape=box, label="{node.value}"];')
            else:
                ids[node] = f"n{sum(n.lo is not None for n in ids)}"
                lines.append(f'  {ids[node]} [shape=diamond, label=""];')
                stack.append((ids[node], node.hi, "solid"))
                stack.append((ids[node], node.lo, "dashed"))
        label = ("" if edge.letter is None
                 else f', label="{reference_label(edge)}"')
        lines.append(f"  {source} -> {ids[node]} [style={style}{label}];")
    return "\n".join(lines + ["}"]) + "\n"


def reference_models(handle):
    """The models in lexicographic order, by cofactors: ``x0 = 0``
    first, and only into satisfiable halves."""
    if handle.arity == 0:
        if is_taut(handle):
            yield ()
        return
    for bit in (0, 1):
        half = cofactor(bit, handle)
        if is_sat(half):
            for model in reference_models(half):
                yield (bit,) + model


class TestWalksMatchReferences:
    @pytest.mark.parametrize("label", WALK_GRAPHS)
    def test_label(self, label):
        for edge in iter_edges(walk_graph(label).edge):
            assert graph._label(edge) == reference_label(edge)

    @pytest.mark.parametrize("label", WALK_GRAPHS)
    def test_dot_export(self, label):
        handle = walk_graph(label)
        text = dot_export(handle)
        assert text == reference_dot(handle)
        # the diamonds are numbered in the order the edge walk first
        # meets them, and each has one line per child
        ids = {}
        diamonds = []
        for edge in iter_edges(handle.edge):
            node = edge.base or edge
            if node not in ids:
                ids[node] = (f"t{node.value}" if node.lo is None
                             else f"n{len(diamonds)}")
                if node.lo is not None:
                    diamonds.append(node)

        def arrow(source, edge, style):
            label = ("" if edge.letter is None
                     else f', label="{reference_label(edge)}"')
            target = ids[edge.base or edge]
            return f"  {source} -> {target} [style={style}{label}];"

        expected = [arrow("root", handle.edge, "solid")]
        for node in diamonds:
            expected += [arrow(ids[node], node.lo, "dashed"),
                         arrow(ids[node], node.hi, "solid")]
        assert sorted(line for line in text.split("\n")
                      if " -> " in line) == sorted(expected)

    @pytest.mark.parametrize("label", WALK_GRAPHS)
    def test_all_sat_order(self, label):
        handle = walk_graph(label)
        limit = 2000
        assert (list(itertools.islice(all_sat(handle), limit))
                == list(itertools.islice(reference_models(handle), limit)))


class TestArityBookkeeping:
    @given(st.integers(0, 2**32), st.integers(0, 5))
    def test_stored_arities_match_recomputation(self, seed, arity):
        rng = random.Random(seed)
        manager = Manager()
        edge = random_raw_edge(rng, manager, arity)
        assert edge.arity == arity
        assert recompute_arity(edge) == arity

    def test_handle_arity_is_the_edge_arity(self, mgr):
        edge = chain(mgr, [U, N, X])
        assert FuncHandle(edge).arity == edge.arity == 2
        edge_field, model_field = dataclasses.fields(FuncHandle)
        assert (edge_field.name, model_field.name) == ("edge", "model")
        assert model_field.kw_only

    def test_positional_arity_is_rejected(self, mgr):
        # the model is keyword-only, so a stale FuncHandle(edge, n)
        # cannot store n as the model
        with pytest.raises(TypeError):
            FuncHandle(mgr.zero, 3)


class TestHandleContract:
    """A handle is a frozen value of its edge and model; its manager is
    read once, through the edge's weak reference, when it is made."""

    @pytest.mark.parametrize("name", ["edge", "model", "manager"])
    def test_attributes_are_frozen(self, name, mgr):
        handle = projection(PRESETS["o-nucx"], mgr, 1, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(handle, name, None)

    def test_equality_and_hash_follow_edge_and_model(self, mgr):
        model = PRESETS["o-nucx"]
        handle = projection(model, mgr, 1, 3)
        twin = FuncHandle(handle.edge, model=model)
        assert twin == handle and hash(twin) == hash(handle)
        assert FuncHandle(handle.edge, model=PRESETS["o-u"]) != handle
        assert FuncHandle(handle.edge) != handle

    def test_replace_keeps_the_manager(self, mgr):
        handle = projection(PRESETS["o-nucx"], mgr, 1, 3)
        raw = dataclasses.replace(handle, model=None)
        assert raw.manager is handle.manager is mgr
        assert raw.edge is handle.edge and raw.model is None

    def test_repr(self, mgr):
        edge = chain(mgr, [U, N, X])
        assert repr(FuncHandle(edge)) == f"FuncHandle({edge!r})"
        assert (repr(FuncHandle(edge, model=PRESETS["o-nucx"]))
                == f"FuncHandle({edge!r}, model=o-nucx)")

    def test_freed_manager_message_is_the_edges(self):
        with no_cycle_collector():
            edge = Manager().one
            with pytest.raises(ManagerMismatchError) as from_edge:
                edge.manager
            with pytest.raises(ManagerMismatchError) as from_handle:
                FuncHandle(edge)
            assert str(from_handle.value) == str(from_edge.value)
            assert "manager has been freed" in str(from_edge.value)


@contextlib.contextmanager
def no_cycle_collector():
    """Run the body from a collected heap with the cycle collector off,
    so only reference counting can free what the body drops."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def use_every_public_op(model) -> weakref.ref:
    """Build graphs in a fresh manager and run every public operation on
    them; only a weak reference to the manager outlives the call."""
    manager = Manager()
    arity = 6
    table = TruthTable(arity, random.Random(6).getrandbits(1 << arity))
    f = compile_table(model, table, manager)
    g = build_expr(model, parse_expr("x0 & ~x3 | x1 ^ x5", arity), arity,
                   manager)
    x2 = projection(model, manager, 2, arity)
    handles = [f, g, x2, apply("and", f, x2), negb(f), cofactor(0, f),
               cofactor(1, g), reduce(PRESETS["o-nucx"], f)]
    handles += [apply(op, f, g) for op in ("and", "or", "xor", "implies")]
    rebuilt = cons_diamond(model, manager, cofactor(0, f).edge,
                           cofactor(1, f).edge)
    assert equiv(FuncHandle(rebuilt, model=model), f)
    assert equiv(f, compile_table(model, table, manager))
    push_neg(f.edge)
    cofactors(model, manager.edge(X, f.edge))
    cofactors(model, manager.edge(C10, f.edge))
    constant(model, manager, 1, arity)
    edge_mask(g.edge)
    signature(FuncHandle(g.edge))
    for h in handles:
        count_sat(h)
        any_sat(h)
        list(all_sat(h))
        is_sat(h)
        is_taut(h)
        eval_handle(h, (1, 0) * (h.arity // 2) + (1,) * (h.arity % 2))
        to_truth_table(h)
        signature(h)
        dot_export(h)
        measure(h)
        node_count(h)
    check_bounds(table, PRESETS["o-u"], PRESETS["o-nucx"], manager)
    certify_canonicity(model, 2)
    return weakref.ref(manager)


class TestOwnership:
    """A handle or the manager keeps a graph alive; a bare edge does
    not.  Edges refer to their manager weakly, so reference counting
    alone frees a dropped manager and its graph."""

    def test_no_memo_cap(self):
        # memos live as long as their manager; dropping it frees them
        with pytest.raises(TypeError):
            Manager(memo_cap=0)

    def test_handle_keeps_its_manager_alive(self):
        with no_cycle_collector():
            manager = Manager()
            handle = projection(PRESETS["o-nucx"], manager, 1, 3)
            ref = weakref.ref(manager)
            del manager
            assert ref() is handle.manager is handle.edge.manager
            assert to_truth_table(handle) == TruthTable.projection(3, 1)

    def test_manager_freed_with_its_last_handle(self):
        with no_cycle_collector():
            manager = Manager()
            a = projection(PRESETS["o-u"], manager, 0, 4)
            b = negb(a)
            ref = weakref.ref(manager)
            del manager
            del a
            assert ref() is b.manager
            del b
            assert ref() is None

    def test_edge_does_not_keep_its_manager_alive(self):
        with no_cycle_collector():
            edge = Manager().one
            with pytest.raises(ManagerMismatchError,
                               match="manager has been freed"):
                FuncHandle(edge)
            with pytest.raises(ManagerMismatchError):
                Manager().edge(U, edge)

    def test_pair_chain_needs_no_cycle_collection(self):
        with no_cycle_collector():
            arity = 128
            text = " & ".join(f"(x{2 * i} | x{2 * i + 1})"
                              for i in range(arity // 2))
            handle = build_expr(PRESETS["o-nucx"], parse_expr(text, arity),
                                arity, Manager())
            ref = weakref.ref(handle.manager)
            assert count_sat(handle) == 3 ** (arity // 2)
            del handle
            assert ref() is None
            assert gc.collect() == 0

    @pytest.mark.parametrize("name", ["s", "o-u", "o-nucx",
                                      "custom:c01,c10"])
    def test_every_public_op_needs_no_cycle_collection(self, name):
        with no_cycle_collector():
            ref = use_every_public_op(parse_model(name))
            assert ref() is None
            assert gc.collect() == 0

    def test_cons_diamond_rejects_children_of_another_manager(self, mgr):
        other = Manager()
        with pytest.raises(ManagerMismatchError):
            cons_diamond(PRESETS["o-nucx"], mgr, other.zero, other.one)


CHAIN_MODELS = ("o-u", "o-nu", "o-nucx", "s")


def tracked_objects() -> collections.Counter:
    """The objects the cycle collector tracks, counted by type."""
    return collections.Counter(map(type, gc.get_objects()))


def check_tables_track_nothing_per_entry(arity: int) -> int:
    """Build the chain families under ``CHAIN_MODELS`` at ``arity``,
    count them and reduce them into ``o-nucx``; check that no entry of a
    unique table or memo allocated an object for the cycle collector,
    and that each diamond and each link is one tracked object, its
    :class:`Edge`.  Returns the number of entries.

    The ``apply`` and ``compile`` keys are ints; a letter link is keyed
    on its child, an edge the unique tables already hold (a run of ``U``
    longer than one on an int), and the ``reduce`` memo and the
    model-free caches on such edges or on ints.  The diamond table is
    keyed on ``lo`` edges, and a ``lo`` with two parents or more maps
    to a dict keyed on ``hi`` edges: that dict is the one tracked object
    the table makes, and fewer than a tenth of the diamonds need one.
    Tracked tuples may only grow by a constant, and the other tracked
    objects by a constant per manager."""
    # warm up whatever the library makes once per process
    build_expr(PRESETS["o-u"], parse_expr("x0 & ~x1 ^ x2", 3), 3, Manager())
    gc.collect()
    before = tracked_objects()
    handles = []
    for text in chain_texts(arity).values():
        for name in CHAIN_MODELS:
            handle = build_expr(PRESETS[name], parse_expr(text, arity),
                                arity, Manager())
            count_sat(handle)
            reduce(PRESETS["o-nucx"], handle)
            handles.append(handle)
    gc.collect()
    grown = tracked_objects() - before
    assert grown[tuple] < 64, f"{grown[tuple]} more tracked tuples"
    entries = 0
    inner_tables = 0
    diamonds = 0
    links = 0
    for handle in handles:
        manager = handle.manager
        inner = [parents for parents in manager._diamonds.values()
                 if type(parents) is dict]
        inner_tables += len(inner)
        diamonds += len(manager)
        links += len(interned_links(manager))
        interned = {id(manager.zero), id(manager.one)}
        for table in (*manager._links.values(), *inner):
            interned.update(id(edge) for edge in table.values())
        interned.update(id(parents) for parents in manager._diamonds.values()
                        if type(parents) is Edge)
        for table in (manager._diamonds, *inner):
            entries += len(table)
            for key in table:
                assert type(key) is Edge and id(key) in interned, key
        spaces = manager._spaces.values()
        keyed_on_ints = []
        for space in spaces:
            keyed_on_ints += [space.apply, space.compile]
        for table in keyed_on_ints:
            assert all(type(key) is int for key in table)
        reduce_memos = [space.reduce for space in spaces]
        assert any(reduce_memos)
        for table in (*manager._links.values(), *keyed_on_ints,
                      *reduce_memos, *manager._caches.values()):
            entries += len(table)
            for key in table:
                assert not gc.is_tracked(key) or (
                    type(key) is Edge and id(key) in interned), key
    assert inner_tables * 10 < diamonds, (inner_tables, diamonds)
    # the bare edge is the node: a diamond is one tracked object, as a
    # link is, and each manager adds its two terminals
    made = grown.pop(Edge)
    assert made == diamonds + links + 2 * len(handles), (made, diamonds)
    others = sum(grown.values()) - inner_tables
    assert others < 64 * len(handles), grown.most_common(4)
    return entries


class TestTableKeys:
    """Table entries hold no tuple key: the graphs of a long chain are
    live data, and every tracked object is walked by each collection."""

    def test_no_entry_allocates_a_tracked_object(self):
        assert check_tables_track_nothing_per_entry(128) > 10_000
