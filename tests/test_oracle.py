"""Truth-table oracle tests.

Derived expectations are computed with independent list-based references
(per-valuation loops) rather than with the mask arithmetic under test.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from nucx.letters import ALPHABET, N, U, X, from_token
from nucx.oracle import (
    ARITY_LIMIT,
    ArityError,
    OracleLimitError,
    TruthTable,
    check_arity,
    combine,
    letter_mask,
    tt_apply,
    tt_eval,
)


def tt(bits):
    return TruthTable.from_bits(bits)


def all_tables(n):
    return (TruthTable(n, m) for m in range(1 << (1 << n)))


def lift(letter, f):
    """``letter`` applied to the table ``f``, through ``letter_mask``."""
    arity = f.arity if letter is N else f.arity + 1
    return TruthTable(arity, letter_mask(letter, f.mask, f.arity))


def ref_eval(bits, valuation):
    # independent reference: x0 is the MSB of the valuation index
    index = 0
    for v in valuation:
        index = index * 2 + v
    return bits[index]


def ref_combine(comb, fb, gb):
    fb, gb = list(fb), list(gb)
    if comb == "s":
        return fb + gb
    if comb == "d+":
        return fb + [a ^ b for a, b in zip(fb, gb)]
    if comb == "d-":
        return [a ^ b for a, b in zip(fb, gb)] + fb
    raise AssertionError(comb)


def tables_strategy(max_arity=6):
    return st.integers(0, max_arity).flatmap(
        lambda n: st.builds(TruthTable, st.just(n),
                            st.integers(0, (1 << (1 << n)) - 1)))


class TestEval:
    def test_constant_zero(self):
        assert tt_eval(TruthTable.constant(0, 0), ()) == 0

    def test_paper_canalizing_example(self):
        # g(x0, x1) = x0 and not x1
        g = tt([0, 0, 1, 0])
        assert tt_eval(g, (1, 0)) == 1

    def test_identity(self):
        assert tt_eval(tt([0, 1]), (1,)) == 1

    def test_matches_reference_everywhere(self):
        for n in range(4):
            for f in all_tables(n) if n < 3 else [TruthTable(n, 0x96)]:
                bits = f.bits
                for valuation in itertools.product((0, 1), repeat=n):
                    assert tt_eval(f, valuation) == ref_eval(bits, valuation)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            tt_eval(tt([0, 1]), (0, 1))


class TestApply:
    def test_not_identity(self):
        assert tt_apply("not", tt([0, 1])) == tt([1, 0])

    def test_and_idempotent(self):
        for f in all_tables(2):
            assert tt_apply("and", f, f) == f

    def test_xor_example(self):
        assert tt_apply("xor", tt([0, 1, 1, 0]), tt([0, 0, 1, 1])) == \
            tt([0, 1, 0, 1])

    @given(tables_strategy(), st.sampled_from(["and", "or", "xor"]),
           st.integers())
    def test_binary_matches_reference(self, f, op, seed):
        g = TruthTable(f.arity, seed % (1 << f.size))
        expected = [
            {"and": a & b, "or": a | b, "xor": a ^ b}[op]
            for a, b in zip(f.bits, g.bits)
        ]
        assert tt_apply(op, f, g).bits == tuple(expected)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            tt_apply("and", tt([0, 1]), tt([0, 1, 1, 0]))

    @pytest.mark.parametrize("op, operands, message", [
        ("not", 2, "'not' is unary"),
        ("and", 1, "'and' needs two operands"),
        ("nand", 2, "unknown operation 'nand'"),
    ], ids=["not-binary", "and-unary", "unknown"])
    def test_wrong_operation_or_operand_count(self, op, operands, message):
        with pytest.raises(ValueError, match=message):
            tt_apply(op, *[tt([0, 1])] * operands)


class TestCombine:
    def test_shannon_identity_function(self):
        zero = TruthTable.constant(0, 0)
        one = TruthTable.constant(0, 1)
        assert combine("s", zero, one) == tt([0, 1])

    def test_useless_equals_davio_with_zero(self):
        # f *s f  ==  f *d+ 0, for every small f
        for n in range(4):
            zero = TruthTable.constant(n, 0)
            for f in all_tables(n) if n <= 2 else [TruthTable(n, 0x3C)]:
                assert combine("s", f, f) == combine("d+", f, zero)

    def test_davio_pos_example(self):
        assert combine("d+", tt([0, 1]), tt([1, 1])) == tt([0, 1, 1, 0])

    @given(tables_strategy(4), st.integers(),
           st.sampled_from(["s", "d+", "d-"]))
    def test_matches_reference(self, f, seed, comb):
        g = TruthTable(f.arity, seed % (1 << f.size))
        assert combine(comb, f, g).bits == \
            tuple(ref_combine(comb, f.bits, g.bits))

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            combine("s", tt([0, 1]), tt([0]))

    def test_unknown_combinator(self):
        with pytest.raises(ValueError, match="unknown combinator 'd'"):
            combine("d", tt([0, 1]), tt([1, 0]))

    def test_shannon_universality(self):
        # splitting on x0 and recombining is the identity
        for n in (1, 2, 3):
            for f in all_tables(n) if n <= 2 else \
                    (TruthTable(n, m) for m in range(0, 256, 7)):
                half = 1 << n - 1
                f0 = TruthTable(n - 1, f.mask & (1 << half) - 1)
                f1 = TruthTable(n - 1, f.mask >> half)
                assert combine("s", f0, f1) == f


class TestFunctors:
    def test_paper_c00_example(self):
        # 0 *s (not x1)  ==  x0 and not x1
        f = tt([1, 0])
        assert lift(from_token("c00"), f) == tt([0, 0, 1, 0])

    def test_useless_ignores_new_variable(self):
        f = TruthTable(2, 0x6)
        g = lift(U, f)
        for v in itertools.product((0, 1), repeat=2):
            assert tt_eval(g, (0,) + v) == tt_eval(g, (1,) + v)

    def test_xor_of_zero_is_identity(self):
        assert lift(X, TruthTable.constant(0, 0)) == tt([0, 1])

    def test_negation_involution(self):
        for f in all_tables(2):
            assert lift(N, lift(N, f)) == f

    def test_arity_shift(self):
        f = TruthTable(2, 0x9)
        for letter in ALPHABET:
            expected = f.arity if letter is N else f.arity + 1
            assert lift(letter, f).arity == expected

    @pytest.mark.parametrize("letter", [None, "C00", 0])
    def test_non_letter_is_rejected(self, letter):
        with pytest.raises(ValueError, match="unknown letter"):
            letter_mask(letter, 0b10, 1)

    @given(tables_strategy(4))
    def test_matches_combine_patterns(self, f):
        fn = tt_apply("not", f)
        zero = TruthTable.constant(f.arity, 0)
        one = TruthTable.constant(f.arity, 1)
        patterns = {
            "U": combine("s", f, f),
            "X": combine("s", f, fn),
            "C00": combine("s", zero, f),
            "C01": combine("s", one, f),
            "C10": combine("s", f, zero),
            "C11": combine("s", f, one),
        }
        for token, expected in patterns.items():
            assert lift(from_token(token), f) == expected


DAVIO_ROWS = [
    ("u", "c10", "c10"),
    ("x", "c11", "c11"),
    ("c00", "c00", "u"),
    ("c01", "c01", "x"),
    ("c10", "u", "c00"),
    ("c11", "x", "c01"),
]


def intro_pattern(comb, token, f):
    """The introduction-rule shape of a letter, read under a combinator."""
    letter = from_token(token)
    if letter is U:
        return combine(comb, f, f)
    if letter is X:
        return combine(comb, f, tt_apply("not", f))
    const = TruthTable.constant(f.arity, letter.const)
    if letter.branch == 0:
        return combine(comb, const, f)
    return combine(comb, f, const)


@pytest.mark.parametrize("row", DAVIO_ROWS)
@pytest.mark.parametrize("column", [1, 2])
def test_davio_rows_match_up_to_child_negation(row, column):
    comb = "d+" if column == 1 else "d-"
    matched = []
    for negate in (False, True):
        ok = True
        for n in range(4):
            for f in all_tables(n) if n <= 2 else \
                    (TruthTable(3, m) for m in range(256)):
                g = tt_apply("not", f) if negate else f
                if intro_pattern("s", row[0], f) != \
                        intro_pattern(comb, row[column], g):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            matched.append(negate)
    assert matched, f"no uniform child transform works for row {row}"


class TestFromBits:
    @pytest.mark.parametrize("count", [0, 3, 6])
    def test_count_not_a_power_of_two(self, count):
        with pytest.raises(ValueError,
                           match=f"bit count {count} is not a power of two"):
            TruthTable.from_bits([0] * count)


class TestHexForm:
    def test_documented_example(self):
        f = TruthTable.from_hex(3, "6A")
        assert f.bits == (0, 1, 1, 0, 1, 0, 1, 0)
        assert f.to_hex() == "6A"
        assert TruthTable.from_hex(3, "6a") == f

    def test_roundtrip(self):
        for n in range(4):
            for f in all_tables(n) if n <= 2 else \
                    (TruthTable(3, m) for m in range(256)):
                assert TruthTable.from_hex(n, f.to_hex()) == f

    def test_digit_count_enforced(self):
        with pytest.raises(ValueError):
            TruthTable.from_hex(3, "6")

    @pytest.mark.parametrize("digits", [
        "0x6A", "0X6A", "6_AB", " 6AB", "6AB ", "+6AB", "-6AB", "6\u0663AB"])
    def test_only_hex_digits(self, digits):
        # each has the 4 characters of arity 4, and int(_, 16) reads
        # each as a number
        with pytest.raises(ValueError, match="only the digits"):
            TruthTable.from_hex(4, digits)

    def test_arity_limit(self):
        with pytest.raises(OracleLimitError):
            TruthTable.constant(ARITY_LIMIT + 1, 0)


class TestTableChecks:
    def test_negative_arity(self):
        with pytest.raises(ArityError, match="nonnegative, got -1"):
            check_arity(-1)

    @pytest.mark.parametrize("mask", [-1, 16])
    def test_mask_out_of_range(self, mask):
        with pytest.raises(ValueError, match="out of range for arity 2"):
            TruthTable(2, mask)

    def test_repr_shows_the_hex_form(self):
        assert repr(TruthTable.from_hex(3, "6A")) == \
            "TruthTable(arity=3, hex='6A')"


class TestProjection:
    def test_small_cases(self):
        assert TruthTable.projection(1, 0) == tt([0, 1])
        assert TruthTable.projection(2, 0) == tt([0, 0, 1, 1])
        assert TruthTable.projection(2, 1) == tt([0, 1, 0, 1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.projection(2, 2)
