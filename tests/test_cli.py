import collections
import io
import os
import random
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import nucx
from nucx.cli import ParseError, parse_expr, run
from nucx.reduction import PRESETS

GOLDEN = Path(__file__).parent / "data" / "golden_sigs.txt"
SRC = str(Path(nucx.__file__).resolve().parent.parent)


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def reference_tokenize(source):
    tokens = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
        elif ch in "|^&~()":
            tokens.append((ch, None, i))
            i += 1
        elif ch in "01":
            tokens.append(("const", int(ch), i))
            i += 1
        elif ch == "x":
            j = i + 1
            while j < len(source) and source[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after 'x'", i + 1)
            tokens.append(("var", int(source[i + 1:j]), i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def reference_parse_expr(source, arity):
    """The tokenizer and recursive-descent parser the loop parser
    replaced, kept as the reference for the differential test."""
    tokens = reference_tokenize(source)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def binary(ops, below):
        nonlocal pos
        node = below()
        while True:
            token = peek()
            if token is None or token[0] not in ops:
                return node
            pos += 1
            node = (ops[token[0]], node, below())

    def disjunction():
        return binary({"|": "or"}, xors)

    def xors():
        return binary({"^": "xor"}, conjunction)

    def conjunction():
        return binary({"&": "and"}, unary)

    def unary():
        nonlocal pos
        token = peek()
        if token is None:
            raise ParseError("unexpected end of input", len(source))
        kind, value, offset = token
        if kind == "~":
            pos += 1
            return ("not", unary())
        if kind == "(":
            pos += 1
            node = disjunction()
            closing = peek()
            if closing is None or closing[0] != ")":
                raise ParseError("expected ')'",
                                 len(source) if closing is None
                                 else closing[2])
            pos += 1
            return node
        if kind == "const":
            pos += 1
            return ("const", value)
        if kind == "var":
            if value >= arity:
                raise ParseError(
                    f"variable x{value} out of range for arity {arity}",
                    offset)
            pos += 1
            return ("var", value)
        raise ParseError(f"unexpected token {kind!r}", offset)

    node = disjunction()
    if pos != len(tokens):
        raise ParseError("trailing input", tokens[pos][2])
    return node


def random_formula(rng, depth, variables=3):
    """A well-formed formula of at most ``depth`` nested connectives over
    ``x0`` to ``x(variables - 1)``."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([f"x{i}" for i in range(variables)] + ["0", "1"])
    form = rng.choice(["~{}", "({})", "{} & {}", "{}|{}", "{} ^{}"])
    return form.format(*(random_formula(rng, depth - 1, variables)
                         for _ in range(form.count("{}"))))


def parse_outcome(parse, source):
    try:
        return "ast", parse(source, 3)
    except ParseError as exc:
        return "error", str(exc), exc.offset


class TestParseExpr:
    def test_same_as_recursive_descent(self):
        rng = random.Random(10)
        pool = "x0 x1 x2 0 1 ~ & | ^ ( ) x9 x ?".split() + [" "]
        sources = ["".join(rng.choice(pool) for _ in range(rng.randint(0, 24)))
                   for _ in range(20000)]
        for _ in range(5000):
            source = random_formula(rng, 6)
            if rng.random() < 0.3:
                k = rng.randrange(len(source))
                source = source[:k] + rng.choice("()~&|^x0 ") + source[k + 1:]
            sources.append(source)
        outcomes = collections.Counter()
        for source in sources:
            expected = parse_outcome(reference_parse_expr, source)
            assert parse_outcome(parse_expr, source) == expected, source
            outcomes[expected[0]] += 1
        assert outcomes["ast"] > 3000 and outcomes["error"] > 3000

    def test_running_example(self):
        ast = parse_expr("x1 ^ x2 ^ (~x0 & x3)", 4)
        assert ast == ("xor", ("xor", ("var", 1), ("var", 2)),
                       ("and", ("not", ("var", 0)), ("var", 3)))

    def test_double_negation_preserved(self):
        assert parse_expr("~~x0", 1) == ("not", ("not", ("var", 0)))

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError) as info:
            parse_expr("x5", 4)
        assert "out of range" in str(info.value)
        assert info.value.offset == 0

    def test_precedence(self):
        # ~ binds over &, & over ^, ^ over |
        assert parse_expr("~x0 & x1 ^ x2 | x3", 4) == \
            ("or",
             ("xor", ("and", ("not", ("var", 0)), ("var", 1)), ("var", 2)),
             ("var", 3))

    def test_left_associativity(self):
        assert parse_expr("x0 ^ x1 ^ x2", 3) == \
            ("xor", ("xor", ("var", 0), ("var", 1)), ("var", 2))

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as info:
            parse_expr("x0 & ?", 2)
        assert info.value.offset == 5

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_expr("(x0 & x1", 2)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_expr("x0 x1", 2)

    @pytest.mark.parametrize("source", ["x\u00b2", "x\u0663"],
                             ids=["superscript-two", "arabic-indic-three"])
    def test_variable_digits_are_ascii(self, source, capsys):
        # str.isdigit accepts both; int() parses the second as 3
        with pytest.raises(ParseError) as info:
            parse_expr(source, 4)
        assert str(info.value) == "expected digits after 'x' (at offset 1)"
        assert info.value.offset == 1
        assert invoke("compile", "--expr", source, "--arity", "4") == (1, "")
        assert capsys.readouterr().err == (
            "error: expected digits after 'x' (at offset 1)\n")


class TestCompile:
    def test_stats_contains_diamond_count(self):
        code, out = invoke("compile", "--model", "o-nucx",
                           "--expr", "x1^x2^(~x0&x3)", "--arity", "4",
                           "--stats")
        assert code == 0
        assert "diamonds=1" in out.splitlines()

    def test_signature_output(self):
        code, out = invoke("compile", "--expr", "x0&x1", "--arity", "2",
                           "--sig")
        assert code == 0
        assert out.strip() == "[C00.X]0"

    def test_json_stats(self):
        import json
        code, out = invoke("compile", "--expr", "1", "--arity", "2",
                           "--json")
        assert code == 0
        assert json.loads(out) == {
            "model": "o-nucx", "arity": 2, "diamonds": 0,
            "letters": 2, "neg_letters": 1, "s_size": 2,
        }

    def test_wide_parity_stats(self):
        import json
        parity = "^".join(f"x{i}" for i in range(20))
        code, out = invoke("compile", "--model", "o-u", "--expr", parity,
                           "--arity", "20", "--stats", "--json")
        assert code == 0
        assert json.loads(out)["diamonds"] == 39

    def test_truth_table_input(self):
        # MSB-first: only the (1,1) valuation satisfies the conjunction
        code, out = invoke("compile", "--tt", "1", "--arity", "2", "--sig")
        assert code == 0
        assert out.strip() == "[C00.X]0"

    def test_dot_to_file(self, tmp_path):
        target = tmp_path / "graph.dot"
        code, out = invoke("compile", "--expr", "x0^x1", "--arity", "2",
                           "--dot", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("digraph")
        assert out == ""

    def test_dot_to_stdout(self):
        code, out = invoke("compile", "--expr", "x0", "--arity", "1",
                           "--dot", "-")
        assert code == 0
        assert out.startswith("digraph")

    @pytest.mark.parametrize("kind", ["missing-directory", "directory",
                                      "empty"])
    def test_unwritable_dot_path_is_an_error(self, kind, tmp_path, capsys):
        target = {"missing-directory": tmp_path / "absent" / "graph.dot",
                  "directory": tmp_path, "empty": ""}[kind]
        assert invoke("compile", "--expr", "x0", "--arity", "1",
                      "--dot", str(target)) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write --dot '{target}': ")
        assert err.count("\n") == 1


class TestQuery:
    def test_count_zero_table(self):
        code, out = invoke("query", "count", "--model", "o-nucx",
                           "--tt", "00", "--arity", "3")
        assert (code, out.strip()) == (0, "0")

    def test_count_running_example(self):
        code, out = invoke("query", "count", "--expr", "x1^x2^(~x0&x3)",
                           "--arity", "4")
        assert (code, out.strip()) == (0, "8")

    @pytest.mark.parametrize("model", ["o-u", "o-nucx"])
    def test_count_past_the_digit_limit(self, model):
        # 2**19999 has 6,021 digits, past the interpreter's default
        # int-to-str limit of 4,300
        limit = sys.get_int_max_str_digits()
        code, out = invoke("query", "count", "--model", model,
                           "--expr", "x0 ^ x19999", "--arity", "20000")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            count = int(out)
        finally:
            sys.set_int_max_str_digits(limit)
        assert count == 2 ** 19999

    def test_sat_and_taut(self):
        assert invoke("query", "sat", "--tt", "00", "--arity", "3")[1] \
            .strip() == "false"
        assert invoke("query", "taut", "--tt", "FF", "--arity", "3")[1] \
            .strip() == "true"

    def test_anysat(self):
        code, out = invoke("query", "anysat", "--expr", "x0 & ~x1",
                           "--arity", "2")
        assert (code, out.strip()) == (0, "10")
        code, out = invoke("query", "anysat", "--tt", "0", "--arity", "1")
        assert (code, out.strip()) == (0, "none")


class TestAllsat:
    def test_lines_in_lexicographic_order(self):
        code, out = invoke("allsat", "--expr", "x0 | x1", "--arity", "2")
        assert code == 0
        assert out.split() == ["01", "10", "11"]

    def test_model_choice_does_not_change_answers(self):
        for model in ("s", "o-c10", "o-nuc"):
            code, out = invoke("allsat", "--model", model,
                               "--expr", "x0 ^ x1 ^ x2", "--arity", "3")
            assert code == 0
            assert out.split() == ["001", "010", "100", "111"]


class TestEquiv:
    def test_same_function_two_forms(self):
        code, out = invoke("equiv", "--expr", "~(x0 & x1)",
                           "--expr2", "~x0 | ~x1", "--arity", "2")
        assert (code, out.strip()) == (0, "true")

    def test_distinct_functions(self):
        code, out = invoke("equiv", "--expr", "x0", "--expr2", "x1",
                           "--arity", "2")
        assert (code, out.strip()) == (0, "false")

    def test_mixed_input_kinds(self):
        code, out = invoke("equiv", "--expr", "x0&x1", "--tt2", "1",
                           "--arity", "2")
        assert (code, out.strip()) == (0, "true")


class TestApply:
    def test_conjunction(self):
        code, out = invoke("apply", "and", "--expr", "x0", "--expr2", "x1",
                           "--arity", "2")
        assert (code, out.strip()) == (0, "[C00.X]0")

    def test_negation(self):
        code, out = invoke("apply", "not", "--expr", "x0", "--arity", "1")
        assert (code, out.strip()) == (0, "[N.X]0")

    def test_xor_matches_compile(self):
        _, direct = invoke("compile", "--expr", "x0^x1", "--arity", "2",
                           "--sig")
        _, applied = invoke("apply", "xor", "--expr", "x0", "--expr2", "x1",
                            "--arity", "2")
        assert applied == direct


class TestCompare:
    def test_csv_shape(self):
        code, out = invoke("compare", "--models", "s,o-u,o-nucx",
                           "--expr", "x1^x2^(~x0&x3)", "--arity", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "model,arity,seed,diamonds,letters,s_size"
        assert len(lines) == 4
        assert lines[3].startswith("o-nucx,4,-,1,")

    @pytest.mark.parametrize("source", [
        ["--expr", "x0 &", "--arity", "2"],
        ["--tt", "zz", "--arity", "2"],
        ["--expr", "x0", "--arity", "100001"],
    ], ids=["expr", "tt", "arity"])
    def test_input_error_prints_no_row(self, source, capsys):
        # every input is loaded before the CSV header is printed
        assert invoke("compare", "--models", "o-u,s", *source) == (1, "")
        assert capsys.readouterr().err.startswith("error: ")


class TestBench:
    def test_no_violations_and_determinism(self):
        argv = ("bench", "--arity", "5", "--samples", "4", "--seed", "9",
                "--models", "s,o-u,o-c10,o-uc10,o-nu,o-nucx")
        code1, out1 = invoke(*argv)
        code2, out2 = invoke(*argv)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "model,arity,seed,diamonds,letters,s_size"
        assert lines[-1] == "violations=0"
        assert len(lines) == 2 + 4 * 6

    @pytest.mark.parametrize("arity", range(1, 5))
    def test_every_preset_pair_holds_its_bounds(self, arity):
        code, out = invoke("bench", "--arity", str(arity), "--samples",
                           "20", "--seed", "0")
        assert (code, out.splitlines()[-1]) == (0, "violations=0")

    def test_negative_counts_are_usage_errors(self, capsys):
        assert invoke("bench", "--arity", "3", "--samples", "-4") == (1, "")
        assert capsys.readouterr().err == (
            "usage error: argument --samples: expected a non-negative "
            "integer, got '-4'\n")

    def test_no_memo_cap_option(self, capsys):
        assert invoke("bench", "--arity", "3", "--memo-cap", "4") == (1, "")
        assert capsys.readouterr().err.startswith(
            "usage error: unrecognized arguments: --memo-cap 4")

    def test_samples_are_independent(self):
        argv = ("bench", "--arity", "5", "--models", "o-u,o-nucx")
        code, out = invoke(*argv, "--samples", "3", "--seed", "2")
        header, *rows, verdict = out.splitlines()
        singles = []
        for seed in ("2", "3", "4"):
            one = invoke(*argv, "--samples", "1", "--seed", seed)
            assert one[0] == code == 0
            assert one[1].splitlines()[0] == header
            assert one[1].splitlines()[-1] == verdict == "violations=0"
            singles += one[1].splitlines()[1:-1]
        assert rows == singles

    def test_memory_does_not_grow_with_samples(self):
        # each sample runs in its own manager, dropped before the next
        peaks = []
        for samples in ("2", "8"):
            tracemalloc.start()
            try:
                invoke("bench", "--arity", "12", "--seed", "0",
                       "--samples", samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestTranslate:
    def test_documented_rows(self):
        assert invoke("translate", "--from", "s", "--to", "d+",
                      "--letter", "u")[1].strip() == "c10"
        assert invoke("translate", "--from", "s", "--to", "d-",
                      "--letter", "c00")[1].strip() == "u"
        assert invoke("translate", "--from", "s", "--to", "d+",
                      "--letter", "x")[1].strip() == "c11"

    def test_mark_rejected(self):
        code, _ = invoke("translate", "--from", "s", "--to", "d+",
                         "--letter", "n")
        assert code == 1


class TestExitCodes:
    def test_usage_error(self):
        assert invoke("compile", "--arity", "2")[0] == 1          # no input
        assert invoke("compile", "--expr", "x0", "--tt", "1",
                      "--arity", "1")[0] == 1                     # both
        assert invoke("no-such-command")[0] == 1
        assert invoke("compile", "--arity", "-1", "--expr", "1")[0] == 1
        assert invoke("query", "sat", "--arity", "-1", "--tt", "1")[0] == 1
        assert invoke("bench", "--arity", "-1")[0] == 1
        assert invoke("compile", "--arity", "two", "--expr", "1")[0] == 1

    def test_parse_error(self):
        assert invoke("compile", "--expr", "x9", "--arity", "2")[0] == 1
        assert invoke("compile", "--expr", "x0 &", "--arity", "1")[0] == 1

    def test_bound_violation(self, monkeypatch):
        # a failed verdict is a defect in the library: it is counted on
        # the last line and exits 2; o-u <= o-nu is one comparable pair
        failed = types.SimpleNamespace(ok=False)
        monkeypatch.setattr("nucx.cli.bound_verdict", lambda *args: failed)
        code, out = invoke("bench", "--arity", "3", "--samples", "2",
                           "--models", "o-u,o-nu")
        assert (code, out.splitlines()[-1]) == (2, "violations=2")

    def test_invariant_violation(self, monkeypatch, capsys):
        def broken(handle):
            raise AssertionError("broken invariant")
        monkeypatch.setattr("nucx.cli.signature", broken)
        assert invoke("compile", "--expr", "x0", "--arity", "1") == (2, "")
        # one line, no traceback
        assert capsys.readouterr().err == (
            "internal invariant violation: broken invariant\n")

    def test_unknown_model(self):
        assert invoke("compile", "--model", "o-zdd", "--expr", "x0",
                      "--arity", "1")[0] == 1

    def test_bad_hex(self):
        assert invoke("compile", "--tt", "ZZ", "--arity", "3")[0] == 1

    @pytest.mark.parametrize("digits", ["0x6A", "6_AB", " 6AB", "+6AB"])
    def test_hex_with_a_prefix_sign_or_separator(self, digits, capsys):
        assert invoke("compile", "--tt", digits, "--arity", "4") == (1, "")
        assert invoke("equiv", "--tt", "06AB", "--tt2", digits,
                      "--arity", "4") == (1, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("error: a hex table takes only")
                   for line in err)

    def test_help_exits_zero(self):
        assert invoke("--help")[0] == 0

    @pytest.mark.parametrize("expr, same_as", [
        ("(" * 200 + "x0" + ")" * 200, "x0"),
        ("(" * 5000 + "x0" + ")" * 5000, "x0"),
        ("~" * 2000 + "x0", "x0"),
        ("~" * 10001 + "x0", "~x0"),
    ], ids=["parentheses-200", "parentheses-5000", "negations-2000",
            "negations-10001"])
    def test_deep_nesting_parses(self, expr, same_as):
        code, out = invoke("compile", "--expr", expr, "--arity", "1", "--sig")
        assert (code, out) == invoke("compile", "--expr", same_as,
                                     "--arity", "1", "--sig")
        assert code == 0

    @pytest.mark.parametrize("arity", ["25", "64"])
    def test_bench_arity_above_the_table_limit(self, arity, capsys):
        # rejected before the CSV header or any random bits
        assert invoke("bench", "--arity", arity) == (1, "")
        err = capsys.readouterr().err
        assert err == (f"error: arity {arity} exceeds the truth-table "
                       f"limit of 24\n")

    @pytest.mark.parametrize("arity", ["100001", "99999999999999999999"])
    def test_expression_arity_above_the_limit(self, arity, capsys):
        # rejected before the expression is parsed or a constant built
        assert invoke("compile", "--expr", "x0", "--arity", arity) == (1, "")
        assert invoke("compare", "--models", "o-u", "--expr", "x0",
                      "--arity", arity)[0] == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --arity {arity} exceeds the expression "
                       f"limit of 100,000"] * 2

    def test_expression_arity_at_the_limit(self):
        assert invoke("query", "sat", "--model", "o-u", "--expr", "x0",
                      "--arity", "100000") == (0, "true\n")

    @pytest.mark.parametrize("command", [
        ["compare", "--expr", "x0", "--arity", "1"],
        ["bench", "--arity", "2"],
    ], ids=["compare", "bench"])
    def test_empty_model_list(self, command, capsys):
        assert invoke(*command, "--models", ",") == (1, "")
        assert capsys.readouterr().err == "usage error: no models given\n"

    @pytest.mark.parametrize("model", ["o-u", "o-nucx", "s"])
    def test_flat_chain_deeper_than_recursion_limit(self, model):
        expr = "^".join(f"x{i}" for i in range(1200))
        code, out = invoke("compile", "--model", model, "--expr", expr,
                           "--arity", "1200", "--stats")
        assert code == 0
        assert f"model={model}\narity=1200\n" in out

    def test_over_long_signature_is_an_error(self, capsys):
        # x0 under s at arity 1,200: a tree signature of 2**1200 leaves
        assert invoke("compile", "--model", "s", "--expr", "x0",
                      "--arity", "1200") == (1, "")
        assert capsys.readouterr().err == (
            "error: the tree signature is longer than 4,194,304 "
            "characters\n")

    def test_closed_stdout_exits_quietly(self):
        # 2**62 valuations: the reader closes the pipe long before the end
        env = dict(os.environ, PYTHONPATH=SRC)
        with subprocess.Popen(
                [sys.executable, "-m", "nucx", "allsat", "--model", "o-u",
                 "--expr", "x0 & x63", "--arity", "64"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert first.strip() == b"1" + b"0" * 62 + b"1"
        assert (proc.returncode, err) == (0, b"")


FUZZ_MODELS = ("O-U", " s ", "custom:u,x", "custom:", "custom:+neg",
               "custom:c01+neg", "custom:n", "custom:q", "custom:u,,c10",
               "o-zdd", "", "o-nuc,o-u")
FUZZ_TOKENS = ("x0", "x1", "x3", "x4", "x00", "x", "0", "1", "|", "^", "&",
               "~", "(", ")", " ", "y", "\u00b2", "x\u0663", "&&", "")
FUZZ_FLAGS = {
    "compile": ("--sig", "--stats", "--json", ("--dot", "-")),
    "query": (),
    "allsat": (),
    "equiv": (),
    "apply": ("--stats",),
    "compare": (),
    "bench": (),
    "translate": (),
}


def fuzz_argv(rng):
    """A random argv: every subcommand and flag, arities 0-4 and a few
    malformed ones, well-formed inputs mixed with token soup for
    ``--expr`` and malformed ``--tt`` tables, and odd model spellings."""
    def pick(*options):
        return rng.choice(options)

    def model():
        if rng.random() < 0.7:
            return rng.choice(list(PRESETS))
        return rng.choice(FUZZ_MODELS)

    width = rng.randint(0, 4)
    arity = (str(width) if rng.random() < 0.85
             else pick("-1", "two", "", "0x3", "5"))

    def expr():
        if rng.random() < 0.4:
            return "".join(rng.choice(FUZZ_TOKENS)
                           for _ in range(rng.randint(0, 8)))
        return random_formula(rng, 3, width)

    def table():
        if rng.random() < 0.4:
            return "".join(rng.choice("0123456789abcdefABCDEFxz -_+")
                           for _ in range(rng.randint(0, 5)))
        return "".join(rng.choice("0123456789abcdef")
                       for _ in range(max(1, (1 << width) // 4)))

    command = rng.choice(list(FUZZ_FLAGS))
    if rng.random() < 0.05:
        command = pick("no-such-command", "--help", "")
    argv = [command] if command else []
    if command == "translate":
        for flag in ("--from", "--to"):
            if rng.random() < 0.9:
                argv += [flag, pick("s", "d+", "d-", "D+", "x")]
        if rng.random() < 0.9:
            argv += ["--letter", pick("u", "x", "c00", "C11", "n", "q", "")]
    elif command == "bench":
        argv += ["--arity", arity]
        argv += ["--samples", pick("0", "1", "3", "-2", "many")]
        if rng.random() < 0.5:
            argv += ["--seed", pick("0", "7", "-3", "seed")]
        if rng.random() < 0.5:
            argv += ["--models", ",".join(model() for _ in range(2))]
    elif command in FUZZ_FLAGS:
        if command == "compare":
            argv += ["--models", ",".join(model() for _ in range(3))]
        elif rng.random() < 0.8:
            argv += ["--model", model()]
        if rng.random() < 0.95:
            argv += ["--arity", arity]
        suffixes = ("", "2") if command in ("equiv", "apply") else ("",)
        for suffix in suffixes:
            # one input, usually; both or neither now and then
            kinds = pick(("--expr",), ("--tt",), ("--expr",), ("--tt",),
                         ("--expr", "--tt"), ())
            for kind in kinds:
                argv += [kind + suffix, expr() if kind == "--expr"
                         else table()]
        if command == "query":
            argv.append(pick("sat", "taut", "anysat", "count", "size"))
        elif command == "apply":
            argv.append(pick("and", "or", "xor", "not", "nand"))
        for flag in FUZZ_FLAGS[command]:
            if rng.random() < 0.4:
                argv += [flag] if isinstance(flag, str) else list(flag)
    if rng.random() < 0.03:
        argv.insert(rng.randint(0, len(argv)), pick("--help", "--bogus"))
    return argv


class TestFuzz:
    """Seeded random argv: the exit code is always one of 0, 1 and 2,
    and nothing is raised past ``run``."""

    def test_run_returns_a_documented_code(self):
        rng = random.Random(2604)
        codes = collections.Counter()
        for _ in range(600):
            argv = fuzz_argv(rng)
            code = run(argv, out=io.StringIO())
            assert code in (0, 1, 2), argv
            codes[code] += 1
        # the soup reaches both the handlers and the error paths
        assert codes[0] > 100 and codes[1] > 300, codes

    def test_entry_point_prints_no_traceback(self):
        rng = random.Random(2605)
        env = dict(os.environ, PYTHONPATH=SRC)
        for _ in range(4):
            argv = fuzz_argv(rng)
            proc = subprocess.run([sys.executable, "-m", "nucx", *argv],
                                  capture_output=True, env=env, timeout=60)
            assert proc.returncode in (0, 1, 2), argv
            assert b"Traceback" not in proc.stderr, argv


def test_golden_signatures():
    for line in GOLDEN.read_text().splitlines():
        model, kind, text, arity, expected = line.split("\t")
        flag = "--expr" if kind == "expr" else "--tt"
        code, out = invoke("compile", "--model", model, flag, text,
                           "--arity", arity, "--sig")
        assert code == 0
        assert out.strip() == expected, f"{model} {text}"
