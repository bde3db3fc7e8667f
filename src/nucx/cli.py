"""Command-line front end.

Inputs are Boolean expressions (``--expr``, grammar below) or hex truth
tables (``--tt``), always with an explicit ``--arity``.  Exit codes:
0 success (also when the reader closes stdout early), 1 usage or parse
error, 2 internal invariant violation.

Expression grammar (loosest to tightest): ``|``, ``^``, ``&``, unary
``~``; parentheses, constants ``0``/``1`` and variables ``x0, x1, ...``.
Binary operators associate left.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

from .connectives import apply as apply_op
from .connectives import build_expr, negb
from .graph import FuncHandle, Manager, dot_export, signature
from .letters import from_token
from .metrics import CSV_HEADER, check_bounds, measure
from .oracle import TruthTable
from .queries import all_sat, any_sat, count_sat, equiv, is_sat, is_taut
from .reduction import (
    PRESETS,
    ModelSpec,
    compile_table,
    lattice_leq,
    parse_model,
    translate_letter,
)


#: Expression AST: ("const", v) | ("var", i) | ("not", e) | (op, e1, e2)
ExprAst = tuple


class ParseError(ValueError):
    """Expression syntax error, carrying the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _tokenize(source: str):
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


def parse_expr(source: str, arity: int) -> ExprAst:
    """Parse to an AST of nested tuples (see ``build_expr``)."""
    tokens = _tokenize(source)
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _arity(text: str) -> int:
    try:
        arity = int(text)
    except ValueError:
        arity = -1
    if arity < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return arity


def _add_input_arguments(parser, second=False):
    parser.add_argument("--expr", help="Boolean expression over x0..")
    parser.add_argument("--tt", help="hex truth table, MSB-first")
    parser.add_argument("--arity", type=_arity, required=True)
    if second:
        parser.add_argument("--expr2", help="second expression")
        parser.add_argument("--tt2", help="second hex truth table")


def _load_handle(args, model: ModelSpec, manager: Manager,
                 suffix: str = "") -> FuncHandle:
    expr = getattr(args, "expr" + suffix, None)
    hexes = getattr(args, "tt" + suffix, None)
    if (expr is None) == (hexes is None):
        raise _UsageError(
            f"exactly one of --expr{suffix}/--tt{suffix} is required")
    if expr is not None:
        return build_expr(model, parse_expr(expr, args.arity), args.arity,
                          manager)
    return compile_table(model, TruthTable.from_hex(args.arity, hexes),
                         manager)


def _stats_pairs(handle: FuncHandle):
    report = measure(handle)
    return (
        ("model", report.model),
        ("arity", report.arity),
        ("diamonds", report.diamonds),
        ("letters", report.letters),
        ("neg_letters", report.neg_letters),
        ("s_size", report.s_size),
    )


def _emit_stats(handle: FuncHandle, as_json: bool, out) -> None:
    pairs = _stats_pairs(handle)
    if as_json:
        print(json.dumps(dict(pairs)), file=out)
    else:
        for key, value in pairs:
            print(f"{key}={value}", file=out)


def _cmd_compile(args, out):
    manager = Manager()
    model = parse_model(args.model)
    handle = _load_handle(args, model, manager)
    emitted = False
    if args.sig:
        print(signature(handle), file=out)
        emitted = True
    if args.stats or args.json:
        _emit_stats(handle, args.json, out)
        emitted = True
    if args.dot:
        text = dot_export(handle)
        if args.dot == "-":
            out.write(text)
        else:
            with open(args.dot, "w") as stream:
                stream.write(text)
        emitted = True
    if not emitted:
        print(signature(handle), file=out)
    return 0


def _cmd_query(args, out):
    manager = Manager()
    model = parse_model(args.model)
    handle = _load_handle(args, model, manager)
    if args.kind == "sat":
        print("true" if is_sat(handle) else "false", file=out)
    elif args.kind == "taut":
        print("true" if is_taut(handle) else "false", file=out)
    elif args.kind == "count":
        print(count_sat(handle), file=out)
    else:
        witness = any_sat(handle)
        print("none" if witness is None
              else "".join(map(str, witness)), file=out)
    return 0


def _cmd_allsat(args, out):
    manager = Manager()
    model = parse_model(args.model)
    handle = _load_handle(args, model, manager)
    for valuation in all_sat(handle):
        print("".join(map(str, valuation)), file=out)
    return 0


def _cmd_equiv(args, out):
    manager = Manager()
    model = parse_model(args.model)
    first = _load_handle(args, model, manager)
    second = _load_handle(args, model, manager, suffix="2")
    print("true" if equiv(first, second) else "false", file=out)
    return 0


def _cmd_apply(args, out):
    manager = Manager()
    model = parse_model(args.model)
    first = _load_handle(args, model, manager)
    if args.op == "not":
        result = negb(first)
    else:
        second = _load_handle(args, model, manager, suffix="2")
        result = apply_op(args.op, first, second)
    print(signature(result), file=out)
    if args.stats:
        _emit_stats(result, False, out)
    return 0


def _parse_models(text: str) -> list[ModelSpec]:
    models = [parse_model(part) for part in text.split(",") if part]
    if not models:
        raise _UsageError("no models given")
    return models


def _cmd_compare(args, out):
    manager = Manager()
    models = _parse_models(args.models)
    print(CSV_HEADER, file=out)
    for model in models:
        handle = _load_handle(args, model, manager)
        print(measure(handle).csv_row(), file=out)
    return 0


def _cmd_bench(args, out):
    models = _parse_models(args.models)
    manager = Manager(memo_cap=args.memo_cap)
    violations = 0
    print(CSV_HEADER, file=out)
    for index in range(args.samples):
        seed = args.seed + index
        table = TruthTable(args.arity,
                           random.Random(seed).getrandbits(1 << args.arity))
        handles = {m: compile_table(m, table, manager) for m in models}
        for model in models:
            report = measure(handles[model])
            print(report.csv_row(seed), file=out)
            if not report.labels_within_bound:
                violations += 1
        for coarse, fine in itertools.permutations(models, 2):
            if not lattice_leq(coarse, fine):
                continue
            if not check_bounds(table, coarse, fine, manager).ok:
                violations += 1
    print(f"violations={violations}", file=out)
    return 0 if violations == 0 else 2


def _cmd_translate(args, out):
    letter = from_token(args.letter)
    result = translate_letter(args.source, args.to, letter)
    print(result.token.lower(), file=out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="nucx",
                     description="canonical decision-diagram toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("compile", help="build a reduced diagram")
    p.add_argument("--model", default="o-nucx")
    _add_input_arguments(p)
    p.add_argument("--dot", help="write DOT to a path, or - for stdout")
    p.add_argument("--sig", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("query", help="decision and counting queries")
    p.add_argument("kind", choices=["sat", "taut", "anysat", "count"])
    p.add_argument("--model", default="o-nucx")
    _add_input_arguments(p)
    p.set_defaults(handler=_cmd_query)

    p = sub.add_parser("allsat", help="enumerate satisfying valuations")
    p.add_argument("--model", default="o-nucx")
    _add_input_arguments(p)
    p.set_defaults(handler=_cmd_allsat)

    p = sub.add_parser("equiv", help="compare two inputs for equivalence")
    p.add_argument("--model", default="o-nucx")
    _add_input_arguments(p, second=True)
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("apply", help="combine inputs with a connective")
    p.add_argument("op", choices=["and", "or", "xor", "not"])
    p.add_argument("--model", default="o-nucx")
    _add_input_arguments(p, second=True)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("compare", help="size report across models")
    p.add_argument("--models", required=True,
                   help="comma-separated model names")
    _add_input_arguments(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("bench",
                       help="random functions, sizes and bound checks")
    p.add_argument("--arity", type=_arity, required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models", default=",".join(PRESETS))
    p.add_argument("--memo-cap", type=int, default=None,
                   help="flush memo tables beyond this many entries")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("translate",
                       help="carry a reduction letter between combinators")
    p.add_argument("--from", dest="source", required=True,
                   choices=["s", "d+", "d-"])
    p.add_argument("--to", required=True, choices=["s", "d+", "d-"])
    p.add_argument("--letter", required=True)
    p.set_defaults(handler=_cmd_translate)

    return parser


def run(argv=None, out=None) -> int:
    """Entry point returning the exit code (stdout injectable for tests)."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early; keep the interpreter's final flush
        # from failing on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
