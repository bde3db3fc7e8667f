"""Command-line front end.

Inputs are Boolean expressions (``--expr``, grammar below, arity at
most ``EXPR_ARITY_LIMIT``) or hex truth tables (``--tt``), always with
an explicit ``--arity`` (at most 24 for ``bench``, which draws random
tables).  Exit codes: 0 success (also when the reader closes stdout
early), 1 usage or parse error, 2 internal invariant violation or a
``bench`` size-bound violation.

Expression grammar (loosest to tightest): ``|``, ``^``, ``&``, unary
``~``; parentheses, constants ``0``/``1`` and variables ``x0, x1, ...``.
Binary operators associate left.  The parser is one loop over the
tokens, so any nesting depth parses.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from dataclasses import asdict

from .connectives import apply as apply_op
from .connectives import build_expr, negb
from .graph import FuncHandle, Manager, dot_export, signature
from .letters import from_token
from .metrics import CSV_HEADER, bound_verdict, measure
from .oracle import COMBINATORS, TruthTable, check_arity
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

#: The largest ``--arity`` of an ``--expr``: the model's constant rows
#: are filled up to it, so cost grows with it whatever the expression.
EXPR_ARITY_LIMIT = 100_000

#: Operator token -> (binding strength, AST tag).  ``(`` binds nothing,
#: so it stops every fold; ``~`` binds tightest.
_OPERATORS = {"(": (0, "("), "|": (1, "or"), "^": (2, "xor"),
              "&": (3, "and"), "~": (4, "not")}


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
        j = i + 1
        if ch == "x":
            # ASCII only: str.isdigit also takes "²" and "٣"
            while j < len(source) and "0" <= source[j] <= "9":
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after 'x'", j)
            tokens.append(("var", int(source[i + 1:j]), i))
        elif ch in "01":
            tokens.append(("const", int(ch), i))
        elif ch in "|^&~()":
            tokens.append((ch, None, i))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", i)
        i = j
    return tokens


def _fold(operands: list, pending: list, strength: int) -> None:
    """Apply the pending operators that bind at least ``strength``."""
    while pending and pending[-1][0] >= strength:
        tag = pending.pop()[1]
        if tag == "not":
            operands[-1] = ("not", operands[-1])
        else:
            right = operands.pop()
            operands[-1] = (tag, operands[-1], right)


def parse_expr(source: str, arity: int) -> ExprAst:
    """Parse to an AST of nested tuples (see ``build_expr``) in one loop
    over the tokens, with a stack of operands and a stack of pending
    operators: ``~``, ``(`` and binary operators."""
    operands: list = []
    pending: list = []
    want_operand = True
    for kind, value, offset in _tokenize(source):
        if want_operand and (kind == "~" or kind == "("):
            pending.append(_OPERATORS[kind])
        elif want_operand:
            if kind == "var" and value >= arity:
                raise ParseError(
                    f"variable x{value} out of range for arity {arity}",
                    offset)
            if kind != "const" and kind != "var":
                raise ParseError(f"unexpected token {kind!r}", offset)
            operands.append((kind, value))
            want_operand = False
        elif kind in ("|", "^", "&"):
            _fold(operands, pending, _OPERATORS[kind][0])
            pending.append(_OPERATORS[kind])
            want_operand = True
        else:
            # only an open parenthesis can stop a fold of strength 1
            _fold(operands, pending, 1)
            if kind != ")" or not pending:
                raise ParseError(
                    "expected ')'" if pending else "trailing input", offset)
            pending.pop()
    if want_operand:
        raise ParseError("unexpected end of input", len(source))
    _fold(operands, pending, 1)
    if pending:
        raise ParseError("expected ')'", len(source))
    return operands[0]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text: str) -> int:
    """A non-negative integer option: an arity or a count, in ASCII
    digits only, as ``--tt`` and ``x<i>`` take them (``int`` would also
    take "_", a sign, spaces or other digits, such as "٣")."""
    # int() still refuses a text past the interpreter's digit limit
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def _load_handle(args, model: ModelSpec, manager: Manager,
                 suffix: str = "") -> FuncHandle:
    expr = getattr(args, "expr" + suffix)
    hexes = getattr(args, "tt" + suffix)
    if (expr is None) == (hexes is None):
        raise _UsageError(
            f"exactly one of --expr{suffix}/--tt{suffix} is required")
    if expr is not None:
        if args.arity > EXPR_ARITY_LIMIT:
            raise ValueError(f"--arity {args.arity} exceeds the expression "
                             f"limit of {EXPR_ARITY_LIMIT:,}")
        return build_expr(model, parse_expr(expr, args.arity), args.arity,
                          manager)
    return compile_table(model, TruthTable.from_hex(args.arity, hexes),
                         manager)


def _with_input(handler):
    """Call ``handler(args, handle, second, out)`` with the handle of
    ``--expr``/``--tt`` under ``--model``; ``second()`` loads ``--expr2``/
    ``--tt2`` into the same manager (``apply not`` never asks)."""
    def run_with_input(args, out):
        model = parse_model(args.model)
        manager = Manager()
        first = _load_handle(args, model, manager)
        return handler(args, first,
                       lambda: _load_handle(args, model, manager, "2"), out)
    return run_with_input


def _emit_stats(handle: FuncHandle, as_json: bool, out) -> None:
    report = measure(handle)
    stats = dict(asdict(report), s_size=report.s_size)
    if as_json:
        print(json.dumps(stats), file=out)
    else:
        for key, value in stats.items():
            print(f"{key}={value}", file=out)


@_with_input
def _cmd_compile(args, handle, second, out):
    # an empty --dot path is a path, unwritable like any other
    if args.sig or not (args.stats or args.json or args.dot is not None):
        print(signature(handle), file=out)
    if args.stats or args.json:
        _emit_stats(handle, args.json, out)
    if args.dot == "-":
        out.write(dot_export(handle))
    elif args.dot is not None:
        # only opening the path is caught: a closed stdout is an OSError
        # too, and ``main`` reports it as success
        try:
            stream = open(args.dot, "w")
        except OSError as exc:
            raise ValueError(
                f"cannot write --dot {args.dot!r}: {exc.strerror}") from None
        with stream:
            stream.write(dot_export(handle))


def _decimal(value: int) -> str:
    """``value`` in decimal, however many digits: the interpreter's
    int-to-str digit limit is lifted for the conversion only."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return str(value)  # an interpreter older than the limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@_with_input
def _cmd_query(args, handle, second, out):
    if args.kind == "count":
        print(_decimal(count_sat(handle)), file=out)
    elif args.kind == "anysat":
        witness = any_sat(handle)
        print("none" if witness is None
              else "".join(map(str, witness)), file=out)
    else:
        holds = (is_sat if args.kind == "sat" else is_taut)(handle)
        print("true" if holds else "false", file=out)


@_with_input
def _cmd_allsat(args, handle, second, out):
    for valuation in all_sat(handle):
        print("".join(map(str, valuation)), file=out)


@_with_input
def _cmd_equiv(args, handle, second, out):
    print("true" if equiv(handle, second()) else "false", file=out)


@_with_input
def _cmd_apply(args, handle, second, out):
    if args.op == "not":
        result = negb(handle)
    else:
        result = apply_op(args.op, handle, second())
    print(signature(result), file=out)
    if args.stats:
        _emit_stats(result, False, out)


def _parse_models(text: str) -> list[ModelSpec]:
    models = [parse_model(part) for part in text.split(",") if part]
    if not models:
        raise _UsageError("no models given")
    return models


def _cmd_compare(args, out):
    manager = Manager()
    # every input is loaded before the CSV header is printed
    handles = [_load_handle(args, model, manager)
               for model in _parse_models(args.models)]
    print(CSV_HEADER, file=out)
    for handle in handles:
        print(measure(handle).csv_row(), file=out)


def _cmd_bench(args, out):
    # the arity is checked before anything is printed or drawn
    check_arity(args.arity)
    models = _parse_models(args.models)
    violations = 0
    print(CSV_HEADER, file=out)
    for index in range(args.samples):
        seed = args.seed + index
        # one manager per sample: memory is bounded by one sample, not
        # by --samples
        manager = Manager()
        table = TruthTable(args.arity,
                           random.Random(seed).getrandbits(1 << args.arity))
        sizes = {}
        for model in models:
            sizes[model] = measure(compile_table(model, table, manager))
            print(sizes[model].csv_row(seed), file=out)
        for coarse, fine in itertools.permutations(models, 2):
            if lattice_leq(coarse, fine) and not bound_verdict(
                    coarse, fine, sizes[coarse], sizes[fine]).ok:
                violations += 1
    print(f"violations={violations}", file=out)
    return 0 if violations == 0 else 2


def _cmd_translate(args, out):
    result = translate_letter(args.source, args.to, from_token(args.letter))
    print(result.token.lower(), file=out)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nucx",
                     description="canonical decision-diagram toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", default="o-nucx")
    first = argparse.ArgumentParser(add_help=False)
    first.add_argument("--expr", help="Boolean expression over x0..")
    first.add_argument("--tt", help="hex truth table, MSB-first")
    first.add_argument("--arity", type=_count, required=True)
    second = argparse.ArgumentParser(add_help=False)
    second.add_argument("--expr2", help="second expression")
    second.add_argument("--tt2", help="second hex truth table")

    p = sub.add_parser("compile", help="build a reduced diagram",
                       parents=[model, first])
    p.add_argument("--dot", help="write DOT to a path, or - for stdout")
    p.add_argument("--sig", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("query", help="decision and counting queries",
                       parents=[model, first])
    p.add_argument("kind", choices=["sat", "taut", "anysat", "count"])
    p.set_defaults(handler=_cmd_query)

    p = sub.add_parser("allsat", help="enumerate satisfying valuations",
                       parents=[model, first])
    p.set_defaults(handler=_cmd_allsat)

    p = sub.add_parser("equiv", help="compare two inputs for equivalence",
                       parents=[model, first, second])
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("apply", help="combine inputs with a connective",
                       parents=[model, first, second])
    p.add_argument("op", choices=["and", "or", "xor", "not"])
    p.add_argument("--stats", action="store_true")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("compare", help="size report across models",
                       parents=[first])
    p.add_argument("--models", required=True,
                   help="comma-separated model names")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("bench",
                       help="random functions, sizes and bound checks")
    p.add_argument("--arity", type=_count, required=True)
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models", default=",".join(PRESETS))
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("translate",
                       help="carry a reduction letter between combinators")
    p.add_argument("--from", dest="source", required=True,
                   choices=COMBINATORS)
    p.add_argument("--to", required=True, choices=COMBINATORS)
    p.add_argument("--letter", required=True)
    p.set_defaults(handler=_cmd_translate)

    return parser


def run(argv=None, out=None) -> int:
    """Entry point returning the exit code (stdout injectable for tests).
    A handler returns its exit code, or ``None`` for success."""
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args, out) or 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
