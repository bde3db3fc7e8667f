"""The benchmark's three workloads and their correctness checks.

A workload is a function that plays one *round*: it generates its
inputs from the run's seeded random stream (timed as set-up), calls
public functions of ``nucx`` (each call timed as one op) and then checks
every result against a reference that does not come from the diagram
code: the dense truth-table oracle at narrow arities, closed forms and
direct evaluation of the expression tree at wide ones.  Checks run
outside the timed ops and outside the trace.

Library functions are always looked up on their module at call time
(``connectives.apply``, not a bound name), so the traced run sees every
call the benchmark makes.
"""

from __future__ import annotations

import gc
import itertools
import re
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

from nucx import Manager, cli, connectives, graph, metrics, oracle, queries
from nucx import reduction

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` keeps
#: every code path of every workload but runs in milliseconds (smoke
#: tests, and the coverage pass of the traced run).
SIZES = {
    "full": {
        "compile_arity": 14,
        "chain_arities": (128, 16),
        "query_arity": 16,
        "query_chain": 128,
        "query_parity": 18,
        "eval_batches": 16,
        "eval_batch": 64,
        "all_sat_limit": 1000,
        "samples": 8,
    },
    "tiny": {
        "compile_arity": 5,
        "chain_arities": (12, 6),
        "query_arity": 6,
        "query_chain": 12,
        "query_parity": 6,
        "eval_batches": 2,
        "eval_batch": 8,
        "all_sat_limit": 20,
        "samples": 4,
    },
}

#: Highest arity checked against dense truth tables; above it the
#: references are closed forms and expression-tree evaluation.
DENSE_CHECK_LIMIT = 20

CHAIN_MODELS = ("o-u", "o-nu", "o-nucx")
CHAIN_FAMILIES = ("pair", "parity", "cnf")
QUERY_MODELS = ("o-u", "o-nucx")


class OpFailed(Exception):
    """An op raised; the rest of its round is skipped."""


class _Cell:
    __slots__ = ("key", "left", "right")

    def __init__(self, key, left, right):
        self.key = key
        self.left = left
        self.right = right


def calibration_work() -> int:
    """A fixed piece of interpreter work that uses no ``nucx`` code but
    resembles its inner loops: hash-consing tuple keys in a dict,
    allocating slotted objects, walking them and formatting text."""
    table: dict = {}
    cells = [None]
    for i in range(6000):
        left = cells[i // 2]
        right = cells[i * 7 // 10]
        key = (left, right, i & 63)
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, left, right)
        cells.append(cell)
    text = [f"n{i} -> {id(cell) & 255}" for i, cell in enumerate(cells)]
    leaves = sum(1 for cell in cells[1:] if cell.left is None)
    return len(table) + len(text) + leaves


#: Seconds ``calibration_work`` takes at the nominal machine speed
#: (Python 3.11 on a 2-core x86-64 box): the unit of scaled times.
NOMINAL_CALIBRATION_S = 0.007


class Run:
    """Op latencies, set-up times and correctness verdicts of one pass.

    Every timing is kept raw and scaled.  A scaled time is divided by
    the machine's mean slowdown around it: the calibrations taken within
    one duration of the timing on either side, and at least the nearest
    one before and after it.  A calibration is the median of three
    timings of :func:`calibration_work` over the nominal time.  Scaled
    times cancel drift in the speed of a shared machine; raw ones are
    what the clock read.  The speed of a shared box can change
    severalfold within a second, so workloads calibrate often, but not
    between ops so short that the calibration would disturb their
    caches; a pass calibrates at its start and at its end.

    ``tracer`` (optional) is paused while checks run.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_spans: list[tuple[float, float]] = []
        self.setup_spans: list[tuple[float, float]] = []
        self.calibrated_at: list[float] = []
        self.slowdowns: list[float] = []
        self.check_s = 0.0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.dense_projections: dict[tuple[int, int], oracle.TruthTable] = {}

    @property
    def attempted(self) -> int:
        return len(self.op_spans)

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.op_spans]

    @property
    def setup_times(self) -> list[float]:
        return [end - start for start, end in self.setup_spans]

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        """Durations of ``spans`` divided by the slowdown around each."""
        at = self.calibrated_at
        out = []
        for start, end in spans:
            span = end - start
            lo = min(bisect_left(at, start - span), bisect_left(at, start) - 1)
            hi = max(bisect_right(at, end + span), bisect_right(at, end) + 1)
            out.append(span / statistics.fmean(self.slowdowns[max(lo, 0):hi]))
        return out

    def calibrate(self) -> None:
        """Time the calibration work once more."""
        # no collection of the workload's garbage may land in the timing
        gc.disable()
        try:
            times = []
            began = perf_counter()
            for _ in range(3):
                started = perf_counter()
                calibration_work()
                times.append(perf_counter() - started)
            self.calibrated_at.append((began + perf_counter()) / 2)
        finally:
            gc.enable()
        self.slowdowns.append(sorted(times)[1] / NOMINAL_CALIBRATION_S)

    def op(self, fn, *args, calibrate: bool = False):
        """Call ``fn(*args)`` as one timed op, after a calibration if
        ``calibrate``."""
        if calibrate:
            self.calibrate()
        started = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self.op_spans.append((started, perf_counter()))
            self.fail(f"{getattr(fn, '__name__', fn)} raised {exc!r}")
            raise OpFailed from exc
        self.op_spans.append((started, perf_counter()))
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def expect(self, ok: bool, message: str) -> None:
        """One verdict for one op: a false ``ok`` counts it as failed."""
        if not ok:
            self.fail(message)

    @contextmanager
    def setup(self):
        started = perf_counter()
        yield
        self.setup_spans.append((started, perf_counter()))

    @contextmanager
    def checking(self):
        tracing = self.tracer is not None and self.tracer.active
        if tracing:
            self.tracer.active = False
        started = perf_counter()
        try:
            yield
        finally:
            self.check_s += perf_counter() - started
            if tracing:
                self.tracer.active = True

    def end_job(self, manager: Manager) -> None:
        if self.tracer is not None:
            self.tracer.end_job(manager)

    def projection_table(self, arity: int, index: int) -> oracle.TruthTable:
        """Dense reference projection, built once per run."""
        key = (arity, index)
        table = self.dense_projections.get(key)
        if table is None:
            table = self.dense_projections[key] = (
                oracle.TruthTable.projection(arity, index))
        return table


def play_round(workload: str, run: Run, rng, size: dict) -> None:
    """Play one round; an op that raises ends the round, not the run.

    Every round starts from a collected heap, so no round pays for
    collecting the managers an earlier round dropped; collections of a
    round's own garbage stay in its timings.
    """
    gc.collect()
    try:
        WORKLOADS[workload](run, rng, size)
    except OpFailed:
        pass
    run.rounds += 1


# -- inputs ----------------------------------------------------------------

def pair_chain_text(arity: int) -> str:
    """``AND_i (x_{2i} | x_{2i+1})``: 3**(arity/2) models."""
    return " & ".join(f"(x{2 * i} | x{2 * i + 1})" for i in range(arity // 2))


def parity_text(arity: int) -> str:
    """``x0 ^ ... ^ x_{n-1}``: 2**(arity-1) models."""
    return " ^ ".join(f"x{i}" for i in range(arity))


def cnf_text(rng, arity: int) -> str:
    """A sparse 3-literal CNF with ``arity // 2`` clauses.

    Each clause takes three distinct variables from a window of eight
    consecutive ones, which keeps the diagrams small at any arity, and
    mixes signs, so the all-zeros valuation satisfies every clause and
    each formula has at least one negation.
    """
    width = min(8, arity)
    clauses = []
    for _ in range(arity // 2):
        start = rng.randrange(arity - width + 1)
        variables = rng.sample(range(start, start + width), 3)
        signs = rng.choice([s for s in itertools.product((0, 1), repeat=3)
                            if 0 < sum(s) < 3])
        literals = [("~" if negated else "") + f"x{v}"
                    for v, negated in zip(variables, signs)]
        clauses.append("(" + " | ".join(literals) + ")")
    return " & ".join(clauses)


def parity_table(arity: int) -> oracle.TruthTable:
    mask = 0
    for k in range(arity):
        size = 1 << k
        mask |= (mask ^ ((1 << size) - 1)) << size
    return oracle.TruthTable(arity, mask)


def valuations(rng, arity: int, count: int) -> list[tuple[int, ...]]:
    return [tuple(map(int, format(rng.getrandbits(arity), f"0{arity}b")))
            for _ in range(count)]


# -- references ------------------------------------------------------------

def evaluate_ast(ast, valuation, memo: dict) -> int:
    """Direct evaluation of a parsed expression, memoized per node."""
    found = memo.get(id(ast))
    if found is not None:
        return found
    kind = ast[0]
    if kind == "var":
        value = valuation[ast[1]]
    elif kind == "const":
        value = ast[1]
    elif kind == "not":
        value = 1 - evaluate_ast(ast[1], valuation, memo)
    else:
        left = evaluate_ast(ast[1], valuation, memo)
        right = evaluate_ast(ast[2], valuation, memo)
        if kind == "and":
            value = left & right
        elif kind == "or":
            value = left | right
        elif kind == "xor":
            value = left ^ right
        else:
            raise ValueError(f"unknown expression node {kind!r}")
    memo[id(ast)] = value
    return value


def dense_tables(run: Run, trail, arity: int) -> dict:
    """Oracle table of every node of a folded expression."""
    tables = {}
    for ast, _handle in trail:
        kind = ast[0]
        if kind == "var":
            table = run.projection_table(arity, ast[1])
        elif kind == "not":
            table = oracle.tt_apply("not", tables[id(ast[1])])
        else:
            table = oracle.tt_apply(kind, tables[id(ast[1])],
                                    tables[id(ast[2])])
        tables[id(ast)] = table
    return tables


def first_models(table: oracle.TruthTable, limit: int) -> list[tuple]:
    """The first ``limit`` satisfying valuations in lexicographic order
    (bit ``i`` of the mask is valuation ``i`` read with ``x0`` as MSB)."""
    found = []
    mask = table.mask
    width = table.arity
    while mask and len(found) < limit:
        low = mask & -mask
        index = low.bit_length() - 1
        found.append(tuple(map(int, format(index, f"0{width}b")))
                     if width else ())
        mask ^= low
    return found


_LETTER_RULES = {"U": None, "X": None, "C00": (0, 0), "C01": (0, 1),
                 "C10": (1, 0), "C11": (1, 1)}


def signature_evaluator(text: str):
    """Evaluate a ``signature`` text at valuations, reading the format
    (``[w]0``, ``[w]1``, ``[w](lo,hi)``, ``e`` for the empty word) with
    the letter semantics of the paper, independently of the graph."""
    comma = {}
    stack = []
    for match in re.finditer(r"[(,)]", text):
        char = match.group()
        if char == "(":
            stack.append(match.start())
        elif char == ",":
            comma[stack[-1]] = match.start()
        else:
            stack.pop()

    def evaluate(valuation) -> int:
        pos = 0
        i = 0
        parity = 0
        while True:
            close = text.index("]", pos)
            word = text[pos + 1:close]
            if word != "e":
                for token in word.split("."):
                    if token == "N":
                        parity ^= 1
                        continue
                    rule = _LETTER_RULES[token]
                    if token == "X":
                        parity ^= valuation[i]
                    elif rule is not None and valuation[i] == rule[0]:
                        return rule[1] ^ parity
                    i += 1
            pos = close + 1
            target = text[pos]
            if target in "01":
                return int(target) ^ parity
            pos = comma[pos] + 1 if valuation[i] else pos + 1
            i += 1

    return evaluate


def dot_shape(text: str) -> tuple[int, int, int]:
    """(diamond nodes, terminal nodes, edges) declared in a DOT text."""
    lines = text.splitlines()
    diamonds = sum(1 for line in lines if "shape=diamond" in line)
    terminals = sum(1 for line in lines if "shape=box" in line)
    edges = sum(1 for line in lines if " -> " in line)
    return diamonds, terminals, edges


# -- compile ---------------------------------------------------------------

def compile_round(run: Run, rng, size: dict) -> None:
    """One random table under every preset, then the ``o-nucx`` result
    reduced into every preset, in a fresh manager."""
    arity = size["compile_arity"]
    presets = reduction.PRESETS
    with run.setup():
        table = oracle.TruthTable(arity, rng.getrandbits(1 << arity))
        manager = Manager()
    compiled = {name: run.op(reduction.compile_table, model, table, manager,
                             calibrate=True)
                for name, model in presets.items()}
    source = compiled["o-nucx"]
    reduced = {name: run.op(reduction.reduce, model, source, calibrate=True)
               for name, model in presets.items()}
    with run.checking():
        for name in presets:
            run.expect(graph.to_truth_table(compiled[name]) == table,
                       f"compile: compile_table under {name} is wrong")
            run.expect(graph.to_truth_table(reduced[name]) == table
                       and reduced[name].edge is compiled[name].edge,
                       f"compile: reduce into {name} is wrong or not "
                       f"the compiled edge")
    run.end_job(manager)


# -- apply-chain -----------------------------------------------------------

def fold(run: Run, ast, model, manager: Manager, arity: int, trail: list):
    """Build a parsed expression through projection/apply/negb, one op
    per call; ``trail`` receives ``(node, handle)`` in post-order."""
    kind = ast[0]
    if kind == "var":
        handle = run.op(connectives.projection, model, manager, ast[1],
                        arity)
    elif kind == "not":
        handle = run.op(connectives.negb,
                        fold(run, ast[1], model, manager, arity, trail))
    elif kind in ("and", "or", "xor"):
        left = fold(run, ast[1], model, manager, arity, trail)
        right = fold(run, ast[2], model, manager, arity, trail)
        handle = run.op(connectives.apply, kind, left, right)
    else:
        raise ValueError(f"unsupported expression node {kind!r}")
    trail.append((ast, handle))
    return handle


CHAIN_TEXTS = {
    "pair": lambda rng, arity: pair_chain_text(arity),
    "parity": lambda rng, arity: parity_text(arity),
    "cnf": cnf_text,
}

CLOSED_FORM_COUNTS = {
    "pair": lambda n: 3 ** (n // 2),
    "parity": lambda n: 1 << (n - 1),
}


def apply_chain_round(run: Run, rng, size: dict) -> None:
    """Every family at every chain arity under every chain model, each
    build in a fresh manager."""
    for arity in size["chain_arities"]:
        for family in CHAIN_FAMILIES:
            for name in CHAIN_MODELS:
                run.calibrate()
                with run.setup():
                    text = CHAIN_TEXTS[family](rng, arity)
                    samples = valuations(rng, arity, size["samples"])
                    manager = Manager()
                ast = run.op(cli.parse_expr, text, arity)
                trail: list = []
                root = fold(run, ast, reduction.PRESETS[name], manager, arity,
                            trail)
                with run.checking():
                    check_chain(run, family, name, arity, trail, root,
                                samples)
                run.end_job(manager)


def check_chain(run: Run, family: str, model: str, arity: int, trail,
                root, samples) -> None:
    where = f"apply-chain: {family} at arity {arity} under {model}"
    closed = CLOSED_FORM_COUNTS.get(family)
    if closed is not None:
        run.expect(queries.count_sat(root) == closed(arity),
                   f"{where}: model count differs from the closed form")
    if arity <= DENSE_CHECK_LIMIT:
        tables = dense_tables(run, trail, arity)
        for ast, handle in trail:
            run.expect(graph.to_truth_table(handle) == tables[id(ast)],
                       f"{where}: {ast[0]} result differs from the oracle")
        return
    memos = [{} for _ in samples]
    for ast, handle in trail:
        run.expect(all(graph.eval_handle(handle, v)
                       == evaluate_ast(ast, v, memo)
                       for v, memo in zip(samples, memos)),
                   f"{where}: {ast[0]} result differs from the expression")


# -- query -----------------------------------------------------------------

class QueryGraph:
    """One graph of the query round with its independent reference."""

    def __init__(self, label: str, handle, arity: int, twin, *, table=None,
                 ast=None, count: int, diamonds: int | None = None):
        self.label = label
        self.handle = handle
        self.arity = arity
        self.twin = twin
        self.table = table
        self.ast = ast
        self.count = count
        self.diamonds = diamonds
        self.batches: list[list[tuple]] = []

    def reference(self, valuation) -> int:
        if self.table is not None:
            return oracle.tt_eval(self.table, valuation)
        return evaluate_ast(self.ast, valuation, {})


def first_solutions(handle, limit: int) -> list[tuple]:
    """The op for ``all_sat``: draw its first ``limit`` models."""
    return list(itertools.islice(queries.all_sat(handle), limit))


def eval_batch(handle, batch) -> list[int]:
    """The op for ``eval_handle``: one batch of valuations."""
    return [graph.eval_handle(handle, v) for v in batch]


def build_query_graphs(rng, size: dict, manager: Manager) -> list[QueryGraph]:
    presets = reduction.PRESETS
    arity = size["query_arity"]
    table = oracle.TruthTable(arity, rng.getrandbits(1 << arity))
    graphs = []
    for name in QUERY_MODELS:
        handle = reduction.compile_table(presets[name], table, manager)
        twin = reduction.compile_table(presets[name], table, manager)
        graphs.append(QueryGraph(f"random{arity}/{name}", handle, arity, twin,
                                 table=table, count=table.popcount()))
    wide = size["query_chain"]
    chain = cli.parse_expr(pair_chain_text(wide), wide)
    for name, diamonds in (("o-u", wide), ("o-nucx", None)):
        handle = connectives.build_expr(presets[name], chain, wide, manager)
        graphs.append(QueryGraph(f"pair{wide}/{name}", handle, wide, handle,
                                 ast=chain, count=3 ** (wide // 2),
                                 diamonds=diamonds))
    odd = size["query_parity"]
    parity = parity_table(odd)
    handle = reduction.compile_table(presets["o-u"], parity, manager)
    graphs.append(QueryGraph(f"parity{odd}/o-u", handle, odd, handle,
                             table=parity, count=1 << (odd - 1),
                             diamonds=2 * odd - 1))
    for g in graphs:
        g.batches = [valuations(rng, g.arity, size["eval_batch"])
                     for _ in range(size["eval_batches"])]
    return graphs


def query_round(run: Run, rng, size: dict) -> None:
    """Build the query graphs in a fresh manager (set-up), then run every
    query and export once per graph, so every memo starts cold."""
    run.calibrate()
    with run.setup():
        manager = Manager()
        graphs = build_query_graphs(rng, size, manager)
    limit = size["all_sat_limit"]
    for g in graphs:
        h = g.handle
        narrow = g.table is not None
        # calibrate before every op but the back-to-back eval batches
        count = run.op(queries.count_sat, h, calibrate=True)
        witness = run.op(queries.any_sat, h, calibrate=True)
        first = run.op(first_solutions, h, limit, calibrate=True)
        sat = run.op(queries.is_sat, h, calibrate=True)
        taut = run.op(queries.is_taut, h, calibrate=True)
        same = run.op(queries.equiv, h, g.twin, calibrate=True)
        cof = run.op(connectives.cofactor, 1, h, calibrate=True)
        run.calibrate()
        evals = [run.op(eval_batch, h, batch) for batch in g.batches]
        report = run.op(metrics.measure, h, calibrate=True)
        nodes = run.op(metrics.node_count, h, calibrate=True)
        dot = run.op(graph.dot_export, h, calibrate=True)
        if narrow:
            text = run.op(graph.signature, h, calibrate=True)
            table = run.op(graph.to_truth_table, h, calibrate=True)
        with run.checking():
            check_queries(run, g, limit, count, witness, first, sat, taut,
                          same, cof, evals, report, nodes, dot)
            if narrow:
                evaluate = signature_evaluator(text)
                samples = g.batches[0]
                run.expect(all(evaluate(v) == g.reference(v)
                               for v in samples),
                           f"query {g.label}: signature evaluates wrongly")
                run.expect(table == g.table,
                           f"query {g.label}: to_truth_table is wrong")
    run.end_job(manager)


def check_queries(run: Run, g: QueryGraph, limit, count, witness, first,
                  sat, taut, same, cof, evals, report, nodes, dot) -> None:
    where = f"query {g.label}"
    n = g.arity
    run.expect(count == g.count, f"{where}: count_sat {count} != {g.count}")
    run.expect(witness is not None and len(witness) == n
               and g.reference(witness) == 1,
               f"{where}: any_sat witness is not a model")
    if g.table is not None:
        ok = first == first_models(g.table, limit)
    else:
        ok = (len(first) == min(limit, g.count)
              and all(len(w) == n and g.reference(w) == 1 for w in first)
              and all(a < b for a, b in zip(first, first[1:])))
    run.expect(ok, f"{where}: all_sat prefix is wrong")
    run.expect(sat is (g.count > 0), f"{where}: is_sat is wrong")
    run.expect(taut is (g.count == 1 << n), f"{where}: is_taut is wrong")
    run.expect(same is True, f"{where}: equiv with its twin is false")
    run.expect(all(graph.eval_handle(cof, v[1:]) == g.reference((1,) + v[1:])
                   for v in g.batches[0]),
               f"{where}: cofactor(1) is wrong")
    for batch, values in zip(g.batches, evals):
        run.expect(values == [g.reference(v) for v in batch],
                   f"{where}: eval_handle batch is wrong")
    diamonds, terminals, edges = dot_shape(dot)
    run.expect(report.diamonds == diamonds and report.arity == n
               and (g.diamonds is None or report.diamonds == g.diamonds),
               f"{where}: measure reports {report.diamonds} diamonds")
    run.expect(nodes == diamonds + terminals,
               f"{where}: node_count {nodes} != {diamonds}+{terminals}")
    run.expect(dot.startswith("digraph") and terminals in (1, 2)
               and edges == 2 * diamonds + 1,
               f"{where}: dot_export shape is wrong")


WORKLOADS = {
    "compile": compile_round,
    "apply-chain": apply_chain_round,
    "query": query_round,
}

#: Rounds of each pass of the traced run: a fixed amount of work, so a
#: seed's counts repeat exactly.
TRACE_ROUNDS = {"compile": 12, "apply-chain": 1, "query": 1}
