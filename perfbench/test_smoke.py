"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nucx import Manager, connectives, graph, negb, queries  # noqa: E402
from nucx import reduction  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = workloads.SIZES["tiny"]


def run_command(tmp_path, workload: str, trace: int) -> dict:
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_and_emits_every_metric(tmp_path, workload,
                                                    trace):
    result = run_command(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    record = json.loads(
        (tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    for key in ("python", "nproc", "commit", "seed"):
        assert key in record
    if trace:
        assert (tmp_path / f"{workload}-seed3-trace1.spans.jsonl").stat(
        ).st_size > 0


def test_no_library_means_no_result(tmp_path):
    copy = tmp_path / "bare"
    (copy / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (copy / "perfbench" / path.name).write_text(path.read_text())
    (copy / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


WRONG_ANSWERS = {
    "compile": (reduction, "reduce",
                lambda reduce: lambda model, h: reduce(model, negb(h))),
    "apply-chain": (connectives, "apply",
                    lambda apply: lambda op, a, b: apply(
                        "and" if op == "or" else op, a, b)),
    "query": (queries, "count_sat", lambda count: lambda h: count(h) + 1),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_answer_raises_fail_ratio(monkeypatch, workload):
    module, attr, corrupt = WRONG_ANSWERS[workload]
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    run = bench.play(workload, 3, 2, 0, TINY)
    assert run.rounds == 2
    assert 0 < run.failed <= run.attempted


def test_raising_op_fails_and_run_continues(monkeypatch):
    def broken(handle):
        raise RuntimeError("injected")

    monkeypatch.setattr(graph, "dot_export", broken)
    run = bench.play("query", 3, 2, 0, TINY)
    assert run.rounds == 2
    assert run.failed == 2
    assert all("injected" in message for message in run.failures)


def library_attributes() -> dict:
    """Every attribute of the package's modules and of ``Manager``."""
    found = {}
    for module in tracing.nucx_modules():
        for attr, value in vars(module).items():
            found[(module.__name__, attr)] = value
    for attr, value in vars(Manager).items():
        found[("Manager", attr)] = value
    return found


def test_traced_run_leaves_library_unpatched():
    before = library_attributes()
    _runs, layer, _tracer = bench.traced("query", 3, "tiny")
    after = library_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert layer["graph.edge_calls"][0] > 0
    assert layer["queries.all_sat_s"][0] > 0


def test_traced_counts_repeat_for_a_seed():
    first = bench.traced("apply-chain", 5, "tiny")[1]
    second = bench.traced("apply-chain", 5, "tiny")[1]
    counts = [name for name, (_value, unit) in first.items()
              if unit == "count"]
    assert counts
    assert all(first[name] == second[name] for name in counts)


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10.0] * 9 + [11.0], [8.0] * 10, "lower", "improved"),
    ([10.0, 10.2, 9.8, 10.1, 9.9], [10.1, 10.3, 9.9, 10.2, 10.0], "lower",
     "no worse"),
    ([10.0, 10.2, 9.8, 10.1, 9.9], [13.0, 13.2, 12.8, 13.1, 12.9], "lower",
     "worse"),
    ([10.0, 20.0, 5.0, 15.0, 30.0], [12.0, 22.0, 6.0, 17.0, 33.0], "lower",
     "unresolved"),
    ([10.0, 10.2, 9.8, 10.1, 9.9], [7.0, 7.1, 6.9, 7.2, 6.8], "higher",
     "worse"),
])
def test_compare_verdicts(parent, change, better, expected):
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, better, 0.1)[0] == expected
