"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that ``run.py --out DIR`` writes.
Runs of the two sides with the same workload and seed form a pair.  For
every workload and end-to-end metric of ``BENCHMARK.json`` it prints
both medians and quartiles, the share of pairs the change won and a
verdict:

* ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ, in its favour, by more
  than the distance between the parent's quartiles;
* ``no worse``: every change run beats every parent run, or the parent's
  spread is within the metric's bound and the change's median is no
  worse than the parent's by more than the bound;
* ``unresolved``: the parent's spread is wider than the bound, so
  "no worse" cannot be shown;
* ``worse``: the change's median is worse by more than the bound.

A ``fail_ratio`` row per workload compares failed / attempted ops.
Traced runs, when both sides have them, get a table of per-layer
medians without verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path, trace: int) -> dict:
    """{workload: {seed: record}} for the records of one trace mode."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == trace:
            runs[record["workload"]][record["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs, better: str,
            bound: float) -> tuple[str, str]:
    """(verdict, pairs won) for one workload and metric."""
    sign = -1 if better == "lower" else 1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = f"{wins}/{len(pairs)}"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved", won
    if all(sign * (c - p) > 0 for p in parent for c in change):
        return "no worse", won
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        return "unresolved", won
    if p_med and -gain / abs(p_med) > bound:
        return "worse", won
    return "no worse", won


def fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_dir: Path, change_dir: Path, bench: dict, out) -> int:
    """Print the comparison; returns 1 when any row is ``worse``."""
    parent = load_runs(parent_dir, 0)
    change = load_runs(change_dir, 0)
    status = 0
    header = (f"{'workload':<12} {'metric':<12} "
              f"{'parent median [q1, q3]':<34} "
              f"{'change median [q1, q3]':<34} {'won':>6}  verdict")
    print(header, file=out)
    print("-" * len(header), file=out)
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p_values = [r["result"]["metrics"][name]["value"]
                        for r in p_runs.values()]
            c_values = [r["result"]["metrics"][name]["value"]
                        for r in c_runs.values()]
            pairs = [(p_runs[s]["result"]["metrics"][name]["value"],
                      c_runs[s]["result"]["metrics"][name]["value"])
                     for s in seeds]
            word, won = verdict(p_values, c_values, pairs, metric["better"],
                                metric["bound"])
            status |= word == "worse"
            print(f"{workload:<12} {name:<12} {fmt(p_values):<34} "
                  f"{fmt(c_values):<34} {won:>6}  {word}", file=out)
        ratios = []
        for runs in (p_runs, c_runs):
            failed = sum(r["result"]["failed"] for r in runs.values())
            attempted = sum(r["result"]["attempted"] for r in runs.values())
            ratios.append(failed / attempted)
        word = "no worse" if ratios[1] <= ratios[0] else "worse"
        status |= word == "worse"
        print(f"{workload:<12} {'fail_ratio':<12} {ratios[0]:<34.4g} "
              f"{ratios[1]:<34.4g} {'':>6}  {word}", file=out)

    parent = load_runs(parent_dir, 1)
    change = load_runs(change_dir, 1)
    for workload in sorted(set(parent) & set(change)):
        print(f"\nper-layer medians, {workload} (traced runs: "
              f"{len(parent[workload])} parent, {len(change[workload])} "
              f"change)", file=out)
        for metric in bench["per_layer"]:
            name = metric["name"]
            p_med = statistics.median(r["result"]["metrics"][name]["value"]
                                      for r in parent[workload].values())
            c_med = statistics.median(r["result"]["metrics"][name]["value"]
                                      for r in change[workload].values())
            ratio = f"{c_med / p_med:.3f}x" if p_med else "-"
            print(f"  {name:<34} {p_med:>14.6g} {c_med:>14.6g} {ratio:>9} "
                  f"{metric['unit']}", file=out)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent's result files")
    parser.add_argument("change", type=Path, help="change's result files")
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    return compare(args.parent, args.change, bench, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
