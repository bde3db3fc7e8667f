"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ``src/``
of the checkout this file sits in, and nothing else.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
a fuller record with the run's metadata goes to ``--out``.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def load_library() -> None:
    """Put the checkout's ``src`` first on the path, or fail."""
    if not (SOURCE / "nucx" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no library source at {SOURCE}/nucx; run "
                         f"the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SOURCE))
    import nucx
    if Path(nucx.__file__).resolve().parent != SOURCE / "nucx":
        raise SystemExit(f"run.py: imported nucx from {nucx.__file__}, "
                         f"not from {SOURCE}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: at least ``1 - share`` of the samples
    are at or above it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def end_to_end(latencies: list[float], setup_times: list[float]) -> dict:
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def play(workload: str, seed: int, rounds: int | None, seconds: float,
         size: dict, tracer=None):
    """Play rounds from ``seed``: exactly ``rounds`` of them, or as many
    as start within ``seconds`` (at least one)."""
    from workloads import Run, play_round
    run = Run(tracer)
    rng = random.Random(seed)
    run.calibrate()
    started = time.perf_counter()
    while True:
        if rounds is not None:
            if run.rounds >= rounds:
                break
        elif run.rounds and time.perf_counter() - started >= seconds:
            break
        play_round(workload, run, rng, size)
    run.calibrate()
    return run


def traced(workload: str, seed: int, size_name: str):
    """Untraced and traced passes over the same rounds, then a traced
    coverage pass; returns (runs, per-layer metrics, tracer)."""
    from tracing import Tracer
    from workloads import SIZES, TRACE_ROUNDS, WORKLOADS
    size = SIZES[size_name]
    rounds = TRACE_ROUNDS[workload]
    plain = play(workload, seed, rounds, 0, size)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        traced_run = play(workload, seed, rounds, 0, size, tracer)
        # one tiny round of every workload, so that every layer is
        # measured on every workload, however little this one uses it
        coverage = [play(name, seed, 1, 0, SIZES["tiny"], tracer)
                    for name in WORKLOADS]
    finally:
        tracer.restore()
    layer = per_layer(tracer)
    layer["oracle.check_s"] = (plain.check_s, "s")
    busy, base = (sum(run.scaled(run.op_spans + run.setup_spans))
                  for run in (traced_run, plain))
    layer["trace.overhead_ratio"] = (busy / base, "ratio")
    return [plain, traced_run, *coverage], layer, tracer


def per_layer(tracer) -> dict:
    from tracing import ENTRY_POINTS
    selfs = tracer.self_times()
    counts = tracer.counts
    layer = {}
    for _module, _attr, name in ENTRY_POINTS:
        if name != "connectives.apply":
            layer[f"{name}_s"] = (selfs[name], "s")
    applies = {name: t for name, t in selfs.items()
               if name.startswith("connectives.apply.")}
    layer["connectives.apply_s"] = (sum(applies.values()), "s")
    for op in ("and", "or", "xor"):
        layer[f"connectives.apply.{op}_s"] = (
            applies.get(f"connectives.apply.{op}", 0.0), "s")
    layer["connectives.projection_calls"] = (
        tracer.calls("connectives.projection"), "count")
    for name in ("connectives.andb_pairs", "reduction.const_steps",
                 "reduction.negb_recursions",
                 "reduction.memo_entries.const",
                 "reduction.memo_entries.compile",
                 "reduction.memo_entries.reduce",
                 "reduction.memo_entries.negate",
                 "reduction.cons_diamond_calls", "reduction.push_neg_calls",
                 "graph.edge_calls", "graph.unique_edges",
                 "graph.stored_letters", "graph.unique_diamonds",
                 "graph.diamond_calls"):
        layer[name] = (counts[name], "count")
    calls = counts["graph.edge_calls"]
    layer["graph.edge_hit_ratio"] = (
        1 - counts["graph.unique_edges"] / calls if calls else 0.0, "ratio")
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile", "apply-chain", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for smoke tests")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for the result file and spans")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_library()
    from workloads import SIZES

    tracer = None
    if args.trace:
        runs, metrics, tracer = traced(args.workload, args.seed, args.size)
    else:
        runs = [play(args.workload, args.seed, None, args.seconds,
                     SIZES[args.size])]
        metrics = end_to_end(runs[0].scaled(runs[0].op_spans),
                             runs[0].scaled(runs[0].setup_spans))
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "rounds": runs[0].rounds,
        "slowdown": statistics.median(runs[0].slowdowns),
        "raw": {name: value for name, (value, _unit) in end_to_end(
            runs[0].latencies, runs[0].setup_times).items()},
        "fail_ratio": failed / attempted,
        "failures": [f for run in runs for f in run.failures][:20],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "result": result,
    }
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1)
                                           + "\n")
    if tracer is not None:
        tracer.write_spans(args.out / f"{stem}.spans.jsonl")
    for message in record["failures"]:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
