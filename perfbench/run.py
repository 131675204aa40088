#!/usr/bin/env python3
"""Benchmark of simplexor: theorem sweeps, the repair-group census and shard storage.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Workloads ``sweep`` and ``store`` each run one part of the library at
full size and the other parts (the census among them) at a small fixed
size (see README.md).  ``--trace 0`` prints the end-to-end metrics, measured over
whole rounds for about ``--seconds`` seconds; ``--trace 1`` runs one
untraced and one traced round and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
output checked out, 1 when a check failed, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep", "store")
SETUP_PROBES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run every part at a tiny size (for the benchmark's own tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> float:
    """CPU seconds a fresh process spends from its start to the end of its set-up.

    The child builds the same parts as the run and prints its own CPU
    time, which covers interpreter start, imports, code construction and
    input generation, and, like the timed calls, leaves out the time the
    host gave to other tenants.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout.split()[-1])


def percentile_line(samples: list[float]) -> str:
    """The highest of p99/p95/p90 with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return (f"small_repair p{p} = {ordered[int(n * p / 100)] * 1e3:.4f} ms"
                    f" (median {median(ordered) * 1e3:.4f} ms, n={n})")
    return f"small_repair median = {median(ordered) * 1e3:.4f} ms (n={n}, too few for a tail)"


def end_to_end(args, parts_mod) -> tuple:
    # Half the set-up probes run before the rounds and half after, so that
    # their median spans the run like the other metrics.
    probes = 1 if args.tiny else SETUP_PROBES
    setups = [setup_probe(args) for _ in range(probes // 2)]
    parts = parts_mod.build_parts(args.workload, args.seed, args.tiny)
    parts_mod.prepare(parts)
    tally = parts_mod.Tally()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        parts_mod.run_round(parts, parts_mod.NullTracer(), tally)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > args.seconds:
            break
    setups += [setup_probe(args) for _ in range(probes - probes // 2)]
    small = tally.small_repair
    print(percentile_line(small))
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "easy_patterns_per_s": (tally.rate("easy"), "patterns/s"),
        "parallel_patterns_per_s": (tally.rate("parallel"), "patterns/s"),
        "census_s": (tally.total("census"), "s"),
        "encode_mib_per_s": (tally.rate("encode"), "MiB/s"),
        "decode_mib_per_s": (tally.rate("decode"), "MiB/s"),
        "repair_mib_per_s": (tally.rate("repair"), "MiB/s"),
        "small_repair_ms": (median(small) * 1e3, "ms"),
        "repair_read_ratio": (tally.read_bytes / tally.repaired_bytes, "B/B"),
    }
    return metrics, tally.attempted, tally.failed, tally.problems


def traced(args, parts_mod) -> tuple:
    import layers
    from tracing import Tracer

    tr = Tracer()
    tr.install()
    with tr.span("bench.setup"):
        parts = parts_mod.build_parts(args.workload, args.seed, args.tiny)
    tr.uninstall()
    parts_mod.prepare(parts)
    plain = parts_mod.Tally()
    t0 = time.perf_counter()
    parts_mod.run_round(parts, parts_mod.NullTracer(), plain)
    untraced_s = time.perf_counter() - t0

    tally = parts_mod.Tally()
    tr.install()
    t0 = time.perf_counter()
    parts_mod.run_round(parts, tr, tally)
    traced_s = time.perf_counter() - t0
    problems = plain.problems + tally.problems
    sweep, store = parts["sweep"], parts["store"]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        extras = {
            "disk": layers.disk_rates(store, work, problems),
            "cli": layers.cli_times(ROOT, work, tr, problems),
        }
    finally:
        tr.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    extras["w2"] = layers.sweep_workers(sweep, tr, problems)
    extras["memory"] = layers.memory_peaks(store, problems)
    spans_file = OUT / f"trace_{args.workload}_seed{args.seed}.tsv"
    tr.write(spans_file)
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    metrics = layers.per_layer_metrics(tr, tally, store, extras,
                                       {"untraced": untraced_s, "traced": traced_s})
    return (metrics, plain.attempted + tally.attempted, plain.failed + tally.failed, problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "simplexor" / "__init__.py").is_file():
        print(f"error: no simplexor sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import parts as parts_mod

    if args.setup_probe:
        parts_mod.build_parts(args.workload, args.seed, args.tiny)
        print(repr(time.process_time()))
        return 0
    OUT.mkdir(exist_ok=True)
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, problems = run(args, parts_mod)
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:42} {value:16.6f} {unit}")
    print(f"attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
