"""Per-layer measurements of the traced run.

Most per-layer metrics come from the spans of one traced round.  The rest
need a run of their own, made after it and never in an end-to-end run:

- the easy-repair sweeps again with 2 worker processes;
- the CLI as a user runs it, in subprocesses on small fixed inputs;
- shard files written and read back (no fsync: figures are page cache);
- tracemalloc peaks of one bulk encode and decode.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from statistics import median

import checks
from parts import MIB, StorePart, SweepPart
from simplexor import metrics, storage

clock = time.perf_counter

CLI_PAYLOAD_BYTES = 1 * MIB
CLI_REPEATS = 3
DISK_REPEATS = 3


def sweep_workers(sweep: SweepPart, tr, problems: list[str], workers: int = 2) -> dict:
    """Patterns/s of the first exhaustive and first sampled easy sweep."""
    out = {}
    for kind in ("exhaustive", "sampled"):
        i = next(i for i, job in enumerate(sweep.easy_jobs) if job[0] == kind)
        _, c, mode, examined, _ = sweep.easy_jobs[i]
        with tr.span(f"bench.w{workers}.easy_{kind}"):
            t0 = clock()
            report = metrics.verify_easy_repair_property(c.lib, mode, workers=workers)
            out[kind] = report.patterns_examined / (clock() - t0)
        problems += checks.check_easy_report(report, examined, sweep.expected[i])
    return out


def _run_cli(root: Path, args: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = clock()
    subprocess.run([sys.executable, *args], cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return clock() - t0


def cli_times(root: Path, work: Path, tr, problems: list[str]) -> dict:
    """Median wall time of each CLI command over CLI_REPEATS runs."""
    payload = bytes(range(256)) * (CLI_PAYLOAD_BYTES // 256)
    infile, outfile, shard_dir = work / "payload.bin", work / "decoded.bin", work / "cli_shards"
    infile.write_bytes(payload)
    cli = ["-m", "simplexor.cli"]
    times: dict[str, list[float]] = {k: [] for k in ("import", "verify", "encode", "repair", "decode")}
    for _ in range(CLI_REPEATS):
        shutil.rmtree(shard_dir, ignore_errors=True)
        steps = [
            ("import", ["-c", "import simplexor.cli"]),
            ("verify", cli + ["verify", "--code", "simplex:4", "--exhaustive"]),
            ("encode", cli + ["encode", "--code", "simplex:4", "--in", str(infile),
                              "--dir", str(shard_dir)]),
            ("repair", cli + ["repair", "--dir", str(shard_dir), "--missing", "0,3"]),
            ("decode", cli + ["decode", "--dir", str(shard_dir), "--out", str(outfile),
                              "--erased", "1,2"]),
        ]
        for name, args in steps:
            if name == "repair":
                originals = {i: (shard_dir / storage.shard_filename(i)).read_bytes() for i in (0, 3)}
                for i in originals:
                    (shard_dir / storage.shard_filename(i)).unlink()
            with tr.span(f"cli.{name}"):
                times[name].append(_run_cli(root, args))
            if name == "repair":
                for i, data in originals.items():
                    if (shard_dir / storage.shard_filename(i)).read_bytes() != data:
                        problems.append(f"cli repair: shard {i} differs from the original")
        problems += checks.check_decoded("cli decode", payload, outfile.read_bytes())
    return {name: median(v) for name, v in times.items()}


def disk_rates(store: StorePart, work: Path, problems: list[str]) -> dict:
    """MiB/s of writing one bulk object's shards and reading them back."""
    c, _ = store.bulk[0]
    manifest, shards = storage.encode_object(c.lib, store.payload)
    total_mib = sum(len(sh.data) for sh in shards) / MIB
    writes, reads = [], []
    shard_dir = work / "disk_shards"
    for _ in range(DISK_REPEATS):
        shutil.rmtree(shard_dir, ignore_errors=True)
        t0 = clock()
        storage.write_object_dir(shard_dir, manifest, shards)
        writes.append(total_mib / (clock() - t0))
        t0 = clock()
        back = storage.read_available_shards(shard_dir, manifest)
        reads.append(total_mib / (clock() - t0))
        if [sh.data for sh in back] != [sh.data for sh in shards]:
            problems.append("disk: shards read back differ from those written")
        del back
    shutil.rmtree(shard_dir, ignore_errors=True)
    return {"write": median(writes), "read": median(reads)}


def memory_peaks(store: StorePart, problems: list[str]) -> dict:
    """tracemalloc peak MiB of one bulk encode and one bulk decode."""
    c, patterns = store.bulk[0]
    tracemalloc.start()
    try:
        manifest, shards = storage.encode_object(c.lib, store.payload)
        _, encode_peak = tracemalloc.get_traced_memory()
        available = [sh for sh in shards if sh.index not in patterns[0]]
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        decoded = storage.decode_object(manifest, available)
        _, decode_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    problems += checks.check_decoded("tracemalloc decode", store.payload, decoded)
    return {"encode": encode_peak / MIB, "decode": (decode_peak - base) / MIB}


def per_layer_metrics(tr, tally, store: StorePart, extras: dict, rounds: dict) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    by_name = defaultdict(list)  # name -> [(duration, phase, parent, size, index)]
    for i, (name, start, end, parent, phase, size) in enumerate(tr.spans()):
        by_name[name].append((end - start, phase, parent, size, i))

    def calls(name, phase=""):
        return [d for d, ph, *_ in by_name[name] if ph.startswith(phase)]

    def med(values):
        return median(values) if values else 0.0

    selfs = tr.self_times()
    closure = calls("repair.easy_closure_for_mask")
    exhaustive_n = tr.counters["sweep.easy_exhaustive.patterns"]
    sampled_n = tr.counters["sweep.easy_sampled.patterns"]
    exhaustive_s = sum(calls("metrics.verify_easy_repair_property", "bench.sweep.easy_exhaustive"))
    sampled_s = sum(calls("metrics.verify_easy_repair_property", "bench.sweep.easy_sampled"))
    enumerate_ = [(d, size) for d, ph, _, size, _ in by_name["repair.enumerate_repair_groups"]
                  if ph == "bench.sweep.enumerate"]
    census_groups = [size for _, ph, _, size, _ in by_name["repair.enumerate_repair_groups"]
                     if ph == "bench.census.enumerate"]
    packing = calls("repair.max_disjoint_groups", "bench.census")
    small = {i for _, ph, _, _, i in by_name["storage.repair_shards"] if ph == "bench.store.small"}
    rank = calls("gf2.rank")

    m = {
        "codes.build_s": (sum(calls("codes.parse_code_id")) + sum(calls("codes.um_block_code")), "s"),
        "codes.self_s": (selfs["codes"], "s"),
        "gf2.rank_calls": (len(rank), "count"),
        "gf2.rank_s": (sum(rank), "s"),
        "gf2.self_s": (selfs["gf2"], "s"),
        "repair.closure_calls": (len(closure), "count"),
        "repair.closure_s": (sum(closure), "s"),
        "repair.closure_per_pattern": (len(closure) / (exhaustive_n + sampled_n), "calls/pattern"),
        "repair.enumerate_calls": (len(enumerate_), "count"),
        "repair.enumerate_s": (sum(d for d, _ in enumerate_), "s"),
        "repair.groups": (sum(size for _, size in enumerate_), "count"),
        "repair.packing_calls": (len(packing), "count"),
        "repair.packing_s": (sum(packing), "s"),
        "repair.packing_max_s": (max(packing, default=0.0), "s"),
        "repair.packing_groups_max": (max(census_groups, default=0), "count"),
        "repair.correctable_s": (med([d for d, _, p, _, _ in by_name["repair.is_correctable"]
                                      if p in small]), "s"),
        "repair.plan_s": (med([d for d, _, p, _, _ in by_name["repair.easy_repair_plan"]
                               if p in small]), "s"),
        "repair.helpers_per_node": (tally.helpers / tally.repaired_nodes, "helpers/node"),
        "repair.decode_fallbacks": (tally.fallbacks, "count"),
        "repair.repairs": (tally.repairs, "count"),
        "repair.self_s": (selfs["repair"], "s"),
        "metrics.easy_exhaustive_patterns_per_s": (exhaustive_n / exhaustive_s, "patterns/s"),
        "metrics.easy_sampled_patterns_per_s": (sampled_n / sampled_s, "patterns/s"),
        "metrics.rank_check_s": (exhaustive_s + sampled_s - sum(closure), "s"),
        "metrics.parallel_sweep_s": (
            sum(calls("metrics.verify_parallel_capacity", "bench.sweep.parallel")), "s"),
        "metrics.easy_exhaustive_w2_patterns_per_s": (extras["w2"]["exhaustive"], "patterns/s"),
        "metrics.easy_sampled_w2_patterns_per_s": (extras["w2"]["sampled"], "patterns/s"),
        "metrics.self_s": (selfs["metrics"], "s"),
        "storage.encode_s": (med(calls("storage.encode_object", "bench.store.bulk")), "s"),
        "storage.decode_s": (med(calls("storage.decode_object", "bench.store.bulk")), "s"),
        "storage.repair_s": (med(calls("storage.repair_shards", "bench.store.bulk")), "s"),
        "storage.encode_peak_mib": (extras["memory"]["encode"], "MiB"),
        "storage.decode_peak_mib": (extras["memory"]["decode"], "MiB"),
        "storage.payload_mib": (len(store.payload) / MIB, "MiB"),
        "storage.write_mib_per_s": (extras["disk"]["write"], "MiB/s"),
        "storage.read_mib_per_s": (extras["disk"]["read"], "MiB/s"),
        "storage.self_s": (selfs["storage"], "s"),
    }
    for name, t in extras["cli"].items():
        m[f"cli.{name}_s"] = (t, "s")
    m["cli.self_s"] = (selfs["cli"], "s")
    m["trace.untraced_round_s"] = (rounds["untraced"], "s")
    m["trace.traced_round_s"] = (rounds["traced"], "s")
    m["trace.overhead_s"] = (rounds["traced"] - rounds["untraced"], "s")
    m["trace.spans"] = (len(tr.start), "count")
    return m
