"""The three parts every workload runs: sweep, census and store.

A workload runs its own part at full size and the other two at a small
fixed size, so that every run measures every end-to-end metric (see
README.md).  A part is built once per run (the set-up: code construction
and seeded input generation) and then runs whole rounds of the same
operations.  Every round starts with the library's caches cleared, as a
fresh CLI process would, times each library call on its own, and checks
each output with ``checks`` outside the timed calls.

Library functions are always called through their module attribute
(``metrics.um_census``), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from functools import partial
from math import comb
from statistics import median

import checks
from simplexor import codes, metrics, repair, storage

# Timed calls are measured in CPU seconds of this process.  Every timed
# call is single-threaded, CPU-bound and touches no disk, so on an idle
# machine its CPU time is its wall time; on a shared host CPU time leaves
# out the stretches in which the host ran other tenants on this core
# (steal), which move wall-clock rates between runs by far more than the
# benchmark's own sampling error.
clock = time.process_time

MIB = 1 << 20

# Every (code, r, e) of a parallel sweep is a capacity the acceptance
# criteria claim, so each must pass.
SWEEP = {
    "full": {
        "easy_exhaustive": (("um:2:2", 6),),
        "easy_full": ("simplex:4", "c1:5", "c2:7"),
        "easy_sampled": (("um:2:2", 20_000),),
        "par_exhaustive": (("um:2:3", ((2, 2), (3, 3), (4, 4), (5, 5))),),
        "par_sampled": (("um:3:3", ((2, 4), (3, 7), (4, 8), (5, 11)), 2_000),),
    },
    "small": {
        "easy_exhaustive": (("um:2:1", 5),),
        "easy_full": ("simplex:4",),
        "easy_sampled": (("um:2:2", 2_000),),
        "par_exhaustive": (("um:2:3", ((2, 2), (3, 3), (4, 4), (5, 5))),),
        "par_sampled": (("um:3:3", ((2, 4), (3, 7)), 500),),
    },
    "tiny": {
        "easy_exhaustive": (("um:2:1", 3),),
        "easy_full": ("simplex:3",),
        "easy_sampled": (("um:2:1", 200),),
        "par_exhaustive": (("um:2:3", ((2, 2),)),),
        "par_sampled": (("um:3:3", ((2, 4),), 100),),
    },
}

# The census runs beside the other parts of every workload, not as a
# workload of its own: the full ``um_census(3, 4, 2)`` is one 15-27 s call
# (2-core Xeon), so a run would time the machine's speed of one moment.
# Up to cap 4 it takes about 2 s and still hands the packer up to 269
# groups per node.
CENSUS = {
    "small": {"args": (3, 4, 2), "caps": (2, 3, 4)},
    "tiny": {"args": (2, 3, 1), "caps": (2, 3, 4, 5)},
}

SMALL_CODES = ("simplex:3", "c1:4", "c2:5", "um:2:2", "umx:6:3", "c0:6:2", "um2p4")

STORE = {
    "full": {"bulk_bytes": 24 * MIB, "bulk_repeats": 1, "bulk_patterns": 2,
             "small_per_code": 300, "corrupt": True},
    "small": {"bulk_bytes": 4 * MIB, "bulk_repeats": 3, "bulk_patterns": 2,
              "small_per_code": 40, "corrupt": False},
    "tiny": {"bulk_bytes": 64 * 1024, "bulk_repeats": 1, "bulk_patterns": 1,
             "small_per_code": 3, "corrupt": True},
}
# Bulk erasure patterns are fixed, not seeded: decode and repair bandwidth
# depend on which shards are lost, and a handful of seeded patterns would
# make those figures, and the read ratio the bulk bytes dominate, vary
# with the seed.  Each code loses two shards, then three.
BULK_PATTERNS = {
    "simplex:4": (frozenset({0, 7}), frozenset({1, 6, 12})),
    "um:2:3": (frozenset({0, 13}), frozenset({2, 9, 20})),
}
SMALL_OBJECT_BYTES = 4096

# Fixed, seed-independent inputs for the corrupted-shard operations: one
# bit of shard CORRUPT_INDEX is flipped, shard 0 is the one to repair.
CORRUPT_CODES = ("simplex:3", "c2:5")
CORRUPT_INDEX = 2
CORRUPT_PAYLOAD = bytes(range(256)) * 4


class Tally:
    """Operation counts, check problems and timings of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[tuple, list[float]] = defaultdict(list)
        self.work: dict[tuple, float] = {}
        self.small_repair: list[float] = []
        self.read_bytes = 0
        self.repaired_bytes = 0
        self.helpers = 0
        self.repaired_nodes = 0
        self.fallbacks = 0
        self.repairs = 0

    def time(self, metric: str, key, work: float, dt: float) -> None:
        """One timed call; ``key`` names the operation, ``work`` its size."""
        self.times[(metric, key)].append(dt)
        self.work[(metric, key)] = work

    def total(self, metric: str) -> float:
        """Sum over the metric's operations of each one's median seconds."""
        return sum(median(v) for (m, _), v in self.times.items() if m == metric)

    def rate(self, metric: str) -> float:
        """Work per second: summed work over summed median seconds.

        Each operation repeats from round to round, so
        the median over its repeats ignores a stretch of the run in which
        the machine was slower or faster than in the rest.
        """
        work = sum(w for (m, _), w in self.work.items() if m == metric)
        return work / self.total(metric)

    def note_repair(self, result, frag_len: int, k: int) -> None:
        """Account one repair_shards result for the read ratio."""
        self.repairs += 1
        self.repaired_bytes += len(result.shards) * frag_len
        if result.plan is None:
            self.fallbacks += 1
            self.read_bytes += k * frag_len
        else:
            for step in result.plan.steps:
                self.helpers += len(step.helpers)
                self.read_bytes += len(step.helpers) * frag_len
            self.repaired_nodes += len(result.plan.steps)


class NullTracer:
    """Stands in for the tracer in untraced rounds."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


def clear_caches() -> None:
    """Empty every functools cache in the library, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name == "simplexor" or name.startswith("simplexor."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _correctable_pattern(rng, cols, k: int, n: int, count: int) -> frozenset:
    while True:
        erased = frozenset(rng.sample(range(n), count))
        mask = sum(1 << j for j in erased)
        if checks.correctable(cols, k, mask):
            return erased


class Code:
    """A library code plus the columns the checks derive from it."""

    def __init__(self, code_id: str):
        self.lib = codes.parse_code_id(code_id)
        self.id = code_id
        self.n, self.k = self.lib.n, self.lib.k
        self.rows = self.lib.generator.row_bits
        self.cols = checks.columns(self.rows, self.n)


# ---------------------------------------------------------------------------
# Sweep


class SweepPart:
    def __init__(self, size: str, seed: int):
        spec = SWEEP[size]
        ids = {cid for cid, _ in spec["easy_exhaustive"]} | set(spec["easy_full"])
        ids |= {cid for cid, _ in spec["easy_sampled"]} | {cid for cid, _ in spec["par_exhaustive"]}
        ids |= {cid for cid, _, _ in spec["par_sampled"]}
        self.codes = {cid: Code(cid) for cid in sorted(ids)}
        # (kind, code, mode, patterns the sweep must examine, own count of
        # the correctable ones, computed by prepare()).
        self.easy_jobs = []
        for cid, cap in spec["easy_exhaustive"]:
            c = self.codes[cid]
            self.easy_jobs.append((
                "exhaustive", c, metrics.Exhaustive(cap),
                sum(comb(c.n, e) for e in range(min(cap, c.n) + 1)),
                partial(checks.count_correctable_upto, c.rows, c.n, c.k, cap)))
        for cid in spec["easy_full"]:
            c = self.codes[cid]
            self.easy_jobs.append((
                "exhaustive", c, metrics.Exhaustive(), 1 << c.n,
                partial(checks.count_correctable_masks, c.cols, c.k, range(1 << c.n))))
        for cid, trials in spec["easy_sampled"]:
            c = self.codes[cid]
            self.easy_jobs.append((
                "sampled", c, metrics.Sampled(seed, trials), trials,
                lambda c=c, trials=trials: checks.count_correctable_masks(
                    c.cols, c.k, checks.sampled_masks(seed, trials, c.n))))
        # (code, r, e, mode, patterns the sweep must examine)
        self.par_jobs = []
        for cid, pairs in spec["par_exhaustive"]:
            c = self.codes[cid]
            self.par_jobs += [(c, r, e, metrics.Exhaustive(), comb(c.n, e)) for r, e in pairs]
        for cid, pairs, trials in spec["par_sampled"]:
            c = self.codes[cid]
            self.par_jobs += [(c, r, e, metrics.Sampled(seed + r, trials), trials)
                              for r, e in pairs]
        self.expected: list[int] = []
        self._first: dict[tuple, tuple] = {}

    def prepare(self) -> None:
        """Count the correctable patterns of every easy job with own code."""
        self.expected = [count() for *_, count in self.easy_jobs]

    def _same_as_first(self, tally: Tally, key, report) -> None:
        got = (report.patterns_examined, report.correctable, report.repaired, report.verdict)
        first = self._first.setdefault(key, got)
        if got != first:
            tally.problems.append(f"{key}: counts {got} differ from the first round {first}")

    def run(self, tr, tally: Tally) -> None:
        # Every job starts cold, as each `simplexor verify` does.
        for i, (kind, c, mode, examined, _) in enumerate(self.easy_jobs):
            clear_caches()
            with tr.span(f"bench.sweep.easy_{kind}"):
                t0 = clock()
                report = metrics.verify_easy_repair_property(c.lib, mode)
                dt = clock() - t0
            tally.attempted += 1
            tally.time("easy", i, report.patterns_examined, dt)
            tr.count(f"sweep.easy_{kind}.patterns", report.patterns_examined)
            tally.problems += checks.check_easy_report(report, examined, self.expected[i])
            self._same_as_first(tally, ("easy", i), report)
        for i, (c, r, e, mode, examined) in enumerate(self.par_jobs):
            clear_caches()
            if tr.enabled:
                # Enumerate the groups first, so that the traced sweep times
                # the verification alone; its tables reuse the cache.
                with tr.span("bench.sweep.enumerate"):
                    for target in range(c.n):
                        repair.enumerate_repair_groups(c.lib, target, r)
            with tr.span("bench.sweep.parallel"):
                t0 = clock()
                report = metrics.verify_parallel_capacity(c.lib, r, e, mode)
                dt = clock() - t0
            tally.attempted += 1
            tally.time("parallel", i, report.patterns_examined, dt)
            tr.count("sweep.parallel.patterns", report.patterns_examined)
            tally.problems += checks.check_parallel_report(report, examined)
            self._same_as_first(tally, ("parallel", i), report)


# ---------------------------------------------------------------------------
# Census


class CensusPart:
    def __init__(self, size: str, seed: int):
        spec = CENSUS[size]
        self.args = spec["args"]
        self.caps = spec["caps"]
        base_k, s, _ = self.args
        self.code = Code(f"um:{base_k}:{s}")
        self.width = (1 << base_k) - 1
        # one witness node per half, the same for every cap
        rng = random.Random(seed)
        self.witness_j = (rng.randrange(self.width), rng.randrange(self.width))
        self._first = None

    def node(self, time_index: int, half: int, j: int) -> int:
        return 2 * self.width * time_index + half * self.width + j

    def cases(self):
        """(time block, half, cap) of every count ``um_census`` makes."""
        return [(t, h, cap) for t, caps in ((0, (1, 2)), (self.args[2], self.caps))
                for cap in caps for h in (0, 1)]

    def run(self, tr, tally: Tally) -> None:
        if tr.enabled:
            # Enumerate first so the traced census times the packer alone.
            with tr.span("bench.census.enumerate"):
                for t, h, cap in self.cases():
                    for j in range(self.width):
                        repair.enumerate_repair_groups(self.code.lib, self.node(t, h, j), cap)
        with tr.span("bench.census.run"):
            t0 = clock()
            census = metrics.um_census(*self.args, caps=self.caps)
            dt = clock() - t0
        tally.attempted += 1
        tally.time("census", self.args, 1, dt)
        self.check(tally, census)

    def prepare(self) -> None:
        """Ask the packer for one witness per half and cap, to check later."""
        self.witnesses = []
        for t, h, cap in self.cases():
            node = self.node(t, h, self.witness_j[h])
            _, groups = repair.max_disjoint_groups(self.code.lib, node, cap)
            self.witnesses.append((t, h, cap, node, [sorted(g.helpers) for g in groups]))
        clear_caches()

    def check(self, tally: Tally, census) -> None:
        tally.problems += checks.check_census(census)
        got = (census.time0_cap1, census.time0_cap2, census.by_cap)
        if self._first is None:
            self._first = got
        elif got != self._first:
            tally.problems.append(f"census {self.args}: counts differ from the first round")
        counts = {(0, 1): census.time0_cap1, (0, 2): census.time0_cap2}
        for cap, first, second in census.by_cap:
            counts[(self.args[2], cap)] = first + second
        for t, h, cap, node, groups in self.witnesses:
            count = counts[(t, cap)][h * self.width + self.witness_j[h]]
            tally.problems += checks.check_packing_witness(self.code.cols, node, cap, count, groups)


# ---------------------------------------------------------------------------
# Store


class StorePart:
    def __init__(self, size: str, seed: int):
        spec = STORE[size]
        self.spec = spec
        rng = random.Random(seed)
        self.payload = rng.randbytes(spec["bulk_bytes"])
        self.bulk = []
        for cid, patterns in BULK_PATTERNS.items():
            self.bulk.append((Code(cid), patterns[: spec["bulk_patterns"]]))
        self.small = []
        for cid in SMALL_CODES:
            c = Code(cid)
            for i in range(spec["small_per_code"]):
                obj = rng.randbytes(SMALL_OBJECT_BYTES)
                erased = _correctable_pattern(rng, c.cols, c.k, c.n, 1 + i % 3)
                self.small.append((c, obj, erased))
        self.corrupt = []
        if spec["corrupt"]:
            for cid in CORRUPT_CODES:
                c = Code(cid)
                manifest, shards = storage.encode_object(c.lib, CORRUPT_PAYLOAD)
                bad = bytearray(shards[CORRUPT_INDEX].data)
                bad[0] ^= 1
                shards[CORRUPT_INDEX] = storage.Shard(CORRUPT_INDEX, bytes(bad))
                lost = (1 << 0) | (1 << CORRUPT_INDEX)
                if not checks.correctable(c.cols, c.k, lost):
                    raise RuntimeError(f"{cid}: good shards must stay correctable")
                self.corrupt.append((c, manifest, shards))

    def prepare(self) -> None:
        pass

    def run(self, tr, tally: Tally) -> None:
        with tr.span("bench.store.bulk"):
            for _ in range(self.spec["bulk_repeats"]):
                for c, patterns in self.bulk:
                    self._bulk(tally, c, patterns)
                    gc.collect()
        with tr.span("bench.store.small"):
            for c, obj, erased in self.small:
                self._small(tally, c, obj, erased)
        if self.corrupt:
            with tr.span("bench.store.corrupt"):
                for c, manifest, shards in self.corrupt:
                    self._corrupt(tally, c, manifest, shards)

    def _bulk(self, tally: Tally, c: Code, patterns) -> None:
        size_mib = len(self.payload) / MIB
        t0 = clock()
        manifest, shards = storage.encode_object(c.lib, self.payload)
        dt = clock() - t0
        tally.attempted += 1
        tally.time("encode", c.id, size_mib, dt)
        frags, frag_len = checks.fragments(self.payload, c.lib.generator.rows)
        for i, erased in enumerate(patterns):
            label = f"bulk {c.id} erased {sorted(erased)}"
            available = [sh for sh in shards if sh.index not in erased]
            t0 = clock()
            decoded = storage.decode_object(manifest, available)
            dt = clock() - t0
            tally.attempted += 1
            tally.time("decode", (c.id, i), size_mib, dt)
            tally.problems += checks.check_decoded(label, self.payload, decoded)
            del decoded
            t0 = clock()
            result = storage.repair_shards(manifest, available, erased)
            dt = clock() - t0
            tally.attempted += 1
            tally.time("repair", (c.id, i), len(erased) * frag_len / MIB, dt)
            self._check_repair(tally, label, c, frags, frag_len, erased, result)

    def _small(self, tally: Tally, c: Code, obj: bytes, erased) -> None:
        manifest, shards = storage.encode_object(c.lib, obj)
        available = [sh for sh in shards if sh.index not in erased]
        t0 = clock()
        result = storage.repair_shards(manifest, available, erased)
        dt = clock() - t0
        tally.attempted += 2
        tally.small_repair.append(dt)
        frags, frag_len = checks.fragments(obj, c.lib.generator.rows)
        self._check_repair(tally, f"small {c.id} erased {sorted(erased)}", c, frags, frag_len,
                           erased, result)

    def _check_repair(self, tally, label, c, frags, frag_len, erased, result) -> None:
        tally.problems += checks.check_repaired(label, c.cols, frags, frag_len, erased, result.shards)
        if result.plan is not None:
            tally.problems += checks.check_plan_steps(label, c.cols, erased, result.plan.steps)
        tally.note_repair(result, frag_len, c.k)

    def _corrupt(self, tally: Tally, c: Code, manifest, shards) -> None:
        """Decode and repair with one corrupted shard supplied; untimed.

        The good shards stay correctable, so a store that treats a shard
        failing its checksum as an erasure succeeds; a raised StorageError
        counts as a failed operation.
        """
        frags, frag_len = checks.fragments(CORRUPT_PAYLOAD, c.lib.generator.rows)
        label = f"corrupt {c.id} shard {CORRUPT_INDEX}"
        tally.attempted += 2
        try:
            decoded = storage.decode_object(manifest, shards)
        except storage.StorageError:
            tally.failed += 1
        else:
            tally.problems += checks.check_decoded(label, CORRUPT_PAYLOAD, decoded)
        try:
            result = storage.repair_shards(manifest, shards[1:], {0})
        except storage.StorageError:
            tally.failed += 1
        else:
            for sh in result.shards:
                if sh.data != checks.expected_shard(frags, frag_len, c.cols[sh.index]):
                    tally.problems.append(f"{label}: repaired shard {sh.index} has wrong bytes")
            if 0 not in {sh.index for sh in result.shards}:
                tally.problems.append(f"{label}: shard 0 was not repaired")


PARTS = {"sweep": SweepPart, "census": CensusPart, "store": StorePart}


def build_parts(workload: str, seed: int, tiny: bool) -> dict:
    """The three parts by name, the workload's own at full size."""
    return {name: cls("tiny" if tiny else ("full" if name == workload else "small"), seed)
            for name, cls in PARTS.items()}


def prepare(parts: dict) -> None:
    """Work the checks need once per run, done before the first round."""
    for part in parts.values():
        part.prepare()


def run_round(parts: dict, tr, tally: Tally) -> None:
    for part in parts.values():
        clear_caches()
        gc.collect()
        part.run(tr, tally)
