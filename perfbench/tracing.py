"""Spans around the calls into each library layer, for the traced run.

The tracer replaces public names where their callers look them up (for
example ``simplexor.metrics.easy_closure_for_mask``, which ``metrics``
binds by ``from .repair import``) with wrappers that record one span per
call: name, start, end and the span that was open when it began.  The
benchmark's own phases are spans too.  Spans live in arrays in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import simplexor.codes
import simplexor.metrics
import simplexor.repair
import simplexor.storage

clock = time.perf_counter

# (module, attribute) for each wrapped name.  A span is named after the
# layer that defines the function: ``storage.parse_code_id`` is a call
# into ``codes``.
WRAPPED = (
    (simplexor.codes, "parse_code_id"),
    (simplexor.codes, "rank"),
    (simplexor.metrics, "um_block_code"),
    (simplexor.metrics, "verify_easy_repair_property"),
    (simplexor.metrics, "verify_parallel_capacity"),
    (simplexor.metrics, "um_census"),
    (simplexor.metrics, "easy_closure_for_mask"),
    (simplexor.metrics, "max_disjoint_groups"),
    (simplexor.repair, "enumerate_repair_groups"),
    (simplexor.storage, "parse_code_id"),
    (simplexor.storage, "is_correctable"),
    (simplexor.storage, "easy_repair_plan"),
    (simplexor.storage, "encode_object"),
    (simplexor.storage, "decode_object"),
    (simplexor.storage, "repair_shards"),
    (simplexor.storage, "write_object_dir"),
    (simplexor.storage, "read_available_shards"),
)

# Calls whose result length is kept with the span.
SIZED = {"repair.enumerate_repair_groups"}

LAYERS = ("gf2", "codes", "repair", "metrics", "storage", "cli")


def layer_of(fn) -> str:
    return getattr(fn, "__module__", "").rpartition(".")[2]


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(-1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def _wrap(self, fn, name: str):
        sized = name in SIZED

        @wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if sized:
                self.size[i] = len(result)
            return result

        return traced

    def install(self) -> None:
        for module, attr in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{layer_of(fn)}.{fn.__name__}"))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------

    def spans(self):
        """(name, start, end, parent, phase, size) per span, in start order.

        ``phase`` is the innermost enclosing benchmark span (``bench.*``).
        """
        phase: list[str] = []
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            p = self.parent[i]
            if name.startswith("bench."):
                phase.append(name)
            else:
                phase.append(phase[p] if p >= 0 else "")
            yield name, self.start[i], self.end[i], p, phase[i], self.size[i]

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time of its child spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            layer = self.names[self.name[i]].partition(".")[0]
            if layer in out:
                out[layer] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path) -> None:
        """The span names, then one tab-separated line per span: name
        index, start and end in microseconds since the first span, and
        the parent's line number (-1 for none)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as f:
            f.write("# names: " + "\t".join(self.names) + "\n")
            f.write("name\tstart_us\tend_us\tparent\n")
            for i in range(len(self.start)):
                f.write(f"{self.name[i]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                        f"{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\n")
