"""Checks of the library's outputs, computed apart from the library.

Everything here works on plain ints: a code is given by its generator's
row bitsets, from which the checks derive columns, ranks, codeword
supports and expected shard bytes with their own code.  Each ``check_*``
function returns a list of problems; an empty list means the output is
correct.  They never call into ``simplexor``.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

_M64 = (1 << 64) - 1


def columns(row_bits, n: int) -> list[int]:
    """Generator columns as ints, bit i = entry in row i."""
    cols = [0] * n
    for i, row in enumerate(row_bits):
        for j in range(n):
            if (row >> j) & 1:
                cols[j] |= 1 << i
    return cols


def rank(vectors) -> int:
    """GF(2) rank of int bitsets, by a basis keyed on the leading bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def live_rank(cols, erased_mask: int) -> int:
    return rank(c for j, c in enumerate(cols) if not (erased_mask >> j) & 1)


def correctable(cols, k: int, erased_mask: int) -> bool:
    return live_rank(cols, erased_mask) == k


def codeword_supports(row_bits, k: int) -> list[int]:
    """Support bitsets of all nonzero codewords (brute force over 2^k)."""
    out = []
    for u in range(1, 1 << k):
        acc = 0
        for i in range(k):
            if (u >> i) & 1:
                acc ^= row_bits[i]
        out.append(acc)
    return out


def count_correctable_upto(row_bits, n: int, k: int, cap: int) -> int:
    """Correctable patterns with at most ``cap`` erasures.

    A pattern is uncorrectable exactly when its erased set covers the
    support of a nonzero codeword, so only the codewords of weight <= cap
    matter; each pattern is tested against those supports.
    """
    light = [s for s in codeword_supports(row_bits, k) if s.bit_count() <= cap]
    lightest = min((s.bit_count() for s in light), default=cap + 1)
    total = 0
    for e in range(cap + 1):
        total += comb(n, e)
        if e < lightest:
            continue
        for combo in combinations(range(n), e):
            mask = 0
            for j in combo:
                mask |= 1 << j
            if any(not s & ~mask for s in light):
                total -= 1
    return total


def count_correctable_masks(cols, k: int, masks) -> int:
    return sum(1 for m in masks if correctable(cols, k, m))


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def sampled_masks(seed: int, trials: int, n: int):
    """The erasure masks a sampled easy-repair sweep draws.

    The library derives one RNG per trial index from the master seed with
    a splitmix64 mix and draws ``getrandbits(n)``; that derivation is part
    of its documented determinism, so it is restated here.
    """
    for i in range(trials):
        yield random.Random(_mix64((seed & _M64) ^ _mix64(i))).getrandbits(n)


# ---------------------------------------------------------------------------
# Sweep reports


def check_easy_report(report, examined: int, correctable_count: int) -> list[str]:
    """An easy-repair sweep: every correctable pattern repaired, counts exact."""
    label = f"{report.code_id} {report.checked}"
    problems = []
    if not report.verdict or report.counterexample is not None:
        problems.append(f"{label}: verdict FAIL, counterexample {report.counterexample}")
    if report.patterns_examined != examined:
        problems.append(f"{label}: examined {report.patterns_examined}, expected {examined}")
    if report.correctable != correctable_count:
        problems.append(
            f"{label}: correctable {report.correctable}, own rank gives {correctable_count}"
        )
    if report.repaired != report.correctable:
        problems.append(f"{label}: repaired {report.repaired} != correctable {report.correctable}")
    return problems


def check_parallel_report(report, examined: int) -> list[str]:
    """A parallel-capacity sweep: every pattern repaired, count exact."""
    label = f"{report.code_id} {report.checked}"
    problems = []
    if not report.verdict or report.counterexample is not None:
        problems.append(f"{label}: verdict FAIL, counterexample {report.counterexample}")
    if report.patterns_examined != examined:
        problems.append(f"{label}: examined {report.patterns_examined}, expected {examined}")
    if report.repaired != report.patterns_examined:
        problems.append(f"{label}: repaired {report.repaired} != examined {report.patterns_examined}")
    return problems


# ---------------------------------------------------------------------------
# Census

def census_guarantees(base_k: int) -> dict:
    """Lower bounds stated by scripts/census_report.py, keyed (cap, half)."""
    half, whole = 1 << (base_k - 1), 1 << base_k
    return {
        (2, 0): half, (2, 1): half + 1,
        (3, 0): whole - 1, (3, 1): whole,
        (4, 0): whole, (4, 1): whole + half - 1,
        (5, 0): whole + half - 1, (5, 1): whole + half - 1,
    }


def check_census(census) -> list[str]:
    """Counts meet the stated guarantees and are equal within each half."""
    width = census.half
    whole = 1 << census.base_k
    problems = []
    rows = [
        ("block-0 cap 1", census.time0_cap1[:width], 1),
        ("block-0 cap 1 second half", census.time0_cap1[width:], 1),
        ("block-0 cap 2", census.time0_cap2[:width], whole - 1),
        ("block-0 cap 2 second half", census.time0_cap2[width:], whole - 1),
    ]
    bounds = census_guarantees(census.base_k)
    for cap, first, second in census.by_cap:
        rows.append((f"cap {cap} first half", first, bounds.get((cap, 0), 1)))
        rows.append((f"cap {cap} second half", second, bounds.get((cap, 1), 1)))
    for label, counts, floor in rows:
        if len(counts) != width:
            problems.append(f"census {label}: {len(counts)} counts, expected {width}")
        if len(set(counts)) > 1:
            problems.append(f"census {label}: counts differ within the half: {counts}")
        if any(c < floor for c in counts):
            problems.append(f"census {label}: {counts} below the guarantee {floor}")
    return problems


def check_packing_witness(cols, node: int, cap: int, count: int, groups) -> list[str]:
    """A disjoint-packing witness: ``groups`` is a list of helper index sets."""
    label = f"packing node {node} cap {cap}"
    problems = []
    if len(groups) != count:
        problems.append(f"{label}: witness has {len(groups)} groups, census says {count}")
    used = 0
    for g in groups:
        mask = 0
        acc = 0
        for j in g:
            mask |= 1 << j
            acc ^= cols[j]
        if not 1 <= len(g) <= cap:
            problems.append(f"{label}: group {sorted(g)} has size outside 1..{cap}")
        if node in g:
            problems.append(f"{label}: group {sorted(g)} contains the node")
        if mask & used:
            problems.append(f"{label}: group {sorted(g)} overlaps an earlier group")
        if acc != cols[node]:
            problems.append(f"{label}: group {sorted(g)} does not XOR to the node's column")
        used |= mask
    return problems


# ---------------------------------------------------------------------------
# Storage


def fragments(payload: bytes, count: int) -> tuple[list[int], int]:
    """Payload split into ``count`` zero-padded fragments, as ints."""
    frag_len = -(-len(payload) // count)
    return [
        int.from_bytes(payload[i * frag_len : (i + 1) * frag_len], "little")
        for i in range(count)
    ], frag_len


def expected_shard(frags, frag_len: int, column: int) -> bytes:
    """XOR of the fragments selected by a generator column."""
    acc = 0
    for i, f in enumerate(frags):
        if (column >> i) & 1:
            acc ^= f
    return acc.to_bytes(frag_len, "little")


def check_decoded(label: str, payload: bytes, decoded) -> list[str]:
    if decoded != payload:
        return [f"{label}: decoded payload differs from the original"]
    return []


def check_repaired(label, cols, frags, frag_len, erased, shards) -> list[str]:
    """Repaired shards: exactly the erased indices, each the right bytes."""
    problems = []
    got = sorted(sh.index for sh in shards)
    if got != sorted(erased):
        problems.append(f"{label}: repaired indices {got}, expected {sorted(erased)}")
    for sh in shards:
        if not 0 <= sh.index < len(cols):
            continue
        if sh.data != expected_shard(frags, frag_len, cols[sh.index]):
            problems.append(f"{label}: repaired shard {sh.index} has wrong bytes")
    return problems


def check_plan_steps(label, cols, erased, steps) -> list[str]:
    """Sequential easy-repair steps: live or earlier-repaired helpers that
    XOR to the target column, at most two per step, every erased node once."""
    problems = []
    available = set(range(len(cols))) - set(erased)
    for step in steps:
        helpers = tuple(step.helpers)
        acc = 0
        for h in helpers:
            acc ^= cols[h]
        if acc != cols[step.target]:
            problems.append(f"{label}: step {step.target} <- {helpers} does not XOR to the target")
        if not 1 <= len(helpers) <= 2:
            problems.append(f"{label}: step {step.target} uses {len(helpers)} helpers")
        if not set(helpers) <= available:
            problems.append(f"{label}: step {step.target} reads an unavailable helper")
        if step.target in available:
            problems.append(f"{label}: step {step.target} repairs a node that is not erased")
        available.add(step.target)
    if not set(erased) <= available:
        problems.append(f"{label}: plan leaves {sorted(set(erased) - available)} unrepaired")
    return problems
