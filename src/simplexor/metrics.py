"""Brute-force distance oracles, theorem sweeps, tables and simulation.

Every sweep is deterministic: exhaustive enumerations have a fixed order
and sampled runs derive one RNG seed per trial index from the master seed,
so partitioning work across processes cannot change any verdict or count.
Trial i of a sampled run seeds a Mersenne Twister with trial_seed(seed, i)
and draws getrandbits(n), each node erased with probability 1/2, or the
e-subset of CPython's random.Random.sample(range(n), e), whose algorithm
``_sampled_masks`` restates over getrandbits.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from math import ceil, comb, log
from operator import and_, or_

from .codes import (
    InvalidDimension,
    LinearCode,
    c0_repeat_code,
    c1_code,
    c1_repeat_code,
    simplex_code,
    simplex_columns,
    tensor_um_code,
    um2prime_code,
    um_block_code,
)
from .gf2 import TooLarge, min_weight_nonzero_rowspan, transpose
from .repair import (
    checked_size,
    easy_closure_for_mask,
    easy_steps,
    easy_table,
    full_rank_on_live,
    mask_indices,
    max_disjoint_groups,
    parallel_rows,
    parallel_stuck_lanes,
    parallel_table,
)

MAX_MESSAGE_DIM = 24
MAX_SWEEP_PATTERNS = 8_000_000

_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, index: int) -> int:
    """Stable per-trial RNG seed; independent of process or partitioning."""
    return _mix64((master_seed & _M64) ^ _mix64(index))


# ---------------------------------------------------------------------------
# Distances


def min_distance(code: LinearCode) -> int:
    """Exact minimum distance by exhausting all nonzero messages."""
    if code.k > MAX_MESSAGE_DIM:
        raise TooLarge(f"k={code.k} exceeds the {MAX_MESSAGE_DIM}-message-bit guard")
    return min_weight_nonzero_rowspan(code.generator, guard=MAX_MESSAGE_DIM)


def column_distance(base_k: int, j: int) -> int:
    """Minimum weight of the first j+1 output blocks of the UM code over
    simplex:base_k, over messages with a nonzero leading block."""
    if base_k * (j + 1) > 20:
        raise TooLarge(f"window of {base_k * (j + 1)} message bits exceeds guard 20")
    code = um_block_code(base_k, j)
    window = code.n // (j + 2) * (j + 1)
    rows = [rb & (1 << window) - 1 for rb in code.generator.row_bits]
    head, tail = rows[:base_k], rows[base_k:]
    best = window + 1
    for u0 in range(1, 1 << base_k):
        acc = 0
        u = u0
        i = 0
        while u:
            if u & 1:
                acc ^= head[i]
            u >>= 1
            i += 1
        w = acc.bit_count()
        if w < best:
            best = w
        for t in range(1, 1 << len(tail)):
            acc ^= tail[(t & -t).bit_length() - 1]
            w = acc.bit_count()
            if w < best:
                best = w
    return best


def sliding_block_distance(base_k: int, s: int) -> int:
    """Exact minimum distance of the UM code over simplex:base_k unrolled
    with horizon s."""
    if (s + 1) * base_k > 20:
        raise TooLarge(f"{(s + 1) * base_k} message bits exceeds guard 20")
    return min_weight_nonzero_rowspan(um_block_code(base_k, s).generator, guard=MAX_MESSAGE_DIM)


# ---------------------------------------------------------------------------
# Theorem sweeps


@dataclass(frozen=True)
class Exhaustive:
    max_erasures: int | None = None

    def __post_init__(self) -> None:
        if self.max_erasures is not None and self.max_erasures < 0:
            raise ValueError("max_erasures must be >= 0")


@dataclass(frozen=True)
class Sampled:
    seed: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class VerifyReport:
    code_id: str
    checked: str
    verdict: bool
    patterns_examined: int
    correctable: int
    repaired: int
    counterexample: tuple[int, ...] | None


def _merge_counts(parts, least: bool = False):
    """Sum chunk tallies.  The counterexample is the first chunk's first
    failure, or with least the smallest failing mask of any chunk."""
    fails = [low if least else first for *_, first, low in parts if first is not None]
    ce = (min(fails) if least else fails[0]) if fails else None
    examined, correctable, repaired = (sum(p[i] for p in parts) for i in range(3))
    return examined, correctable, repaired, None if ce is None else mask_indices(ce)


def _sampled_masks(n, e, seed, lo, hi):
    """The erasure bitmask of each trial index in [lo, hi), for every sampled
    sweep and the simulation: trial i reseeds one Mersenne Twister with
    trial_seed(seed, i), then draws getrandbits(n) when e is None, each node
    erased with probability 1/2, else the e-subset that
    random.Random.sample(range(n), e) picks.

    The masks are those of a fresh random.Random(trial_seed(seed, i)) per
    trial, bit for bit.  sample is restated over getrandbits as CPython
    writes it: up to its set-size bound, a pool of the unpicked indices with
    a swap into each vacancy; past it, rejection of picks already taken.  A
    pick below m is getrandbits(m.bit_length()), drawn again until it falls
    below m.  The C-level seed skips random.Random.seed's type checks and its
    reset of gauss_next, which no draw here reads."""
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    bits = rng.getrandbits
    if e is None:
        return [reseed(trial_seed(seed, i)) or bits(n) for i in range(lo, hi)]
    masks = []
    if n <= (21 if e <= 5 else 21 + 4 ** ceil(log(e * 3, 4))):
        pool = list(range(n))
        for i in range(lo, hi):
            reseed(trial_seed(seed, i))
            mask = 0
            left = pool[:]
            for m in range(n, n - e, -1):
                j = bits(m.bit_length())
                while j >= m:
                    j = bits(m.bit_length())
                mask |= 1 << left[j]
                left[j] = left[m - 1]
            masks.append(mask)
    else:
        width = n.bit_length()
        for i in range(lo, hi):
            reseed(trial_seed(seed, i))
            mask = 0
            for _ in range(e):
                j = bits(width)
                while j >= n or mask >> j & 1:
                    j = bits(width)
                mask |= 1 << j
            masks.append(mask)
    return masks


def _set_bits(x: int):
    """The set bits of x, ascending, found by str.find over its binary
    text: linear in its length, where peeling off the lowest bit again and
    again costs a pass over a wide int per bit."""
    text = bin(x)[:1:-1]
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


def _unrank(n: int, e: int, rank: int) -> int:
    """The bitmask of the e-subset of range(n) with the given lex rank.  Of
    the subsets that choose their r remaining indices from j up, the
    C(n - j - 1, r - 1) holding j come first."""
    mask = j = 0
    for r in range(e, 0, -1):
        c = comb(n - j - 1, r - 1)
        while rank >= c:
            rank -= c
            j += 1
            c = comb(n - j - 1, r - 1)
        mask |= 1 << j
        j += 1
    return mask


def _suffix_lanes(n: int, cap: int, low: int = 0):
    """For each suffix range(a, n), a from n down to 0, the node lanes of its
    e-subsets for each e <= cap: bit p of layers[e][j] is set when the
    subset of lex rank p holds node a + j.

    The e-subsets of a suffix in lex order are those holding its first
    index a, which are a plus the (e - 1)-subsets of the next suffix, then
    those without it, the e-subsets of the next suffix.  So layer e of the
    whole range needs layer e - (n - m) and up at suffix length m: only the
    layers that reach layer low at length n are built, the others None,
    which keeps the middle layers out when low is near n."""
    layers: list[list[int] | None] = [[] for _ in range(cap + 1)]
    yield layers
    for m in range(n):  # m: the next suffix's length
        lo = max(0, low - (n - m - 1))
        prev, layers = layers, [None] * lo
        if not lo:
            layers.append([0] + prev[0])
        for e in range(max(lo, 1), cap + 1):
            w = comb(m, e - 1)
            layers.append([(1 << w) - 1] + [x | y << w for x, y in zip(prev[e - 1], prev[e])])
        yield layers


def _subset_lanes(n: int, cap: int) -> list[list[int]]:
    """For each e <= cap, the node lanes of the e-subsets of range(n)."""
    for layers in _suffix_lanes(n, cap):
        pass
    return layers


def _lane_pass(cols, k, pairs, lanes, count, mask_of):
    """Easy repair of count patterns, one lane each: one closure over the
    node lanes, then the one rank check of each stuck lane p, on its mask
    mask_of(p).  The columns must reach rank k: then every lane that clears
    is correctable, as the live columns span each erased one.  Returns the
    correctable and repaired counts, the first and the least failing mask,
    and the masks of the uncorrectable lanes."""
    stuck = easy_closure_for_mask(pairs, lanes)
    failed = 0
    first = least = None
    bad = []
    for p in _set_bits(stuck):
        mask = mask_of(p)
        if not full_rank_on_live(cols, mask, k):
            bad.append(mask)
            continue
        failed += 1
        if first is None:
            first = least = mask
        elif mask < least:
            least = mask
    cleared = count - stuck.bit_count()
    return (cleared + failed, cleared, first, least), bad


def _easy_layers(cols, k, pairs, cap):
    """Easy repair of every pattern of at most cap erasures: per erasure
    count e, the tally of the e-subsets in lex order, one lane each.

    A generator short of rank k makes no pattern correctable.  Otherwise a
    lane that clears is correctable, and a subset of a correctable pattern
    is correctable.  So each stuck lane that fails its rank check and
    covers none of the patterns found so far is a new minimal uncorrectable
    pattern, and every lane of a higher layer that covers one is dropped
    before the closure, uncorrectable without a check."""
    n = len(cols)
    if not full_rank_on_live(cols, 0, k):
        return [(comb(n, e), 0, 0, None, None) for e in range(cap + 1)]
    minimal: list[tuple[int, ...]] = []
    out = []
    for e, lanes in enumerate(_subset_lanes(n, cap)):
        dead = 0
        for u in minimal:
            dead |= reduce(and_, [lanes[j] for j in u])
        if dead:
            lanes = [x & ~dead for x in lanes]
        total = comb(n, e)
        tally, bad = _lane_pass(cols, k, pairs, lanes, total - dead.bit_count(),
                                partial(_unrank, n, e))
        minimal += map(mask_indices, bad)
        out.append((total, *tally))
    return out


def _sampled_chunk(cols, k, pairs, seed, lo, hi):
    """Easy repair of the mask drawn for each trial index in [lo, hi), one
    lane each."""
    n = len(cols)
    masks = _sampled_masks(n, None, seed, lo, hi)
    if not full_rank_on_live(cols, 0, k):
        return len(masks), 0, 0, None, None
    tally, _ = _lane_pass(cols, k, pairs, transpose(masks, n), len(masks), masks.__getitem__)
    return (len(masks), *tally)


def _parallel_layer(cols, r, e):
    """Parallel r-repair of every e-subset of the nodes, in lex order, over
    the whole table at bound r: one lane pass per least erased node a, in
    which a is erased in every lane and the nodes above a carry the lanes
    of the (e - 1)-subsets of the suffix range(a + 1, n).  Returns the tally
    with the lex-first failing mask."""
    n = len(cols)
    if not e:
        return 1, 1, 1, None, None
    rows = parallel_rows(parallel_table(cols, r), e)
    total = comb(n, e)
    if not rows:
        return total, total, total, None, None
    failed = 0
    first = None
    for a, layers in zip(range(n - 1, -1, -1), _suffix_lanes(n - 1, e - 1, e - 1)):
        full = (1 << comb(n - a - 1, e - 1)) - 1
        stuck = parallel_stuck_lanes(rows, [0] * a + [full] + layers[e - 1], full)
        if stuck:
            failed += stuck.bit_count()
            rank = (stuck & -stuck).bit_length() - 1
            first = 1 << a | _unrank(n - a - 1, e - 1, rank) << a + 1
    return total, total, total - failed, first, first


def _stuck_by_bound(cols, e, masks, top):
    """The lanes still failing the parallel check at each bound 1..top, lane
    p the pattern masks[p] of e erasures.  A node's row at bound b holds
    exactly its groups of at most b helpers, so a lane that passes at b
    passes at every bound above: only the lanes still failing go on, and a
    bound's table is fetched only while some lane is pending."""
    lanes = transpose(masks, len(cols))
    pending = reduce(or_, lanes, 0)
    out = []
    for b in range(1, top + 1):
        if pending:
            pending = parallel_stuck_lanes(parallel_rows(parallel_table(cols, b), e), lanes, pending)
        out.append(pending)
    return out


def _sampled_parallel_chunk(cols, r, e, seed, lo, hi):
    """Parallel r-repair of the pattern drawn for each trial index in
    [lo, hi), one lane each."""
    masks = _sampled_masks(len(cols), e, seed, lo, hi)
    stuck = _stuck_by_bound(cols, e, masks, r)[-1]
    first = masks[(stuck & -stuck).bit_length() - 1] if stuck else None
    return len(masks), len(masks), len(masks) - stuck.bit_count(), first, first


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _run_chunks(chunks, workers: int):
    """Chunk results in chunk order.  Each chunk is a partial of a top-level
    ``_*_chunk``, so it pickles.  The chunks were cut for the requested
    worker count; the pool starts no more processes than there are chunks
    or cores."""
    _check_workers(workers)
    procs = min(workers, len(chunks), os.cpu_count() or 1)
    if procs <= 1:
        return [chunk() for chunk in chunks]
    # imported here: it loads multiprocessing, which only a pool needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=procs) as ex:
        return [f.result() for f in [ex.submit(chunk) for chunk in chunks]]


def _ranges(total: int, parts: int) -> list[tuple[int, int]]:
    if not total:
        return [(0, 0)]
    step = -(-total // max(1, min(parts, total)))
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def verify_easy_repair_property(
    code: LinearCode, mode: Exhaustive | Sampled, workers: int = 1
) -> VerifyReport:
    """Sweep erasure patterns; every correctable one must easy-repair.
    Each pattern is one lane of the lane closure.  An exhaustive sweep
    checks one layer of e-subsets at a time (``_easy_layers``), in the
    calling process, as each layer drops the lanes that cover a minimal
    uncorrectable pattern of the layers below; it reports the first failure
    in (count, lex) order when capped, else the least mask."""
    cols = code.cols
    n, k = code.n, code.k
    if isinstance(mode, Exhaustive):
        cap = n if mode.max_erasures is None else min(mode.max_erasures, n)
        total = sum(comb(n, e) for e in range(cap + 1))
        if total > MAX_SWEEP_PATTERNS:
            raise TooLarge(f"{total} patterns exceeds the sweep guard")
        _check_workers(workers)
        parts = _easy_layers(cols, k, easy_table(cols), cap)
        checked = "easy-repair exhaustive"
        if mode.max_erasures is not None:
            checked += f" <={mode.max_erasures} erasures"
    else:
        pairs = easy_table(cols)
        parts = _run_chunks([partial(_sampled_chunk, cols, k, pairs, mode.seed, lo, hi)
                             for lo, hi in _ranges(mode.trials, workers * 4)], workers)
        checked = f"easy-repair sampled seed={mode.seed} trials={mode.trials}"
    least = isinstance(mode, Exhaustive) and mode.max_erasures is None
    examined, correctable, repaired, ce = _merge_counts(parts, least)
    return VerifyReport(code.code_id, checked, ce is None, examined, correctable, repaired, ce)


def verify_parallel_capacity(
    code: LinearCode, r: int, e: int, mode: Exhaustive | Sampled, workers: int = 1
) -> VerifyReport:
    """Every pattern with exactly e erasures must admit parallel r-repair:
    each erased node keeps an all-live group of at most r helpers.  Each
    pattern is one lane of ``parallel_stuck_lanes``.  An exhaustive sweep
    runs in the calling process over the whole table at bound r, one lane
    pass per least erased node (``_parallel_layer``); a sampled one checks
    its lanes bound by bound from 1 up (``_stuck_by_bound``)."""
    cols = code.cols
    n = code.n
    if not 0 <= e <= n:
        raise ValueError(f"erasure count {e} outside 0..{n}")
    if isinstance(mode, Exhaustive) and comb(n, e) > MAX_SWEEP_PATTERNS:
        raise TooLarge(f"C({n},{e}) patterns exceeds the sweep guard")
    checked_size(r)
    if isinstance(mode, Exhaustive):
        _check_workers(workers)
        parts = [_parallel_layer(cols, r, e)]
        checked = f"parallel r={r} e={e} exhaustive"
    else:
        parts = _run_chunks([partial(_sampled_parallel_chunk, cols, r, e, mode.seed, lo, hi)
                             for lo, hi in _ranges(mode.trials, workers * 4)], workers)
        checked = f"parallel r={r} e={e} sampled seed={mode.seed} trials={mode.trials}"
    examined, _, repaired, ce = _merge_counts(parts)
    return VerifyReport(code.code_id, checked, ce is None, examined, examined, repaired, ce)


# ---------------------------------------------------------------------------
# Comparison tables


@dataclass(frozen=True)
class ComparisonRow:
    code_id: str
    n: int
    d: int
    ratio: Fraction


_FAMILY_RANK = {"simplex": 0, "c1": 1, "um2p4": 2, "umx": 3, "c0x": 4, "c1x": 5}


def _divisors(k: int) -> list[int]:
    return [x for x in range(1, k + 1) if k % x == 0]


def comparison_table(k: int) -> list[ComparisonRow]:
    """One row per construction of dimension k, sorted by n descending."""
    if k < 2:
        raise InvalidDimension("comparison table needs k >= 2")
    entries: list[tuple[tuple, ComparisonRow]] = []

    def add(code: LinearCode, code_id: str | None = None) -> None:
        rank_ = _FAMILY_RANK[code.family]
        d = min_distance(code)
        row = ComparisonRow(code_id or code.code_id, code.n, d, Fraction(d, code.n))
        entries.append(((-row.n, -row.d, rank_, code.x or 0), row))

    add(simplex_code(k))
    add(c1_code(k))
    if k == 4:
        add(um2prime_code())
    for x in _divisors(k):
        if x >= 2:
            add(tensor_um_code(k, x))
    for x in _divisors(k):
        if not 2 <= x < k:
            continue
        c0 = c0_repeat_code(k, x)
        if k // x == 2:
            # the weight-2 code of dimension 2 is the 2-dimensional simplex
            # code, so the two repeats coincide; emit one merged row
            add(c0, code_id=f"c0:{k}:{x}=c1:{k}:{x}")
        else:
            add(c0)
            add(c1_repeat_code(k, x))
    entries.sort(key=lambda it: it[0])
    return [row for _, row in entries]


def format_table_tsv(rows: list[ComparisonRow]) -> str:
    lines = ["code\tn\td\td_over_n"]
    for r in rows:
        lines.append(f"{r.code_id}\t{r.n}\t{r.d}\t{r.ratio.numerator}/{r.ratio.denominator}")
    return "\n".join(lines)


def format_table_text(rows: list[ComparisonRow]) -> str:
    width = max(len(r.code_id) for r in rows)
    lines = [f"{'code'.ljust(width)}  {'n':>4} {'d':>4}  d/n"]
    for r in rows:
        approx = f"1/{r.n / r.d:.4g}"
        frac = f"{r.ratio.numerator}/{r.ratio.denominator}"
        lines.append(f"{r.code_id.ljust(width)}  {r.n:>4} {r.d:>4}  {frac} ({approx})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Disjoint repair-group census for unrolled UM codes


@dataclass(frozen=True)
class UmCensus:
    base_k: int
    s: int
    time_index: int
    half: int  # nodes per half block
    time0_cap1: tuple[int, ...]
    time0_cap2: tuple[int, ...]
    by_cap: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]


def um_node_index(base_k: int, time_index: int, half: int, j: int) -> int:
    """Node index of coordinate j in the given half of a time block."""
    width = (1 << base_k) - 1
    return 2 * width * time_index + half * width + j


def _check_half_block_symmetry(cols, base_k: int, time_indices) -> None:
    """Raise ValueError unless, for each simplex position j, an invertible map
    A_j of GF(2)^base_k with A_j g_0 = g_j, applied to every base_k-bit row
    block, permutes cols and takes node (t, h, 0) to node (t, h, j) for every
    t in time_indices. Such a bijection maps circuits to circuits, so it
    carries disjoint repair groups of the one node onto those of the other."""
    g = simplex_columns(base_k)
    a = g[0].bit_length() - 1  # g_0 = e_a
    low = (1 << base_k) - 1
    for j, gj in enumerate(g):
        a_cols = [1 << i for i in range(base_k)]
        a_cols[a] = gj
        if not gj >> a & 1:
            a_cols[(gj & -gj).bit_length() - 1] = 1 << a
        image_of = [0]  # image_of[v] = A_j v
        for c in a_cols:
            image_of += [x ^ c for x in image_of]
        image = [sum(image_of[v >> i & low] << i for i in range(0, v.bit_length(), base_k)) for v in cols]
        if not (full_rank_on_live(a_cols, 0, base_k) and sorted(image) == sorted(cols)
                and all(image[um_node_index(base_k, t, h, 0)] == cols[um_node_index(base_k, t, h, j)]
                        for t in time_indices for h in (0, 1))):
            raise ValueError(f"simplex position {j} breaks the half-block symmetry of the census")


def um_census(base_k: int, s: int, time_index: int, caps=(2, 3, 4, 5)) -> UmCensus:
    """Exact per-node disjoint-group counts around one interior time block.

    All nodes of a half block have one count (checked on every call by
    _check_half_block_symmetry), so the packer runs once per half block and cap."""
    if not 1 <= time_index <= s - 1:
        raise ValueError(f"time_index {time_index} is not an interior block 1..{s - 1}")
    code = um_block_code(base_k, s)
    width = (1 << base_k) - 1
    _check_half_block_symmetry(code.cols, base_k, (0, time_index))

    def half(t: int, h: int, cap: int) -> tuple[int, ...]:
        return (max_disjoint_groups(code, um_node_index(base_k, t, h, 0), cap)[0],) * width

    time0_cap1 = half(0, 0, 1) + half(0, 1, 1)
    time0_cap2 = half(0, 0, 2) + half(0, 1, 2)
    by_cap = tuple((cap, half(time_index, 0, cap), half(time_index, 1, cap)) for cap in caps)
    return UmCensus(base_k, s, time_index, width, time0_cap1, time0_cap2, by_cap)


# ---------------------------------------------------------------------------
# Monte Carlo repair statistics


@dataclass(frozen=True)
class SimulationReport:
    code_id: str
    trials: int
    seed: int
    erasure_histogram: tuple[tuple[int, int], ...]
    fraction_correctable: float
    fraction_easy_repaired: float
    parallel_fractions: tuple[tuple[int, float], ...]
    mean_xors_per_repaired_node: float


def _sim_chunk(cols, k, pairs, r_values, e, seed, lo, hi):
    """Counts over trials [lo, hi): correctable, easy-repaired, XORs and
    nodes of the easy repairs, then parallel repairs per bound in r_values,
    one lane per trial."""
    counts = [0] * 4
    masks = _sampled_masks(len(cols), e, seed, lo, hi)
    for emask in masks:
        if full_rank_on_live(cols, emask, k):
            counts[0] += 1
            steps, remaining = easy_steps(pairs, mask_indices(emask))
            if not remaining:
                counts[1] += 1
                counts[2] += sum(len(h) - 1 for _, h in steps)
                counts[3] += len(steps)
    stuck = _stuck_by_bound(cols, e, masks, max(r_values, default=0))
    return counts + [len(masks) - stuck[r - 1].bit_count() for r in r_values]


def monte_carlo_repair(
    code: LinearCode,
    trials: int,
    erasures: int,
    seed: int,
    r_values: tuple[int, ...] = (2,),
    workers: int = 1,
) -> SimulationReport:
    """Seeded repair statistics over trials of exactly erasures erased nodes;
    identical output for identical arguments."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= erasures <= code.n:
        raise ValueError("erasure count out of range")
    cols = code.cols
    pairs = easy_table(cols)
    for r in r_values:
        checked_size(r)
    chunks = [partial(_sim_chunk, cols, code.k, pairs, r_values, erasures, seed, lo, hi)
              for lo, hi in _ranges(trials, workers * 4)]
    correctable, easy_ok, xor_total, nodes_total, *par_ok = map(
        sum, zip(*_run_chunks(chunks, workers)))
    return SimulationReport(
        code_id=code.code_id,
        trials=trials,
        seed=seed,
        erasure_histogram=((erasures, trials),),
        fraction_correctable=correctable / trials,
        fraction_easy_repaired=easy_ok / trials,
        parallel_fractions=tuple((r, ok / trials) for r, ok in zip(r_values, par_ok)),
        mean_xors_per_repaired_node=(xor_total / nodes_total) if nodes_total else 0.0,
    )


def format_simulation(report: SimulationReport) -> str:
    lines = [
        f"code\t{report.code_id}",
        f"trials\t{report.trials}",
        f"seed\t{report.seed}",
        "erasures\t" + ",".join(f"{e}:{c}" for e, c in report.erasure_histogram),
        f"fraction_correctable\t{report.fraction_correctable:.6f}",
        f"fraction_easy_repaired\t{report.fraction_easy_repaired:.6f}",
    ]
    for r, frac in report.parallel_fractions:
        lines.append(f"fraction_parallel_r{r}\t{frac:.6f}")
    lines.append(f"mean_xors_per_repaired_node\t{report.mean_xors_per_repaired_node:.6f}")
    return "\n".join(lines)
