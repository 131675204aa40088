"""Erasure repair machinery: correctability, repair plans, availability.

Nodes are generator columns indexed 0..n-1.  A repair group for a node is
a minimal set of other nodes whose columns XOR to its column; "minimal"
means no nonempty proper subset XORs to zero, so groups carry no dead
weight.  Duplicate-valued columns at distinct indices are distinct nodes,
which is what makes replication (a size-1 group) possible.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .codes import EASY_REPAIR_FAMILIES, LinearCode
from .gf2 import DimensionMismatch

MAX_GROUP_SIZE = 6
EASY_TABLE_MAX_NODES = 256
PACKING_MAX_NODES = 96
PROFILE_MAX_NODES = 48


class InvalidBound(ValueError):
    """A size bound is outside the supported range."""


class LocalityUndefined(ValueError):
    """Some node is not a combination of other nodes at all."""


@dataclass(frozen=True)
class ErasurePattern:
    """Partition of node indices into erased and live sets."""

    n: int
    erased: frozenset[int]

    def __post_init__(self) -> None:
        if any(not 0 <= i < self.n for i in self.erased):
            raise DimensionMismatch("erased index out of range")

    @classmethod
    def from_erased(cls, n: int, erased: Iterable[int]) -> ErasurePattern:
        return cls(n, frozenset(erased))

    def erased_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.erased))


@dataclass(frozen=True)
class RepairGroup:
    target: int
    helpers: frozenset[int]


@dataclass(frozen=True)
class RepairStep:
    target: int
    helpers: tuple[int, ...]
    order: int


@dataclass(frozen=True)
class RepairPlan:
    steps: tuple[RepairStep, ...]
    mode: str  # "sequential" | "parallel"
    r_bound: int


@dataclass(frozen=True)
class RepairFailure:
    """Repair stalled: the residual pattern could not be progressed.

    ``theorem_violation`` is set when the stalled pattern was correctable
    and the code belongs to a family whose every correctable pattern is
    supposed to be easy-repairable; the test harness treats that as a
    counterexample, not an error.
    """

    residual: ErasurePattern
    steps: tuple[RepairStep, ...] = ()
    theorem_violation: bool = False


@dataclass(frozen=True)
class AvailabilityProfile:
    r_max: int
    per_node: tuple[tuple[int, ...], ...]
    code_level: tuple[tuple[int, int], ...]


def full_rank_on_live(cols: Sequence[int], erased_mask: int, k: int) -> bool:
    """True iff the columns outside erased_mask reach rank k: for a code's
    columns, iff they span GF(2)^k."""
    pivots: dict[int, int] = {}
    count = 0
    for j, v in enumerate(cols):
        if (erased_mask >> j) & 1:
            continue
        while v:
            h = v.bit_length()
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                count += 1
                break
            v ^= p
        if count == k:
            return True
    return k == 0


def is_correctable(code: LinearCode, pattern: ErasurePattern) -> bool:
    """True iff the live columns still span GF(2)^k."""
    if pattern.n != code.n:
        raise DimensionMismatch("pattern length does not match code length")
    return full_rank_on_live(code.cols, _index_mask(pattern.erased), code.k)


class PairRows:
    """The size-<=2 group table of cols, ``_group_table(cols, 2)``, made from
    a value index as each row is read: row t yields the other nodes with
    t's column, then each pair i < j of nonzero columns unequal to t's that
    XOR to it, in lex order (for a zero column, the equal nonzero pairs)."""

    def __init__(self, cols: Sequence[int]):
        self.cols = cols
        self.by_value: dict[int, list[int]] = {}
        for j, c in enumerate(cols):
            self.by_value.setdefault(c, []).append(j)

    def __getitem__(self, target: int) -> Iterator[int]:
        c = self.cols[target]
        by_value = self.by_value
        for j in by_value[c]:
            if j != target:
                yield 1 << j
        for i, v in enumerate(self.cols):
            if v and v != c:
                for j in by_value.get(v ^ c, ()):
                    if j > i:
                        yield 1 << i | 1 << j


def easy_table(cols: tuple[int, ...]) -> Sequence[Iterable[int]]:
    """The size-<=2 group table that easy repair reads: whole up to
    EASY_TABLE_MAX_NODES nodes (simplex:8, 32k masks of 255 bits), else
    made row by row, as the whole table of simplex:10 holds 523k masks of
    1,023 bits and that of simplex:14 134M masks of 16,383 bits."""
    return _group_table(cols, 2) if len(cols) <= EASY_TABLE_MAX_NODES else PairRows(cols)


def easy_steps(
    pairs: Sequence[Iterable[int]], erased: Iterable[int]
) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    """Greedy sequential easy repair over pairs, the size-<=2 group table
    ``easy_table(cols)``.

    Returns (steps, remaining) where each step is (target, helpers) and
    remaining lists the erased nodes the loop could not progress.  The
    lowest erased node with a group that misses every still-erased node
    is repaired by the first such group, so a replica comes before an XOR
    pair and the pair is the lex-first one; then the scan restarts.
    """
    remaining = sorted(erased)
    erased_mask = _index_mask(remaining)
    steps: list[tuple[int, tuple[int, ...]]] = []
    progress = True
    while progress:
        progress = False
        for target in remaining:
            group = next((g for g in pairs[target] if not g & erased_mask), None)
            if group is not None:
                steps.append((target, mask_indices(group)))
                remaining.remove(target)
                erased_mask ^= 1 << target
                progress = True
                break
    return tuple(steps), tuple(remaining)


def easy_repair_plan(code: LinearCode, pattern: ErasurePattern) -> RepairPlan | RepairFailure:
    """Greedy sequential easy repair until done or stalled.

    Already-repaired nodes count as available helpers for later steps.  On
    a stall the failure value carries the residual pattern, and flags a
    theorem violation when the input was correctable and the family
    guarantees easy repair.
    """
    raw_steps, remaining = easy_steps(easy_table(code.cols), pattern.erased)
    steps = tuple(RepairStep(t, h, i) for i, (t, h) in enumerate(raw_steps))
    if remaining:
        residual = ErasurePattern(pattern.n, frozenset(remaining))
        violation = code.family in EASY_REPAIR_FAMILIES and is_correctable(code, pattern)
        return RepairFailure(residual, steps, violation)
    r_bound = max((len(s.helpers) for s in steps), default=0)
    return RepairPlan(steps, "sequential", r_bound)


def easy_closure_for_mask(pairs: Sequence[Iterable[int]], lanes: Sequence[int]) -> int:
    """Verdict-only easy repair over the size-<=2 group table pairs, in many
    erasure patterns at once: bit p of lanes[t] is set when pattern p, lane
    p, erases node t.  Returns the lanes left stuck, 0 when every lane
    clears; a single mask is the one-lane case.

    In each lane an erased node is cleared once one of its groups misses
    the lane's erased set, until a pass clears none: node t stays erased in
    the lanes where every group of its row has an erased node, the AND over
    its groups of their erased lanes.  A row is read only while some lane
    still has its node erased, and only until each such lane is cleared.
    Order-free, as the closure is unique."""
    erased = list(lanes)
    pending = [t for t, x in enumerate(erased) if x]
    cleared = True
    while pending and cleared:
        cleared = False
        still = []
        for t in pending:
            stuck = erased[t]
            for g in pairs[t]:
                i = g.bit_length() - 1
                hit = erased[i]
                g ^= 1 << i
                if g:
                    hit |= erased[g.bit_length() - 1]
                stuck &= hit
                if not stuck:
                    break
            if stuck != erased[t]:
                erased[t] = stuck
                cleared = True
            if stuck:
                still.append(t)
        pending = still
    return reduce(or_, [erased[t] for t in pending], 0)


# ---------------------------------------------------------------------------
# Repair group enumeration (one circuit pass per code and cap)


@lru_cache(maxsize=12)
def _independent_subsets(cols: tuple[int, ...], size: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Every size-subset of node indices whose columns are independent
    (rank size), as an ascending tuple, keyed by the XOR of its columns;
    each list is in lex order.  A subset of size s is one of size s - 1
    plus a later index whose column lies outside its span, so no such
    subset holds a zero column."""
    if size == 0:
        return {0: ((),)}
    n = len(cols)
    out: dict[int, list[tuple[int, ...]]] = {}
    for v, subsets in _independent_subsets(cols, size - 1).items():
        for sub in subsets:
            span = {0}
            for i in sub:
                span |= {x ^ cols[i] for x in span}
            for j in range(sub[-1] + 1 if sub else 0, n):
                c = cols[j]
                if c not in span:
                    out.setdefault(v ^ c, []).append(sub + (j,))
    return {v: tuple(sorted(lst)) for v, lst in out.items()}


@lru_cache(maxsize=32)
def _circuits(cols: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    """Every circuit (minimal dependent set) of size nonzero columns, as
    an ascending index tuple, in lex order.

    A circuit's head, its first size//2 indices, and its tail, its last
    size//2, are proper subsets and so independent; an odd circuit has one
    middle index between them.  The XOR of the head and the middle equals
    the tail's.  Such a candidate is a circuit iff its rank is size - 1,
    which holds by itself for sizes 2 and 3, where no column is zero or
    equals another.
    """
    subsets = _independent_subsets(cols, size // 2)
    n = len(cols)
    out = []
    # plain loops, no generator: a MemoryError here must leave no suspended
    # frame whose closing needs memory when the traceback is freed
    for v, heads in subsets.items():
        for head in heads:
            for m in range(head[-1] + 1, n) if size % 2 else (-1,):
                # the left part, the head plus any middle m, and the XOR its tail must have
                if m < 0:
                    left, key = head, v
                elif cols[m]:
                    left, key = head + (m,), v ^ cols[m]
                else:
                    continue
                tails = subsets.get(key)
                if not tails:
                    continue
                # tails whose first index lies past the left part's last
                for tail in tails[bisect.bisect_left(tails, (left[-1] + 1,)) :]:
                    cand = left + tail
                    if size < 4 or full_rank_on_live([cols[i] for i in cand], 0, size - 1):
                        out.append(cand)
    return tuple(sorted(out))


@lru_cache(maxsize=32)
def _group_table(cols: tuple[int, ...], cap: int) -> tuple[tuple[int, ...], ...]:
    """Per target, all its minimal repair groups of at most cap helpers,
    as helper bitmasks in (size, indices) order.

    s helpers XORing to a nonzero target column are minimal exactly when
    they and the target form a circuit, so one pass over the circuits of
    2..cap + 1 nonzero columns hands C minus x to every member x of each
    circuit C.  A zero column is a loop: its groups are the other zero
    columns and every circuit of at most cap nonzero columns.  Circuits
    come by size and in lex order, and dropping a common member keeps two
    circuits in lex order, so no list needs a sort.
    """
    table: list[list[int]] = [[] for _ in cols]
    loop_groups: list[int] = []
    for size in range(2, cap + 2):
        for circuit in _circuits(cols, size):
            mask = _index_mask(circuit)
            for x in circuit:
                table[x].append(mask ^ (1 << x))
            if size <= cap:
                loop_groups.append(mask)
    zeros = [j for j, c in enumerate(cols) if not c]
    for z in zeros:
        table[z] = [1 << j for j in zeros if j != z] + loop_groups
    return tuple(map(tuple, table))


def _groups_of(code: LinearCode, target: int, max_size: int) -> tuple[int, ...]:
    """The target's minimal repair groups of at most max_size helpers, as
    helper bitmasks in (size, indices) order."""
    checked_size(max_size)
    if not 0 <= target < code.n:
        raise DimensionMismatch("target index out of range")
    return _group_table(code.cols, max_size)[target]


def enumerate_repair_groups(code: LinearCode, target: int, max_size: int) -> list[RepairGroup]:
    """All minimal repair groups with at most max_size helpers."""
    return [RepairGroup(target, frozenset(mask_indices(g))) for g in _groups_of(code, target, max_size)]


# ---------------------------------------------------------------------------
# Exact maximum disjoint packing (branch and bound; the search's clique is the witness)


def _compatibility(masks: Sequence[int], full: int) -> tuple[dict[int, int], list[int]]:
    """The incidence map, node -> bitset of the masks holding that node, and
    per mask the bitset of masks disjoint from it (all minus the map entries
    of its nodes)."""
    holders: dict[int, int] = {}
    for i, m in enumerate(masks):
        for node in mask_indices(m):
            holders[node] = holders.get(node, 0) | 1 << i
    adj = []
    for m in masks:
        hit = 0
        for node in mask_indices(m):
            hit |= holders[node]
        adj.append(full & ~hit)
    return holders, adj


class _PackingSolver:
    """Is there a packing of w disjoint groups?  Asked two ways: as an exact
    cover of a projection window (``covers``), and as a clique of w vertices
    in the compatibility graph (``clique_of``), which also names the groups.

    Vertices are nonempty groups, edges join disjoint ones.  One incidence
    map, node -> bitset of the groups holding that node, gives both the
    graph and a hitting-set cover: a greedy set of nodes, each the node on
    the most still-uncovered groups (lowest node on ties), whose map entries
    are the cover's vertex sets.  Branch and bound with two complementary
    bounds: the greedy-coloring bound (at most one vertex per independent
    class) and the hitting-set bound (every packed group spends one cover
    node).  Vertices are relabeled by compatibility degree so the coloring
    packs classes tightly; ``masks`` holds the groups in that order, and the
    map is built again over it.
    """

    def __init__(self, masks: Sequence[int]):
        n = len(masks)
        self.full = full = (1 << n) - 1
        _, first_adj = _compatibility(masks, full)
        perm = sorted(range(n), key=lambda v: (first_adj[v].bit_count(), v))
        self.masks = [masks[v] for v in perm]
        self.holders, self.adj = _compatibility(self.masks, full)
        holders = self.holders
        nodes = sorted(holders)
        self.cover_verts = []
        left = full
        while left:
            verts = holders[max(nodes, key=lambda node: (holders[node] & left).bit_count())]
            self.cover_verts.append(verts)
            left &= ~verts

    def clique_of(self, want: int) -> int:
        """The vertex bitset of a clique of want >= 1 vertices, or 0 if
        there is none.  A branch ends once a bound says it cannot reach
        want, and the first vertex that completes want ends the search."""
        adj = self.adj
        cover_verts = self.cover_verts

        def expand(p: int, size: int, chosen: int) -> int:
            hits = 0
            tightest = 0
            tight_count = len(adj) + 1
            for verts in cover_verts:
                sub = verts & p
                if sub:
                    hits += 1
                    c = sub.bit_count()
                    if c < tight_count:
                        tightest, tight_count = sub, c
            if size + hits < want:
                return 0
            if size + hits == want:
                # Every cover element must host a packed group, so branch on
                # the element with the fewest candidate groups; its skip
                # branch loses a cover hit and prunes itself.
                sub = tightest
                while sub:
                    b = sub & -sub
                    sub ^= b
                    if size + 1 == want:
                        return chosen | b
                    p2 = p & adj[b.bit_length() - 1]
                    if p2:
                        found = expand(p2, size + 1, chosen | b)
                        if found:
                            return found
                skip = p & ~tightest
                return expand(skip, size, chosen) if skip else 0
            order: list[int] = []
            colors: list[int] = []
            uncolored = p
            color = 0
            while uncolored:
                color += 1
                q = uncolored
                while q:
                    b = q & -q
                    v = b.bit_length() - 1
                    q &= ~adj[v]
                    q ^= b
                    uncolored ^= b
                    order.append(v)
                    colors.append(color)
            for i in range(len(order) - 1, -1, -1):
                if size + colors[i] < want:
                    return 0
                v = order[i]
                b = 1 << v
                if size + 1 == want:
                    return chosen | b
                p2 = p & adj[v]
                if p2:
                    found = expand(p2, size + 1, chosen | b)
                    if found:
                        return found
                p &= ~b
            return 0

        return expand(self.full, 0, 0)

    def covers(self, exact: int, other: int, want: int) -> bool:
        """Is there a packing of want groups?  Asked as an exact cover of a
        projection window, the node classes exact and other of
        ``_projection_bound``.

        Nodes of exact weigh 2 half-units, nodes of other 1, and every group
        weighs at least 2, so want disjoint groups leave at most slack =
        weight(exact | other) - 2 want of the window's weight unpaired: the
        weight of each chosen group above 2 plus that of each node no chosen
        group covers.  As in Knuth's dancing links, the search takes the
        undecided node with the fewest live groups, those that miss every
        decided node and whose excess weight the slack still pays, and
        either covers it with one of them or leaves it uncovered, until the
        slack is spent (no packing) or pays for leaving every undecided node
        uncovered (a packing).
        """
        masks = self.masks
        adj = self.adj
        holders = self.holders
        excess = [2 * (m & exact).bit_count() + (m & other).bit_count() - 2 for m in masks]
        weight = {node: 1 + (exact >> node & 1) for node in mask_indices(exact | other)}
        total = sum(weight.values())
        if total < 2 * want:
            return False
        # within[s]: the groups of excess at most s
        within = [0] * (total - 2 * want + 1)
        for v, e in enumerate(excess):
            if e < len(within):
                within[e] |= 1 << v
        for s in range(1, len(within)):
            within[s] |= within[s - 1]

        def search(live: int, undecided: list[int], rest: int, slack: int) -> bool:
            live &= within[slack]
            # nodes with no live group are left uncovered, the others kept
            open_nodes = []
            node = verts = 0
            fewest = len(masks) + 1
            for x in undecided:
                xv = holders.get(x, 0) & live
                if xv:
                    open_nodes.append(x)
                    c = xv.bit_count()
                    if c < fewest:
                        node, verts, fewest = x, xv, c
                else:
                    rest -= weight[x]
                    slack -= weight[x]
            if slack < 0:
                return False
            if rest <= slack:
                return True
            # the groups disjoint from most others first, as the relabeled
            # vertices rise in compatibility degree: they find packings sooner
            sub = verts
            while sub:
                v = sub.bit_length() - 1
                sub ^= 1 << v
                if excess[v] <= slack:
                    m = masks[v]
                    left = [x for x in open_nodes if not m >> x & 1]
                    if search(live & adj[v], left, rest - excess[v] - 2, slack - excess[v]):
                        return True
            if weight[node] > slack:
                return False
            open_nodes.remove(node)
            return search(live & ~verts, open_nodes, rest - weight[node], slack - weight[node])

        return search(self.full, list(weight), total, total - 2 * want)


@lru_cache(maxsize=128)
def _projection_bound(cols: tuple[int, ...], target: int, n_rows: int) -> tuple[int, int, int]:
    """Upper bound on disjoint repair groups from row-interval projections,
    with the best window's two node classes: (bound, exact, other).

    For a row interval where the target column is nonzero, every group
    must contain either one node whose projection equals the target's, or
    at least two nodes with nonzero projection (their XOR there must hit a
    nonzero value).  A zero target's window is every row: a group is then
    another zero column or at least two nonzero ones.  Weighting those node
    classes, exact and other (as node bitmasks), 1 and 1/2 is a valid
    fractional cover, so the packing is at most |exact| + |other|/2;
    minimized over all intervals, the first interval to reach the minimum
    giving the classes.  Cached per target.
    """
    tcol = cols[target]
    # the whole row range always counts, and every bound lies below len(cols)
    best = (len(cols), 0)
    for a in range(n_rows):
        for b in range(a + 1, n_rows + 1):
            window = ((1 << b) - 1) >> a << a
            tproj = tcol & window
            if not tproj and b - a < n_rows:
                continue
            exact = other = 0
            for c in cols:
                cp = c & window
                if cp == tproj:
                    exact += 1
                elif cp:
                    other += 1
            # exact counted the target itself
            bound = exact - 1 + other // 2
            if bound < best[0]:
                best = (bound, window)
    bound, window = best
    tproj = tcol & window
    exact = other = 0
    for j, c in enumerate(cols):
        cp = c & window
        if cp == tproj:
            exact |= 1 << j
        elif cp:
            other |= 1 << j
    return bound, exact & ~(1 << target), other


def _first_fit(masks: Iterable[int]) -> tuple[list[int], list[int]]:
    """The masks in order, split into a greedy disjoint packing, each mask
    that misses every mask taken before it, and the rest."""
    packing: list[int] = []
    rest: list[int] = []
    used = 0
    for mask in masks:
        if mask & used:
            rest.append(mask)
        else:
            packing.append(mask)
            used |= mask
    return packing, rest


def _max_packing(groups: Sequence[int], window: tuple[int, int, int] | None = None) -> list[int]:
    """A largest pairwise-disjoint subcollection of the group bitmasks, in
    mask_indices order.

    Asks the solver for a packing of w groups for each w from the best
    upper bound (the cover size, or the window's bound, ``_projection_bound``,
    if smaller) down to one more than the first-fit size.  As w never
    exceeds the maximum, the first w that has one is the maximum; if none
    has, the first-fit packing is one.

    The window's cover search decides each w, as it proves fast that no
    packing exists, and the clique search, which finds packings fast,
    names the groups once, at the first w that fits.  With no window the
    clique search decides alone.
    """
    packing, _ = _first_fit(groups)
    solver = _PackingSolver(groups)
    ub = len(solver.cover_verts)
    if window is not None and window[0] < ub:
        ub = window[0]
    for want in range(ub, len(packing), -1):
        if window is not None and not solver.covers(window[1], window[2], want):
            continue
        found = solver.clique_of(want)
        if found:
            packing = [solver.masks[v] for v in mask_indices(found)]
            break
    return sorted(packing, key=mask_indices)


def _index_mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def mask_indices(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def max_disjoint_groups(
    code: LinearCode, target: int, max_size: int
) -> tuple[int, list[RepairGroup]]:
    """Exact maximum number of pairwise-disjoint repair groups, with a
    maximum packing as witness, its groups in lex order of their helpers.
    Which maximum packing is returned is not part of the contract."""
    if code.n > PACKING_MAX_NODES:
        raise InvalidBound(f"code length {code.n} exceeds packing guard {PACKING_MAX_NODES}")
    groups = _groups_of(code, target, max_size)
    packing = _max_packing(groups, _projection_bound(code.cols, target, code.k))
    return len(packing), [RepairGroup(target, frozenset(mask_indices(g))) for g in packing]


def checked_size(max_size: int) -> int:
    """max_size, or InvalidBound when it lies outside 1..MAX_GROUP_SIZE."""
    if not 1 <= max_size <= MAX_GROUP_SIZE:
        raise InvalidBound(f"max_size {max_size} outside 1..{MAX_GROUP_SIZE}")
    return max_size


def availability_profile(code: LinearCode, r_max: int) -> AvailabilityProfile:
    """Per-node disjoint-group counts for each r <= r_max, plus code-level t."""
    if code.n > PROFILE_MAX_NODES:
        raise InvalidBound(f"code length {code.n} exceeds profile guard {PROFILE_MAX_NODES}")
    checked_size(r_max)
    per_node = tuple(
        tuple(max_disjoint_groups(code, node, r)[0] for r in range(1, r_max + 1))
        for node in range(code.n)
    )
    code_level = tuple((r, min(counts[r - 1] for counts in per_node)) for r in range(1, r_max + 1))
    return AvailabilityProfile(r_max, per_node, code_level)


def locality(code: LinearCode) -> int:
    """Max over nodes of the smallest repair-group size."""
    if code.n > PROFILE_MAX_NODES:
        raise InvalidBound(f"code length {code.n} exceeds locality guard {PROFILE_MAX_NODES}")
    cols = code.cols
    worst = 0
    for node in range(code.n):
        groups = _group_table(cols, 2)[node] or _group_table(cols, MAX_GROUP_SIZE)[node]
        if not groups:
            # the generator has full row rank, so the other columns reach
            # rank k exactly when the node lies in their span
            if full_rank_on_live(cols, 1 << node, code.k):
                raise InvalidBound(f"node {node}: no repair group within size {MAX_GROUP_SIZE}")
            raise LocalityUndefined(f"node {node} is independent of all other nodes")
        worst = max(worst, groups[0].bit_count())
    return worst


# ---------------------------------------------------------------------------
# Parallel repair


@lru_cache(maxsize=64)
def parallel_table(cols: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    """Per target: its minimal groups of size <= r as helper bitmasks, in
    the order a parallel repair tries them.

    A greedy disjoint packing comes first, because at most one erasure can
    hit each of its pairwise-disjoint groups; the other groups follow in
    (size, indices) order.
    """
    out = []
    for groups in _group_table(cols, checked_size(r)):
        packing, rest = _first_fit(groups)
        out.append(tuple(packing + rest))
    return tuple(out)


def parallel_rows(table: Sequence[Sequence[int]], e: int) -> list[tuple[int, Sequence[int]]]:
    """The rows (t, groups) of a parallel table that a pattern of e erasures,
    t among them, can leave with every group hit: those that do not open
    with e pairwise-disjoint groups, as the other e - 1 erasures hit at most
    e - 1 of them (no node is in its own groups)."""
    rows = []
    for t, row in enumerate(table):
        head = row[:e]
        if len(head) < e or sum(g.bit_count() for g in head) != reduce(or_, head, 0).bit_count():
            rows.append((t, row))
    return rows


def parallel_stuck_lanes(
    rows: Iterable[tuple[int, Sequence[int]]], lanes: Sequence[int], test: int
) -> int:
    """Parallel repair in many erasure patterns at once: bit p of lanes[t] is
    set when pattern p, lane p, erases node t.  Returns the lanes of test in
    which some erased node of rows, ``parallel_rows(table, e)`` for patterns
    of e erasures, has no all-live group: the AND over its groups of the
    lanes that erase a member, one OR per member.  A lane found stuck is
    not tested again."""
    stuck = 0
    for t, row in rows:
        left = lanes[t] & test
        for g in row:
            if not left:
                break
            hit = 0
            while g:
                i = g.bit_length() - 1
                hit |= lanes[i]
                g ^= 1 << i
            left &= hit
        stuck |= left
        test ^= left
    return stuck


def parallel_repair_plan(
    code: LinearCode, pattern: ErasurePattern, r: int
) -> RepairPlan | RepairFailure:
    """One all-live repair group of size <= r per erased node, independently:
    the first in its parallel_table order."""
    table = parallel_table(code.cols, r)
    erased_mask = _index_mask(pattern.erased)
    steps: list[RepairStep] = []
    unrepaired: list[int] = []
    for target in pattern.erased_sorted():
        group = next((mask for mask in table[target] if not mask & erased_mask), None)
        if group is None:
            unrepaired.append(target)
        else:
            steps.append(RepairStep(target, mask_indices(group), len(steps)))
    if unrepaired:
        return RepairFailure(ErasurePattern(pattern.n, frozenset(unrepaired)), tuple(steps))
    return RepairPlan(tuple(steps), "parallel", r)


# ---------------------------------------------------------------------------
# Plan serialization


def format_plan(plan: RepairPlan) -> str:
    """One header comment, then one `repair <t> <- <h1>+<h2>` line per step."""
    if plan.mode == "parallel":
        lines = [f"# mode: parallel r={plan.r_bound}"]
    else:
        lines = ["# mode: sequential"]
    for step in plan.steps:
        lines.append(f"repair {step.target} <- {'+'.join(str(h) for h in step.helpers)}")
    return "\n".join(lines)
