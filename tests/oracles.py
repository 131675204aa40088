"""Reference paths that the differential tests compare the library against.

GF(2) vectors are Python ints: bit i is coordinate i.  Matrices are the
library's BitMatrix.  These routines favour plain linear algebra over
speed; nothing in ``simplexor`` calls them.
"""

from __future__ import annotations

import bisect
import random
import zlib
from itertools import combinations
from typing import Iterable, Sequence

from simplexor.codes import LinearCode, simplex_columns, simplex_parity_rows
from simplexor.gf2 import BitMatrix, DimensionMismatch, rank, reduce_rows, transpose
from simplexor import repair
from simplexor.metrics import trial_seed
from simplexor.storage import NotCorrectable, Shard, ShardManifest


def codeword(generator: BitMatrix, message_bits: int) -> int:
    """message @ generator: the XOR of the rows that message_bits selects."""
    acc = 0
    for i, row in enumerate(generator.row_bits):
        if (message_bits >> i) & 1:
            acc ^= row
    return acc


def transpose_by_bits(vectors: Sequence[int], width: int) -> tuple[int, ...]:
    """gf2.transpose one bit at a time: result i has bit j = bit i of vectors[j]."""
    return tuple(sum(((v >> i) & 1) << j for j, v in enumerate(vectors)) for i in range(width))


def select_columns(m: BitMatrix, indices: Sequence[int]) -> BitMatrix:
    """Submatrix keeping the given columns, in the given order."""
    cols = m.columns_bits()
    return BitMatrix(m.rows, len(indices), transpose([cols[j] for j in indices], m.rows))


def weight2_matrix(k: int) -> BitMatrix:
    """The k x k(k-1)/2 matrix whose columns are all weight-2 vectors, with
    support {i, j}, i < j, in lex order: the pairs holding row 0 first."""
    cols = [1 << i | 1 << j for i, j in combinations(range(k), 2)]
    return BitMatrix(k, len(cols), transpose(cols, k))


def simplex_parity_check(k: int) -> BitMatrix:
    """(n-k) x n parity check for the simplex code, identity on the right.

    The canonical simplex generator is [I_k | P], so H = [P^T | I_{n-k}]
    and H @ G^T = 0.
    """
    n = (1 << k) - 1
    return BitMatrix(n - k, n, tuple(simplex_parity_rows(k)))


def um_taps(base_k: int) -> tuple[list[int], list[int]]:
    """The paper's unit-memory taps over the simplex G of dimension base_k,
    as column lists: g0 = [G G] and g1 = [G 0]."""
    g = simplex_columns(base_k)
    return g * 2, g + [0] * len(g)


def um_staircase(base_k: int, s: int) -> BitMatrix:
    """The taps unrolled over s+1 message blocks, row by row: block row t
    holds g0 at column block t and g1 at block t+1, so u @ the result gives
    c_t = u_t @ g0 + u_{t-1} @ g1."""
    g0, g1 = um_taps(base_k)
    nb = len(g0)
    r0, r1 = transpose(g0, base_k), transpose(g1, base_k)
    rows = tuple(r0[r] << t * nb | r1[r] << (t + 1) * nb for t in range(s + 1) for r in range(base_k))
    return BitMatrix((s + 1) * base_k, (s + 2) * nb, rows)


def kron_by_bits(outer: BitMatrix, inner: BitMatrix) -> BitMatrix:
    """The Kronecker product one entry at a time: entry
    (i * inner.rows + r, j * inner.cols + c) is outer[i][j] * inner[r][c]."""
    rows = tuple(
        sum(((outer.row_bits[i] >> j) & (inner.row_bits[r] >> c) & 1) << (j * inner.cols + c)
            for j in range(outer.cols) for c in range(inner.cols))
        for i in range(outer.rows) for r in range(inner.rows))
    return BitMatrix(outer.rows * inner.rows, outer.cols * inner.cols, rows)


def solve_right(m: BitMatrix, target: int) -> int | None:
    """Solve u @ m = target for u; None when no solution exists.

    When the solution is not unique, the free variables of the
    reduced-row-echelon system (leftmost-pivot preference) are set to
    zero, so the returned u is deterministic.
    """
    if target >> m.cols:
        raise DimensionMismatch("target has bits beyond the column count")
    k = m.rows
    # Row j of the transposed system is column j of m, augmented with the
    # target bit at position k.
    aug = [col | (((target >> j) & 1) << k) for j, col in enumerate(m.columns_bits())]
    pivots = reduce_rows(aug, k)
    if any(aug[len(pivots):]):
        return None
    x = 0
    for i, c in enumerate(pivots):
        if (aug[i] >> k) & 1:
            x |= 1 << c
    return x


def nullspace(m: BitMatrix) -> BitMatrix:
    """Basis of the right kernel {x : m @ x^T = 0}, one vector per row."""
    n = m.cols
    work = list(m.row_bits)
    pivot_cols = reduce_rows(work, n)
    pivset = set(pivot_cols)
    basis = []
    for c in range(n):
        if c in pivset:
            continue
        v = 1 << c
        for i, pc in enumerate(pivot_cols):
            if (work[i] >> c) & 1:
                v |= 1 << pc
        basis.append(v)
    return BitMatrix(len(basis), n, tuple(basis))


def is_correctable_via_parity(
    code: LinearCode, erased: Iterable[int], parity: BitMatrix | None = None
) -> bool:
    """Cross-check route: the erased parity-check columns are independent."""
    h = parity if parity is not None else nullspace(code.generator)
    sub = select_columns(h, sorted(erased))
    return rank(BitMatrix(sub.cols, sub.rows, sub.columns_bits())) == sub.cols


def xor_bytes(chunks: Iterable[bytes], length: int) -> bytes:
    """The byte-by-byte XOR of equal-length byte strings; none gives zeros."""
    out = bytearray(length)
    for chunk in chunks:
        for b, value in enumerate(chunk):
            out[b] ^= value
    return bytes(out)


def encode_by_columns(generator: BitMatrix, payload: bytes) -> list[bytes]:
    """Shard bytes by the column rule: the payload is zero-padded to one
    equal fragment per generator row, and shard j is the XOR of the
    fragments whose row has a 1 in column j."""
    k = generator.rows
    frag_len = -(-len(payload) // k)
    padded = payload.ljust(k * frag_len, b"\x00")
    frags = [padded[i * frag_len : (i + 1) * frag_len] for i in range(k)]
    return [
        xor_bytes((frags[i] for i in range(k) if (generator.row_bits[i] >> j) & 1), frag_len)
        for j in range(generator.cols)
    ]


def decode_by_solving(manifest: ShardManifest, generator: BitMatrix, shards: Iterable[Shard]) -> bytes:
    """The payload from shards with distinct in-range indices, eagerly: every
    shard is length-checked and hashed, the failures are dropped, and each
    fragment is solve_right's combination of the sound shards, taken in
    index order.  NotCorrectable when the sound shards do not span."""
    sound = sorted((sh.index, sh.data) for sh in shards
                   if len(sh.data) == manifest.fragment_length
                   and f"{zlib.crc32(sh.data):08x}" == manifest.checksums[sh.index])
    sub = select_columns(generator, [j for j, _ in sound])
    transposed = BitMatrix(sub.cols, sub.rows, sub.columns_bits())
    solutions = [solve_right(transposed, 1 << i) for i in range(generator.rows)]
    if None in solutions:
        raise NotCorrectable(f"{len(sound)} shards do not span the message space")
    fragments = (xor_bytes((data for p, (_, data) in enumerate(sound) if (x >> p) & 1),
                           manifest.fragment_length) for x in solutions)
    return b"".join(fragments)[: manifest.payload_length]


def _easy_helper_by_value(
    cols: Sequence[int], target: int, live: Sequence[int], live_by_value: dict[int, list[int]]
) -> tuple[int, ...] | None:
    """The lowest live replica of the target's column, else the lex-first
    live pair whose columns XOR to it, else None."""
    tcol = cols[target]
    same = live_by_value.get(tcol)
    if same:
        return (same[0],)
    for j in live:
        partners = live_by_value.get(tcol ^ cols[j])
        if not partners:
            continue
        m = partners[0]
        if m == j:
            if len(partners) < 2:
                continue
            m = partners[1]
        return (j, m) if j < m else (m, j)
    return None


def easy_steps_by_value(
    cols: Sequence[int], erased: Iterable[int]
) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    """Greedy sequential easy repair by column values, without repair groups.

    Returns (steps, remaining) as ``repair.easy_steps`` does: the lowest
    erased node with a live replica or live XOR pair is repaired, joins the
    live nodes, and the scan restarts.
    """
    erased_set = set(erased)
    live = [j for j in range(len(cols)) if j not in erased_set]
    by_value: dict[int, list[int]] = {}
    for j in live:
        by_value.setdefault(cols[j], []).append(j)
    remaining = sorted(erased_set)
    steps: list[tuple[int, tuple[int, ...]]] = []
    progress = True
    while remaining and progress:
        progress = False
        for target in remaining:
            helpers = _easy_helper_by_value(cols, target, live, by_value)
            if helpers is None:
                continue
            steps.append((target, helpers))
            remaining.remove(target)
            bisect.insort(live, target)
            bisect.insort(by_value.setdefault(cols[target], []), target)
            progress = True
            break
    return tuple(steps), tuple(remaining)


def easy_closure_scalar(pairs: Sequence[Iterable[int]], erased_mask: int) -> bool:
    """Easy repair of one erasure mask over the size-<=2 group table pairs:
    an erased node is cleared once one of its groups misses the erased
    mask, until a pass clears none.  True when every node clears."""
    pending = [t for t in range(erased_mask.bit_length()) if erased_mask >> t & 1]
    while pending:
        still = []
        for t in pending:
            for g in pairs[t]:
                if not g & erased_mask:
                    erased_mask ^= 1 << t
                    break
            else:
                still.append(t)
        if len(still) == len(pending):
            return False
        pending = still
    return True


def subsets(n: int, e: int):
    """The e-subsets of range(n) in lex order, each as (bitmask, ascending
    indices)."""
    for erased in combinations(range(n), e):
        yield sum(1 << j for j in erased), erased


def sampled_subsets(n: int, e: int, seed: int, lo: int, hi: int):
    """The e-subset of range(n) drawn for each trial index in [lo, hi), by
    a fresh generator seeded with trial_seed(seed, i), each as (bitmask,
    ascending indices)."""
    for i in range(lo, hi):
        erased = tuple(sorted(random.Random(trial_seed(seed, i)).sample(range(n), e)))
        yield sum(1 << j for j in erased), erased


def sampled_coin_masks(n: int, seed: int, lo: int, hi: int) -> list[int]:
    """The mask a sampled easy sweep draws for each trial index in [lo, hi),
    each node erased with probability 1/2, by a fresh generator seeded with
    trial_seed(seed, i)."""
    return [random.Random(trial_seed(seed, i)).getrandbits(n) for i in range(lo, hi)]


def parallel_tally(table: Sequence[Sequence[int]], patterns: Iterable[tuple[int, tuple[int, ...]]]):
    """The per-pattern parallel check of each (bitmask, erased indices) in
    patterns: each erased node needs a group in its table row that misses
    every erasure.  Returns (examined, examined, repaired, the first failing
    mask, the least failing mask), as the library's chunks do."""
    examined = repaired = 0
    first = least = None
    for mask, erased in patterns:
        examined += 1
        if all(any(not g & mask for g in table[t]) for t in erased):
            repaired += 1
        elif first is None:
            first = least = mask
        else:
            least = min(least, mask)
    return examined, examined, repaired, first, least


def parallel_tally_by_pattern(table: Sequence[Sequence[int]], n: int, e: int):
    """parallel_tally of every e-subset of range(n), in lex order."""
    return parallel_tally(table, subsets(n, e))


def max_disjoint_groups_by_clique(code: LinearCode, target: int, cap: int):
    """max_disjoint_groups with the clique search alone: from the least
    upper bound, the cover's size or the projection window's bound, down to
    one more than the first-fit size, the first want that clique_of meets,
    with no cover search deciding any want.  Returns (count, witness)."""
    groups = repair._group_table(code.cols, cap)[target]
    packing, _ = repair._first_fit(groups)
    solver = repair._PackingSolver(groups)
    ub = min(len(solver.cover_verts), repair._projection_bound(code.cols, target, code.k)[0])
    for want in range(ub, len(packing), -1):
        found = solver.clique_of(want)
        if found:
            packing = [solver.masks[v] for v in repair.mask_indices(found)]
            break
    packing.sort(key=repair.mask_indices)
    return len(packing), [repair.RepairGroup(target, frozenset(repair.mask_indices(g))) for g in packing]
