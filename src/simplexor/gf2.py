"""Dense GF(2) vectors and matrices backed by Python int bitsets.

Bit packing is little-endian: bit ``i`` of the integer is coordinate ``i``
of the vector.  All values are immutable after construction, so everything
here is safe to share across threads and to use as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class GF2Error(Exception):
    """Base class for GF(2) linear algebra errors."""


class DimensionMismatch(GF2Error, ValueError):
    """Operand shapes do not line up."""


class RankZero(GF2Error, ValueError):
    """Row space is trivial where a nonzero vector was required."""


class TooLarge(GF2Error, ValueError):
    """Input exceeds the brute-force guard of the operation."""


def _mask(length: int) -> int:
    return (1 << length) - 1


@dataclass(frozen=True)
class BitVector:
    """A vector over GF(2) of fixed length."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise DimensionMismatch("negative length")
        if self.bits < 0 or self.bits >> self.length:
            raise DimensionMismatch("bits set beyond declared length")

    @classmethod
    def from_bits(cls, coords: Iterable[int]) -> BitVector:
        bits = 0
        length = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError(f"bit value {c!r} is not 0 or 1")
            bits |= c << i
            length = i + 1
        return cls(length, bits)

    @classmethod
    def zero(cls, length: int) -> BitVector:
        return cls(length, 0)

    @classmethod
    def unit(cls, length: int, index: int) -> BitVector:
        if not 0 <= index < length:
            raise DimensionMismatch("unit index out of range")
        return cls(length, 1 << index)

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise DimensionMismatch("index out of range")
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise DimensionMismatch("xor of different lengths")
        return BitVector(self.length, self.bits ^ other.bits)

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.length))

    def to_01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2), stored as one int bitset per row."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative shape")
        if len(self.row_bits) != self.rows:
            raise DimensionMismatch("row count does not match shape")
        m = _mask(self.cols)
        for r in self.row_bits:
            if r < 0 or r & ~m:
                raise DimensionMismatch("row has bits beyond declared width")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> BitMatrix:
        if not rows:
            return cls(0, 0, ())
        cols = len(rows[0])
        bits = []
        for row in rows:
            if len(row) != cols:
                raise DimensionMismatch("ragged rows")
            acc = 0
            for i, c in enumerate(row):
                if c not in (0, 1):
                    raise ValueError(f"bit value {c!r} is not 0 or 1")
                acc |= c << i
            bits.append(acc)
        return cls(len(rows), cols, tuple(bits))

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> BitMatrix:
        return cls(rows, cols, (0,) * rows)

    def bit(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DimensionMismatch("index out of range")
        return (self.row_bits[i] >> j) & 1

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_bits[i])

    def column_bits(self, j: int) -> int:
        """Column j packed as an int with bit i = entry in row i."""
        if not 0 <= j < self.cols:
            raise DimensionMismatch("column index out of range")
        acc = 0
        for i, r in enumerate(self.row_bits):
            acc |= ((r >> j) & 1) << i
        return acc

    def column(self, j: int) -> BitVector:
        return BitVector(self.rows, self.column_bits(j))

    def columns_bits(self) -> tuple[int, ...]:
        """All columns packed as ints, in index order."""
        return tuple(self.column_bits(j) for j in range(self.cols))

    def transpose(self) -> BitMatrix:
        return BitMatrix(self.cols, self.rows, self.columns_bits())

    def select_columns(self, indices: Sequence[int]) -> BitMatrix:
        """Submatrix keeping the given columns, in the given order."""
        out = []
        for r in self.row_bits:
            acc = 0
            for pos, j in enumerate(indices):
                acc |= ((r >> j) & 1) << pos
            out.append(acc)
        return BitMatrix(self.rows, len(indices), tuple(out))

    def delete_columns(self, indices: Iterable[int]) -> BitMatrix:
        drop = set(indices)
        keep = [j for j in range(self.cols) if j not in drop]
        return self.select_columns(keep)

    def mul_vec(self, u: BitVector) -> BitVector:
        """Row vector times matrix: u @ self."""
        if u.length != self.rows:
            raise DimensionMismatch("vector length does not match row count")
        acc = 0
        ub = u.bits
        for r in self.row_bits:
            if ub & 1:
                acc ^= r
            ub >>= 1
        return BitVector(self.cols, acc)

    def __matmul__(self, other: BitMatrix) -> BitMatrix:
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        out = []
        for r in self.row_bits:
            acc = 0
            rb = r
            for orow in other.row_bits:
                if rb & 1:
                    acc ^= orow
                rb >>= 1
            out.append(acc)
        return BitMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)


def hstack(mats: Sequence[BitMatrix]) -> BitMatrix:
    """Concatenate matrices left to right."""
    if not mats:
        raise DimensionMismatch("nothing to stack")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatch("row counts differ")
    out = [0] * rows
    shift = 0
    for m in mats:
        for i in range(rows):
            out[i] |= m.row_bits[i] << shift
        shift += m.cols
    return BitMatrix(rows, shift, tuple(out))


def vstack(mats: Sequence[BitMatrix]) -> BitMatrix:
    """Concatenate matrices top to bottom."""
    if not mats:
        raise DimensionMismatch("nothing to stack")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatch("column counts differ")
    bits: list[int] = []
    for m in mats:
        bits.extend(m.row_bits)
    return BitMatrix(len(bits), cols, tuple(bits))


def rank_of_rows(row_bits: Iterable[int]) -> int:
    """Rank of a collection of int-packed rows over GF(2)."""
    pivots: list[int] = []
    count = 0
    for v in row_bits:
        for p in pivots:
            v = min(v, v ^ p)
        if v:
            pivots.append(v)
            pivots.sort(reverse=True)
            count += 1
    return count


def rank(m: BitMatrix) -> int:
    """Dimension of the row space over GF(2)."""
    return rank_of_rows(m.row_bits)


def is_right_invertible(m: BitMatrix) -> bool:
    """True iff the rows of m are linearly independent (rank = rows)."""
    return rank(m) == m.rows


def reduce_rows(rows: list[int], width: int) -> list[int]:
    """Gauss-Jordan elimination of int-packed rows, in place, over columns
    0..width-1; bits at width and above ride along unreduced.

    Returns the pivot columns in ascending order: afterwards row i has its
    leading bit at pivots[i], every other row is zero in that column, and
    the rows past the last pivot are zero below width.
    """
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        bit = 1 << c
        piv = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= p
        pivots.append(c)
    return pivots


def solve_right(m: BitMatrix, target: BitVector) -> BitVector | None:
    """Solve u @ m = target for u; None when no solution exists.

    When the solution is not unique, the free variables of the
    reduced-row-echelon system (leftmost-pivot preference) are set to
    zero, so the returned u is deterministic.
    """
    if target.length != m.cols:
        raise DimensionMismatch("target length does not match column count")
    k = m.rows
    # Row j of the transposed system is column j of m, augmented with the
    # target bit at position k.
    aug = [m.column_bits(j) | (target.bit(j) << k) for j in range(m.cols)]
    pivots = reduce_rows(aug, k)
    if any(aug[len(pivots):]):
        return None
    x = 0
    for i, c in enumerate(pivots):
        if (aug[i] >> k) & 1:
            x |= 1 << c
    return BitVector(k, x)


def min_weight_nonzero_rowspan(m: BitMatrix, guard: int = 24) -> int:
    """Minimum Hamming weight over the nonzero vectors of the row space.

    Brute force over all 2^rows - 1 row combinations via a Gray-code walk;
    guarded so the sweep stays at desk scale.
    """
    if m.rows > guard:
        raise TooLarge(f"{m.rows} rows exceeds the {guard}-row brute-force guard")
    if rank(m) == 0:
        raise RankZero("row space is trivial")
    rows = m.row_bits
    acc = 0
    best = m.cols + 1
    for i in range(1, 1 << m.rows):
        acc ^= rows[(i & -i).bit_length() - 1]
        w = acc.bit_count()
        if w and w < best:
            best = w
            if best == 1:
                break
    return best


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


def format_matrix(m: BitMatrix) -> str:
    """Text form: a "rows cols" header line, then one 0/1 line per row."""
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(m.row(i).to_01())
    return "\n".join(lines)


def parse_matrix(text: str) -> BitMatrix:
    """Inverse of format_matrix."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'rows cols'")
    rows, cols = int(head[0]), int(head[1])
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} row lines, found {len(lines) - 1}")
    bits = []
    for ln in lines[1:]:
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"bad row line {ln!r}")
        bits.append(int(ln[::-1], 2) if ln else 0)
    return BitMatrix(rows, cols, tuple(bits))
