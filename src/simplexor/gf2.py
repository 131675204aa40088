"""Dense GF(2) matrices backed by Python int bitsets.

Bit packing is little-endian: bit ``i`` of a row's integer is the entry in
column ``i``.  Matrices are immutable after construction, so everything
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

    def columns_bits(self) -> tuple[int, ...]:
        """All columns packed as ints (bit i = entry in row i), in index order."""
        return transpose(self.row_bits, self.cols)


def transpose(vectors: Sequence[int], width: int) -> tuple[int, ...]:
    """The ``width`` ints whose bit i is bit j of ``vectors[i]``, for vectors
    in 0..2^width - 1: a matrix's rows from its columns, or its columns from
    its rows.

    The vectors are written once, last to first and each most significant
    bit first, as one string; every width-th character from an offset then
    spells one result in binary, so the cost is linear in the bits.
    """
    if not width or not vectors:  # a zero width would format as "0"
        return (0,) * width
    text = "".join([f"{v:0{width}b}" for v in reversed(vectors)])
    if len(text) != width * len(vectors):
        raise DimensionMismatch("vector has bits beyond the width")
    return tuple(int(text[i::width], 2) for i in range(width - 1, -1, -1))


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


def rank(m: BitMatrix) -> int:
    """Dimension of the row space over GF(2)."""
    return len(reduce_rows(list(m.row_bits), m.cols))


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


def format_matrix(rows: int, cols: int, row_bits: Iterable[int]) -> Iterator[str]:
    """Text form, line by line: a "rows cols" header, then one 0/1 line per
    row, each made as it is read from row_bits."""
    yield f"{rows} {cols}"
    for r in row_bits:
        # bit 0 first; [:cols] because a zero width formats as "0"
        yield f"{r:0{cols}b}"[::-1][:cols]
