"""Construction of the XOR-repair code families.

All constructions are deterministic: column orders are fixed so that the
same parameters always produce the bit-identical generator matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitMatrix, hstack, rank

SIMPLEX_MAX_K = 20
UM_MAX_BASE_K = 10

# Families proved to repair every correctable pattern with XORs of at most
# two live nodes; repair failures on these flag a broken invariant.
EASY_REPAIR_FAMILIES = frozenset({"simplex", "c1", "c2", "um"})


class InvalidDimension(ValueError):
    """Requested code parameters are out of the supported range."""


class InvalidCodeId(ValueError):
    """A code id string does not parse."""


@dataclass(frozen=True)
class LinearCode:
    """A concrete code instance: generator plus family bookkeeping.

    ``code_id`` is the canonical CLI identifier (e.g. ``simplex:3`` or
    ``um:2:3``).  ``base_k`` is the dimension of the inner simplex code for
    the convolutional and tensor families; ``x`` is the repeat/divisor
    count; ``s`` the message-block horizon of an unrolled UM code.
    """

    code_id: str
    family: str
    k: int
    n: int
    generator: BitMatrix
    x: int | None = None
    s: int | None = None
    base_k: int | None = None


@dataclass(frozen=True)
class ConvCode:
    """A unit-memory convolutional code, stored as its two block taps.

    Encoding rule per time step: c_t = u_t @ g0 + u_{t-1} @ g1.
    """

    k: int
    n_block: int
    g0: BitMatrix
    g1: BitMatrix

    def __post_init__(self) -> None:
        if self.g0.rows != self.k or self.g1.rows != self.k:
            raise InvalidDimension("tap row counts must equal k")
        if self.g0.cols != self.n_block or self.g1.cols != self.n_block:
            raise InvalidDimension("tap widths must equal n_block")
        if self.g1.is_zero():
            raise InvalidDimension("g1 = 0 would make the memory zero")


def _column_value(col_bits: int, k: int) -> int:
    """Integer value of a column with row 0 as the most significant bit."""
    v = 0
    for i in range(k):
        v = (v << 1) | ((col_bits >> i) & 1)
    return v


def _matrix_from_columns(cols: list[int], k: int) -> BitMatrix:
    rows = [0] * k
    for j, c in enumerate(cols):
        for i in range(k):
            if (c >> i) & 1:
                rows[i] |= 1 << j
    return BitMatrix(k, len(cols), tuple(rows))


def simplex_generator(k: int) -> BitMatrix:
    """Generator whose columns are all 2^k - 1 nonzero vectors of GF(2)^k.

    Column order: Hamming weight ascending, ties broken by column value
    (row 0 = most significant bit) descending.  The first k columns are
    therefore the unit vectors e_1..e_k.
    """
    if not 1 <= k <= SIMPLEX_MAX_K:
        raise InvalidDimension(f"simplex dimension {k} outside 1..{SIMPLEX_MAX_K}")
    cols = sorted(range(1, 1 << k), key=lambda c: (c.bit_count(), -_column_value(c, k)))
    return _matrix_from_columns(cols, k)


def simplex_parity_check(k: int) -> BitMatrix:
    """(n-k) x n parity check for the simplex code, identity on the right.

    The canonical simplex generator is [I_k | P], so H = [P^T | I_{n-k}]
    and H @ G^T = 0.
    """
    if not 1 <= k <= SIMPLEX_MAX_K:
        raise InvalidDimension(f"simplex dimension {k} outside 1..{SIMPLEX_MAX_K}")
    g = simplex_generator(k)
    n = g.cols
    if n == k:
        return BitMatrix(0, n, ())
    p_cols = [g.column_bits(j) for j in range(k, n)]
    rows = []
    for t, pc in enumerate(p_cols):
        rows.append(pc | (1 << (k + t)))
    return BitMatrix(n - k, n, tuple(rows))


def weight2_matrix(k: int) -> BitMatrix:
    """The k x k(k-1)/2 matrix whose columns are all weight-2 vectors.

    Columns with support {i, j}, i < j, ordered lexicographically by
    (i, j): all pairs containing row 0 first, then row 1, and so on.
    """
    if k < 2:
        raise InvalidDimension("weight-2 columns need k >= 2")
    cols = [(1 << i) | (1 << j) for i in range(k) for j in range(i + 1, k)]
    return _matrix_from_columns(cols, k)


def c1_generator(k: int) -> BitMatrix:
    """Generator [I_k | W] with W the weight-2 column matrix; a
    (k(k+1)/2, k) code."""
    if not 2 <= k <= SIMPLEX_MAX_K:
        raise InvalidDimension(f"c1 dimension {k} outside 2..{SIMPLEX_MAX_K}")
    return hstack([BitMatrix.identity(k), weight2_matrix(k)])


def _chain_columns(k: int) -> list[int]:
    # e1, e1, e1+e2, e2, e2+e3, e3, ..., e_{k-1}+e_k, e_k, e_k
    cols = [1, 1]
    for i in range(k - 1):
        cols.append((1 << i) | (1 << (i + 1)))
        cols.append(1 << (i + 1))
    cols.append(1 << (k - 1))
    return cols


def chain_pattern_matrix(k: int) -> BitMatrix:
    """The k x (2k+1) chain of unit and adjacent-sum columns."""
    if k < 1:
        raise InvalidDimension("chain pattern needs k >= 1")
    return _matrix_from_columns(_chain_columns(k), k)


def c2_generator(k: int) -> BitMatrix:
    """Generator (e1, e1, e1+e2, e2, e2+e3, ..., e_k, e_k); a (2k+1, k) code."""
    if k < 2:
        raise InvalidDimension("c2 needs k >= 2")
    return chain_pattern_matrix(k)


def um_simplex(base_k: int) -> ConvCode:
    """Unit-memory code with taps g0 = [G G], g1 = [G 0] over a simplex G."""
    if not 1 <= base_k <= UM_MAX_BASE_K:
        raise InvalidDimension(f"um base dimension {base_k} outside 1..{UM_MAX_BASE_K}")
    g = simplex_generator(base_k)
    zero = BitMatrix.zero(base_k, g.cols)
    return ConvCode(base_k, 2 * g.cols, hstack([g, g]), hstack([g, zero]))


def sliding_generator(c: ConvCode, s: int) -> BitMatrix:
    """Banded (s+1)k x (s+2)n_block matrix unrolling s+1 message blocks.

    Block row t carries g0 at column block t and g1 at column block t+1,
    so u_total @ result reproduces c_t = u_t @ g0 + u_{t-1} @ g1.
    """
    if s < 0:
        raise InvalidDimension("horizon must be nonnegative")
    nb = c.n_block
    cols = (s + 2) * nb
    rows = []
    for t in range(s + 1):
        for r in range(c.k):
            rows.append((c.g0.row_bits[r] << (t * nb)) | (c.g1.row_bits[r] << ((t + 1) * nb)))
    return BitMatrix((s + 1) * c.k, cols, tuple(rows))


def tensor_expand(outer: BitMatrix, inner: BitMatrix) -> BitMatrix:
    """Replace every 1 of outer by inner and every 0 by a zero block."""
    rows = []
    for bi in range(outer.rows):
        orow = outer.row_bits[bi]
        for r in range(inner.rows):
            acc = 0
            ob = orow
            j = 0
            while ob:
                if ob & 1:
                    acc |= inner.row_bits[r] << (j * inner.cols)
                ob >>= 1
                j += 1
            rows.append(acc)
    return BitMatrix(outer.rows * inner.rows, outer.cols * inner.cols, tuple(rows))


def block_diag_repeat(inner: BitMatrix, x: int) -> BitMatrix:
    """Block diagonal with x copies of inner."""
    if x < 1:
        raise InvalidDimension("repeat count must be >= 1")
    return tensor_expand(BitMatrix.identity(x), inner)


def um2prime_generator() -> BitMatrix:
    """The 4x9 generator (G G 0; 0 G G) over the 2-dimensional simplex G."""
    outer = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    return tensor_expand(outer, simplex_generator(2))


def _make(code_id: str, family: str, generator: BitMatrix, **params) -> LinearCode:
    if rank(generator) != generator.rows:
        raise InvalidDimension(f"{code_id}: generator is not full row rank")
    return LinearCode(
        code_id=code_id,
        family=family,
        k=generator.rows,
        n=generator.cols,
        generator=generator,
        **params,
    )


def simplex_code(k: int) -> LinearCode:
    return _make(f"simplex:{k}", "simplex", simplex_generator(k))


def c1_code(k: int) -> LinearCode:
    return _make(f"c1:{k}", "c1", c1_generator(k))


def c2_code(k: int) -> LinearCode:
    return _make(f"c2:{k}", "c2", c2_generator(k))


def um_block_code(base_k: int, s: int) -> LinearCode:
    """The block code of a UM simplex code unrolled over horizon s."""
    conv = um_simplex(base_k)
    gen = sliding_generator(conv, s)
    return _make(f"um:{base_k}:{s}", "um", gen, s=s, base_k=base_k)


def c0_repeat_code(k: int, x: int) -> LinearCode:
    """x block-diagonal copies of the (k/x)-dimensional simplex code."""
    base = _repeat_base(k, x)
    gen = block_diag_repeat(simplex_generator(base), x)
    return _make(f"c0:{k}:{x}", "c0x", gen, x=x, base_k=base)


def c1_repeat_code(k: int, x: int) -> LinearCode:
    """x block-diagonal copies of the (k/x)-dimensional weight-2 code."""
    base = _repeat_base(k, x)
    if base < 2:
        raise InvalidDimension("c1 repeat needs k/x >= 2")
    gen = block_diag_repeat(c1_generator(base), x)
    return _make(f"c1:{k}:{x}", "c1x", gen, x=x, base_k=base)


def tensor_um_code(k: int, x: int) -> LinearCode:
    """The (2x+1)(2^(k/x)-1)-length tensor of the chain pattern with a simplex."""
    base = _repeat_base(k, x)
    gen = tensor_expand(chain_pattern_matrix(x), simplex_generator(base))
    return _make(f"umx:{k}:{x}", "umx", gen, x=x, base_k=base)


def um2prime_code() -> LinearCode:
    return _make("um2p4", "um2p4", um2prime_generator(), x=2, base_k=2)


def _repeat_base(k: int, x: int) -> int:
    if x < 1 or k < 1 or k % x:
        raise InvalidDimension(f"x={x} must divide k={k}")
    return k // x


def parse_code_id(code_id: str) -> LinearCode:
    """Resolve a CLI code id to a LinearCode.

    Grammar: simplex:k | c1:k | c2:k | um:k:s | c0:k:x | c1:k:x |
    umx:k:x | um2p4.
    """
    parts = code_id.strip().split(":")
    name, args = parts[0], parts[1:]
    try:
        nums = [int(a) for a in args]
    except ValueError as exc:
        raise InvalidCodeId(f"non-integer parameter in {code_id!r}") from exc
    try:
        if name == "simplex" and len(nums) == 1:
            return simplex_code(nums[0])
        if name == "c1" and len(nums) == 1:
            return c1_code(nums[0])
        if name == "c2" and len(nums) == 1:
            return c2_code(nums[0])
        if name == "um" and len(nums) == 2:
            return um_block_code(nums[0], nums[1])
        if name == "c0" and len(nums) == 2:
            return c0_repeat_code(nums[0], nums[1])
        if name == "c1" and len(nums) == 2:
            return c1_repeat_code(nums[0], nums[1])
        if name == "umx" and len(nums) == 2:
            return tensor_um_code(nums[0], nums[1])
        if name == "um2p4" and not nums:
            return um2prime_code()
    except InvalidDimension as exc:
        raise InvalidCodeId(f"{code_id!r}: {exc}") from exc
    raise InvalidCodeId(f"unrecognized code id {code_id!r}")
