"""Construction of the XOR-repair code families.

All constructions are deterministic: column orders are fixed so that the
same parameters always produce the bit-identical generator matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Iterator

from .gf2 import BitMatrix, rank, transpose

SIMPLEX_MAX_K = 20
UM_MAX_BASE_K = 10
# n * k of simplex:20: no code id names a larger generator
MAX_GENERATOR_BITS = SIMPLEX_MAX_K * ((1 << SIMPLEX_MAX_K) - 1)

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

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """The generator's columns as ints; not a field.  A code from _make
        carries the list it was built from, one made by hand transposes once."""
        return self.generator.columns_bits()


def _kron_columns(outer: list[int], inner: list[int], k_inner: int) -> list[int]:
    """Columns of outer ⊗ inner, outer-major: outer column p and inner column
    c give c in each k_inner-row block i with bit i of p set, zeros elsewhere,
    which is c times p spread to one bit per block, as c < 2^k_inner."""
    spreads = [sum(1 << k_inner * i for i in range(p.bit_length()) if p >> i & 1) for p in outer]
    return [c * m for m in spreads for c in inner]


def simplex_columns(k: int) -> list[int]:
    """All 2^k - 1 nonzero vectors of GF(2)^k, Hamming weight ascending, ties
    broken by column value (row 0 = most significant bit) descending, which
    is the lex order of the supports: the first k are the unit vectors."""
    _simplex_length(k)
    units = [1 << i for i in range(k)]
    return [sum(map(units.__getitem__, support))
            for w in range(1, k + 1) for support in combinations(range(k), w)]


def simplex_parity_rows(k: int) -> Iterator[int]:
    """The rows of the (n-k) x n parity check [P^T | I_{n-k}] of the simplex
    code [I_k | P], made one at a time from the simplex columns: row t is
    column k + t plus bit k + t."""
    for t, pc in enumerate(simplex_columns(k)[k:]):
        yield pc | 1 << (k + t)


def _c1_columns(k: int) -> list[int]:
    # the unit columns, then each weight-2 column {i, j}, i < j, in lex order
    if not 2 <= k <= SIMPLEX_MAX_K:
        raise InvalidDimension(f"c1 dimension {k} outside 2..{SIMPLEX_MAX_K}")
    return [1 << i for i in range(k)] + [1 << i | 1 << j for i in range(k) for j in range(i + 1, k)]


def _chain_columns(k: int) -> list[int]:
    # e1, e1, e1+e2, e2, e2+e3, e3, ..., e_{k-1}+e_k, e_k, e_k
    cols = [1, 1]
    for i in range(k - 1):
        cols.append((1 << i) | (1 << (i + 1)))
        cols.append(1 << (i + 1))
    cols.append(1 << (k - 1))
    return cols


def _make(code_id: str, family: str, cols: list[int], k: int, **params) -> LinearCode:
    """The code whose generator has these columns; it carries them as its cols."""
    generator = BitMatrix(k, len(cols), transpose(cols, k))
    if rank(generator) != k:
        raise InvalidDimension(f"{code_id}: generator is not full row rank")
    code = LinearCode(code_id, family, k, len(cols), generator, **params)
    code.__dict__["cols"] = tuple(cols)
    return code


def simplex_code(k: int) -> LinearCode:
    return _make(f"simplex:{k}", "simplex", simplex_columns(k), k)


def c1_code(k: int) -> LinearCode:
    """Columns [I_k | W], W every weight-2 column; a (k(k+1)/2, k) code."""
    return _make(f"c1:{k}", "c1", _c1_columns(k), k)


def c2_code(k: int) -> LinearCode:
    """Columns (e1, e1, e1+e2, e2, e2+e3, ..., e_k, e_k); a (2k+1, k) code."""
    if k < 2:
        raise InvalidDimension("c2 needs k >= 2")
    return _make(f"c2:{k}", "c2", _chain_columns(k), k)


def um_block_code(base_k: int, s: int) -> LinearCode:
    """The unit-memory code with taps g0 = [G G], g1 = [G 0] over the simplex
    G, unrolled over s + 1 message blocks: block row t holds g0 at column
    block t and g1 at block t + 1, so c_t = u_t @ g0 + u_{t-1} @ g1.  Cut
    into half blocks that is the chain pattern of s + 1 rows plus a zero
    column, tensored with G."""
    if not 1 <= base_k <= UM_MAX_BASE_K:
        raise InvalidDimension(f"um base dimension {base_k} outside 1..{UM_MAX_BASE_K}")
    if s < 0:
        raise InvalidDimension("horizon must be nonnegative")
    cols = _kron_columns(_chain_columns(s + 1) + [0], simplex_columns(base_k), base_k)
    return _make(f"um:{base_k}:{s}", "um", cols, (s + 1) * base_k, s=s, base_k=base_k)


def c0_repeat_code(k: int, x: int) -> LinearCode:
    """x block-diagonal copies of the (k/x)-dimensional simplex code."""
    base = _repeat_base(k, x)
    cols = _kron_columns([1 << i for i in range(x)], simplex_columns(base), base)
    return _make(f"c0:{k}:{x}", "c0x", cols, k, x=x, base_k=base)


def c1_repeat_code(k: int, x: int) -> LinearCode:
    """x block-diagonal copies of the (k/x)-dimensional weight-2 code."""
    base = _repeat_base(k, x)
    cols = _kron_columns([1 << i for i in range(x)], _c1_columns(base), base)
    return _make(f"c1:{k}:{x}", "c1x", cols, k, x=x, base_k=base)


def tensor_um_code(k: int, x: int) -> LinearCode:
    """The (2x+1)(2^(k/x)-1)-length tensor of the chain pattern with a simplex."""
    base = _repeat_base(k, x)
    cols = _kron_columns(_chain_columns(x), simplex_columns(base), base)
    return _make(f"umx:{k}:{x}", "umx", cols, k, x=x, base_k=base)


def um2prime_code() -> LinearCode:
    """The 4x9 generator (G G 0; 0 G G) over the 2-dimensional simplex G."""
    cols = _kron_columns([0b01, 0b11, 0b10], simplex_columns(2), 2)
    return _make("um2p4", "um2p4", cols, 4, x=2, base_k=2)


def _repeat_base(k: int, x: int) -> int:
    if x < 1 or k < 1 or k % x:
        raise InvalidDimension(f"x={x} must divide k={k}")
    return k // x


def _simplex_length(k: int) -> int:
    """2^k - 1, the length of simplex:k, for k in 1..SIMPLEX_MAX_K."""
    if not 1 <= k <= SIMPLEX_MAX_K:
        raise InvalidDimension(f"simplex dimension {k} outside 1..{SIMPLEX_MAX_K}")
    return (1 << k) - 1


def _parse(code_id: str) -> tuple[Callable[..., LinearCode], list[int], int, int]:
    """A code id's builder and parameters, and the n and k of the generator
    it names by its family's formula, with nothing built.  The parameters
    that set a power of two are range-checked here, the builder checks the
    rest; a generator of more than MAX_GENERATOR_BITS bits is refused."""
    name, *args = code_id.strip().split(":")
    try:
        nums = [int(a) for a in args]
    except ValueError as exc:
        raise InvalidCodeId(f"non-integer parameter in {code_id!r}") from exc
    try:
        match name, nums:
            case "simplex", [k]:
                build, n = simplex_code, _simplex_length(k)
            case "c1", [k]:
                build, n = c1_code, k * (k + 1) // 2
            case "c2", [k]:
                build, n = c2_code, 2 * k + 1
            case "um", [base, s]:
                build, n, k = um_block_code, (s + 2) * 2 * _simplex_length(base), (s + 1) * base
            case "c0", [k, x]:
                build, n = c0_repeat_code, x * _simplex_length(_repeat_base(k, x))
            case "c1", [k, x]:
                base = _repeat_base(k, x)
                build, n = c1_repeat_code, x * base * (base + 1) // 2
            case "umx", [k, x]:
                build, n = tensor_um_code, (2 * x + 1) * _simplex_length(_repeat_base(k, x))
            case "um2p4", []:
                build, n, k = um2prime_code, 9, 4
            case _:
                raise InvalidCodeId(f"unrecognized code id {code_id!r}")
    except InvalidDimension as exc:
        raise InvalidCodeId(f"{code_id!r}: {exc}") from exc
    if min(nums, default=0) < 0:
        raise InvalidCodeId(f"{code_id!r}: negative parameter")
    if n * k > MAX_GENERATOR_BITS:
        raise InvalidCodeId(
            f"{code_id!r}: its {k} x {n} generator passes the {MAX_GENERATOR_BITS}-bit bound")
    return build, nums, n, k


@lru_cache(maxsize=256)
def code_shape(code_id: str) -> tuple[int, int]:
    """(n, k) of the generator a code id names, with nothing built."""
    _, _, n, k = _parse(code_id)
    return n, k


def parse_code_id(code_id: str) -> LinearCode:
    """Resolve a CLI code id to a LinearCode, its size checked first.

    Grammar: simplex:k | c1:k | c2:k | um:k:s | c0:k:x | c1:k:x |
    umx:k:x | um2p4.
    """
    build, nums, _, _ = _parse(code_id)
    try:
        return build(*nums)
    except InvalidDimension as exc:
        raise InvalidCodeId(f"{code_id!r}: {exc}") from exc
