import hashlib
import random

import pytest
from hypothesis import example, given, strategies as st

from simplexor.codes import (
    InvalidCodeId,
    InvalidDimension,
    _kron_columns,
    c0_repeat_code,
    c1_code,
    c1_repeat_code,
    c2_code,
    code_shape,
    parse_code_id,
    simplex_code,
    tensor_um_code,
    um2prime_code,
    um_block_code,
)
from oracles import (
    codeword,
    kron_by_bits,
    select_columns,
    simplex_parity_check,
    transpose_by_bits,
    um_staircase,
    um_taps,
    weight2_matrix,
)
from simplexor.gf2 import BitMatrix, rank

SIMPLEX3_G = BitMatrix.from_rows(
    [
        [1, 0, 0, 1, 1, 0, 1],
        [0, 1, 0, 1, 0, 1, 1],
        [0, 0, 1, 0, 1, 1, 1],
    ]
)
SIMPLEX3_H = BitMatrix.from_rows(
    [
        [1, 1, 0, 1, 0, 0, 0],
        [1, 0, 1, 0, 1, 0, 0],
        [0, 1, 1, 0, 0, 1, 0],
        [1, 1, 1, 0, 0, 0, 1],
    ]
)


def test_simplex3_generator_is_bit_exact():
    assert simplex_code(3).generator == SIMPLEX3_G


def test_simplex3_parity_check_is_bit_exact():
    assert simplex_parity_check(3) == SIMPLEX3_H


def test_simplex_small_dimensions():
    assert simplex_code(1).generator == BitMatrix.from_rows([[1]])
    assert simplex_code(2).generator == BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert simplex_parity_check(1) == BitMatrix(0, 1, ())


@pytest.mark.parametrize("k", range(1, 7))
def test_parity_check_annihilates_generator(k):
    g = simplex_code(k).generator
    h = simplex_parity_check(k)
    # every parity check is orthogonal to every generator row
    assert all((hr & gr).bit_count() % 2 == 0 for hr in h.row_bits for gr in g.row_bits)
    assert rank(h) == g.cols - k


def _column_value(col_bits: int, k: int) -> int:
    """Integer value of a column with row 0 as the most significant bit."""
    v = 0
    for i in range(k):
        v = (v << 1) | ((col_bits >> i) & 1)
    return v


@pytest.mark.parametrize("k", range(1, 13))
def test_simplex_columns_follow_the_documented_order(k):
    # weight ascending, then value with row 0 most significant descending
    order = sorted(range(1, 1 << k), key=lambda c: (c.bit_count(), -_column_value(c, k)))
    assert simplex_code(k).generator.columns_bits() == tuple(order)


# sha256 over the reprs of the generator rows of these ids, then of the rows
# of simplex_parity_check(1..9); the digest was taken with the generators
# built column by column and sorted on the column values
PINNED_ROWS_IDS = (
    "simplex:1", "simplex:4", "simplex:9", "c1:2", "c1:7", "c2:2", "c2:9", "um:1:0",
    "um:2:3", "um:3:2", "c0:4:1", "c0:6:2", "c1:6:2", "c1:9:3", "umx:6:3", "umx:4:4",
    "umx:8:2", "um2p4",
)
PINNED_ROWS_DIGEST = "39a44167667fe4878a089516c1f1890f76607ae30037533f62d7cd9b14739269"


def test_generator_rows_are_pinned():
    h = hashlib.sha256()
    for code_id in PINNED_ROWS_IDS:
        h.update(repr(parse_code_id(code_id).generator.row_bits).encode())
    for k in range(1, 10):
        h.update(repr(simplex_parity_check(k).row_bits).encode())
    assert h.hexdigest() == PINNED_ROWS_DIGEST


def test_code_cols_are_the_generator_columns_made_once():
    for code_id in PINNED_ROWS_IDS:
        code = parse_code_id(code_id)
        assert code.cols == code.generator.columns_bits()
        assert code.cols is code.cols
        # not a field: equality and hash ignore it
        assert code == parse_code_id(code_id)
        assert hash(code) == hash(parse_code_id(code_id))


@pytest.mark.parametrize("k", range(2, 6))
def test_simplex_column_closure(k):
    cols = set(simplex_code(k).generator.columns_bits())
    for a in cols:
        for b in cols:
            if a != b:
                assert a ^ b in cols


def test_c1_of_dimension_two_is_the_two_dimensional_simplex():
    assert c1_code(2).generator == simplex_code(2).generator


def test_c1_shapes():
    g = c1_code(4).generator
    assert (g.rows, g.cols) == (4, 10)
    for k in range(2, 11):
        assert c1_code(k).generator.cols == k + k * (k - 1) // 2


@pytest.mark.parametrize("k", range(3, 7))
def test_weight2_matrix_recursion(k):
    # c1's columns after its k unit columns, as the oracle's: first the pairs
    # containing row 0, row 0 plus each unit vector below; then those of
    # c1 one dimension smaller, one row down
    inner = c1_code(k - 1).generator.columns_bits()[k - 1:]
    expected = tuple(1 | 1 << j for j in range(1, k)) + tuple(c << 1 for c in inner)
    assert c1_code(k).generator.columns_bits()[k:] == expected
    assert weight2_matrix(k).columns_bits() == expected


def test_c2_of_dimension_two():
    expected = BitMatrix.from_rows([[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]])
    assert c2_code(2).generator == expected


def test_c2_shapes_and_column_weights():
    g = c2_code(4).generator
    assert (g.rows, g.cols) == (4, 9)
    weights = [col.bit_count() for col in g.columns_bits()]
    assert weights == [1, 1, 2, 1, 2, 1, 2, 1, 1]
    with pytest.raises(InvalidDimension):
        c2_code(1)


def test_um_simplex_taps():
    g0, g1 = um_taps(2)
    g = simplex_code(2).generator.columns_bits()
    assert len(g0) == len(g1) == 6
    assert tuple(g0) == g * 2
    assert tuple(g1) == g + (0,) * 3
    assert len(um_taps(3)[0]) == 14
    assert um_block_code(3, 0).n == 2 * 14


@pytest.mark.parametrize("s", range(7))
@pytest.mark.parametrize("base_k", range(1, 5))
def test_um_block_code_is_the_staircase_of_its_taps(base_k, s):
    assert um_block_code(base_k, s).generator == um_staircase(base_k, s)


def test_sliding_generator_horizon_zero_is_the_tap_pair():
    g0, g1 = um_taps(2)
    total = um_block_code(2, 0).generator
    assert total.rows == 2
    assert total.columns_bits() == tuple(g0 + g1)


def test_sliding_generator_staircase():
    total = um_block_code(2, 1).generator
    assert (total.rows, total.cols) == (4, 18)
    g = simplex_code(2).generator.columns_bits()
    # column blocks (G;0) (G;0) (G;G) (0;G) (0;G) (0;0)
    expected = g * 2 + tuple(c | c << 2 for c in g) + tuple(c << 2 for c in g) * 2 + (0,) * 3
    assert total.columns_bits() == expected
    assert all(total.columns_bits()[j] == 0 for j in range(15, 18))


def test_sliding_generator_matches_per_time_convolution():
    base_k, s = 3, 3
    g0, g1 = (BitMatrix(base_k, len(t), transpose_by_bits(t, base_k)) for t in um_taps(base_k))
    n_block = g0.cols
    total = um_block_code(base_k, s).generator
    rng = random.Random(99)
    for _ in range(10):
        blocks = [rng.getrandbits(base_k) for _ in range(s + 1)]
        u_total = sum(blk << (t * base_k) for t, blk in enumerate(blocks))
        c_total = codeword(total, u_total)
        for t in range(s + 2):
            u_now = blocks[t] if t <= s else 0
            u_prev = blocks[t - 1] if 0 <= t - 1 <= s else 0
            expect = codeword(g0, u_now) ^ codeword(g1, u_prev)
            got = (c_total >> (t * n_block)) & ((1 << n_block) - 1)
            assert got == expect


@st.composite
def column_matrices(draw):
    # 0-3 rows and up to 4 columns, drawn by column so that zero columns come up
    rows = draw(st.integers(0, 3))
    cols = draw(st.lists(st.one_of(st.just(0), st.integers(0, (1 << rows) - 1)), max_size=4))
    return BitMatrix(rows, len(cols), transpose_by_bits(cols, rows))


@given(column_matrices(), column_matrices())
@example(BitMatrix(0, 2, ()), BitMatrix(2, 3, (0b011, 0b110)))
@example(BitMatrix(2, 3, (0b011, 0b110)), BitMatrix(2, 2, (0b01, 0b00)))
def test_kron_columns_match_the_bit_by_bit_product(outer, inner):
    cols = _kron_columns(list(outer.columns_bits()), list(inner.columns_bits()), inner.rows)
    assert tuple(cols) == kron_by_bits(outer, inner).columns_bits()


@pytest.mark.parametrize("x,base", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
def test_tensor_chain_equals_sliding_matrix_without_zero_block(x, base):
    total = um_block_code(base, x - 1).generator
    half = (1 << base) - 1
    trimmed = select_columns(total, range(total.cols - half))
    assert tensor_um_code(x * base, x).generator == trimmed


def test_block_diag_repeat_basics():
    assert c0_repeat_code(3, 1).generator == simplex_code(3).generator
    rep = c0_repeat_code(6, 2).generator
    assert (rep.rows, rep.cols) == (6, 14)
    assert rank(rep) == 6


def test_um2prime_generator():
    g = um2prime_code().generator
    assert (g.rows, g.cols) == (4, 9)
    assert rank(g) == 4


@pytest.mark.parametrize(
    "code_id,k,n",
    [
        ("simplex:3", 3, 7),
        ("c1:4", 4, 10),
        ("c2:4", 4, 9),
        ("um:2:3", 8, 30),
        ("c0:6:2", 6, 14),
        ("c1:6:2", 6, 12),
        ("umx:6:3", 6, 21),
        ("um2p4", 4, 9),
    ],
)
def test_parse_code_id(code_id, k, n):
    code = parse_code_id(code_id)
    assert (code.code_id, code.k, code.n) == (code_id, k, n)
    assert rank(code.generator) == k


@pytest.mark.parametrize(
    "bad", ["foo:3", "c1:x", "um:2", "simplex:0", "simplex", "c0:5:2", "um2p4:1",
            "c2:-5", "um:2:-1", "c2:100000", "um:2:1000000"]
)
def test_parse_code_id_rejects(bad):
    with pytest.raises(InvalidCodeId):
        parse_code_id(bad)


def _small_code_ids():
    yield "um2p4"
    for a in range(-1, 9):
        yield from (f"simplex:{a}", f"c1:{a}", f"c2:{a}")
        for b in range(-1, 9):
            yield from (f"um:{a}:{b}", f"c0:{a}:{b}", f"c1:{a}:{b}", f"umx:{a}:{b}")


def test_code_shape_is_the_shape_of_every_code_that_builds():
    built = 0
    for code_id in _small_code_ids():
        try:
            code = parse_code_id(code_id)
        except InvalidCodeId:
            continue
        assert code_shape(code_id) == (code.n, code.generator.rows), code_id
        built += 1
    assert built > 100


def test_the_size_bound_admits_simplex_20_and_nothing_larger():
    # n * k of simplex:20 is the bound; nothing here is built
    assert code_shape("simplex:20") == ((1 << 20) - 1, 20)
    assert code_shape("um:10:30") == (65472, 310)
    assert code_shape("c2:3237") == (6475, 3237)
    for code_id in ("c2:3238", "um:10:31", "umx:60:3", "c0:40:2", "um:1:3237"):
        with pytest.raises(InvalidCodeId, match="bound"):
            code_shape(code_id)


def test_um_block_code_dimensions():
    code = um_block_code(2, 2)
    assert (code.k, code.n) == (6, 24)
    assert (code.base_k, code.s) == (2, 2)


def test_tensor_um_is_chain_for_full_divisor():
    # with x = k the inner simplex is trivial and the chain itself remains
    assert tensor_um_code(4, 4).generator == c2_code(4).generator


@pytest.mark.parametrize(
    "factory",
    [
        lambda: simplex_code(4),
        lambda: c1_code(5),
        lambda: c2_code(6),
        lambda: um_block_code(2, 3),
        lambda: c0_repeat_code(6, 2),
        lambda: c1_repeat_code(6, 2),
        lambda: tensor_um_code(6, 2),
        lambda: um2prime_code(),
    ],
)
def test_generators_are_full_row_rank(factory):
    code = factory()
    assert rank(code.generator) == code.k
