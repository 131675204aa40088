import random

import pytest
from hypothesis import example, given, strategies as st

from oracles import codeword, nullspace, select_columns, solve_right, transpose_by_bits, weight2_matrix
from simplexor.codes import simplex_code
from simplexor.gf2 import (
    BitMatrix,
    DimensionMismatch,
    RankZero,
    TooLarge,
    format_matrix,
    min_weight_nonzero_rowspan,
    rank,
    transpose,
)
from simplexor.repair import full_rank_on_live

SIMPLEX3_TEXT = "3 7\n1001101\n0101011\n0010111"


@st.composite
def bit_matrices(draw, max_rows=8, max_cols=16):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, tuple(bits))


def _text(m):
    return "\n".join(format_matrix(m.rows, m.cols, m.row_bits))


def _transpose(m):
    return BitMatrix(m.cols, m.rows, m.columns_bits())


def test_bitmatrix_rejects_ragged_and_wide_rows():
    with pytest.raises(DimensionMismatch):
        BitMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(DimensionMismatch):
        BitMatrix(1, 2, (0b100,))


def test_matrix_text_roundtrip_golden():
    assert _text(simplex_code(3).generator) == SIMPLEX3_TEXT


@given(bit_matrices())
def test_matrix_text_roundtrip(m):
    head, *lines = _text(m).split("\n")
    assert head == f"{m.rows} {m.cols}"
    assert all(len(line) == m.cols for line in lines)
    assert tuple(int(line[::-1], 2) for line in lines) == m.row_bits


@st.composite
def vectors_and_widths(draw):
    width = draw(st.integers(0, 12))
    vector = st.one_of(st.just(0), st.integers(0, (1 << width) - 1))
    return draw(st.lists(vector, max_size=10)), width


@given(vectors_and_widths())
@example(([], 0))
@example(([], 5))
@example(([0, 0, 0], 0))
@example(([0, 0], 4))
def test_transpose_matches_the_bit_by_bit_reference(case):
    vectors, width = case
    out = transpose(vectors, width)
    assert out == transpose_by_bits(vectors, width)
    assert transpose(out, len(vectors)) == tuple(vectors)


def test_transpose_rejects_a_vector_wider_than_the_width():
    with pytest.raises(DimensionMismatch):
        transpose([0b1, 0b100], 2)


@given(bit_matrices(), st.data())
@example(BitMatrix(0, 3, ()), None)
@example(BitMatrix(2, 0, (0, 0)), None)
def test_columns_and_column_selection_match_the_bit_loops(m, data):
    assert m.columns_bits() == transpose_by_bits(m.row_bits, m.cols)
    picks = [] if data is None else data.draw(st.lists(st.integers(0, m.cols - 1), max_size=8))
    sub = select_columns(m, picks)
    assert (sub.rows, sub.cols) == (m.rows, len(picks))
    assert sub.row_bits == tuple(sum(((r >> j) & 1) << pos for pos, j in enumerate(picks))
                                 for r in m.row_bits)


def test_matrix_text_of_zero_width_rows_is_empty_lines():
    assert _text(BitMatrix(2, 0, (0, 0))) == "2 0\n\n"


def test_stacking():
    # matrices side by side: the rows of their concatenated column lists
    a = BitMatrix.identity(2).columns_bits()
    b = BitMatrix.zero(2, 2).columns_bits()
    assert transpose(a + b, 2) == (0b0001, 0b0010)
    assert transpose(b + a, 2) == (0b0100, 0b1000)
    with pytest.raises(DimensionMismatch):
        transpose(a + (0b100,), 2)


def test_rank_simplex3():
    assert rank(simplex_code(3).generator) == 3


def test_rank_zero_matrix():
    assert rank(BitMatrix.zero(4, 9)) == 0


def test_rank_of_random_elementary_product():
    # row operations on the identity preserve rank
    rng = random.Random(20240)
    rows = [1 << i for i in range(5)]
    for _ in range(40):
        i, j = rng.sample(range(5), 2)
        rows[i] ^= rows[j]
    assert rank(BitMatrix(5, 5, tuple(rows))) == 5


@given(bit_matrices(max_rows=16, max_cols=32))
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(_transpose(m))


# A matrix is right invertible iff its rows are independent (rank = rows).


def test_right_invertible_identity_and_zero_row():
    assert rank(BitMatrix.identity(3)) == 3
    assert rank(BitMatrix.from_rows([[1, 0], [0, 0]])) < 2


def test_right_invertible_live_subgenerator():
    g = select_columns(simplex_code(3).generator, [2, 4, 6])
    assert rank(g) == g.rows


@given(bit_matrices())
def test_right_invertible_iff_columns_of_transpose_span(m):
    assert (rank(m) == m.rows) == full_rank_on_live(m.columns_bits(), 0, m.rows)


def test_solve_right_identity():
    assert solve_right(BitMatrix.identity(3), 0b101) == 0b101


def test_solve_right_recovers_message_from_live_columns():
    g = simplex_code(3).generator
    rng = random.Random(7)
    live = [2, 4, 6]
    sub = select_columns(g, live)
    for _ in range(20):
        u = rng.getrandbits(3)
        c = codeword(g, u)
        target = sum(((c >> j) & 1) << pos for pos, j in enumerate(live))
        assert solve_right(sub, target) == u


def test_solve_right_no_solution_and_mismatch():
    zero = BitMatrix.zero(2, 3)
    assert solve_right(zero, 0b001) is None
    with pytest.raises(DimensionMismatch):
        solve_right(zero, 0b1000)


@given(bit_matrices(), st.integers(0, (1 << 8) - 1))
def test_solve_right_solutions_reproduce_target(m, ubits):
    target = codeword(m, ubits & ((1 << m.rows) - 1))
    got = solve_right(m, target)
    assert got is not None
    assert codeword(m, got) == target


def test_min_weight_simplex3():
    assert min_weight_nonzero_rowspan(simplex_code(3).generator) == 4


def test_min_weight_single_row_all_ones():
    assert min_weight_nonzero_rowspan(BitMatrix(1, 9, ((1 << 9) - 1,))) == 9


def test_min_weight_weight2_matrix():
    assert min_weight_nonzero_rowspan(weight2_matrix(4)) == 3


def test_min_weight_guards():
    with pytest.raises(RankZero):
        min_weight_nonzero_rowspan(BitMatrix.zero(2, 4))
    with pytest.raises(TooLarge):
        min_weight_nonzero_rowspan(BitMatrix.identity(25))


@given(bit_matrices(max_rows=5, max_cols=10), st.randoms(use_true_random=False))
def test_min_weight_invariant_under_row_operations(m, rng):
    try:
        expected = min_weight_nonzero_rowspan(m)
    except RankZero:
        return
    # shuffles and row additions are invertible, so the row span is unchanged
    rows = list(m.row_bits)
    rng.shuffle(rows)
    for _ in range(6):
        i, j = rng.randrange(m.rows), rng.randrange(m.rows)
        if i != j:
            rows[i] ^= rows[j]
    assert min_weight_nonzero_rowspan(BitMatrix(m.rows, m.cols, tuple(rows))) == expected


@given(bit_matrices())
def test_nullspace_is_the_right_kernel(m):
    ns = nullspace(m)
    assert ns.rows == m.cols - rank(m)
    assert rank(ns) == ns.rows
    # every kernel vector is orthogonal to every row of m
    assert all((r & x).bit_count() % 2 == 0 for r in m.row_bits for x in ns.row_bits)
