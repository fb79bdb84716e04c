import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dkit import Matrix, block_diag, hstack, vstack
from dkit import linalg
from dkit.scalars import Mode, ensure_scalar, format_scalar, parse_scalar

from helpers import exact_det, matrix_power, rref

EX = Mode.EXACT
FL = Mode.FLOAT


def small_square(n):
    return st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(lambda rows: Matrix(rows, EX))


def test_construction_and_access():
    m = Matrix([[1, 2], [3, 4]], EX)
    assert m.shape == (2, 2)
    assert m[1, 0] == Fraction(3)
    assert m.row_list(0) == [Fraction(1), Fraction(2)]
    assert m.col(1).column_list() == [Fraction(2), Fraction(4)]
    assert m.to_lists() == [[1, 2], [3, 4]]


def test_mode_is_enforced_at_construction():
    with pytest.raises(TypeError):
        Matrix([[0.5]], EX)
    with pytest.raises(TypeError):
        Matrix([[Fraction(1, 2)]], FL)
    # ints are plain literals, accepted by both modes
    assert Matrix([[1]], EX)[0, 0] == Fraction(1)
    assert Matrix([[1]], FL)[0, 0] == complex(1.0)


def test_no_cross_mode_arithmetic():
    a = Matrix([[1]], EX)
    b = Matrix([[1]], FL)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a @ b


def test_immutability():
    m = Matrix([[1]], EX)
    with pytest.raises(AttributeError):
        m.rows = 5


def test_matmul_and_empty_shapes():
    a = Matrix([[1, 2], [3, 4]], EX)
    assert (a @ Matrix.identity(2, EX)) == a
    empty = Matrix.zeros(2, 0, EX)
    wide = Matrix.zeros(0, 3, EX)
    prod = empty @ wide
    assert prod.shape == (2, 3)
    assert prod.is_zero()


def test_take_rows_of_a_range_matches_a_list_and_checks_bounds():
    m = Matrix([[1, 2], [3, 4], [5, 6]], EX)
    for iz in (range(3), range(1, 3), range(2, 2), range(0, 3, 2), range(2, 0, -1)):
        assert m.take_rows(iz) == m.take_rows(list(iz))
    with pytest.raises(IndexError):
        m.take_rows(range(2, 4))


@given(st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**6)), max_size=6),
       st.integers(1, 10**12))
def test_ratios_is_the_column_of_the_fractions(entries, e):
    nums, dens = [x for x, _ in entries], [d for _, d in entries]
    got = Matrix.ratios(nums, dens, e, EX)
    assert got == Matrix.column([Fraction(x, d * e) for x, d in entries], EX)
    assert got.shape == (len(entries), 1)
    assert Matrix.ratios([1j, 2 + 0j], None, 1, FL) == Matrix.column([1j, 2], FL)


@pytest.mark.parametrize("mode", [EX, FL], ids=["exact", "float"])
def test_row_blocks_match_vstack_and_take_rows_and_check_bounds(mode):
    top = Matrix([[Fraction(1, 2) if mode is EX else 0.5, 0]], mode)
    m = Matrix([[1, 2], [3, 4], [5, 6]], mode)
    stacked = vstack([top, m])
    for iz in (range(4), range(1, 4), range(2, 2), range(0, 4, 2), range(3, 0, -1)):
        assert stacked.take_rows(iz) == stacked.take_rows(list(iz))
    assert stacked.take_rows(range(1)) == top and stacked.take_rows(range(1, 4)) == m
    assert stacked.take_rows(range(1, 3)) == m.take_rows(range(2))
    for empty in (range(0), range(4, 4)):
        assert stacked.take_rows(empty) == Matrix.zeros(0, 2, mode)
    with pytest.raises(IndexError):
        stacked.take_rows(range(3, 5))


def test_stack_and_block_diag():
    a = Matrix([[1]], EX)
    b = Matrix([[2]], EX)
    assert hstack([a, b]).to_lists() == [[1, 2]]
    assert vstack([a, b]).to_lists() == [[1], [2]]
    d = block_diag([a, Matrix([[3, 0], [0, 4]], EX)], EX)
    assert d.to_lists() == [[1, 0, 0], [0, 3, 0], [0, 0, 4]]
    assert block_diag([], EX).shape == (0, 0)


def test_column_admits_ints_and_fractions_and_rejects_the_rest():
    values = [0, 3, -7, Fraction(-2, 6), Fraction(5), 10**40, Fraction(1, 3**30)]
    col = Matrix.column(values, EX)
    assert col == Matrix([[v] for v in values], EX)
    assert col.column_list() == [Fraction(v) for v in values]
    ints = [0, 3, -7, 10**40]
    assert Matrix.column(ints, FL) == Matrix([[v] for v in ints], FL)
    for bad, mode in [(True, EX), (0.5, EX), (1j, EX), ("1", EX), (False, FL),
                      (Fraction(1, 2), FL), ("1", FL)]:
        with pytest.raises(TypeError) as want:
            ensure_scalar(bad, mode)
        with pytest.raises(TypeError) as got:
            Matrix.column([1, bad], mode)
        assert str(got.value) == str(want.value)


def test_scalar_parse_and_format_round_trip():
    for raw, want in [(5, Fraction(5)), ("3/7", Fraction(3, 7)), ("0.25", Fraction(1, 4))]:
        assert parse_scalar(raw, EX) == want
    reduced = parse_scalar("-2/4", EX)  # kept in lowest terms
    assert (reduced.numerator, reduced.denominator) == (-1, 2)
    assert Fraction(2, -4) == reduced  # positive denominator normal form
    with pytest.raises(ValueError):
        parse_scalar(0.5, EX)  # binary float is ambiguous in exact mode
    assert parse_scalar("1+2j", FL) == complex(1, 2)
    for val in [Fraction(-3, 7), Fraction(5), complex(0.5), complex(1, -2)]:
        mode = EX if isinstance(val, Fraction) else FL
        assert parse_scalar(format_scalar(val), mode) == val


def test_det_small_cases():
    assert exact_det(Matrix([[2]], EX)) == 2
    assert exact_det(Matrix([[1, 2], [3, 4]], EX)) == -2
    assert exact_det(Matrix.zeros(2, 2, EX)) == 0
    assert exact_det(Matrix.identity(0, EX)) == 1


@given(small_square(3), small_square(3))
def test_det_multiplicative(a, b):
    assert exact_det(a @ b) == exact_det(a) * exact_det(b)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=2, max_size=4))))
def test_kernel_annihilates(data):
    n, rows = data
    a = Matrix(rows, EX)
    k = linalg.kernel_basis(a)
    assert (a @ k).is_zero()
    assert linalg.rank(a) + k.cols == a.cols


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(3)
    for _ in range(25):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        a = Matrix(rows, EX)
        r1, piv1 = rref(a)
        r2, piv2 = rref(r1)
        assert r1 == r2 and piv1 == piv2


def test_solve_and_inverse():
    a = Matrix([[2, 0], [1, 1]], EX)
    b = Matrix.column([4, 3], EX)
    x = linalg.solve(a, b)
    assert (a @ x) == b
    inv = linalg.inverse(a)
    assert (a @ inv) == Matrix.identity(2, EX)
    with pytest.raises(ValueError):
        linalg.inverse(Matrix.zeros(2, 2, EX))
    # inconsistent system
    assert linalg.solve(Matrix([[1], [1]], EX), Matrix.column([0, 1], EX)) is None


def test_solve_unique_requires_full_column_rank():
    wide = Matrix([[1, 1]], EX)
    with pytest.raises(ValueError):
        linalg.solve_unique(wide, Matrix.column([1], EX))


def test_float_rank_threshold_is_relative():
    big = Matrix([[1e6, 0.0], [0.0, 1.0]], FL)
    assert linalg.rank(big) == 2
    # second row is noise relative to the largest entry (1e-6 < 1e-9 * 1e6)
    noisy = Matrix([[1e6, 0.0], [0.0, 1e-6]], FL)
    assert linalg.rank(noisy) == 1
    assert linalg.rank(noisy, tol=1e-14) == 2
    # (rows, rank, rank at tol 0): the threshold, tol times the largest
    # magnitude scanned row-major, underflows to 0 on subnormals; an inf
    # entry, or a NaN that comes first, leaves no pivot, and a later NaN
    # is passed over
    nan, inf = float("nan"), float("inf")
    for rows, want, want_tol0 in (
        ([[5e-324, 0], [0, 5e-324]], 2, 2),
        ([[2, 0], [0, 1e-310]], 1, 2),
        ([[nan, 0], [0, 1]], 0, 0),
        ([[1, 0], [nan, 1]], 1, 1),
        ([[inf, 0], [0, 1]], 0, 0),
        ([[1, 0], [0, inf]], 0, 0),
    ):
        m = Matrix(rows, FL)
        assert (linalg.rank(m), linalg.rank(m, tol=0.0)) == (want, want_tol0), rows


def test_matrix_power():
    h = Matrix([[0, 1], [0, 0]], EX)
    assert matrix_power(h, 0) == Matrix.identity(2, EX)
    assert matrix_power(h, 1) == h
    assert matrix_power(h, 2).is_zero()


def test_least_squares_matches_exact_solve():
    a = Matrix([[1, 0], [0, 1], [1, 1]], EX)
    x_true = Matrix.column([2, -3], EX)
    b = a @ x_true
    assert linalg.least_squares(a, b) == x_true


def test_column_space_basis_spans():
    a = Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]], EX)
    basis = linalg.column_space_basis(a)
    assert basis.cols == linalg.rank(a)
    # every original column solvable in the basis
    assert linalg.solve(basis, a) is not None


@pytest.mark.parametrize("mode", [EX, FL])
def test_entry_tuple_lists_every_entry_row_major(mode):
    for m in (Matrix([[1, 2, 0], [0, -5, 7]], mode), Matrix.zeros(0, 3, mode),
              Matrix.zeros(2, 0, mode), Matrix.identity(3, mode)):
        assert m._e == tuple(x for row in m.to_lists() for x in row)
    if mode is EX:
        m = Matrix([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(3, 9), 0]], mode)
        assert m._e == (Fraction(1, 2), Fraction(-2, 3), Fraction(1, 3), Fraction(0))
        assert m._e == tuple(x for row in m.to_lists() for x in row)
