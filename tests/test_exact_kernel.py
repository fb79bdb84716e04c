"""The integer exact kernels against plain-``Fraction`` references.

An exact ``Matrix`` stores integer rows over one denominator each; every
operation on it, fraction-free elimination and the integer
``Matrix.__matmul__`` must give results bit-identical to entrywise
``Fraction`` arithmetic (``helpers.ReferenceMatrix``), Gauss-Jordan and
multiply-and-add over ``Fraction``, and leave every stored row in its
canonical cleared form.  The linear algebra has one reference family: the
RREF by the ``Fraction`` Gauss-Jordan loop in ``helpers``, and the kernel
and column-space bases and the solutions of ``solve``, ``solve_unique``
and ``inverse`` read off it here.  Those references build [a | b] with the
library's ``hstack``, so the solution and inverse tests also check
a x = b and a a^-1 = I.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dkit import Matrix, block_diag, char_poly, hstack, linalg, vstack
from dkit.scalars import Mode, clear_denominators, format_scalar

from helpers import (
    ReferenceMatrix,
    exact_det,
    planted_pencil,
    reference_block_diag,
    reference_det,
    reference_hstack,
    reference_matmul,
    reference_rref_data,
    reference_vstack,
    rref,
)

EX = Mode.EXACT

DENOMINATORS = st.one_of(
    st.sampled_from([1, 1, 2, 3, 6, 7, 12]),
    st.integers(1, 10**6),
    st.sampled_from([2**61 - 1, 10**18 + 9, 3**40]),
)
FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), DENOMINATORS),
    st.builds(Fraction, st.integers(-10**24, 10**24), DENOMINATORS),
)


def build(rows, nrows, ncols):
    return Matrix(rows, EX) if nrows and ncols else Matrix.zeros(nrows, ncols, EX)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """Random shapes (n x 0 and 0 x m included); generic, rank-deficient
    (a product through a narrower inner dimension) or with zero rows."""
    if nrows is None:
        nrows = draw(st.integers(0, 6))
    if ncols is None:
        ncols = draw(st.integers(0, 6))

    def entries(r, c):
        return draw(st.lists(st.lists(FRACTIONS, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    kind = draw(st.sampled_from(["generic", "low_rank", "zero_rows"]))
    if kind == "low_rank":
        inner = draw(st.integers(0, max(min(nrows, ncols) - 1, 0)))
        left, right = entries(nrows, inner), entries(inner, ncols)
        rows = [[sum((left[i][t] * right[t][j] for t in range(inner)), Fraction(0))
                 for j in range(ncols)] for i in range(nrows)]
    else:
        rows = entries(nrows, ncols)
        if kind == "zero_rows" and nrows:
            for i in draw(st.sets(st.integers(0, nrows - 1))):
                rows[i] = [Fraction(0)] * ncols
    return build(rows, nrows, ncols)


@st.composite
def systems(draw):
    """A matrix ``a`` and a right-hand side with the same row count."""
    a = draw(matrices())
    b = draw(matrices(nrows=a.rows, ncols=draw(st.integers(0, 3))))
    if a.cols and draw(st.booleans()):
        # consistent by construction: b = a x
        x = draw(matrices(nrows=a.cols, ncols=b.cols))
        b = reference_matmul(a, x)
    return a, b


# Shapes where back-substitution has to skip or keep something: a free
# column before the first pivot, zero rows between nonzero ones (a row
# swap, and a free column between the pivots), a negative last pivot
# (1 * 4 - 3 * 2), a single row, a single column.
EDGE_CASES = [
    Matrix([[0, 1, 2], [0, 3, Fraction(4, 5)]], EX),
    Matrix([[1, 2, 3], [0, 0, 0], [0, 0, 0], [2, 4, Fraction(1, 3)]], EX),
    Matrix([[1, 2], [3, 4]], EX),
    Matrix([[0, 3, -1, Fraction(1, 2)]], EX),
    Matrix.column([0, Fraction(2, 3), -3], EX),
]
SQUARE_EDGE_CASES = [
    Matrix([[0, 1], [0, 3]], EX),
    Matrix([[1, 2, 3], [0, 0, 0], [2, 4, Fraction(1, 3)]], EX),
    Matrix([[1, 2], [3, 4]], EX),
    Matrix([[-5]], EX),
]


def with_examples(cases):
    """``hypothesis.example`` for each of ``cases``."""
    def apply(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test
    return apply


def edge_systems():
    """Each edge case with a consistent and an inconsistent right-hand side."""
    out = []
    for a in EDGE_CASES:
        x = Matrix.column([Fraction(i + 1, 2) for i in range(a.cols)], EX)
        out.append((a, a @ x))
        out.append((a, Matrix.column([1] * a.rows, EX)))
    return out


def outcome(fn, *args):
    """Result of ``fn``, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (ValueError, str(exc))


def assert_fractions(mat: Matrix):
    assert all(type(x) is Fraction for row in mat.to_lists() for x in row)


def reference_rref(a):
    """Rows and pivot columns of the RREF by Gauss-Jordan over ``Fraction``."""
    data = a.to_lists()
    return data, reference_rref_data(data)


def reference_kernel_basis(a):
    red, pivots = reference_rref(a)
    free = [c for c in range(a.cols) if c not in pivots]
    cols = []
    for f in free:
        v = [Fraction(0)] * a.cols
        v[f] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[f]
        cols.append(v)
    return build([[v[i] for v in cols] for i in range(a.cols)], a.cols, len(cols))


def reference_column_space_basis(a):
    red, pivots = reference_rref(a.T)
    return build([[red[j][i] for j in range(len(pivots))] for i in range(a.rows)],
                 a.rows, len(pivots))


def reference_reduce_augmented(a, b):
    """Pivot columns of the ``Fraction`` RREF of [a | b] and the b part of
    each pivot row."""
    red, pivots = reference_rref(hstack([a, b]))
    return pivots, [row[a.cols:] for row in red[: len(pivots)]]


def reference_solve(a, b):
    pivots, rows = reference_reduce_augmented(a, b)
    if any(pc >= a.cols for pc in pivots):
        return None
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for pc, row in zip(pivots, rows):
        x[pc] = row
    return build(x, a.cols, b.cols)


def reference_solve_unique(a, b):
    pivots, rows = reference_reduce_augmented(a, b)
    if any(pc >= a.cols for pc in pivots):
        raise ValueError("inconsistent system")
    if len(pivots) != a.cols:
        raise ValueError("solution is not unique (rank deficient)")
    return build(rows, a.cols, b.cols)


def reference_inverse(a):
    pivots, rows = reference_reduce_augmented(a, Matrix.identity(a.rows, EX))
    if pivots != list(range(a.rows)):
        raise ValueError("matrix is singular")
    return build(rows, a.rows, a.rows)


RANK_ONE = Matrix([[1, 2], [2, 4]], EX)


@settings(max_examples=200)
@given(matrices())
@with_examples(EDGE_CASES)
def test_rref_matches_fraction_gauss_jordan(a):
    red, pivots = rref(a)
    data, ref_pivots = reference_rref(a)
    assert (red, pivots) == (build(data, a.rows, a.cols), ref_pivots)
    assert_fractions(red)
    assert linalg.rank(a) == len(pivots)


@settings(max_examples=200)
@given(st.integers(0, 6).flatmap(lambda n: matrices(nrows=n, ncols=n)))
def test_det_matches_fraction_elimination(a):
    d = exact_det(a)
    assert type(d) is Fraction
    assert d == reference_det(a)


@st.composite
def sparse_square(draw):
    """Square matrices on which most elimination multipliers are zero:
    block-diagonal, or with at most 2 n nonzero entries."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        return block_diag([draw(matrices(nrows=s, ncols=s)) for s in sizes], EX)
    n = draw(st.integers(1, 7))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=2 * n)):
        rows[i][j] = draw(FRACTIONS)
    return build(rows, n, n)


@settings(max_examples=150)
@given(sparse_square())
def test_zero_multipliers_match_the_references(a):
    red, pivots = rref(a)
    data, ref_pivots = reference_rref(a)
    assert (red, pivots) == (build(data, a.rows, a.cols), ref_pivots)
    assert exact_det(a) == reference_det(a)
    assert linalg.kernel_basis(a) == reference_kernel_basis(a)
    assert outcome(linalg.inverse, a) == outcome(reference_inverse, a)


@settings(max_examples=200)
@given(st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda s: st.tuples(matrices(nrows=s[0], ncols=s[1]), matrices(nrows=s[0], ncols=s[1]),
                        st.one_of(FRACTIONS, st.integers(-3, 3)))))
def test_sub_scaled_matches_the_difference_with_the_scaled_matrix(abs_):
    a, b, s = abs_
    got = a.sub_scaled(b, s)
    assert got == a - b.scale(s)
    assert_fractions(got)


def test_solve_reports_inconsistency_as_none():
    a = Matrix([[1, 2], [2, 4]], EX)
    b = Matrix([[1], [3]], EX)
    assert linalg.solve(a, b) is None
    with pytest.raises(ValueError, match="inconsistent"):
        linalg.solve_unique(a, b)


def test_a_product_leaves_its_operands_unchanged():
    a = Matrix([[Fraction(1, 2), 3], [0, Fraction(-5, 7)]], EX)
    a @ Matrix.column([1, 1], EX)          # a product leaves its operands as they were
    fresh = Matrix(a.to_lists(), EX)
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
    with pytest.raises(AttributeError):
        a.rows = 3
    with pytest.raises(AttributeError):
        a._r = None


@settings(max_examples=200)
@given(matrices())
@with_examples(EDGE_CASES)
def test_kernel_basis_read_off_the_integer_rows_matches_the_fraction_rref(a):
    k = linalg.kernel_basis(a)
    assert k == reference_kernel_basis(a)
    assert_fractions(k)
    assert (a @ k).is_zero()


@settings(max_examples=200)
@given(matrices())
@with_examples(EDGE_CASES)
def test_column_space_basis_read_off_the_integer_rows_matches_the_fraction_rref(a):
    basis = linalg.column_space_basis(a)
    assert basis == reference_column_space_basis(a)
    assert_fractions(basis)


@settings(max_examples=200)
@given(matrices())
def test_pivots_from_forward_elimination_match_the_fraction_rref(a):
    _, pivots = reference_rref(a)
    assert linalg.pivot_columns(a) == pivots
    assert linalg.rank(a) == len(pivots)
    assert linalg.is_nonsingular(a) == (a.is_square and len(pivots) == a.rows)


@settings(max_examples=200)
@given(systems())
@example((RANK_ONE, Matrix.column([1, 3], EX)))                 # inconsistent
@example((RANK_ONE, Matrix.column([1, 2], EX)))                 # rank deficient
@example((Matrix([[Fraction(1, 3**40)]], EX), Matrix([[Fraction(2, 3**39)]], EX)))
@with_examples(edge_systems())
def test_solutions_read_off_the_integer_rows_match_the_fraction_rref(ab):
    a, b = ab
    x = linalg.solve(a, b)
    assert x == reference_solve(a, b)
    if x is not None:
        assert_fractions(x)
        assert a @ x == b
    assert outcome(linalg.solve_unique, a, b) == outcome(reference_solve_unique, a, b)


@settings(max_examples=200)
@given(st.integers(0, 6).flatmap(lambda n: matrices(nrows=n, ncols=n)))
@example(RANK_ONE)                                              # singular
@with_examples(SQUARE_EDGE_CASES)
def test_inverse_read_off_the_integer_rows_matches_the_fraction_rref(a):
    got = outcome(linalg.inverse, a)
    assert got == outcome(reference_inverse, a)
    if isinstance(got, Matrix):
        assert_fractions(got)
        assert a @ got == Matrix.identity(a.rows, EX)


def test_reference_solutions_cover_both_errors():
    assert outcome(reference_solve_unique, RANK_ONE, Matrix.column([1, 3], EX)) == (
        ValueError, "inconsistent system")
    assert outcome(reference_solve_unique, RANK_ONE, Matrix.column([1, 2], EX)) == (
        ValueError, "solution is not unique (rank deficient)")
    assert outcome(reference_inverse, RANK_ONE) == (ValueError, "matrix is singular")


INTEGERS = st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20))


@st.composite
def stopped_eliminations(draw):
    """Integer rows of shape 0..6 x 0..7, some of them integer combinations
    of the others, and a column ``stop`` from 0 to the column count."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):  # a dependent row
            fs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(f * row[c] for f, row in zip(fs, rows)) for c in range(ncols)])
        else:
            rows.append(draw(st.lists(INTEGERS, min_size=ncols, max_size=ncols)))
    draw(st.randoms()).shuffle(rows)
    return rows, draw(st.integers(0, ncols))


@settings(max_examples=300)
@given(stopped_eliminations())
@example(([[0, 1, 2], [0, 3, 4]], 3))              # a free column first
@example(([[1, 2, 3], [2, 4, 6], [0, 0, 5]], 2))  # a dependent row, a row swap
@example(([[2, 5, 1, 7]], 4))                      # rank 1 = nrows at column 0
@example(([[0, 0], [0, 0]], 2))
def test_stopped_elimination_matches_a_log_replayed_on_the_columns_past_the_stop(case):
    """``_bareiss(rows, stop=k)`` against what it replaces: the elimination
    of the first k columns with a log, replayed on the columns left."""
    rows, k = case
    got = [list(row) for row in rows]
    head, log = [row[:k] for row in rows], []
    assert linalg._bareiss(got, stop=k) == linalg._bareiss(head, log)
    cols = [list(col) for col in zip(*rows)][k:]
    linalg._replay(log, cols)
    assert got == [h + [col[i] for col in cols] for i, h in enumerate(head)]


@pytest.mark.parametrize("n, nilpotent", [pytest.param(n, None, id=str(n))
                                          for n in (1, 2, 5, 9, 14)]
                         + [pytest.param(6, [6], id="6-p0"),
                            pytest.param(12, [4, 4, 1], id="12-qstar4")])
def test_exact_char_poly_makes_p_plus_2_eliminations_and_no_replay(n, nilpotent):
    """Beyond the walk of the Wong sequence (q* steps), one deflating
    elimination, which stops after the q constant columns -G W*, and one
    per node s = 0..p, each resuming it on the trailing p x p block (at
    p = 0 the one node is the empty determinant, the last constant
    pivot): p + 2 eliminations.  No logged row operations are replayed,
    and nothing is solved or eliminated over ``Fraction``."""
    pencil, _, nblocks = planted_pencil(random.Random(n), n, nilpotent=nilpotent)
    qstar = max((b.size for b in nblocks), default=0)
    p = n - sum(b.size for b in nblocks)
    with mock.patch.object(linalg, "_bareiss", wraps=linalg._bareiss) as elim, \
            mock.patch.object(linalg, "_replay", wraps=linalg._replay) as replay, \
            mock.patch.object(linalg, "solve_unique", wraps=linalg.solve_unique) as solve:
        assert len(pencil.wong_sequence) == qstar
        walked, replayed = elim.call_count, replay.call_count
        assert char_poly(pencil).p == p
    assert elim.call_count - walked == p + 2
    assert replay.call_count == replayed
    assert solve.call_count == 0


# ---------------------------------------------------------------------------
# the stored integer rows against entrywise Fraction arithmetic
# ---------------------------------------------------------------------------

def assert_canonical(m: Matrix):
    """Each stored row is ``clear_denominators`` of its ``Fraction`` row:
    integers over the lcm of the entry denominators, in lowest terms."""
    rows, dens = m.integer_rows(), m.denominators
    assert len(rows) == len(dens) == m.rows
    for i in range(m.rows):
        assert len(rows[i]) == m.cols
        assert (rows[i], dens[i]) == clear_denominators(m.row_list(i))


def assert_matches(m: Matrix, ref: ReferenceMatrix):
    assert m.mode is EX
    assert ReferenceMatrix.of(m) == ref
    assert_fractions(m)
    assert_canonical(m)


def same_shape(count):
    return st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
        lambda s: st.tuples(*[matrices(nrows=s[0], ncols=s[1])] * count))


@settings(max_examples=200)
@given(matrices())
def test_constructed_rows_are_canonical(a):
    assert_canonical(a)
    assert_matches(Matrix(a.to_lists(), EX) if a.rows else a, ReferenceMatrix.of(a))
    assert a._e == ReferenceMatrix.of(a).e


@settings(max_examples=200)
@given(same_shape(2))
def test_sum_and_difference_match_fraction_entries(ab):
    a, b = ab
    ra, rb = ReferenceMatrix.of(a), ReferenceMatrix.of(b)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a - a, ra - ra)
    assert (a - a).is_zero()


@settings(max_examples=200)
@given(matrices(), FRACTIONS)
def test_negation_scaling_and_transpose_match_fraction_entries(a, s):
    ra = ReferenceMatrix.of(a)
    assert_matches(-a, -ra)
    assert_matches(a.scale(s), ra.scale(s))
    assert_matches(a.scale(0), ra.scale(0))
    assert_matches(a.T, ra.T)
    assert_matches(a.T.T, ra)
    assert_matches(a.conj_T(), ra.T)


@settings(max_examples=200)
@given(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda s: st.tuples(matrices(nrows=s[0], ncols=s[1]), matrices(nrows=s[1], ncols=s[2]))))
def test_product_rows_match_fraction_multiply_add(ab):
    a, b = ab
    assert_matches(a @ b, ReferenceMatrix.of(a) @ ReferenceMatrix.of(b))


@settings(max_examples=200)
@given(matrices().flatmap(lambda a: st.tuples(
    st.just(a),
    st.lists(st.integers(0, a.rows - 1), max_size=8) if a.rows else st.just([]),
    st.lists(st.integers(0, a.cols - 1), max_size=8) if a.cols else st.just([]),
    st.integers(0, a.rows), st.integers(0, a.rows))))
def test_row_and_column_selections_match_fraction_entries(args):
    a, iz, js, lo, hi = args
    ra = ReferenceMatrix.of(a)
    assert_matches(a.take_rows(iz), ra.take_rows(iz))
    assert_matches(a.take_rows(range(lo, hi)), ra.take_rows(range(lo, hi)))
    assert_matches(a.take_cols(js), ra.take_cols(js))
    for j in js:
        assert_matches(a.col(j), ra.take_cols([j]))
    for i in iz:
        assert a.row_list(i) == list(ra.e[i * a.cols : (i + 1) * a.cols])
        assert all(a[i, j] == ra.at(i, j) for j in js)


@settings(max_examples=150)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.integers(0, 4).flatmap(lambda c: matrices(nrows=n, ncols=c)), min_size=1, max_size=4)))
def test_hstack_matches_fraction_entries(mats):
    assert_matches(hstack(mats), reference_hstack([ReferenceMatrix.of(m) for m in mats]))


@settings(max_examples=150)
@given(st.integers(0, 5).flatmap(lambda c: st.lists(
    st.integers(0, 4).flatmap(lambda n: matrices(nrows=n, ncols=c)), min_size=1, max_size=4)))
def test_vstack_matches_fraction_entries(mats):
    assert_matches(vstack(mats), reference_vstack([ReferenceMatrix.of(m) for m in mats]))


@settings(max_examples=150)
@given(st.lists(matrices(), max_size=4))
def test_block_diag_matches_fraction_entries(mats):
    assert_matches(block_diag(mats, EX),
                   reference_block_diag([ReferenceMatrix.of(m) for m in mats], EX))


@settings(max_examples=200)
@given(same_shape(2))
def test_equality_hash_and_norms_agree_with_fraction_entries(ab):
    a, b = ab
    ra, rb = ReferenceMatrix.of(a), ReferenceMatrix.of(b)
    assert (a == b) == (ra == rb)
    for x, rx in ((a, ra), (b, rb)):
        assert x.is_zero() == rx.is_zero()
        assert x.max_abs() == rx.max_abs() and type(x.max_abs()) is Fraction
        # the same matrix built another way: equal, with an equal hash
        for twin in (Matrix(x.to_lists(), EX) if x.rows else x, x + Matrix.zeros(*x.shape, EX),
                     x.scale(Fraction(3, 7)).scale(Fraction(7, 3)), -(-x), x.T.T):
            assert twin == x and hash(twin) == hash(x)
    if ra == rb:
        assert hash(a) == hash(b)


def test_representation_edge_cases():
    big = 3**40
    a = Matrix([[Fraction(-1, big), Fraction(2, 6)], [0, 0], [Fraction(-4), Fraction(6, 4)]], EX)
    assert a.integer_rows() == [[-1, 3**39], [0, 0], [-8, 3]]
    assert a.denominators == [big, 1, 2]
    assert_canonical(a)
    assert_matches(a.scale(Fraction(-big, 2)), ReferenceMatrix.of(a).scale(Fraction(-big, 2)))
    empty = [Matrix.zeros(0, 3, EX), Matrix.zeros(3, 0, EX), Matrix.zeros(0, 0, EX)]
    for e in empty:
        assert_canonical(e)
        assert e.max_abs() == 0 and e.is_zero()
        assert_matches(e.T, ReferenceMatrix.of(e).T)
    assert_matches(empty[1] @ empty[0], ReferenceMatrix(EX, 3, 3, [Fraction(0)] * 9))
    assert Matrix.zeros(0, 3, EX) != Matrix.zeros(0, 2, EX)
    assert Matrix.zeros(2, 2, EX) != Matrix.zeros(2, 2, Mode.FLOAT)


@settings(max_examples=200)
@given(matrices())
@example(Matrix.column([Fraction(1, 2), Fraction(-3, 2), 4, 0], EX))
@example(Matrix([[Fraction(1, 2), Fraction(1, 4), 2], [Fraction(-5, 6), Fraction(2, 3), 0]], EX))
def test_formatted_entries_match_format_scalar_of_the_fractions(a):
    assert a.format_entries() == [format_scalar(x) for row in a.to_lists() for x in row]
