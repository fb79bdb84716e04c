"""Float ``Matrix`` operations against an entry-by-entry reference, bit for bit.

The reference is ``helpers.ReferenceMatrix``, which the exact kernel tests
share: it holds a float matrix as the flat row-major tuple of its
``complex`` entries and does every operation one entry at a time; a
product entry accumulates ``s = 0j; s += a * b`` over the inner index in
ascending order.  Entries are compared here through ``float.hex`` of their
real and imaginary parts, and their type, so a signed zero, a ``float``
where a ``complex`` belongs or the last bit of a rounding shows.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from dkit import Matrix, block_diag, hstack, linalg, vstack
from dkit.scalars import Mode
from helpers import (
    ReferenceMatrix,
    reference_block_diag,
    reference_float_det,
    reference_float_max_abs,
    reference_hstack,
    reference_vstack,
)

FL = Mode.FLOAT

ENTRIES = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                     1 + 0j, -1j, 0.1 + 0.2j]),
    st.builds(complex, st.integers(-5, 5), st.integers(-5, 5)),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


def bits(entries):
    return [(type(x), x.real.hex(), x.imag.hex()) for x in entries]


def assert_same(m: Matrix, ref: ReferenceMatrix):
    assert m.mode is FL
    assert m.shape == (ref.rows, ref.cols)
    assert bits(m._e) == bits(ref.e)
    assert bits(x for row in m.to_lists() for x in row) == bits(ref.e)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """Shapes 0..5, ``n x 0`` and ``0 x m`` included."""
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(0, 5)) if ncols is None else ncols
    if not nrows:
        return Matrix.zeros(0, ncols, FL)
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return Matrix(rows, FL)


def same_shape(count):
    return st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
        lambda s: st.tuples(*[matrices(nrows=s[0], ncols=s[1])] * count))


@settings(max_examples=200)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda s: st.tuples(matrices(nrows=s[0], ncols=s[1]), matrices(nrows=s[1], ncols=s[2]))))
def test_float_product_accumulates_in_ascending_order(ab):
    a, b = ab
    assert_same(a @ b, ReferenceMatrix.of(a) @ ReferenceMatrix.of(b))


@settings(max_examples=200)
@given(same_shape(2), ENTRIES)
def test_float_entrywise_operations_match_the_reference(ab, s):
    a, b = ab
    ra, rb = ReferenceMatrix.of(a), ReferenceMatrix.of(b)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(-a, -ra)
    assert_same(a.scale(s), ra.scale(s))
    assert_same(a.sub_scaled(b, s), ra - rb.scale(s))
    assert_same(a.T, ra.T)
    assert_same(a.conj_T(), ra.T.map(complex.conjugate))
    assert_same(Matrix.zeros(a.rows, a.cols, FL), ra.map(lambda x: 0j))
    eye = ReferenceMatrix(FL, a.cols, a.cols, (
        1 + 0j if i == j else 0j for i in range(a.cols) for j in range(a.cols)))
    assert_same(Matrix.identity(a.cols, FL), eye)
    assert bits([complex(a.max_abs())]) == bits([complex(ra.max_abs())])
    assert type(a.max_abs()) is float
    assert a.is_zero() == ra.is_zero()
    for tol in (0.0, 1.0, 1e3):
        assert a.is_zero(tol) == all(abs(x) <= tol for x in ra.e)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    for twin in (Matrix(a.to_lists(), FL) if a.rows else a, a.T.T, -(-a)):
        assert twin == a and hash(twin) == hash(a)


@settings(max_examples=200)
@given(matrices().flatmap(lambda a: st.tuples(
    st.just(a),
    st.lists(st.integers(0, a.rows - 1), max_size=8) if a.rows else st.just([]),
    st.lists(st.integers(0, a.cols - 1), max_size=8) if a.cols else st.just([]),
    st.integers(0, a.rows), st.integers(0, a.rows))))
def test_float_row_and_column_selections_match_the_reference(args):
    a, iz, js, lo, hi = args
    ra = ReferenceMatrix.of(a)
    assert_same(a.take_rows(iz), ra.take_rows(iz))
    assert_same(a.take_rows(range(lo, hi)), ra.take_rows(range(lo, hi)))
    assert_same(a.take_cols(js), ra.take_cols(js))
    for j in js:
        assert_same(a.col(j), ra.take_cols([j]))
    for i in iz:
        assert bits(a.row_list(i)) == bits(ra.e[i * a.cols : (i + 1) * a.cols])


@settings(max_examples=150)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.integers(0, 4).flatmap(lambda c: matrices(nrows=n, ncols=c)), min_size=1, max_size=4)))
def test_float_hstack_matches_the_reference(mats):
    assert_same(hstack(mats), reference_hstack([ReferenceMatrix.of(m) for m in mats]))


@settings(max_examples=150)
@given(st.integers(0, 5).flatmap(lambda c: st.lists(
    st.integers(0, 4).flatmap(lambda n: matrices(nrows=n, ncols=c)), min_size=1, max_size=4)))
def test_float_vstack_matches_the_reference(mats):
    assert_same(vstack(mats), reference_vstack([ReferenceMatrix.of(m) for m in mats]))


@settings(max_examples=150)
@given(st.lists(matrices(), max_size=4))
def test_float_block_diag_matches_the_reference(mats):
    assert_same(block_diag(mats, FL), reference_block_diag([ReferenceMatrix.of(m) for m in mats], FL))


NAN, INF = float("nan"), float("inf")


def same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


def test_float_max_abs_matches_the_generator_reference_at_nan_inf_and_signed_zero():
    """So do the rank threshold, tol times that magnitude, and the zero
    test: ``x == 0`` without a tol, ``abs(x) <= tol`` with one."""
    cases = [
        [[complex(NAN, 0), 5], [INF, 1]],       # a NaN first is kept
        [[1, 2], [complex(NAN, 0), 3]],         # a later NaN is passed over
        [[-INF, 1]], [[complex(0, INF), 2]], [[complex(3, -INF), NAN]],
        [[-0.0, complex(-0.0, -0.0)]], [[complex(-0.0, 0.0)], [0]],
        [[complex(1, NAN), 7]], [[7, complex(NAN, 1)]], [[complex(INF, NAN)]],
        [[3 + 4j, -5, complex(-4, 3)]],
        [[5e-324, -0.0]], [[complex(0, -5e-324)], [1e-310]],
    ]
    cases += [[[x]] for x in (0.0, -0.0, complex(-0.0, -0.0), 5e-324, -5e-324j, NAN, -INF,
                              complex(INF, NAN), -1e-8j)]
    mats = [Matrix(rows, FL) for rows in cases]
    mats += [Matrix.zeros(0, 0, FL), Matrix([], FL), Matrix.zeros(3, 0, FL), Matrix.zeros(0, 2, FL)]
    for m in mats:
        got, want = m.max_abs(), reference_float_max_abs(m)
        assert type(got) is float
        assert same_float(got, want), m
        entries = [x for row in m.to_lists() for x in row]
        assert m.is_zero() == all(x == 0 for x in entries), m
        for tol in (None, 0.0, 1e-8):
            old = (linalg.DEFAULT_RANK_TOL if tol is None else tol) * want
            assert same_float(linalg._row_threshold(m.to_lists(), tol), old), (m, tol)
            if tol is not None:
                assert m.is_zero(tol) == all(abs(x) <= tol for x in entries), (m, tol)


def near_threshold_rows(nrows, ncols, big, tol):
    """Rows with one entry ``big``, which puts the rank threshold near
    t = tol * big (a multiple of a row may exceed it): entries at, just
    above and just below t, and rows that are a multiple of an earlier
    row plus such an entry."""
    t = (linalg.DEFAULT_RANK_TOL if tol is None else tol) * big
    near = st.sampled_from([t, -t, t * 1j, t * (1 + 2**-52), t * (1 - 2**-53),
                            t * (1 + 1e-9), t * (1 - 1e-9), t / 2, 0j])
    cell = st.one_of(near, st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
                     st.complex_numbers(max_magnitude=big, allow_nan=False, allow_infinity=False))

    @st.composite
    def build(draw):
        rows = []
        for _ in range(nrows):
            if rows and draw(st.booleans()):
                base, k = draw(st.sampled_from(rows)), draw(st.sampled_from([1, -2, 0.5, 1j]))
                j = draw(st.integers(0, ncols - 1))
                row = [k * x for x in base]
                row[j] += draw(near)
            else:
                row = draw(st.lists(cell, min_size=ncols, max_size=ncols))
            rows.append(row)
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        rows[i][j] = complex(big)
        return rows

    return build()


@settings(max_examples=300)
@given(st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]).flatmap(lambda tol: st.tuples(
    st.just(tol),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.sampled_from([1.0, 4.0, 1e3])).flatmap(
        lambda s: near_threshold_rows(*s, tol)))))
def test_forward_only_float_pivots_are_those_of_the_full_reduction(case):
    """pivot_columns leaves the rows above each pivot alone; the rows it
    searches get the operations of the full Gauss-Jordan, so the pivots are
    those of ``_reduced``, also with entries at the rank threshold."""
    tol, rows = case
    m = Matrix(rows, FL)
    assert linalg.pivot_columns(m, tol) == linalg._reduced(m, tol)[1]
    old = (linalg.DEFAULT_RANK_TOL if tol is None else tol) * reference_float_max_abs(m)
    assert same_float(linalg._row_threshold(rows, tol), old)


def hex_of(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_float_det_matches_the_loop_it_replaced():
    cases = [
        [[0, 2, 1], [3, 1 + 1j, 0], [1, 0.5, -2]],                 # row swaps, complex pivots
        [[1e-12, 1], [1, 1]],                                       # a pivot below 1e-9 max|entry|
        [[1, 2], [2, 4]],                                           # singular: 0
        [[2, 1], [complex(NAN, 0), 3]],                             # a NaN in the second row
        [[1e300, 3e300], [-2e300, 5e300]],                          # the product overflows
        [[0.25]],
    ]
    for rows in cases:
        m = Matrix(rows, FL)
        assert hex_of(linalg.float_det(m.to_lists())) == hex_of(reference_float_det(m))


@settings(max_examples=200)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                                                    min_size=n, max_size=n)))
def test_float_det_matches_the_loop_it_replaced_on_random_matrices(rows):
    m = Matrix(rows, FL)
    assert hex_of(linalg.float_det(m.to_lists())) == hex_of(reference_float_det(m))
