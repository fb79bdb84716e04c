"""Elimination-based linear algebra over both scalar modes.

Exact mode never eliminates over ``Fraction``.  An exact matrix stores
each row scaled by the lcm of its denominators, which changes neither the
row space nor the rank, and elimination runs fraction-free on a copy of
those integer rows (Bareiss 1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination"): every update
``(pivot * a - f * b) // prev_pivot`` divides exactly, because each entry
stays a minor of the scaled matrix.  Results stay integers: the RREF,
kernel and column-space bases and the solutions of ``solve``,
``solve_unique`` and ``inverse`` are read straight off the integer rows
(d times the RREF) into matrices over d, and rank and pivot columns come
from forward elimination alone, since any echelon form has the pivot
columns of the RREF.  The reduced row echelon form of a matrix is unique,
so this yields the same RREF, pivots and determinant as Gauss-Jordan over
rationals would, and every kernel basis and particular solution produced
here is canonical and reproducible.  Float mode uses Gauss-Jordan with partial
pivoting and a relative rank threshold ``tol * (largest entry magnitude)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .matrices import Matrix, hstack
from .scalars import Mode, one, zero

DEFAULT_RANK_TOL = 1e-9


def _threshold(mat: Matrix, tol: float | None) -> float:
    """Float pivot threshold relative to ``mat``; exact mode needs none."""
    if mat.mode is Mode.EXACT:
        return 0.0
    if tol is None:
        tol = DEFAULT_RANK_TOL
    scale = float(abs(mat.max_abs()))
    return tol * scale


def _bareiss(rows: list[list[int]], reduce: bool) -> tuple[list[int], int, int]:
    """Fraction-free elimination of integer rows, in place.

    Forward elimination only, unless ``reduce`` also clears the entries
    above each pivot (fraction-free Gauss-Jordan).  Returns the pivot
    columns, the last pivot d and the sign of the row permutation.  After
    forward elimination of a square matrix d is its determinant up to that
    sign; after reduction, pivot row i equals d times row i of the RREF and
    the rows below the rank are zero.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    prev, sign, r = 1, 1, 0
    first_free = None  # first column without a pivot
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            if first_free is None:
                first_free = c
            continue
        if piv != r:
            rows[piv], rows[r] = rows[r], rows[piv]
            sign = -sign
        row_r = rows[r]
        p = row_r[c]
        # Left of c the pivot row is zero, and so are the rows below.  Left
        # of the first free column, rows above are zero except at their own
        # pivot, which is left stale here and set once at the end.
        lo = c if first_free is None else first_free
        tail_above, tail_below = row_r[lo:], row_r[c:]
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            row_i = rows[i]
            f = row_i[c]
            j, tail = (lo, tail_above) if i < r else (c, tail_below)
            if f:
                row_i[j:] = [(p * a - f * b) // prev for a, b in zip(row_i[j:], tail)]
            elif p != prev:  # f = 0: the update only rescales the row
                row_i[j:] = [p * a // prev for a in row_i[j:]]
        pivots.append(c)
        prev = p
        r += 1
    if reduce:
        for i, c in enumerate(pivots):
            rows[i][c] = prev
    return pivots, prev, sign


def integer_det(rows: list[list[int]]) -> int:
    """Determinant of a square matrix of integer ``rows``, which it
    overwrites; forward elimination only."""
    pivots, d, sign = _bareiss(rows, reduce=False)
    return sign * d if len(pivots) == len(rows) else 0


def _rref_data(data: list[list], mode: Mode, thr: float) -> list[int]:
    """In-place reduced row echelon form of float rows by Gauss-Jordan with
    partial pivoting; returns pivot column indices."""
    nrows = len(data)
    ncols = len(data[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        best_mag = thr
        for i in range(r, nrows):
            m = abs(data[i][c])
            if m > best_mag:
                piv, best_mag = i, m
        if piv is None:
            continue
        if piv != r:
            data[piv], data[r] = data[r], data[piv]
        inv = one(mode) / data[r][c]
        row_r = data[r]
        for j in range(c, ncols):
            row_r[j] = row_r[j] * inv
        row_r[c] = one(mode)
        for i in range(nrows):
            if i == r:
                continue
            f = data[i][c]
            if f == 0:
                continue
            row_i = data[i]
            for j in range(c, ncols):
                row_i[j] = row_i[j] - f * row_r[j]
            row_i[c] = zero(mode)
        pivots.append(c)
        r += 1
    return pivots


def rref(mat: Matrix, tol: float | None = None) -> tuple[Matrix, list[int]]:
    rows, pivots, d = _reduced(mat, tol)
    return Matrix.divided(rows, d, mat.cols, mat.mode), pivots


def _reduced(mat: Matrix, tol: float | None):
    """Rows d times the RREF rows of ``mat``, the pivot columns, and d:
    exact mode keeps the integer rows of ``_bareiss``, float mode reduces
    its own copy of the rows with d = 1."""
    if mat.mode is Mode.EXACT:
        rows = mat.integer_rows()
        pivots, d, _ = _bareiss(rows, reduce=True)
        return rows, pivots, d
    rows = mat.to_lists()
    return rows, _rref_data(rows, mat.mode, _threshold(mat, tol)), 1


def pivot_columns(mat: Matrix, tol: float | None = None) -> list[int]:
    """Pivot columns of the RREF of ``mat``.  They are those of any echelon
    form, so exact mode stops after forward elimination."""
    if mat.mode is Mode.EXACT:
        return _bareiss(mat.integer_rows(), reduce=False)[0]
    return _reduced(mat, tol)[1]


def rank(mat: Matrix, tol: float | None = None) -> int:
    return len(pivot_columns(mat, tol))


def kernel_basis(mat: Matrix, tol: float | None = None) -> Matrix:
    """Canonical null-space basis, one column per free variable f of the
    RREF: 1 in row f, minus column f of the RREF in the pivot rows."""
    rows, pivots, d = _reduced(mat, tol)
    at = dict(zip(pivots, rows))
    free = [c for c in range(mat.cols) if c not in at]
    out = [[-at[c][f] for f in free] if c in at else [d if c == f else 0 for f in free]
           for c in range(mat.cols)]
    return Matrix.divided(out, d, len(free), mat.mode)


def _reduce_augmented(a: Matrix, b: Matrix, tol: float | None,
                      thr_from_a: bool = False) -> tuple[list[int], list[list], object]:
    """Pivot columns of the RREF of [a | b], the b part of each pivot row
    times d, and d (integer rows in exact mode; d = 1 in float mode).  The
    float threshold scales with [a | b], or with ``a`` alone."""
    if a.rows != b.rows:
        raise ValueError("row counts differ")
    aug = hstack([a, b])
    if a.mode is Mode.EXACT:
        rows, pivots, d = _reduced(aug, tol)
        return pivots, [row[a.cols:] for row in rows[: len(pivots)]], d
    data = aug.to_lists()
    pivots = _rref_data(data, a.mode, _threshold(a if thr_from_a else aug, tol))
    return pivots, [row[a.cols:] for row in data[: len(pivots)]], 1


def solve(a: Matrix, b: Matrix, tol: float | None = None) -> Matrix | None:
    """Particular solution of ``a x = b`` with free variables set to zero.

    Returns None when the system is inconsistent.  ``b`` may have several
    columns; consistency is required for all of them.
    """
    pivots, rows, d = _reduce_augmented(a, b, tol)
    if any(pc >= a.cols for pc in pivots):
        return None
    x = [[0] * b.cols for _ in range(a.cols)]
    for pc, row in zip(pivots, rows):
        x[pc] = row
    return Matrix.divided(x, d, b.cols, a.mode)


def solve_unique(a: Matrix, b: Matrix, tol: float | None = None) -> Matrix:
    """Solution of ``a x = b`` requiring full column rank and consistency."""
    pivots, rows, d = _reduce_augmented(a, b, tol)
    if any(pc >= a.cols for pc in pivots):
        raise ValueError("inconsistent system")
    if len(pivots) != a.cols:
        raise ValueError("solution is not unique (rank deficient)")
    return Matrix.divided(rows, d, b.cols, a.mode)


def inverse(mat: Matrix, tol: float | None = None) -> Matrix:
    if not mat.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = mat.rows
    pivots, rows, d = _reduce_augmented(mat, Matrix.identity(n, mat.mode), tol,
                                        thr_from_a=True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.divided(rows, d, n, mat.mode)


def det(mat: Matrix, tol: float | None = None):
    """Determinant by elimination; tolerance governs float pivot rejection."""
    if not mat.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return one(mat.mode)
    if mat.mode is Mode.EXACT:
        return Fraction(integer_det(mat.integer_rows()), math.prod(mat.denominators))
    data = mat.to_lists()
    thr = _threshold(mat, tol)
    sign = 1
    result = one(mat.mode)
    for c in range(n):
        piv = None
        best_mag = thr
        for i in range(c, n):
            m = abs(data[i][c])
            if m > best_mag:
                piv, best_mag = i, m
        if piv is None:
            return zero(mat.mode)
        if piv != c:
            data[piv], data[c] = data[c], data[piv]
            sign = -sign
        pv = data[c][c]
        result = result * pv
        for i in range(c + 1, n):
            f = data[i][c] / pv
            if f == 0:
                continue
            row_i, row_c = data[i], data[c]
            for j in range(c, n):
                row_i[j] = row_i[j] - f * row_c[j]
    return result if sign > 0 else -result


def matrix_power(mat: Matrix, k: int) -> Matrix:
    if not mat.is_square:
        raise ValueError("power of a non-square matrix")
    if k < 0:
        raise ValueError("negative power")
    acc = Matrix.identity(mat.rows, mat.mode)
    for _ in range(k):
        acc = acc @ mat
    return acc


def least_squares(a: Matrix, b: Matrix, tol: float | None = None) -> Matrix:
    """Normal-equations solution; requires ``a`` to have full column rank."""
    ah = a.conj_T()
    return solve_unique(ah @ a, ah @ b, tol)


def column_space_basis(mat: Matrix, tol: float | None = None) -> Matrix:
    """Canonical basis of the column space (RREF rows of the transpose)."""
    rows, pivots, d = _reduced(mat.T, tol)
    out = [[rows[j][i] for j in range(len(pivots))] for i in range(mat.rows)]
    return Matrix.divided(out, d, len(pivots), mat.mode)


def is_nonsingular(mat: Matrix, tol: float | None = None) -> bool:
    return mat.is_square and rank(mat, tol) == mat.rows


def poly_eval(coeffs, x):
    """Horner evaluation of an ascending-coefficient polynomial."""
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * x + c
    return 0 * x if acc is None else acc
