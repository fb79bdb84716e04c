"""Elimination-based linear algebra over both scalar modes.

Exact mode never eliminates over ``Fraction``.  It scales each row by the
lcm of its denominators, which changes neither the row space nor the rank,
and runs fraction-free elimination on Python ints (Bareiss 1968,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination"): every update ``(pivot * a - f * b) // prev_pivot`` divides
exactly, because each entry stays a minor of the scaled matrix.  Results
become ``Fraction`` only on output: kernel and column-space bases and the
solutions of ``solve``, ``solve_unique`` and ``inverse`` are read straight
off the integer rows (d times the RREF), one ``Fraction`` per entry they
return, and rank and pivot columns come from forward elimination alone,
since any echelon form has the pivot columns of the RREF.  The reduced
row echelon form of a matrix is unique, so this yields the same RREF,
pivots and determinant as Gauss-Jordan over rationals would, and every
kernel basis and particular solution produced here is canonical and
reproducible.  Float mode uses Gauss-Jordan with partial
pivoting and a relative rank threshold ``tol * (largest entry magnitude)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .matrices import Matrix, hstack
from .scalars import Mode, clear_denominators, one, zero

DEFAULT_RANK_TOL = 1e-9


def _threshold(mat: Matrix, tol: float | None) -> float:
    """Float pivot threshold relative to ``mat``; exact mode needs none."""
    if mat.mode is Mode.EXACT:
        return 0.0
    if tol is None:
        tol = DEFAULT_RANK_TOL
    scale = float(abs(mat.max_abs()))
    return tol * scale


def _integer_rows(data: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """Each row cleared of denominators, and the product of the row
    scales (the factor by which the determinant grew)."""
    cleared = [clear_denominators(row) for row in data]
    return [row for row, _ in cleared], math.prod(s for _, s in cleared)


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
            row_i[j:] = [(p * a - f * b) // prev for a, b in zip(row_i[j:], tail)]
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
    """In-place reduced row echelon form; returns pivot column indices."""
    if mode is Mode.EXACT:
        rows, _ = _integer_rows(data)
        pivots, d, _ = _bareiss(rows, reduce=True)
        data[:] = [[Fraction(x, d) for x in row] for row in rows]
        return pivots
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
    data = mat.to_lists()
    pivots = _rref_data(data, mat.mode, _threshold(mat, tol))
    out = Matrix(data, mat.mode) if data else Matrix.zeros(mat.rows, mat.cols, mat.mode)
    return out, pivots


def _reduced(mat: Matrix, tol: float | None):
    """Rows proportional to the RREF rows of ``mat``, the pivot columns, and
    the map from a row entry to the RREF entry.  Exact mode keeps the
    integer rows (d times the RREF) and makes a ``Fraction`` only of the
    entries a caller reads."""
    if mat.mode is Mode.EXACT:
        rows, _ = _integer_rows(mat.to_lists())
        pivots, d, _ = _bareiss(rows, reduce=True)
        return rows, pivots, lambda x: Fraction(x, d)
    red, pivots = rref(mat, tol)
    return red.to_lists(), pivots, lambda x: x


def pivot_columns(mat: Matrix, tol: float | None = None) -> list[int]:
    """Pivot columns of the RREF of ``mat``.  They are those of any echelon
    form, so exact mode stops after forward elimination."""
    if mat.mode is Mode.EXACT:
        return _bareiss(_integer_rows(mat.to_lists())[0], reduce=False)[0]
    return rref(mat, tol)[1]


def rank(mat: Matrix, tol: float | None = None) -> int:
    return len(pivot_columns(mat, tol))


def kernel_basis(mat: Matrix, tol: float | None = None) -> Matrix:
    """Canonical null-space basis, one column per free variable f of the
    RREF: 1 in row f, minus column f of the RREF in the pivot rows."""
    rows, pivots, entry = _reduced(mat, tol)
    at = dict(zip(pivots, rows))
    free = [c for c in range(mat.cols) if c not in at]
    o, z = one(mat.mode), zero(mat.mode)
    entries = tuple(entry(-at[c][f]) if c in at else o if c == f else z
                    for c in range(mat.cols) for f in free)
    return Matrix._new(mat.cols, len(free), mat.mode, entries)


def _reduce_augmented(a: Matrix, b: Matrix, tol: float | None,
                      thr_from_a: bool = False) -> tuple[list[int], list[list]]:
    """Pivot columns of the RREF of [a | b] and the b part of each pivot
    row, the only entries made ``Fraction`` in exact mode.  The float
    threshold scales with [a | b], or with ``a`` alone."""
    if a.rows != b.rows:
        raise ValueError("row counts differ")
    aug = hstack([a, b])
    if a.mode is Mode.EXACT:
        rows, pivots, entry = _reduced(aug, tol)
        return pivots, [[entry(x) for x in row[a.cols:]] for row in rows[: len(pivots)]]
    data = aug.to_lists()
    pivots = _rref_data(data, a.mode, _threshold(a if thr_from_a else aug, tol))
    return pivots, [row[a.cols:] for row in data[: len(pivots)]]


def solve(a: Matrix, b: Matrix, tol: float | None = None) -> Matrix | None:
    """Particular solution of ``a x = b`` with free variables set to zero.

    Returns None when the system is inconsistent.  ``b`` may have several
    columns; consistency is required for all of them.
    """
    pivots, rows = _reduce_augmented(a, b, tol)
    if any(pc >= a.cols for pc in pivots):
        return None
    x = [[zero(a.mode)] * b.cols for _ in range(a.cols)]
    for pc, row in zip(pivots, rows):
        x[pc] = row
    return Matrix(x, a.mode) if a.cols else Matrix.zeros(0, b.cols, a.mode)


def solve_unique(a: Matrix, b: Matrix, tol: float | None = None) -> Matrix:
    """Solution of ``a x = b`` requiring full column rank and consistency."""
    pivots, rows = _reduce_augmented(a, b, tol)
    if any(pc >= a.cols for pc in pivots):
        raise ValueError("inconsistent system")
    if len(pivots) != a.cols:
        raise ValueError("solution is not unique (rank deficient)")
    return Matrix(rows, a.mode) if a.cols else Matrix.zeros(0, b.cols, a.mode)


def inverse(mat: Matrix, tol: float | None = None) -> Matrix:
    if not mat.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = mat.rows
    pivots, rows = _reduce_augmented(mat, Matrix.identity(n, mat.mode), tol,
                                     thr_from_a=True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(rows, mat.mode) if n else Matrix.zeros(0, 0, mat.mode)


def det(mat: Matrix, tol: float | None = None):
    """Determinant by elimination; tolerance governs float pivot rejection."""
    if not mat.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return one(mat.mode)
    data = mat.to_lists()
    if mat.mode is Mode.EXACT:
        rows, scale = _integer_rows(data)
        return Fraction(integer_det(rows), scale)
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
    rows, pivots, entry = _reduced(mat.T, tol)
    entries = tuple(entry(rows[j][i]) for i in range(mat.rows) for j in range(len(pivots)))
    return Matrix._new(mat.rows, len(pivots), mat.mode, entries)


def is_nonsingular(mat: Matrix, tol: float | None = None) -> bool:
    return mat.is_square and rank(mat, tol) == mat.rows


def poly_eval(coeffs, x):
    """Horner evaluation of an ascending-coefficient polynomial."""
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * x + c
    return 0 * x if acc is None else acc
