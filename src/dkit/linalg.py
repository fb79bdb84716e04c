"""Elimination-based linear algebra over both scalar modes.

Exact mode never eliminates over ``Fraction``.  An exact matrix stores
each row scaled by the lcm of its denominators, and one kernel,
``_bareiss``, eliminates a copy of those integer rows forward,
fraction-free (Bareiss 1968): ``(pivot * a - f * b) // prev_pivot`` divides
exactly, as each entry stays a minor.  Rank, pivots and determinant need
no more.  Back-substitution over the non-pivot columns turns the echelon
rows u_i into d times the RREF rows, d the last pivot (Nakos, Turner &
Williams 1997): R_i = (d u_i - sum over j > i of u_i[c_j] R_j) / u_i[c_i],
exact by Cramer's rule.  The RREF is unique, so every basis and solution
read off it is canonical.  An elimination stopped at pivot d resumes
with ``prev`` = d: ``pencil.char_poly`` stops its deflating elimination
after the W* columns (``stop``) and resumes it at each node, and only
:func:`preimages` logs the row operations, to replay them on columns
that come later (:func:`_replay`), as each [A | X] of :func:`filtration`
resumes its one elimination of A and back-substitutes only the appended
columns left free.  That step's kernel vectors (v, y) are reduced as
rows once more, which makes the v-parts canonical and carries the
y-parts along as the step's y-map.  Float mode uses Gauss-Jordan with
partial pivoting and a relative rank threshold
``tol * (largest entry magnitude)``.  Its pivot search (:func:`pivot_columns`,
so rank and the nonsingularity test) stops at the pivot row: it leaves
the rows above each pivot alone, which are never searched again, and
finds the pivots of the full reduction.  Its determinant is one kernel
on rows, :func:`float_det`.  Only ``pencil.char_poly`` logs a float
elimination, of the Vandermonde matrix of its nodes, to replay it on
each pencil's column of node determinants (:func:`_replay_rref`); it
reads the smallest logged pivot against the threshold of
:func:`_row_threshold` under the fixed ``DEFAULT_RANK_TOL`` to tell when
the elimination of [V | dets] could not succeed, and raises then.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .errors import ChainConstructionFailure
from .matrices import Matrix, hstack
from .scalars import Mode, one

DEFAULT_RANK_TOL = 1e-9


def _threshold(mat: Matrix, tol: float | None) -> float:
    """Float pivot threshold relative to ``mat``; exact mode needs none."""
    if mat.mode is Mode.EXACT:
        return 0.0
    if tol is None:
        tol = DEFAULT_RANK_TOL
    scale = float(abs(mat.max_abs()))
    return tol * scale


def _row_threshold(rows: list[list], tol: float | None = None) -> float:
    """:func:`_threshold` of the float matrix with these rows: the same
    row-major scan, so a NaN counts only where it comes first."""
    return (DEFAULT_RANK_TOL if tol is None else tol) * max(
        map(abs, chain.from_iterable(rows)), default=0.0)


def _bareiss(rows: list[list[int]], log: list | None = None, r: int = 0,
             prev: int = 1, stop: int | None = None) -> tuple[list[int], int, int]:
    """Fraction-free forward elimination of integer rows, in place.

    Rows above ``r`` are pivot rows already, ``prev`` the last pivot.
    With ``stop`` it pivots in the first ``stop`` columns only, but still
    updates whole rows.  Returns the pivot columns, the last pivot d and
    the sign of the row permutation; a square matrix has determinant d up
    to that sign.  Each step goes to ``log``, if given, as (pivot row,
    pivot, previous pivot, the multipliers of the rows below).
    """
    nrows = len(rows)
    pivots: list[int] = []
    sign = 1
    for c in range((len(rows[0]) if nrows else 0) if stop is None else stop):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[piv], rows[r] = rows[r], rows[piv]
            sign = -sign
        row_r = rows[r]
        p, tail = row_r[c], row_r[c:]
        if log is not None:
            log.append((piv, p, prev, [row[c] for row in rows[r + 1:]]))
        for row in rows[r + 1:]:
            f = row[c]
            if f:
                row[c:] = [(p * a - f * b) // prev for a, b in zip(row[c:], tail)]
            elif p != prev:  # f = 0: the update only rescales the row
                row[c:] = [p * a // prev for a in row[c:]]
        pivots.append(c)
        prev = p
        r += 1
    return pivots, prev, sign


def _back_substitute(rows: list[list[int]], pivots: list[int], d: int, start: int = 0) -> None:
    """Echelon rows of :func:`_bareiss` with last pivot d to d times the
    RREF rows, in place, in the pivot columns and in the non-pivot columns
    from ``start`` on (a column left out keeps its echelon entries); rows
    below the rank are zero already."""
    free = [k for k in range(start, len(rows[0]) if rows else 0) if k not in pivots]
    for i in reversed(range(len(pivots))):
        u, ci = rows[i], pivots[i]
        terms = [(u[cj], rows[j]) for j, cj in enumerate(pivots[i + 1:], i + 1) if u[cj]]
        for k in free:
            if k > ci:
                u[k] = (d * u[k] - sum(f * row[k] for f, row in terms)) // u[ci]
        for cj in pivots[i + 1:]:
            u[cj] = 0
        u[ci] = d


def _replay(log: list, cols: list[list[int]]) -> None:
    """Apply the row operations ``log`` of a :func:`_bareiss` call that
    started at row 0 to integer columns of the same rows, in place: each
    entry becomes the minor it would be had the columns been eliminated
    alongside."""
    for r, (piv, p, prev, fs) in enumerate(log):
        for col in cols:
            col[piv], col[r] = col[r], col[piv]
            b = col[r]
            col[r + 1:] = [(p * v - f * b) // prev for v, f in zip(col[r + 1:], fs)]


def integer_det(rows: list[list[int]], prev: int = 1) -> int:
    """Determinant of a square matrix of integer ``rows``, which it
    overwrites; forward elimination only.  With ``prev`` the rows are the
    trailing block of an elimination stopped at pivot ``prev``, and the
    result is the determinant of the whole matrix (Sylvester's identity),
    up to the sign of the row swaps made before it stopped."""
    pivots, d, sign = _bareiss(rows, prev=prev)
    return sign * d if len(pivots) == len(rows) else 0


def _rref_data(data: list[list], thr: float, log: list | None = None,
               back: bool = True) -> list[int]:
    """In-place reduced row echelon form of float rows by Gauss-Jordan with
    partial pivoting; returns pivot column indices.  Each step goes to
    ``log``, if given, as (pivot row, pivot magnitude, the inverse of the
    pivot, the (row, multiplier) pairs of the rows it updates).  With
    ``back`` False it leaves the rows above each pivot alone, so the rows
    end in an echelon form only; the rows at or below it get the same
    operations in the same order, and only they are searched for the
    later pivots, so the pivots are the same."""
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
        inv = (1 + 0j) / data[r][c]
        row_r = data[r]
        for j in range(c, ncols):
            row_r[j] = row_r[j] * inv
        row_r[c] = 1 + 0j
        if log is not None:
            log.append((piv, best_mag, inv,
                        [(i, row[c]) for i, row in enumerate(data) if i != r and row[c] != 0]))
        for i in range(0 if back else r + 1, nrows):
            if i == r:
                continue
            f = data[i][c]
            if f == 0:
                continue
            row_i = data[i]
            for j in range(c, ncols):
                row_i[j] = row_i[j] - f * row_r[j]
            row_i[c] = 0j
        pivots.append(c)
        r += 1
    return pivots


def _replay_rref(log: list, col: list) -> None:
    """Apply the row operations ``log`` of a :func:`_rref_data` call to a
    float column of the same rows, in place: it becomes what that column
    would have been, reduced alongside in a matrix whose pivots all lie
    in the logged columns."""
    for r, (piv, _, inv, mults) in enumerate(log):
        col[piv], col[r] = col[r], col[piv]
        b = col[r] = col[r] * inv
        for i, f in mults:
            col[i] = col[i] - f * b


def rref(mat: Matrix, tol: float | None = None) -> tuple[Matrix, list[int]]:
    rows, pivots, d = _reduced(mat, tol)
    return Matrix.divided(rows, d, mat.cols, mat.mode), pivots


def _reduced(mat: Matrix, tol: float | None, thr_of: Matrix | None = None):
    """Rows d times the RREF rows of ``mat``, the pivot columns, and d:
    exact mode back-substitutes the integer rows of ``_bareiss``, float
    mode reduces its own copy of the rows with d = 1 under the threshold
    of ``thr_of`` (default ``mat``)."""
    if mat.mode is Mode.EXACT:
        rows = mat.integer_rows()
        pivots, d, _ = _bareiss(rows)
        _back_substitute(rows, pivots, d)
        return rows, pivots, d
    rows = mat.to_lists()
    return rows, _rref_data(rows, _threshold(mat if thr_of is None else thr_of, tol)), 1


def pivot_columns(mat: Matrix, tol: float | None = None) -> list[int]:
    """Pivot columns of the RREF of ``mat``.  They are those of any echelon
    form, so both modes stop after forward elimination."""
    if mat.mode is Mode.EXACT:
        return _bareiss(mat.integer_rows())[0]
    return _rref_data(mat.to_lists(), _threshold(mat, tol), back=False)


def rank(mat: Matrix, tol: float | None = None) -> int:
    return len(pivot_columns(mat, tol))


def kernel_basis(mat: Matrix, tol: float | None = None) -> Matrix:
    """Canonical null-space basis, one column per free variable f of the
    RREF: 1 in row f, minus column f of the RREF in the pivot rows."""
    rows, pivots, d = _reduced(mat, tol)
    return _as_columns(_kernel_vectors(rows, pivots, d, mat.cols), d, mat.cols, mat.mode)


def _kernel_vectors(rows, pivots: list[int], d, ncols: int, start: int = 0) -> list[list]:
    """d times the :func:`kernel_basis` vector of each free column f >=
    ``start`` of a matrix with ``ncols`` columns whose RREF rows times d
    are ``rows`` (only in those columns f): d at f, minus column f of the
    rows at the pivots."""
    at = dict(zip(pivots, rows))
    return [[-at[c][f] if c in at else d * (c == f) for c in range(ncols)]
            for f in range(start, ncols) if f not in at]


def _as_columns(vectors: list[list], d, nrows: int, mode: Mode) -> Matrix:
    """The matrix whose columns are the first ``nrows`` entries of each of
    ``vectors``, over d."""
    return Matrix.divided([[v[i] for v in vectors] for i in range(nrows)], d, len(vectors), mode)


def preimages(a: Matrix, tol: float | None = None):
    """The kernel basis of A, and the step function from X to the
    canonical basis N of {v : A v in span X}, the column space of the
    v-parts of ker [A | X], with its y-map: Y with A N = -X Y.

    Exact mode eliminates A once and back-substitutes it once, which
    gives ker A.  X's columns, each over its own denominator c_j, are
    appended times d_i in row i, d_i the denominator of row i of A: that
    scales the rows of [A | X C], C = diag(c_j), which has the same
    kernel v-parts.  A's logged row operations are replayed on the
    appended columns and elimination resumes past A's.  When that finds
    [A | X] of full row rank, the function returns None before it
    back-substitutes: for a square A the preimage then has dimension at
    most rank X.  Otherwise only the appended columns that stay free are
    back-substituted: A's free columns give the vectors of ker A, with a
    zero y-part, whatever X is.  One more elimination, of the kernel
    vectors (v, y) as the rows of [V^T | Y^T], makes the v-parts
    canonical, N^T the RREF of V^T, and carries the y-parts along: when
    the v-parts are independent, as for a regular pencil's walks, every
    pivot lies in V^T and C times the rest of the rows, transposed, is
    the unique Y.  Dependent v-parts leave the map None.  Float mode
    reduces [A | X] afresh, as its pivot threshold scales with [A | X],
    and keeps no map.
    """
    if a.mode is not Mode.EXACT:
        def float_step(x: Matrix) -> tuple[Matrix, None]:
            k = kernel_basis(hstack([a, x]), tol).take_rows(range(a.cols))
            return column_space_basis(k, tol), None
        return kernel_basis(a, tol), float_step
    n = a.cols
    top, log = a.integer_rows(), []
    pivots, d, _ = _bareiss(top, log)
    reduced = [list(row) for row in top[: len(pivots)]]
    _back_substitute(reduced, pivots, d)
    kernel = _kernel_vectors(reduced, pivots, d, n)

    def preimage(x: Matrix) -> tuple[Matrix, Matrix | None] | None:
        xt = x.T
        cols = [[di * v for di, v in zip(a.denominators, nums)] for nums in xt.integer_rows()]
        _replay(log, cols)
        ext = [list(row) for row in zip(*cols)] if cols else [[] for _ in top]
        more, dx, _ = _bareiss(ext, r=len(pivots), prev=d)
        piv = pivots + [n + c for c in more]
        if len(piv) == a.rows:
            return None
        rows = [top[i] + ext[i] for i in range(len(piv))]  # top is 0 below A's rank
        _back_substitute(rows, piv, dx, n)
        m = x.cols
        vy = [v + [0] * m for v in kernel] + _kernel_vectors(rows, piv, dx, n + m, n)
        canon, dc, _ = _bareiss(vy)
        _back_substitute(vy, canon, dc)
        dim = sum(c < n for c in canon)  # rows past it have pivots in Y^T
        basis = _as_columns(vy[:dim], dc, n, a.mode)
        if dim < len(canon):
            return basis, None
        dens = xt.denominators
        ymap = [[c * y for c, y in zip(dens, row[n:])] for row in vy]
        return basis, _as_columns(ymap, dc, m, a.mode)

    return _as_columns(kernel, d, n, a.mode), preimage


def filtration(a: Matrix, e: Matrix, target: int | None = None,
               tol: float | None = None, maps: list | None = None) -> list[Matrix]:
    """Bases of the growing subspaces N_1 < N_2 < ...: N_1 = ker A, and N_k
    the canonical basis of the preimage of E(N_{k-1}) under A
    (:func:`preimages`, which eliminates A once for all steps).

    With a ``target`` it runs until the dimension reaches it, and raises
    ChainConstructionFailure when ker A is trivial or a step stalls or
    overshoots.  Without one it runs until the first step that does not
    grow, which for A = F, E = G walks the Wong sequence of the pencil
    sF - G up to its limit W*; in exact mode a step whose [A | -E N_{k-1}]
    has full row rank ends after its forward elimination, as N_k contains
    N_{k-1} and so equals it.  Each step's y-map goes to ``maps``, if
    given: Y_k with A N_k = E N_{k-1} Y_k, or None where the step keeps
    none (float mode, dependent v-parts).
    """
    basis, preimage = preimages(a, tol)
    bases = [basis] if basis.cols else []
    if target is not None and not bases:
        raise ChainConstructionFailure(
            "kernel is trivial but the multiplicity demands eigenvectors"
        )
    limit = a.cols if target is None else target
    while bases and bases[-1].cols < limit:
        prev = bases[-1]
        step = preimage(-(e @ prev))
        grew = step is not None and step[0].cols > prev.cols
        if target is None and not grew:
            break
        if not grew or step[0].cols > limit:
            raise ChainConstructionFailure(
                f"chain subspaces stalled at dimension {prev.cols} "
                f"(target {target}); the rank structure contradicts the "
                f"computed multiplicities"
            )
        bases.append(step[0])
        if maps is not None:
            maps.append(step[1])
    return bases


def _reduce_augmented(a: Matrix, b: Matrix, tol: float | None,
                      thr_of: Matrix | None = None) -> tuple[list[int], list[list], object]:
    """Pivot columns of the RREF of [a | b], the b part of each pivot row
    times d, and d (integer rows in exact mode; d = 1 in float mode).  The
    float threshold scales with [a | b], or with ``thr_of``."""
    if a.rows != b.rows:
        raise ValueError("row counts differ")
    rows, pivots, d = _reduced(hstack([a, b]), tol, thr_of)
    return pivots, [row[a.cols:] for row in rows[: len(pivots)]], d


def solve(a: Matrix, b: Matrix, tol: float | None = None,
          thr_of: Matrix | None = None) -> Matrix | None:
    """Particular solution of ``a x = b`` with free variables set to zero.

    Returns None when the system is inconsistent.  ``b`` may have several
    columns; consistency is required for all of them.  The float pivot
    threshold scales with [a | b], or with ``thr_of``.
    """
    pivots, rows, d = _reduce_augmented(a, b, tol, thr_of)
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
    pivots, rows, d = _reduce_augmented(mat, Matrix.identity(n, mat.mode), tol, thr_of=mat)
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
    return float_det(mat.to_lists(), tol)


def float_det(data: list[list], tol: float | None = None) -> complex:
    """Determinant of a square matrix of float rows ``data``, which it
    overwrites, by elimination with partial pivoting; a column with no
    entry above the threshold of the rows (:func:`_row_threshold`) makes
    it 0."""
    n = len(data)
    thr = _row_threshold(data, tol)
    sign = 1
    result = 1 + 0j
    for c in range(n):
        piv = None
        best_mag = thr
        for i in range(c, n):
            m = abs(data[i][c])
            if m > best_mag:
                piv, best_mag = i, m
        if piv is None:
            return 0j
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


def least_squares(a: Matrix, b: Matrix, tol: float | None = None) -> Matrix:
    """Normal-equations solution; requires ``a`` to have full column rank."""
    ah = a.conj_T()
    return solve_unique(ah @ a, ah @ b, tol)


def column_space_basis(mat: Matrix, tol: float | None = None) -> Matrix:
    """Canonical basis of the column space (RREF rows of the transpose)."""
    rows, pivots, d = _reduced(mat.T, tol)
    return _as_columns(rows[: len(pivots)], d, mat.rows, mat.mode)


def is_nonsingular(mat: Matrix, tol: float | None = None) -> bool:
    return mat.is_square and rank(mat, tol) == mat.rows
