"""Immutable dense matrices over a single scalar mode.

Entries are stored row-major in a flat tuple.  Zero-width shapes
(``n x 0``, ``0 x m``) are first-class citizens: the canonical form of a
pencil with no finite (or no infinite) eigenvalues has empty blocks, and
all operations treat empty sums as zero.

An exact matrix keeps its rows cleared of denominators once it has been
the left operand of ``@``, so a constant map (Q, C, J_p, B_p, ...)
applied at every step of a recursion is cleared once, not once per
product.  The entries never change, so the cache cannot go stale;
equality, hashing and ``repr`` read the entries only.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import Mode, Scalar, clear_denominators, ensure_scalar, format_scalar, zero

_ZERO = Fraction(0)


class Matrix:
    __slots__ = ("rows", "cols", "mode", "_e", "_int_rows")

    def __init__(self, rows: Sequence[Sequence], mode: Mode):
        data = [list(r) for r in rows]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        entries = tuple(ensure_scalar(x, mode) for r in data for x in r)
        object.__setattr__(self, "rows", nrows)
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_e", entries)
        object.__setattr__(self, "_int_rows", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def _new(cls, nrows: int, ncols: int, mode: Mode, entries: tuple) -> "Matrix":
        m = cls.__new__(cls)
        object.__setattr__(m, "rows", nrows)
        object.__setattr__(m, "cols", ncols)
        object.__setattr__(m, "mode", mode)
        object.__setattr__(m, "_e", entries)
        object.__setattr__(m, "_int_rows", None)
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int, mode: Mode) -> "Matrix":
        z = zero(mode)
        return cls._new(nrows, ncols, mode, (z,) * (nrows * ncols))

    @classmethod
    def identity(cls, n: int, mode: Mode) -> "Matrix":
        z, o = zero(mode), (Fraction(1) if mode is Mode.EXACT else complex(1.0))
        entries = tuple(o if i == j else z for i in range(n) for j in range(n))
        return cls._new(n, n, mode, entries)

    @classmethod
    def column(cls, values: Iterable, mode: Mode) -> "Matrix":
        vals = [ensure_scalar(v, mode) for v in values]
        return cls._new(len(vals), 1, mode, tuple(vals))

    # -- access ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key) -> Scalar:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self._e[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return list(self._e[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> "Matrix":
        return Matrix._new(self.rows, 1, self.mode,
                           tuple(self._e[i * self.cols + j] for i in range(self.rows)))

    def take_cols(self, js: Sequence[int]) -> "Matrix":
        entries = tuple(self._e[i * self.cols + j] for i in range(self.rows) for j in js)
        return Matrix._new(self.rows, len(js), self.mode, entries)

    def take_rows(self, iz: Sequence[int]) -> "Matrix":
        c = self.cols
        if isinstance(iz, range) and iz.step == 1 and 0 <= iz.start and iz.stop <= self.rows:
            entries = self._e[iz.start * c : iz.stop * c]  # a block of rows is one slice
        else:
            entries = tuple(self._e[i * c + j] for i in iz for j in range(c))
        return Matrix._new(len(iz), c, self.mode, entries)

    def to_lists(self) -> list[list]:
        return [self.row_list(i) for i in range(self.rows)]

    def column_list(self) -> list:
        """Entries of a column vector as a flat list."""
        if self.cols != 1:
            raise ValueError("not a column vector")
        return list(self._e)

    # -- arithmetic --------------------------------------------------------

    def _check_mode(self, other: "Matrix"):
        if self.mode is not other.mode:
            raise ValueError(f"mode mismatch: {self.mode} vs {other.mode}")

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_mode(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix._new(self.rows, self.cols, self.mode,
                           tuple(a + b for a, b in zip(self._e, other._e)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_mode(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix._new(self.rows, self.cols, self.mode,
                           tuple(a - b for a, b in zip(self._e, other._e)))

    def __neg__(self) -> "Matrix":
        return Matrix._new(self.rows, self.cols, self.mode, tuple(-a for a in self._e))

    def scale(self, s) -> "Matrix":
        s = ensure_scalar(s, self.mode)
        return Matrix._new(self.rows, self.cols, self.mode, tuple(s * a for a in self._e))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product.

        Exact mode clears denominators first: row i of ``self`` times the lcm
        d_i of its denominators and column j of ``other`` times the lcm e_j
        of its own become integer vectors, so each output entry is one
        integer dot product s_ij and one ``Fraction(s_ij, d_i * e_j)``
        instead of a gcd for every multiply and add.  The cleared rows of
        ``self`` are kept on it for its next product; the columns of
        ``other`` are cleared anew, as a right operand is typically a state
        vector used once.  A zero dot product yields one shared
        ``Fraction(0)``, with no gcd and no normalisation.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_mode(other)
        if self.cols != other.rows:
            raise ValueError(f"inner dimensions differ: {self.shape} @ {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self._e, other._e
        if self.mode is Mode.EXACT:
            left = self._int_rows
            if left is None:
                left = tuple(clear_denominators(a[i * k : (i + 1) * k]) for i in range(n))
                object.__setattr__(self, "_int_rows", left)
            right = [clear_denominators(b[j::m]) for j in range(m)]
            out = [Fraction(s, d * e) if (s := sum(map(operator.mul, arow, bcol))) else _ZERO
                   for arow, d in left for bcol, e in right]
            return Matrix._new(n, m, self.mode, tuple(out))
        z = zero(self.mode)
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                s = z
                for t in range(k):
                    s += arow[t] * b[t * m + j]
                out.append(s)
        return Matrix._new(n, m, self.mode, tuple(out))

    @property
    def T(self) -> "Matrix":
        entries = tuple(self._e[i * self.cols + j]
                        for j in range(self.cols) for i in range(self.rows))
        return Matrix._new(self.cols, self.rows, self.mode, entries)

    def conj_T(self) -> "Matrix":
        if self.mode is Mode.EXACT:
            return self.T
        entries = tuple(self._e[i * self.cols + j].conjugate()
                        for j in range(self.cols) for i in range(self.rows))
        return Matrix._new(self.cols, self.rows, self.mode, entries)

    # -- predicates and norms ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.mode is other.mode and self.shape == other.shape
                and self._e == other._e)

    def __hash__(self):
        return hash((self.rows, self.cols, self.mode, self._e))

    def max_abs(self):
        """Largest entry magnitude (Fraction in exact mode, float otherwise)."""
        if not self._e:
            return Fraction(0) if self.mode is Mode.EXACT else 0.0
        return max(abs(x) for x in self._e)

    def is_zero(self, tol=None) -> bool:
        """Entrywise zero test; ``tol`` is an absolute threshold (float mode)."""
        if self.mode is Mode.EXACT or tol is None:
            return all(x == 0 for x in self._e)
        return all(abs(x) <= tol for x in self._e)

    # -- conversions ---------------------------------------------------------

    def to_float(self) -> "Matrix":
        if self.mode is Mode.FLOAT:
            return self
        return Matrix._new(self.rows, self.cols, Mode.FLOAT,
                           tuple(complex(x) for x in self._e))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_scalar(x) for x in self.row_list(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols} {self.mode}: [{body}])"


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("hstack of nothing")
    nrows, mode = mats[0].rows, mats[0].mode
    for m in mats:
        if m.rows != nrows:
            raise ValueError("row counts differ")
        if m.mode is not mode:
            raise ValueError("mode mismatch")
    entries = []
    for i in range(nrows):
        for m in mats:
            entries.extend(m._e[i * m.cols : (i + 1) * m.cols])
    return Matrix._new(nrows, sum(m.cols for m in mats), mode, tuple(entries))


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("vstack of nothing")
    ncols, mode = mats[0].cols, mats[0].mode
    for m in mats:
        if m.cols != ncols:
            raise ValueError("column counts differ")
        if m.mode is not mode:
            raise ValueError("mode mismatch")
    entries = []
    for m in mats:
        entries.extend(m._e)
    return Matrix._new(sum(m.rows for m in mats), ncols, mode, tuple(entries))


def block_diag(mats: Sequence[Matrix], mode: Mode) -> Matrix:
    """Direct sum of square blocks; an empty list gives the 0x0 matrix."""
    n = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    out = Matrix.zeros(n, c, mode).to_lists()
    r0 = c0 = 0
    for m in mats:
        if m.mode is not mode:
            raise ValueError("mode mismatch")
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m[i, j]
        r0 += m.rows
        c0 += m.cols
    return Matrix(out, mode) if out else Matrix.zeros(n, c, mode)
