"""Immutable dense matrices over a single scalar mode.

Zero-width shapes (``n x 0``, ``0 x m``) are first-class citizens: the
canonical form of a pencil with no finite (or no infinite) eigenvalues has
empty blocks, and all operations treat empty sums as zero.

A float matrix stores its entries row-major in a flat tuple of ``complex``.
An exact matrix stores each row cleared of denominators: a tuple of integer
numerators and one row denominator d, in lowest terms (the gcd of the
numerators and d is 1, d >= 1, and a zero row has d = 1).  That form is
unique, so equality and hashing compare the stored rows, and every exact
operation runs on integers: the rows go straight into fraction-free
elimination (:meth:`Matrix.integer_rows`), products, sums and stacks
combine rows by integer lcm and gcd, and a ``Fraction`` is made only when
an entry leaves the matrix (indexing, ``row_list``, ``to_lists``,
``column_list``, ``max_abs``) while ``format_entries`` prints the rows
without one.  This module alone knows how an exact value is cleared; the
constructor is where ``Fraction`` entries come in.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .scalars import (Mode, Scalar, clear_denominators, ensure_scalar, format_ratios,
                      format_scalar, zero)


def _lowest(nums: Sequence[int], d: int) -> tuple[tuple[int, ...], int]:
    """The row nums / d (d != 0) in lowest terms with a positive denominator."""
    g = math.gcd(*nums, d)
    if d < 0:
        g = -g
    if g == 1:
        return tuple(nums), d
    return tuple(x // g for x in nums), d // g


class Matrix:
    __slots__ = ("rows", "cols", "mode", "_f", "_r")

    def __init__(self, rows: Sequence[Sequence], mode: Mode):
        data = [list(r) for r in rows]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        if mode is Mode.EXACT:
            _fill(self, nrows, ncols, mode, None, tuple(map(_cleared, data)))
        else:
            _fill(self, nrows, ncols, mode,
                  tuple(ensure_scalar(x, mode) for r in data for x in r), None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def divided(cls, rows: Sequence[Sequence], d, ncols: int, mode: Mode) -> "Matrix":
        """The matrix ``rows`` / d with ``ncols`` columns: exact mode takes
        integer rows and an integer d != 0, float mode numbers and d = 1."""
        if mode is Mode.EXACT:
            return _exact(ncols, tuple(_lowest(r, d) for r in rows))
        return _float(len(rows), ncols, tuple(complex(x) for r in rows for x in r))

    @classmethod
    def zeros(cls, nrows: int, ncols: int, mode: Mode) -> "Matrix":
        if mode is Mode.EXACT:
            return _exact(ncols, (((0,) * ncols, 1),) * nrows)
        return _float(nrows, ncols, (zero(mode),) * (nrows * ncols))

    @classmethod
    def identity(cls, n: int, mode: Mode) -> "Matrix":
        if mode is Mode.EXACT:
            return _exact(n, tuple((tuple(int(i == j) for j in range(n)), 1) for i in range(n)))
        z, o = zero(mode), complex(1.0)
        return _float(n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @classmethod
    def column(cls, values: Iterable, mode: Mode) -> "Matrix":
        if mode is not Mode.EXACT:
            vals = tuple(ensure_scalar(v, mode) for v in values)
            return _float(len(vals), 1, vals)
        rows = []
        for v in values:
            if type(v) is not int and type(v) is not Fraction:  # an int is read as v / 1
                v = ensure_scalar(v, mode)
            rows.append(((v.numerator,), v.denominator))
        return _exact(1, tuple(rows))

    # -- access ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def _e(self) -> tuple:
        """All entries, row-major; exact entries are made ``Fraction`` here.
        For readers outside the package (the benchmark's trace reads it);
        the package itself reads the stored rows."""
        if self._r is None:
            return self._f
        return tuple(Fraction(x, d) for nums, d in self._r for x in nums)

    def __getitem__(self, key) -> Scalar:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        if self._r is None:
            return self._f[i * self.cols + j]
        nums, d = self._r[i]
        return Fraction(nums[j], d)

    def row_list(self, i: int) -> list:
        if self._r is None:
            return list(self._f[i * self.cols : (i + 1) * self.cols])
        nums, d = self._r[i]
        return [Fraction(x, d) for x in nums]

    def integer_rows(self) -> list[list[int]]:
        """Exact mode: a fresh copy of each row times its denominator, which
        the caller may overwrite (e.g. by fraction-free elimination)."""
        return [list(nums) for nums, _ in self._r]

    @property
    def denominators(self) -> list[int]:
        """Exact mode: the denominator of each row."""
        return [d for _, d in self._r]

    def col(self, j: int) -> "Matrix":
        return self.take_cols((j,))

    def take_cols(self, js: Sequence[int]) -> "Matrix":
        if self._r is None:
            c = self.cols
            return _float(self.rows, len(js),
                          tuple(self._f[i * c + j] for i in range(self.rows) for j in js))
        return _exact(len(js), tuple(_lowest([nums[j] for j in js], d) for nums, d in self._r))

    def take_rows(self, iz: Sequence[int]) -> "Matrix":
        if isinstance(iz, range) and iz.step == 1 and 0 <= iz.start and iz.stop <= self.rows:
            lo, hi = iz.start, max(iz.start, iz.stop)  # a block of rows is one slice
            if self._r is not None:
                return _exact(self.cols, self._r[lo:hi])
            c = self.cols
            return _float(hi - lo, c, self._f[lo * c : hi * c])
        if self._r is not None:
            return _exact(self.cols, tuple(self._r[i] for i in iz))
        c = self.cols
        return _float(len(iz), c, tuple(self._f[i * c + j] for i in iz for j in range(c)))

    def to_lists(self) -> list[list]:
        return [self.row_list(i) for i in range(self.rows)]

    def column_list(self) -> list:
        """Entries of a column vector as a flat list."""
        if self.cols != 1:
            raise ValueError("not a column vector")
        if self._r is None:
            return list(self._f)
        return [Fraction(nums[0], d) for nums, d in self._r]

    def format_entries(self) -> list[str]:
        """``format_scalar`` of every entry, row-major; raises its
        ``DkitError`` for a value over the digit limit."""
        if self._r is None:
            return [format_scalar(x) for x in self._f]
        return format_ratios(self._r)

    # -- arithmetic --------------------------------------------------------

    def _check_mode(self, other: "Matrix"):
        if self.mode is not other.mode:
            raise ValueError(f"mode mismatch: {self.mode} vs {other.mode}")

    def _combine(self, other: "Matrix", op) -> "Matrix":
        """Entrywise ``op`` (add or sub) of two matrices of one shape."""
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_mode(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        if self._r is None:
            return _float(self.rows, self.cols, tuple(map(op, self._f, other._f)))
        out = []
        for (a, d), (b, e) in zip(self._r, other._r):
            if d == e:
                out.append(_lowest(list(map(op, a, b)), d))
            else:
                s = math.lcm(d, e)
                da, eb = s // d, s // e
                out.append(_lowest([op(x * da, y * eb) for x, y in zip(a, b)], s))
        return _exact(self.cols, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "Matrix":
        if self._r is None:
            return _float(self.rows, self.cols, tuple(-a for a in self._f))
        return _exact(self.cols, tuple((tuple(-x for x in nums), d) for nums, d in self._r))

    def scale(self, s) -> "Matrix":
        s = ensure_scalar(s, self.mode)
        if self._r is None:
            return _float(self.rows, self.cols, tuple(s * a for a in self._f))
        p, q = s.numerator, s.denominator
        return _exact(self.cols, tuple(_lowest([p * x for x in nums], q * d)
                                       for nums, d in self._r))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product.

        Exact mode multiplies the stored integer rows: the rows of ``other``
        are put on one denominator e (their integer lcm), so row i of the
        product is the integer dot products of row i of ``self`` with the
        columns of ``other``, over d_i e, and one n-ary gcd brings it to
        lowest terms.  No ``Fraction`` is made; a zero row costs no division.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_mode(other)
        if self.cols != other.rows:
            raise ValueError(f"inner dimensions differ: {self.shape} @ {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        if self._r is not None:
            if not k:
                return Matrix.zeros(n, m, self.mode)
            right = other._r
            e = math.lcm(*[d for _, d in right])
            mul, gcd = operator.mul, math.gcd
            out = []
            if m == 1:  # a column, the operand of every step of a recursion
                col = [b[0] if d == e else b[0] * (e // d) for b, d in right]
                for a, d in self._r:
                    s = sum(map(mul, a, col))
                    if s:
                        g = gcd(s, d * e)
                        out.append(((s // g,), d * e // g))
                    else:
                        out.append(_ZERO_ENTRY)
                return _exact(1, tuple(out))
            cols = list(zip(*[b if d == e else [x * (e // d) for x in b] for b, d in right]))
            for a, d in self._r:
                s = [sum(map(mul, a, bcol)) for bcol in cols]
                out.append(_lowest(s, d * e) if any(s) else (tuple(s), 1))
            return _exact(m, tuple(out))
        a, b = self._f, other._f
        z = zero(self.mode)
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                s = z
                for t in range(k):
                    s += arow[t] * b[t * m + j]
                out.append(s)
        return _float(n, m, tuple(out))

    @property
    def T(self) -> "Matrix":
        if self._r is None:
            c = self.cols
            return _float(c, self.rows, tuple(self._f[i * c + j]
                                              for j in range(c) for i in range(self.rows)))
        if not self.rows:
            return Matrix.zeros(self.cols, 0, self.mode)
        # the columns over the lcm of the row denominators, then in lowest terms
        s = math.lcm(*self.denominators)
        scaled = [nums if d == s else [x * (s // d) for x in nums] for nums, d in self._r]
        return _exact(self.rows, tuple(_lowest(col, s) for col in zip(*scaled)))

    def conj_T(self) -> "Matrix":
        if self.mode is Mode.EXACT:
            return self.T
        entries = tuple(self._f[i * self.cols + j].conjugate()
                        for j in range(self.cols) for i in range(self.rows))
        return _float(self.cols, self.rows, entries)

    # -- predicates and norms ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.mode is other.mode and self.shape == other.shape
                and self._f == other._f and self._r == other._r)

    def __hash__(self):
        return hash((self.rows, self.cols, self.mode, self._f, self._r))

    def max_abs(self):
        """Largest entry magnitude (Fraction in exact mode, float otherwise)."""
        if self._r is None:
            return max((abs(x) for x in self._f), default=0.0)
        return max((Fraction(max(map(abs, nums)), d) for nums, d in self._r if nums),
                   default=Fraction(0))

    def is_zero(self, tol=None) -> bool:
        """Entrywise zero test; ``tol`` is an absolute threshold (float mode)."""
        if self._r is not None:
            return not any(x for nums, _ in self._r for x in nums)
        if tol is None:
            return all(x == 0 for x in self._f)
        return all(abs(x) <= tol for x in self._f)

    # -- conversions ---------------------------------------------------------

    def to_float(self) -> "Matrix":
        if self.mode is Mode.FLOAT:
            return self
        return _float(self.rows, self.cols,
                      tuple(complex(Fraction(x, d)) for nums, d in self._r for x in nums))

    def __repr__(self) -> str:
        e, c = self.format_entries(), self.cols
        body = "; ".join(" ".join(e[i * c : (i + 1) * c]) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols} {self.mode}: [{body}])"


_fill_rows, _fill_cols, _fill_mode, _fill_f, _fill_r = (
    Matrix.__dict__[slot].__set__ for slot in Matrix.__slots__)
_ZERO_ENTRY = ((0,), 1)


def _cleared(row: list) -> tuple[tuple[int, ...], int]:
    """An exact row in its stored form; an all-int row is itself over 1,
    and only a cell neither int nor ``Fraction`` goes through ensure_scalar."""
    if all(type(x) is int for x in row):
        return tuple(row), 1
    nums, d = clear_denominators([x if type(x) is int or type(x) is Fraction
                                  else ensure_scalar(x, Mode.EXACT) for x in row])
    return tuple(nums), d


def _fill(m: Matrix, nrows: int, ncols: int, mode: Mode, entries, int_rows) -> Matrix:
    """Set the slots of ``m``, past the immutability guard."""
    _fill_rows(m, nrows)
    _fill_cols(m, ncols)
    _fill_mode(m, mode)
    _fill_f(m, entries)
    _fill_r(m, int_rows)
    return m


def _float(nrows: int, ncols: int, entries: tuple) -> Matrix:
    return _fill(object.__new__(Matrix), nrows, ncols, Mode.FLOAT, entries, None)


def _exact(ncols: int, int_rows: tuple) -> Matrix:
    """An exact matrix of rows already in lowest terms."""
    return _fill(object.__new__(Matrix), len(int_rows), ncols, Mode.EXACT, None, int_rows)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    """Blocks side by side.  An exact row over the lcm of its blocks' row
    denominators is in lowest terms already."""
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    nrows, mode = mats[0].rows, mats[0].mode
    for m in mats:
        if m.rows != nrows:
            raise ValueError("row counts differ")
        if m.mode is not mode:
            raise ValueError("mode mismatch")
    ncols = sum(m.cols for m in mats)
    if mode is Mode.EXACT:
        out = []
        for parts in zip(*[m._r for m in mats]):
            s = math.lcm(*[d for _, d in parts])
            row: list[int] = []
            for nums, d in parts:
                row.extend(nums if d == s else [x * (s // d) for x in nums])
            out.append((tuple(row), s))
        return _exact(ncols, tuple(out))
    entries = []
    for i in range(nrows):
        for m in mats:
            entries.extend(m._f[i * m.cols : (i + 1) * m.cols])
    return _float(nrows, ncols, tuple(entries))


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    ncols, mode = mats[0].cols, mats[0].mode
    for m in mats:
        if m.cols != ncols:
            raise ValueError("column counts differ")
        if m.mode is not mode:
            raise ValueError("mode mismatch")
    if mode is Mode.EXACT:
        return _exact(ncols, tuple(chain.from_iterable([m._r for m in mats])))
    entries = []
    for m in mats:
        entries.extend(m._f)
    return _float(sum(m.rows for m in mats), ncols, tuple(entries))


def block_diag(mats: Sequence[Matrix], mode: Mode) -> Matrix:
    """Direct sum of square blocks; an empty list gives the 0x0 matrix."""
    n = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    for m in mats:
        if m.mode is not mode:
            raise ValueError("mode mismatch")
    if mode is Mode.EXACT:
        out, c0 = [], 0
        for m in mats:
            left, right = (0,) * c0, (0,) * (c - c0 - m.cols)
            out.extend((left + nums + right, d) for nums, d in m._r)
            c0 += m.cols
        return _exact(c, tuple(out))
    out = Matrix.zeros(n, c, mode).to_lists()
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m[i, j]
        r0 += m.rows
        c0 += m.cols
    return Matrix(out, mode) if out else Matrix.zeros(n, c, mode)
