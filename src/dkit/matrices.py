"""Immutable dense matrices over a single scalar mode.

Zero-width shapes (``n x 0``, ``0 x m``) are first-class citizens: the
canonical form of a pencil with no finite (or no infinite) eigenvalues has
empty blocks, and all operations treat empty sums as zero.

A matrix is a tuple of rows, so an operation that only moves rows is
written once for both modes.  A float row is a tuple of ``complex``.  An
exact row is stored cleared of denominators: a tuple of integer numerators
and one row denominator d, in lowest terms (the gcd of the numerators and
d is 1, d >= 1, and a zero row has d = 1).  Both forms are unique, so
equality and hashing compare the stored rows, and every exact operation
runs on integers; a ``Fraction`` is made only when an entry leaves the
matrix (indexing, ``row_list``, ``column_list``, ``max_abs``, ``to_lists``),
and ``format_entries`` prints the rows without one.  This module alone
knows how an exact value is cleared; :meth:`Matrix.column` says how a
value is admitted.

Float rows are built by ``tuple([...])``: ``tuple()`` of a generator
allocates a guessed size and resizes it, and with one tuple per row that
churn set off the garbage collector a fifth more often.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Sequence

from .scalars import (Mode, Scalar, clear_denominators, ensure_scalar, format_ratios,
                      format_scalar)


def _lowest(nums: Sequence[int], d: int) -> tuple[tuple[int, ...], int]:
    """The row nums / d (d != 0) in lowest terms with a positive denominator."""
    g = math.gcd(*nums, d)
    if d < 0:
        g = -g
    if g == 1:
        return tuple(nums), d
    return tuple(x // g for x in nums), d // g


class Matrix:
    __slots__ = ("rows", "cols", "mode", "_r")

    def __init__(self, rows: Sequence[Sequence], mode: Mode):
        exact = mode is Mode.EXACT
        # a float row is admitted in the one pass that makes its tuple
        data = ([list(r) for r in rows] if exact else
                [tuple([x if type(x) is complex else ensure_scalar(x, mode) for x in r])
                 for r in rows])
        ncols = len(data[0]) if data else 0
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        _fill(self, mode, ncols, tuple(map(_cleared, data)) if exact else tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def divided(cls, rows: Sequence[Sequence], d, ncols: int, mode: Mode) -> "Matrix":
        """The matrix ``rows`` / d with ``ncols`` columns: exact mode takes
        integer rows and an integer d != 0, float mode numbers and d = 1."""
        if mode is Mode.EXACT:
            return _new(mode, ncols, tuple(_lowest(r, d) for r in rows))
        return _new(mode, ncols, tuple([tuple([complex(x) for x in r]) for r in rows]))

    @classmethod
    def ratios(cls, nums: Sequence, dens: Sequence[int], e: int, mode: Mode) -> "Matrix":
        """The column nums[i] / (dens[i] e): exact mode takes integers with
        dens[i] e >= 1 and brings each entry to lowest terms, as the column
        path of ``@`` does; float mode takes ``complex`` values over 1."""
        if mode is not Mode.EXACT:
            return cls.column(nums, mode)
        return _new(mode, 1, _lowest_column(nums, dens, e))

    @classmethod
    def zeros(cls, nrows: int, ncols: int, mode: Mode) -> "Matrix":
        return _new(mode, ncols, (_int_row(mode, (0,) * ncols),) * nrows)

    @classmethod
    def identity(cls, n: int, mode: Mode) -> "Matrix":
        rows = [_int_row(mode, tuple(int(i == j) for j in range(n))) for i in range(n)]
        return _new(mode, n, tuple(rows))

    @classmethod
    def column(cls, values: Iterable, mode: Mode) -> "Matrix":
        """A column vector of ``values``.  Values are admitted once: here
        and in the constructor a value of what the mode stores (float:
        exactly ``complex``, what the float parser makes; exact: an int or
        a ``Fraction``) is taken as it is, any other goes through
        ``ensure_scalar``, which still rejects a ``Fraction`` in float mode
        and a bool in either."""
        if mode is not Mode.EXACT:
            return _new(mode, 1, tuple([(v if type(v) is complex else ensure_scalar(v, mode),)
                                        for v in values]))
        rows = []
        for v in values:
            if type(v) is not int and type(v) is not Fraction:  # an int is read as v / 1
                v = ensure_scalar(v, mode)
            rows.append(((v.numerator,), v.denominator))
        return _new(mode, 1, tuple(rows))

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
        if self.mode is Mode.FLOAT:
            return tuple(chain.from_iterable(self._r))
        return tuple(Fraction(x, d) for nums, d in self._r for x in nums)

    def __getitem__(self, key) -> Scalar:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        if self.mode is Mode.FLOAT:
            return self._r[i][j]
        nums, d = self._r[i]
        return Fraction(nums[j], d)

    def row_list(self, i: int) -> list:
        if self.mode is Mode.FLOAT:
            return list(self._r[i])
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
        if self.mode is Mode.FLOAT:
            return _new(self.mode, len(js),
                        tuple([tuple([row[j] for j in js]) for row in self._r]))
        return _new(self.mode, len(js),
                    tuple(_lowest([nums[j] for j in js], d) for nums, d in self._r))

    def take_rows(self, iz: Sequence[int]) -> "Matrix":
        return _new(self.mode, self.cols, tuple(self._r[i] for i in iz))

    def to_lists(self) -> list[list]:
        """A fresh list of the entries of each row; a float row is copied
        as it is stored."""
        if self.mode is Mode.FLOAT:
            return list(map(list, self._r))
        return [self.row_list(i) for i in range(self.rows)]

    def column_list(self) -> list:
        """Entries of a column vector as a flat list."""
        if self.cols != 1:
            raise ValueError("not a column vector")
        if self.mode is Mode.FLOAT:
            return [row[0] for row in self._r]
        return [Fraction(nums[0], d) for nums, d in self._r]

    def format_entries(self) -> list[str]:
        """``format_scalar`` of every entry, row-major; raises its
        ``DkitError`` for a value over the digit limit."""
        if self.mode is Mode.FLOAT:
            return [format_scalar(x) for row in self._r for x in row]
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
        if self.mode is Mode.FLOAT:
            return _new(self.mode, self.cols, tuple([tuple([op(x, y) for x, y in zip(a, b)])
                                                     for a, b in zip(self._r, other._r)]))
        out = []
        for (a, d), (b, e) in zip(self._r, other._r):
            s = math.lcm(d, e)
            da, eb = s // d, s // e
            out.append(_lowest([op(x * da, y * eb) for x, y in zip(a, b)], s))
        return _new(self.mode, self.cols, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "Matrix":
        if self.mode is Mode.FLOAT:
            return _new(self.mode, self.cols, tuple([tuple([-x for x in row]) for row in self._r]))
        return _new(self.mode, self.cols,
                    tuple((tuple(-x for x in nums), d) for nums, d in self._r))

    def scale(self, s) -> "Matrix":
        s = ensure_scalar(s, self.mode)
        if self.mode is Mode.FLOAT:
            return _new(self.mode, self.cols,
                        tuple([tuple([s * a for a in row]) for row in self._r]))
        p, q = s.numerator, s.denominator
        return _new(self.mode, self.cols, tuple(_lowest([p * x for x in nums], q * d)
                                                for nums, d in self._r))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product.

        Exact mode multiplies the stored integer rows: the rows of ``other``
        are put on one denominator e (the lcm of their distinct
        denominators), so row i of the product is the integer dot products
        of row i of ``self`` with the columns of ``other``, over d_i e, and
        one n-ary gcd brings it to lowest terms.  No ``Fraction`` is made;
        a zero row costs no division.
        Float mode accumulates each entry over the inner index in ascending
        order, from ``0j``.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_mode(other)
        if self.cols != other.rows:
            raise ValueError(f"inner dimensions differ: {self.shape} @ {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        if not k:
            return Matrix.zeros(n, m, self.mode)
        if self.mode is Mode.EXACT:
            right = other._r
            e = math.lcm(*{d for _, d in right})  # rows often share a denominator
            mul = operator.mul
            if m == 1:  # a column: mostly ``solver._residual``'s product of each step
                col = [b[0] if d == e else b[0] * (e // d) for b, d in right]
                return _new(self.mode, 1, _lowest_column(
                    [sum(map(mul, a, col)) for a, _ in self._r], self.denominators, e))
            cols = list(zip(*[b if d == e else [x * (e // d) for x in b] for b, d in right]))
            out = []
            for a, d in self._r:
                s = [sum(map(mul, a, bcol)) for bcol in cols]
                out.append(_lowest(s, d * e) if any(s) else (tuple(s), 1))
            return _new(self.mode, m, tuple(out))
        cols = list(zip(*other._r))
        out = []
        for arow in self._r:
            row = []
            for bcol in cols:
                s = 0j
                for x, y in zip(arow, bcol):
                    s += x * y
                row.append(s)
            out.append(tuple(row))
        return _new(self.mode, m, tuple(out))

    @property
    def T(self) -> "Matrix":
        if not self.rows:
            return Matrix.zeros(self.cols, 0, self.mode)
        if self.mode is Mode.FLOAT:
            return _new(self.mode, self.rows, tuple(zip(*self._r)))
        # the columns over the lcm of the row denominators, then in lowest terms
        s = math.lcm(*self.denominators)
        scaled = [nums if d == s else [x * (s // d) for x in nums] for nums, d in self._r]
        return _new(self.mode, self.rows, tuple(_lowest(col, s) for col in zip(*scaled)))

    def conj_T(self) -> "Matrix":
        if self.mode is Mode.EXACT:
            return self.T
        return _new(self.mode, self.rows,
                    tuple([tuple([x.conjugate() for x in row]) for row in self.T._r]))

    # -- predicates and norms ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.mode is other.mode and self.shape == other.shape and self._r == other._r

    def __hash__(self):
        return hash((self.rows, self.cols, self.mode, self._r))

    def max_abs(self):
        """Largest entry magnitude (Fraction in exact mode, float otherwise).
        The float scan runs in C over the entries row-major, the order in
        which ``max`` keeps a leading NaN and passes over a later one."""
        if self.mode is Mode.FLOAT:
            return max(map(abs, chain.from_iterable(self._r)), default=0.0)
        return max((Fraction(max(map(abs, nums)), d) for nums, d in self._r if nums),
                   default=Fraction(0))

    def is_finite(self) -> bool:
        """No NaN or infinite entry (always so in exact mode); the float
        scan runs in C."""
        return self.mode is Mode.EXACT or all(map(cmath.isfinite, chain.from_iterable(self._r)))

    def is_zero(self, tol=None) -> bool:
        """Entrywise zero test; ``tol`` is an absolute threshold (float mode,
        default 0.0: ``abs(x) <= 0.0`` holds exactly where ``x == 0``)."""
        if self.mode is Mode.EXACT:
            return not any(x for nums, _ in self._r for x in nums)
        tol = 0.0 if tol is None else tol
        return all(abs(x) <= tol for row in self._r for x in row)

    # -- conversions ---------------------------------------------------------

    def to_float(self) -> "Matrix":
        if self.mode is Mode.FLOAT:
            return self
        return _new(Mode.FLOAT, self.cols, tuple([tuple([complex(Fraction(x, d)) for x in nums])
                                                  for nums, d in self._r]))

    def __repr__(self) -> str:
        e = iter(self.format_entries())
        body = "; ".join(" ".join(islice(e, self.cols)) for _ in range(self.rows))
        return f"Matrix({self.rows}x{self.cols} {self.mode}: [{body}])"


_fill_rows, _fill_cols, _fill_mode, _fill_r = (
    Matrix.__dict__[slot].__set__ for slot in Matrix.__slots__)
_ZERO_ENTRY = ((0,), 1)


def _lowest_column(nums: Sequence[int], dens: Sequence[int], e: int) -> tuple:
    """The stored rows of the column nums[i] / (dens[i] e), dens[i] e >= 1:
    one gcd per nonzero entry."""
    gcd, out = math.gcd, []
    for s, d in zip(nums, dens):
        if s:
            d *= e
            g = gcd(s, d)
            out.append(((s // g,), d // g))
        else:
            out.append(_ZERO_ENTRY)
    return tuple(out)


def _cleared(row: list) -> tuple[tuple[int, ...], int]:
    """An exact row in its stored form; an all-int row is itself over 1."""
    if all(type(x) is int for x in row):
        return tuple(row), 1
    nums, d = clear_denominators([x if type(x) is int or type(x) is Fraction
                                  else ensure_scalar(x, Mode.EXACT) for x in row])
    return tuple(nums), d


def _fill(m: Matrix, mode: Mode, ncols: int, rows: tuple) -> Matrix:
    """Set the slots of ``m``, past the immutability guard."""
    _fill_rows(m, len(rows))
    _fill_cols(m, ncols)
    _fill_mode(m, mode)
    _fill_r(m, rows)
    return m


def _new(mode: Mode, ncols: int, rows: tuple) -> Matrix:
    """A matrix of rows already in their stored form."""
    return _fill(object.__new__(Matrix), mode, ncols, rows)


def _int_row(mode: Mode, entries: tuple[int, ...]):
    """A row of integer entries in the stored form of ``mode``."""
    return (entries, 1) if mode is Mode.EXACT else tuple([complex(x) for x in entries])


def _checked(mats: Sequence[Matrix], name: str, size: str, counts: str):
    """``mats`` as a list, their common ``size`` (rows or cols) and mode:
    the checks hstack and vstack share."""
    mats = list(mats)
    if not mats:
        raise ValueError(f"{name} of nothing")
    want, mode = getattr(mats[0], size), mats[0].mode
    for m in mats:
        if getattr(m, size) != want:
            raise ValueError(f"{counts} counts differ")
        if m.mode is not mode:
            raise ValueError("mode mismatch")
    return mats, want, mode


def hstack(mats: Sequence[Matrix]) -> Matrix:
    """Blocks side by side.  An exact row over the lcm of its blocks' row
    denominators is in lowest terms already."""
    mats, _, mode = _checked(mats, "hstack", "rows", "row")
    ncols, rows = sum(m.cols for m in mats), zip(*[m._r for m in mats])
    if mode is Mode.FLOAT:
        return _new(mode, ncols, tuple([tuple([x for part in parts for x in part])
                                        for parts in rows]))
    out = []
    for parts in rows:
        s = math.lcm(*[d for _, d in parts])
        row: list[int] = []
        for nums, d in parts:
            row.extend(nums if d == s else [x * (s // d) for x in nums])
        out.append((tuple(row), s))
    return _new(mode, ncols, tuple(out))


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats, ncols, mode = _checked(mats, "vstack", "cols", "column")
    return _new(mode, ncols, tuple(chain.from_iterable([m._r for m in mats])))


def block_diag(mats: Sequence[Matrix], mode: Mode) -> Matrix:
    """Direct sum of square blocks; an empty list gives the 0x0 matrix."""
    c, z = sum(m.cols for m in mats), 0 if mode is Mode.EXACT else 0j
    out, c0 = [], 0
    for m in mats:
        if m.mode is not mode:
            raise ValueError("mode mismatch")
        left, right = (z,) * c0, (z,) * (c - c0 - m.cols)
        if mode is Mode.EXACT:
            out.extend((left + nums + right, d) for nums, d in m._r)
        else:
            out.extend(left + row + right for row in m._r)
        c0 += m.cols
    return _new(mode, c, tuple(out))
