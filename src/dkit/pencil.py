"""Matrix pencils sF - G: regularity and the finite/infinite spectrum split.

:class:`Pencil` is the pair (F, G); in exact mode it walks its Wong
sequence once and keeps it.  :func:`char_poly` is det(sF - G), whose
degree p counts the finite eigenvalues, leaving q = n - p to the infinite
one; its docstring gives each mode's evaluation and interpolation, and
where float mode breaks down.  :func:`require_regular` is the one
regularity verdict on it, and :func:`finite_eigenvalues` its roots.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from typing import NamedTuple

from . import linalg
from .errors import ChainConstructionFailure, DkitError, IrregularPencil, UnresolvableSpectrum
from .matrices import Matrix, hstack
from .record import Record
from .scalars import Mode, Scalar, clear_denominators

DEFAULT_CLUSTER_RADIUS = 1e-7


class Pencil(Record):
    """The pair (F, G) defining the family sF - G."""

    _fields = ("F", "G")

    def __init__(self, F: Matrix, G: Matrix):
        if not (F.is_square and G.is_square):
            raise ValueError("pencil matrices must be square")
        if F.shape != G.shape:
            raise ValueError("F and G must have identical dimensions")
        if F.mode is not G.mode:
            raise ValueError("F and G must share one scalar mode")
        if F.rows == 0:
            raise ValueError("empty pencil (n = 0) is not admitted")
        self._set(F=F, G=G)

    @property
    def n(self) -> int:
        return self.F.rows

    @property
    def mode(self) -> Mode:
        return self.F.mode

    @cached_property
    def _wong_walk(self) -> tuple[tuple[Matrix, ...], tuple[Matrix | None, ...]]:
        bases, maps = linalg.filtration(self.F, self.G)
        return tuple(bases), tuple(maps)

    @property
    def wong_sequence(self) -> tuple[Matrix, ...]:
        """Exact mode: canonical bases of the Wong sequence W_1 = ker F <
        W_2 < ... < W*, W_{i+1} = F^{-1}(G W_i) (Wong 1974), walked once
        per pencil (``linalg.filtration`` without a target).  Its last
        basis spans W*, the infinite part of a regular pencil; it is empty
        when F is nonsingular."""
        return self._wong_walk[0]

    @property
    def wong_maps(self) -> tuple[Matrix | None, ...]:
        """Exact mode: the y-maps of the same walk, one per step i >= 1:
        Y_{i+1} with F W_{i+1} = G W_i Y_{i+1}, or None where the step's
        v-parts are dependent, which only a singular pencil's walk has."""
        return self._wong_walk[1]


class CharPoly(NamedTuple):
    """det(sF - G) with trailing (near-)zero coefficients trimmed.

    ``coefficients`` is ascending in s and empty for the identically zero
    polynomial, in which case p and q are undefined (None).
    """

    coefficients: tuple
    n: int

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def p(self) -> int | None:
        return None if self.is_zero else len(self.coefficients) - 1

    @property
    def q(self) -> int | None:
        return None if self.is_zero else self.n - self.p


def char_poly(pencil: Pencil, tol: float | None = None) -> CharPoly:
    """det(sF - G), ascending in s, from its values at integer nodes.

    Exact mode works on the integer rows of [F | G], each row of F and G
    over one denominator, and on a basis w_1..w_q of W*
    (:attr:`Pencil.wong_sequence`) that is the identity on q rows r_j.
    As F W* lies in G W*, (sF - G) W = G W (sN - I) with N nilpotent, so
    putting -G w_j in place of column r_j keeps det(sF - G), up to the
    integer scaling of each w_j and the sign of moving those constant
    columns first.  One fraction-free elimination pivots in them and
    stops; a dependent one means G W* has a kernel, and then det(sF - G)
    is the zero polynomial.  Otherwise the pencil is regular of degree
    p = n - q, and the rows below the q pivots hold the trailing
    [F_t | G_t] of the p columns left.  Each node s = 0..p resumes the
    elimination on sF_t - G_t at the last constant pivot, which gives the
    determinant of the whole transformed pencil (Sylvester's identity);
    at p = 0 that is the last pivot itself.  Newton forward differences
    interpolate these p + 1 integers: the k-th difference at 0 is k! times
    the coefficient a_k of the falling factorial s(s - 1)...(s - k + 1),
    and multiplying out a_0 + s(a_1 + (s - 1)(a_2 + ... + (s - p + 1) a_p))
    gives the monomial coefficients.  They are divided exactly by the
    product of the row denominators, the scalings and the signs.

    Float mode takes each node determinant by ``linalg.float_det`` of the
    rows s f - g, built from the stored rows of F and G, and solves the
    Vandermonde system V a = dets of the n + 1 nodes s = 0..n by replaying
    the Gauss-Jordan log of V, made once per n (:func:`_vandermonde`).
    While each logged pivot exceeds the threshold of [V | dets], the
    elimination of [V | dets] picks the same pivots, so the replay gives
    its solution bit for bit.  Once one does not, that elimination finds
    no pivot in its column and no solve can succeed, whatever the dets:
    ChainConstructionFailure is raised, before any node determinant
    when the threshold of V alone already covers the pivot.  With the
    fixed ``linalg.DEFAULT_RANK_TOL`` (the interpolation ignores ``tol``)
    and a smallest pivot of 1, that means n^n or some |det(sF - G)| on the
    nodes reaches 1e9, and so every n >= 10 breaks down, even for F = I
    (ROADMAP item 4).  Coefficients within
    ``tol`` (relative, default ``linalg.DEFAULT_RANK_TOL``) of 0 are
    trimmed; only the trim reads ``tol``, and exact mode ignores it.
    """
    n = pencil.n
    mode = pencil.mode
    if mode is Mode.EXACT:
        fg = hstack([pencil.F, pencil.G])
        rows = fg.integer_rows()
        w = (pencil.wong_sequence or [Matrix.zeros(n, 0, mode)])[-1]
        wrows = list(zip(w.integer_rows(), w.denominators))
        # (r, v): v = c w_j, w_j the column of W* that is e_j on row r
        put = sorted((wrows.index(([int(i == j) for i in range(w.cols)], 1)), v)
                     for j, v in enumerate(w.T.integer_rows()))
        moved = [r for r, _ in put]
        q, p = len(moved), n - len(moved)
        keep = [c for c in range(n) if c not in moved]
        elim = [[-sum(map(operator.mul, v, row[n:])) for _, v in put]  # [-G W* | kept F | kept G]
                + [row[j] for j in keep] + [row[n + j] for j in keep] for row in rows]
        pivots, d, sign = linalg._bareiss(elim, stop=q)
        if len(pivots) < q:  # -G W* has a dependent column
            return CharPoly((), n)
        values = [linalg.integer_det([[s * f - g for f, g in zip(row[q:n], row[n:])]
                                      for row in elim[q:]], d)  # rows of [F_t | G_t]
                  for s in range(p + 1)]
        for k in range(1, p + 1):  # values[k] becomes the k-th difference at 0
            values[k:] = [b - a for a, b in zip(values[k - 1:], values[k:])]
        coeffs: list[int] = []
        for k in range(p, -1, -1):  # coeffs * (s - k) + values[k] / k!
            coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
            coeffs[0] += values[k] // math.factorial(k)
        den = sign * (-1) ** sum(r - i for i, r in enumerate(moved))  # W* columns first
        den *= math.prod(v[r] for r, v in put) * math.prod(fg.denominators)
        return CharPoly(tuple(Fraction(c, den) for c in coeffs), n)
    vand, log, pivot = _vandermonde(n)
    thr = linalg._row_threshold(vand)  # of V, which no det column lowers
    if pivot > thr:
        fg = list(zip(pencil.F.to_lists(), pencil.G.to_lists()))
        dets = [linalg.float_det([[s * f - g for f, g in zip(fr, gr)] for fr, gr in fg])
                for s in map(complex, range(n + 1))]
        thr = linalg._row_threshold([[*v, d] for v, d in zip(vand, dets)])  # of [V | dets]
    if not pivot > thr:  # also when thr is NaN
        raise ChainConstructionFailure(
            f"char poly interpolation on nodes 0..{n} broke down: "
            f"Vandermonde pivot {pivot:.3g} within the rank threshold {thr:.3g}")
    coeffs = dets
    linalg._replay_rref(log, coeffs)
    tol = linalg.DEFAULT_RANK_TOL if tol is None else tol
    thr = tol * max(1.0, max(abs(c) for c in coeffs))
    while coeffs and abs(coeffs[-1]) <= thr:
        coeffs.pop()
    return CharPoly(tuple(coeffs), n)


def require_regular(pencil: Pencil, cp: CharPoly, tol: float | None) -> None:
    """The regularity verdict on ``cp``, the char poly of ``pencil`` under
    ``tol``: IrregularPencil when an exact one is zero.  A float one that
    reads zero may be a regular pencil's whose values fell under a
    threshold (a node determinant's pivot within ``linalg.DEFAULT_RANK_TOL``
    of its rows' largest entry, or every coefficient within ``tol`` of
    max(1, |coefficients|)), so float mode raises ChainConstructionFailure."""
    if not cp.is_zero:
        return
    if pencil.mode is Mode.EXACT:
        raise IrregularPencil("det(sF - G) is identically zero")
    tol = linalg.DEFAULT_RANK_TOL if tol is None else tol
    raise ChainConstructionFailure(
        f"det(sF - G) reads zero under the float thresholds ({linalg.DEFAULT_RANK_TOL:g} of each "
        f"node's largest entry, {tol:g} of max(1, |coefficients|)): it may be regular")


@cache
def _vandermonde(n: int) -> tuple[tuple[tuple[complex, ...], ...], tuple, float]:
    """The rows of the Vandermonde matrix V of the float nodes s = 0..n,
    the log of its Gauss-Jordan elimination with no threshold, and the
    smallest pivot magnitude of that log (0 if a column had no pivot); all
    depend on n alone.  From n = 144 on the entry n^n overflows a double,
    and the interpolation breaks down here (ChainConstructionFailure)."""
    try:
        vand = tuple(tuple(s**j for j in range(n + 1)) for s in map(complex, range(n + 1)))
    except OverflowError:  # n^n > 1.8e308, from n = 144 on
        raise ChainConstructionFailure(
            f"char poly interpolation on nodes 0..{n} broke down: "
            f"the Vandermonde entries overflow a double") from None
    log: list = []
    linalg._rref_data([list(v) for v in vand], 0.0, log)
    pivot = min(mag for _, mag, _, _ in log) if len(log) == n + 1 else 0.0
    return vand, tuple(log), pivot


def _divisors(n: int) -> list[int]:
    """Positive divisors of an integer n != 0 in ascending order, from its
    factorisation by trial division, which stops once the cofactor is 1."""
    n, divs, d = abs(n), [1], 2
    while n > 1:
        if d * d > n:
            d = n  # the cofactor is prime
        k = len(divs)  # the divisors found so far are prime to d
        while n % d == 0:
            n //= d
            divs += [x * d for x in divs[-k:]]
        d += 1
    return sorted(divs)


def _homogeneous_eval(work: list[int], a: int, b: int) -> int:
    """The sum of c_i a^i b^(d-i), i.e. b^d P(a/b) for P of degree d."""
    acc, bk = 0, 1
    for c in reversed(work):
        acc = acc * a + c * bk
        bk *= b
    return acc


def _rational_roots(coeffs: list[Fraction]) -> tuple[list[tuple[Fraction, int]], list[Fraction]]:
    """All rational roots with multiplicity, plus the unfactored remainder:
    the integer quotient by each (b s - a)^m, times each b^m and the
    integer content, which the candidate search leaves out; the search
    ends once the quotient has degree 0."""
    work, _ = clear_denominators(coeffs)
    roots: list[tuple[Fraction, int]] = []
    t = next(i for i, c in enumerate(work) if c)
    if t:
        roots.append((Fraction(0), t))
        work = work[t:]
    if len(work) == 1:
        return roots, []
    scale = math.gcd(*work)
    work = [c // scale for c in work]
    nums = [x for a in _divisors(work[0]) for x in (a, -a)]
    # b ascending: if g = gcd(a, b) > 1, (a/g)/(b/g) came first and is
    # divided out, so a/b does not match
    for b, a in product(_divisors(work[-1]), nums):
        if len(work) == 1:
            break
        m = 0
        while len(work) > 1 and _homogeneous_eval(work, a, b) == 0:
            r, out = 0, []
            for c in work[:0:-1]:  # quotient by (b s - a), top down
                r = (c + a * r) // b
                out.append(r)
            work = out[::-1]
            m += 1
        if m:
            roots.append((Fraction(a, b), m))
            scale *= b**m
    return roots, [Fraction(c * scale) for c in work] if len(work) > 1 else []


def _cluster_roots(values: list[complex], radius: float) -> list[tuple[complex, int]]:
    clusters: list[list[complex]] = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            center = sum(cl) / len(cl)
            if abs(v - center) <= radius:
                cl.append(v)
                break
        else:
            clusters.append([v])
    out = [(sum(cl) / len(cl), len(cl)) for cl in clusters]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def finite_eigenvalues(
    cp: CharPoly, cluster_radius: float | None = None
) -> list[tuple[Scalar, int]]:
    """The multiset of finite eigenvalues with algebraic multiplicities.

    Exact mode factors over the rationals and raises UnresolvableSpectrum
    if an irreducible factor of degree >= 2 remains (switch to float mode
    for irrational or complex spectra).  It searches on integers: candidates
    a/b from divisors of the end coefficients once the content is divided
    out, the test sum c_i a^i b^(d-i) = 0, division by (b s - a), until
    the quotient has degree 0.  Float mode takes polynomial roots
    and merges any that fall within ``cluster_radius`` of each other.
    """
    if cp.is_zero:
        raise ValueError("characteristic polynomial is identically zero")
    coeffs = list(cp.coefficients)
    if len(coeffs) == 1:
        return []
    if isinstance(coeffs[0], Fraction):
        roots, remainder = _rational_roots(coeffs)
        if remainder:
            raise UnresolvableSpectrum(
                "spectrum has irrational or complex eigenvalues; "
                f"unfactored polynomial of degree {len(remainder) - 1} remains",
                remaining=remainder,
            )
        roots.sort(key=lambda t: (t[0].numerator, t[0].denominator))
        return roots
    try:
        import numpy as np
    except ImportError:
        raise DkitError("float mode needs numpy for the roots of the char poly, "
                        "and it cannot be imported; install numpy or retry with "
                        "--mode exact") from None

    radius = DEFAULT_CLUSTER_RADIUS if cluster_radius is None else cluster_radius
    values = [complex(z) for z in np.roots([complex(c) for c in reversed(coeffs)])]
    return _cluster_roots(values, radius)
