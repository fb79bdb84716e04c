"""Matrix pencils sF - G: regularity and the finite/infinite spectrum split.

The characteristic polynomial det(sF - G) is obtained by evaluating the
determinant at integer nodes and interpolating.  Its degree p counts the
finite eigenvalues with multiplicity; the remaining q = n - p dimensions
belong to the infinite eigenvalue.  Exact mode works on the stored
integer rows of [F | G] (an exact matrix keeps each row cleared of
denominators).  It first deflates the infinite part: each round replaces
the columns of ker F of the trailing block by (sF - G) v = -G v, which
does not depend on s, and eliminates them fraction-free once for all
nodes.  Once the trailing F block is nonsingular, p x p is left; the
elimination that finds it so gives the leading coefficient, and only the
p nodes s = 0..p - 1 are evaluated, each resuming that elimination;
Newton forward differences interpolate, and the coefficients become
``Fraction`` only at the end.  Float mode solves the Vandermonde system
of the n + 1 nodes s = 0..n, which is adequately conditioned at desk
scale.  In exact mode the finite eigenvalues are the rational roots,
searched and divided out in integer arithmetic once the denominators are
cleared.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import ChainConstructionFailure, UnresolvableSpectrum
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

    def eval(self, s: Scalar) -> Matrix:
        """The matrix sF - G."""
        return self.F.scale(s) - self.G


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


def _deflate(fcols: list[list[int]], gcols: list[list[int]]):
    """Deflate the infinite part of the integer pencil sF - G, given by the
    columns of F and G, on one fraction-free elimination.

    Each round takes the kernel of the trailing F block, divides each
    kernel vector v by its content (else the pivots compound from round to
    round), and puts (sF - G) v = -G v, which is constant in s, in place of
    the trailing column at v's free index.  Those columns go first and are
    eliminated, resuming at the last pivot; the logged row operations
    replay on the F and G columns (``linalg._replay``), so every entry stays
    a minor.  The same elimination runs on into the F columns, which gives
    the next round's kernel.  The rounds walk the Wong sequence ker F =
    W_1 < W_2 < ... of the infinite part: for a regular pencil they stop
    after q* rounds, when the trailing F block is nonsingular.  Returns the
    rows of the trailing blocks F_t and G_t, the last constant pivot, det V
    times the signs of the column moves and row swaps, V the column
    operations (det V is the product of the free entries d / content, d the
    last pivot), and the leading coefficient of det(s F_t - G_t) resumed at
    that pivot, the last pivot of the final round; None when a constant
    column has no pivot, as then det(sF - G) is identically zero.
    """
    consts: list[list[int]] = []
    keep, prev, den = range(len(fcols)), 1, 1
    while True:
        k = len(consts)
        rows = [list(r) for r in zip(*consts, *(fcols[j] for j in keep))]
        log: list = []
        pivots, d, sign = linalg._bareiss(rows, log, prev=prev)
        if pivots[:k] != list(range(k)):
            return None
        fcols, gcols = [fcols[j] for j in keep], [gcols[j] for j in keep]
        linalg._replay(log[:k], fcols + gcols)
        fcols, gcols = [c[k:] for c in fcols], [c[k:] for c in gcols]
        swaps = (-1) ** sum(piv != r for r, (piv, *_) in enumerate(log[:k]))
        den *= swaps
        if k:
            prev = log[k - 1][1]
        keep = [c - k for c in pivots[k:]]
        m = len(fcols)
        if len(keep) == m:
            return list(zip(*fcols)), list(zip(*gcols)), prev, den, sign * swaps * d
        ech = [row[k:] for row in rows[k:k + len(keep)]]
        linalg._back_substitute(ech, keep, d)
        kernel, free = linalg._null_rows(ech, keep, d, m, m)
        consts = []
        for f, v in zip(free, zip(*kernel)):
            g = math.gcd(*v)
            v = [x // g for x in v]
            const = [0] * m
            for x, col in zip(v, gcols):
                if x:
                    const = [a - x * b for a, b in zip(const, col)]
            consts.append(const)
            den *= v[f]
        den *= (-1) ** sum(f - i for i, f in enumerate(free))  # free columns first


def char_poly(pencil: Pencil, tol: float | None = None) -> CharPoly:
    """det(sF - G), ascending in s, from its values at integer nodes.

    Exact mode works on the integer rows of [F | G], each row of F and G
    over one denominator.  It first deflates the infinite part
    (:func:`_deflate`) to a trailing block s F_t - G_t, p x p with F_t
    nonsingular, or finds the pencil singular and returns the zero
    polynomial.  The degree is p and the deflation's last pivot is the
    leading coefficient a_p, so only the nodes s = 0..p - 1 are evaluated,
    each by resuming the deflating elimination on s F_t - G_t at the last
    constant pivot, which gives the determinant of the whole transformed
    pencil (Sylvester's identity).  Newton forward differences interpolate
    these integers: the k-th difference at 0 is k! times the coefficient
    a_k of the falling factorial s(s - 1)...(s - k + 1), and multiplying
    out a_0 + s(a_1 + (s - 1)(a_2 + ... + (s - p + 1) a_p)) gives the
    monomial coefficients.  They are divided exactly by the product of the row
    denominators and by det V with the signs of the deflation.

    Float mode solves the Vandermonde system of the n + 1 nodes s = 0..n
    and trims coefficients within ``tol`` (relative, default
    ``linalg.DEFAULT_RANK_TOL``) of 0; exact mode ignores ``tol``.
    """
    n = pencil.n
    mode = pencil.mode
    if mode is Mode.EXACT:
        fg = hstack([pencil.F, pencil.G])
        cols = [list(c) for c in zip(*fg.integer_rows())]
        deflated = _deflate(cols[:n], cols[n:])
        if deflated is None:
            return CharPoly((), n)
        tf, tg, prev, den, lead = deflated
        p = len(tf)
        values = [linalg.integer_det([[s * f - g for f, g in zip(fr, gr)]
                                      for fr, gr in zip(tf, tg)], prev)
                  for s in range(p)]
        for k in range(1, p):  # values[k] becomes the k-th difference at 0
            values[k:] = [b - a for a, b in zip(values[k - 1:], values[k:])]
        coeffs = [lead]
        for k in range(p - 1, -1, -1):  # coeffs * (s - k) + values[k] / k!
            coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
            coeffs[0] += values[k] // math.factorial(k)
        den *= math.prod(fg.denominators)
        return CharPoly(tuple(Fraction(c, den) for c in coeffs), n)
    nodes = [complex(i) for i in range(n + 1)]
    dets = [linalg.det(pencil.eval(s)) for s in nodes]
    vand = Matrix([[s**j for j in range(n + 1)] for s in nodes], mode)
    rhs = Matrix([[d] for d in dets], mode)
    try:
        coeffs = linalg.solve_unique(vand, rhs).column_list()
    except ValueError as exc:
        raise ChainConstructionFailure(
            f"char poly interpolation on nodes 0..{n} broke down: {exc}"
        ) from None
    tol = linalg.DEFAULT_RANK_TOL if tol is None else tol
    thr = tol * max(1.0, max(abs(c) for c in coeffs))
    while coeffs and abs(coeffs[-1]) <= thr:
        coeffs.pop()
    return CharPoly(tuple(coeffs), n)


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
    the integer quotient by each (b s - a)^m, times each b^m."""
    work, _ = clear_denominators(coeffs)
    roots: list[tuple[Fraction, int]] = []
    t = next(i for i, c in enumerate(work) if c)
    if t:
        roots.append((Fraction(0), t))
        work = work[t:]
    if len(work) == 1:
        return roots, []
    scale = 1
    nums = [x for a in _divisors(work[0]) for x in (a, -a)]
    # b ascending: if g = gcd(a, b) > 1, (a/g)/(b/g) came first and is
    # divided out, so a/b does not match
    for b in _divisors(work[-1]):
        for a in nums:
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
    a/b from divisors of the end coefficients, the test sum c_i a^i b^(d-i)
    = 0, division by (b s - a).  Float mode takes polynomial roots
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
    import numpy as np

    radius = DEFAULT_CLUSTER_RADIUS if cluster_radius is None else cluster_radius
    values = [complex(z) for z in np.roots([complex(c) for c in reversed(coeffs)])]
    return _cluster_roots(values, radius)
