"""An exact referee for ``build_report``: both causality verdicts and the
output witnesses from F, G, B and C alone, without the canonical form.

The z-transform of F Y_{k+1} = G Y_k + B V_k gives the transfer
T(z) = (zF - G)^-1 B = Q_p (zI - J_p)^-1 B_p - sum_{i>=0} z^i Q_q H_q^i B_q,
so the polynomial part of T(z) is -sum_{i<q*} z^i Q_q H_q^i B_q, and
(Verghese, Levy & Kailath 1981, "A generalized state-space for singular
systems", IEEE TAC 26):
- the system is state-causal exactly when T(z) is proper: no z^i, i >= 1;
- it is output-causal exactly when C T(z) is proper;
- for i >= 1 the z^i coefficient of C T(z) is -C Q_q H_q^i B_q, that is
  ``criteria_output[i - 1]`` negated, and that of T(z) is the i-th block of
  ``nullspace_form`` negated.  Both are invariants of F, G, B and C; the
  state witness H_q B_q depends on the basis of Q_q, so only its zero test
  is compared.
The referee takes N(z) = adj(zF - G) B = det(zF - G) (zF - G)^-1 B at n
integer nodes where det(zF - G) != 0, by Gauss-Jordan elimination over
``Fraction``, interpolates it (degree < n) and divides it by the char poly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkit import build_report, char_poly

from helpers import poly_eval, random_descriptor

KINDS = ("generic", "state_causal", "output_causal_only")


def _det_and_solution(a: list[list[Fraction]], b: list[list[Fraction]]):
    """det(a) and a^-1 b (None when a is singular), by Gauss-Jordan
    elimination on [a | b]."""
    n = len(a)
    rows = [ra + rb for ra, rb in zip(a, b)]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return Fraction(0), None
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        pv = rows[c][c]
        det *= pv
        rows[c] = [x / pv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det, [row[n:] for row in rows]


def _interpolate(xs: list[int], ys: list[Fraction]) -> list[Fraction]:
    """The polynomial of degree < len(xs) through the points, ascending,
    by Newton's divided differences."""
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * len(xs)
    for i in range(len(xs) - 1, -1, -1):  # poly = poly * (z - xs[i]) + coef[i]
        poly = [-xs[i] * poly[0]] + [poly[t - 1] - xs[i] * poly[t] for t in range(1, len(poly))]
        poly[0] += coef[i]
    return poly


def _quotient(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    """The polynomial part of num / den (ascending; den[-1] != 0)."""
    num, top = list(num), len(den) - 1
    out = [Fraction(0)] * max(len(num) - top, 1)
    for i in range(len(num) - 1 - top, -1, -1):
        c = out[i] = num[i + top] / den[-1]
        for t, d in enumerate(den):
            num[i + t] -= c * d
    return out


def _polynomial_part(sysm) -> list[list[list[Fraction]]]:
    """The coefficients, ascending, of the polynomial part of
    (zF - G)^-1 B: one n x l matrix of ``Fraction`` per power of z."""
    n, l = sysm.n, sysm.l
    f, g, b = sysm.F.to_lists(), sysm.G.to_lists(), sysm.B.to_lists()
    cp = list(char_poly(sysm.pencil).coefficients)
    nodes, values = [], []
    z = 0
    while len(nodes) < n:
        det, x = _det_and_solution([[z * fij - gij for fij, gij in zip(fr, gr)]
                                    for fr, gr in zip(f, g)], b)
        assert det == poly_eval(cp, z)  # the char poly is det(zF - G)
        if det:
            nodes.append(z)
            values.append([[det * v for v in row] for row in x])
        z += 1
    quotients = [[_quotient(_interpolate(nodes, [v[i][j] for v in values]), cp)
                  for j in range(l)] for i in range(n)]
    degree = max(len(qt) for row in quotients for qt in row)
    return [[[qt[k] if k < len(qt) else Fraction(0) for qt in row] for row in quotients]
            for k in range(degree)]


def _times(c: list[list[Fraction]], m: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[sum((x * m[t][j] for t, x in enumerate(row)), Fraction(0))
             for j in range(len(m[0]))] for row in c]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), l=st.integers(1, 2),
       m=st.integers(1, 2))
def test_build_report_matches_the_exact_polynomial_part_of_the_transfer(kind, seed, n, l, m):
    a = random_descriptor(random.Random(seed), n, l, m, plant=kind)
    sysm, w = a.system, a.w
    rep = build_report(sysm, w, a.tin)
    coeffs = _polynomial_part(sysm)
    c = sysm.C.to_lists()
    out = [_times(c, coef) for coef in coeffs]
    zero = [[0] * l for _ in range(m)]
    assert rep.state_input_causal == all(not x for coef in coeffs[1:] for row in coef for x in row)
    assert rep.output_input_causal == all(o == zero for o in out[1:])
    for i in range(1, max(len(coeffs), w.q_star)):
        want_out = (-rep.criteria_output[i - 1]).to_lists() if i < w.q_star else zero
        assert (out[i] if i < len(out) else zero) == want_out, i
        if i < w.q_star:
            block = rep.nullspace_form.take_cols(range((i - 1) * l, i * l))
            assert (coeffs[i] if i < len(coeffs) else [[0] * l] * n) == (-block).to_lists(), i
    if kind == "state_causal":
        assert rep.state_input_causal
    if kind == "output_causal_only":
        assert rep.output_input_causal
