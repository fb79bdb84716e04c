"""Seeded descriptor systems with a planted Weierstrass structure.

A plant fixes the canonical structure first -- Jordan blocks of chosen
eigenvalues and nilpotent shift blocks -- and hides it by unimodular
conjugation: F = L F_w R and G = L G_w R.  L and R have integer inverses,
so P = L^-1 and Q = R^-1 is one valid decomposition and the plant knows,
without calling dkit, everything the benchmark checks: p, q, q*, the block
multisets, both causality verdicts, a consistent initial state and the
forced backward coordinates.  Those facts are intrinsic to the system, so
they hold for whichever canonical P, Q dkit picks.

This module imports neither dkit nor the test suite, so edits there cannot
move the benchmark's inputs.  The same rng state gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

F = Fraction

BASE_PALETTE = tuple(F(v) for v in (-3, -2, -1, 0, 1, 2, 3)) + (
    F(1, 2), F(-1, 2), F(3, 2), F(1, 3))

# Eigenvalues for the spectrum slice of exact-analyze.  dkit factors the
# char poly by trial division of its integer end coefficients and then
# tests every candidate p/q, so larger numerators and denominators make
# that stage visible.  WIDE_BOUND caps |a0| and |an| of the scaled char
# poly (rejection sampling below), which keeps every op finite.
WIDE_PALETTE = tuple(F(a, b) * s for a in (5, 7, 11, 13, 17, 19, 23)
                     for b in (2, 3, 4, 5, 7) if a % b for s in (1, -1))
WIDE_BOUND = 4 * 10**11

# Eigenvalues for exact-solve: every one adds about one bit per step to the
# trajectory's numerators or denominators, so the cost of a horizon does
# not depend on which of them the seed picks.
GROWTH_PALETTE = (F(2), F(-2), F(1, 2), F(-1, 2))


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list[list], b: list[list]) -> list[list]:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def unimodular(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Integer U with det +-1 and its inverse, from 2n + 3 elementary ops.

    Each row op U <- E U is mirrored by the column op U^-1 <- U^-1 E^-1.
    """
    u, uinv = _identity(n), _identity(n)
    for _ in range(2 * n + 3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            lam = rng.choice((-2, -1, 1, 2))
            u[i] = [x + lam * y for x, y in zip(u[i], u[j])]
            for row in uinv:
                row[j] -= lam * row[i]
        if rng.random() < 0.25:
            a, b = rng.randrange(n), rng.randrange(n)
            u[a], u[b] = u[b], u[a]
            for row in uinv:
                row[a], row[b] = row[b], row[a]
    return u, uinv


def _block_diag(blocks: list[list[list]], n: int) -> list[list]:
    out = [[0] * n for _ in range(n)]
    r = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            out[r + i][r:r + len(row)] = row
        r += len(blk)
    return out


def _shift(size: int, diag) -> list[list]:
    """Jordan block of ``diag``; entries stay ints where they can (speed)."""
    if F(diag).denominator == 1:
        diag = int(diag)
    return [[diag if i == j else (1 if j == i + 1 else 0) for j in range(size)]
            for i in range(size)]


def _rand_ints(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]


def _char_poly_ends(spectrum) -> tuple[int, int]:
    """|a0| and |an| of prod (s - a)^m scaled to integers, zero roots removed."""
    a0 = an = 1
    for a, size in spectrum:
        if a != 0:
            a0 *= abs(a.numerator) ** size
            an *= a.denominator ** size
    return a0, an


@dataclass
class Plant:
    """One generated system file plus the structure it was built from."""

    doc: dict      # the dkit system file
    oracle: dict   # planted facts the gate checks against

    def system_json(self) -> str:
        return json.dumps(self.doc, separators=(",", ":"))

    def oracle_json(self) -> str:
        return json.dumps(self.oracle, separators=(",", ":"))


def scalar(x) -> int | str:
    x = F(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def make_plant(rng: random.Random, n: int, shape: tuple, *, l: int = 2, m: int = 2,
               kind: str = "generic", palette: tuple = BASE_PALETTE, wide: bool = False,
               horizon: int = 2) -> Plant:
    """A planted system of size n with the block structure ``shape``.

    shape is (Jordan groups, nilpotent block sizes); each Jordan group is
    the tuple of block sizes of one eigenvalue, and the groups get distinct
    eigenvalues drawn from ``palette``.  The eigenvalues, the conjugation,
    B, C, Y0 and the inputs come from rng; fixing the shape per op keeps
    the work of one op from swinging with the seed.
    kind: "generic" (B, C random), "state_causal" (H_q B_q = 0 by
    construction) or "output_causal_only" (C Q_q = 0, B random).  wide
    swaps eigenvalues for WIDE_PALETTE ones within WIDE_BOUND.  horizon is
    K - k0; the inputs cover k0 .. K + q* - 1, all that solve reads.
    """
    groups, nil = shape
    nil = sorted(nil, reverse=True)
    q = sum(nil)
    p = n - q
    if sum(map(sum, groups)) != p:
        raise ValueError(f"shape {shape} does not add up to n = {n}")
    eigs = rng.sample(palette, len(groups))
    if wide:
        # Greedy fill: each group takes, of 8 wide draws, the one that brings
        # the char poly ends closest to WIDE_BOUND without passing it, so the
        # spectrum stage costs about the same on every seed.
        for i in range(len(groups)):
            best, best_end = eigs[i], 0
            for _ in range(8):
                trial = list(eigs)
                trial[i] = rng.choice(WIDE_PALETTE)
                end = max(_char_poly_ends(zip(trial, map(sum, groups))))
                if trial[i] not in eigs and best_end < end <= WIDE_BOUND:
                    best, best_end = trial[i], end
            eigs[i] = best
    jordan = [(a, size) for a, sizes in zip(eigs, groups) for size in sizes]
    q_star = nil[0] if nil else 0

    f_w = _block_diag([_shift(1, 1)] * p + [_shift(s, 0) for s in nil], n)
    g_w = _block_diag([_shift(s, a) for a, s in jordan] + [_shift(1, 1)] * q, n)
    left, _ = unimodular(rng, n)
    right, right_inv = unimodular(rng, n)
    fmat = matmul(matmul(left, f_w), right)
    gmat = matmul(matmul(left, g_w), right)

    # Planted coordinates: Z = R Y, P B = L^-1 B = B_w, C Q = C R^-1 = C_w.
    b_w = _rand_ints(rng, n, l)
    if kind == "state_causal":
        first_rows = {p + sum(nil[:i]) for i in range(len(nil))}
        for i in range(p, n):
            if i not in first_rows:
                b_w[i] = [0] * l
    c_w = _rand_ints(rng, m, n)
    if kind == "output_causal_only":
        for row in c_w:
            row[p:] = [0] * q
    bmat = matmul(left, b_w)
    cmat = matmul(c_w, right)

    k0 = 0
    K = k0 + horizon
    inputs = _rand_ints(rng, K - k0 + max(q_star, 1), l)

    h_q = _block_diag([_shift(s, 0) for s in nil], q)
    b_q = [row[:] for row in b_w[p:]]

    def forced(k: int) -> list:
        """Z^q_k = -sum_{i < q*} H_q^i B_q V_{k+i}."""
        acc = [0] * q
        hp = _identity(q)
        for i in range(q_star):
            v = matmul(matmul(hp, b_q), [[x] for x in inputs[k + i - k0]])
            acc = [a - row[0] for a, row in zip(acc, v)]
            hp = matmul(hp, h_q)
        return acc

    z_p0 = [rng.randint(-3, 3) for _ in range(p)]
    y0 = [row[0] for row in matmul(right_inv, [[x] for x in z_p0 + forced(k0)])]

    # Causality verdicts, computed in planted coordinates.
    hb = matmul(h_q, b_q) if q else []
    state_causal = all(x == 0 for row in hb for x in row)
    c_q = [row[p:] for row in c_w]
    output_causal, acc = True, b_q
    for _ in range(1, max(q_star, 1)):
        acc = matmul(h_q, acc)
        if any(x != 0 for row in matmul(c_q, acc) for x in row):
            output_causal = False

    def lists(mat):
        return [[scalar(x) for x in row] for row in mat]

    doc = {
        "n": n, "l": l, "m": m, "mode": "exact",
        "F": lists(fmat), "G": lists(gmat), "B": lists(bmat), "C": lists(cmat),
        "Y0": [scalar(x) for x in y0], "k0": k0, "inputs": inputs, "K": K,
    }
    oracle = {
        "kind": kind, "wide": wide, "p": p, "q": q, "q_star": q_star,
        "jordan": [[scalar(a), s] for a, s in sorted(jordan)],
        "nilpotent": sorted(nil),
        "state_causal": state_causal, "output_causal": output_causal,
        # Backward rows of Z = R Y and the forced Z^q_K, for the solve gate.
        "R_q": lists(right[p:]),
        "zq_K": [scalar(x) for x in forced(K)],
    }
    return Plant(doc, oracle)
