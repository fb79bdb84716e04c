"""Random system generators, independent oracles and the test machinery
(``time_limit``, ``count_calls``, ``with_examples``) shared by the tests.

Everything here is deliberately separate from the library's computation
paths: the exact elimination and rational root references run plain
``Fraction`` arithmetic where the library runs integer kernels on integer
rows.  ``ReferenceMatrix`` does every matrix operation one entry
at a time, over ``Fraction`` or ``complex``, where the library keeps integer
rows or float tuples.  The closed-form trajectory sums powers
of J_p where the library steps one constant map per instant.  The char
poly reference solves a Vandermonde system for ``Fraction`` determinants
by the ``Fraction`` Gauss-Jordan loop where the library takes Newton
differences of integer ones; the float char poly reference builds each
node matrix sF - G, takes its
determinant by the float reference loop and solves the Vandermonde
system where the library builds node rows and replays one logged
elimination per n.  The chain-top reference makes one rank
elimination per candidate where the library makes one for all of them,
the chain reference solves each chain step where the exact library
reads it off the walk's y-maps, and the filtration reference eliminates
each stacked [A | -E N] afresh where the library eliminates A once and
resumes it.  The causality oracle
reference runs one mode per pass and solves both signals of each trial
over the full horizon, where the library serves every mode in one pass,
stops before the perturbed instant and re-runs the perturbed signal only
from the first instant that reads it.  The trajectory reference
restacks [Z^p_k; V_k; ...; V_{k+w-1}] with ``vstack`` and ``take_rows``
at every instant, where the library builds that column from the stored
rows.  The residual reference builds F_w and G_w and subtracts them from
P F Q and P G Q, where the library reads the residuals off the two
products against the block pattern.  The reconstruction check reference
reads its residuals off that difference reference and tests the float
products for finite entries one by one, where the library scans them
with ``Matrix.is_finite``; exact ``decompose``, which
accepts its result by the chain relations against M = [F Q_p | G Q_q],
is held to the report the reference gives through ``verify``.
``exact_det`` and ``rref`` are no references: they read the library's
``integer_det`` and ``_reduced`` in the form the tests compare.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import random
import signal
import sys
from fractions import Fraction

from hypothesis import example

from dkit import (
    Analysis,
    ChainConstructionFailure,
    CharPoly,
    DescriptorSystem,
    InputSignal,
    JordanBlockSpec,
    Matrix,
    NilpotentBlockSpec,
    Pencil,
    Trajectory,
    assemble_Hq,
    assemble_Jp,
    block_diag,
    decompose,
    hstack,
    verify,
    vstack,
)
from dkit import linalg, solve_from_zp
from dkit.causality import DEFAULT_CAUSALITY_TOL, OracleCounterexample
from dkit.cli import SystemFile, _matrix_to_lists
from dkit.scalars import Mode
from dkit.weierstrass import VerificationReport, _block_sizes

EIGENVALUE_PALETTE = [Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3)] + [
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
    Fraction(1, 3),
]


def unimodular(rng: random.Random, n: int) -> Matrix:
    """Random integer matrix with determinant +-1 (elementary operations)."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            lam = rng.choice([-2, -1, 1, 2])
            for c in range(n):
                m[i][c] += lam * m[j][c]
        if rng.random() < 0.25:
            a, b = rng.randrange(n), rng.randrange(n)
            m[a], m[b] = m[b], m[a]
    return Matrix(m, Mode.EXACT)


def rational_nonsingular(rng: random.Random, n: int) -> Matrix:
    """Unimodular matrix with a couple of rows rescaled by +-1/2 or +-2."""
    m = unimodular(rng, n).to_lists()
    for _ in range(max(1, n // 2)):
        i = rng.randrange(n)
        s = rng.choice([Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2)])
        m[i] = [s * x for x in m[i]]
    return Matrix(m, Mode.EXACT)


def random_partition(rng: random.Random, total: int) -> list[int]:
    parts = []
    left = total
    while left:
        s = rng.randint(1, left)
        parts.append(s)
        left -= s
    return parts


def small_int_matrix(rng: random.Random, rows: int, cols: int, lo=-3, hi=3) -> Matrix:
    if rows == 0 or cols == 0:
        return Matrix.zeros(rows, cols, Mode.EXACT)
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
                  Mode.EXACT)


def planted_pencil(rng: random.Random, n: int, *, q: int | None = None,
                   min_q: int = 0, palette=EIGENVALUE_PALETTE,
                   nilpotent: list[int] | None = None, conjugate=unimodular):
    """Regular pencil with known canonical structure, hidden by conjugation
    with two ``conjugate(rng, n)`` matrices; eigenvalues are drawn from
    ``palette``, nilpotent block sizes are ``nilpotent`` or a random
    partition of q.  Returns (pencil, jordan specs, nilpotent specs)."""
    if nilpotent is not None:
        q = sum(nilpotent)
    elif q is None:
        q = rng.randint(min_q, n)
    p = n - q
    jblocks = [JordanBlockSpec(rng.choice(palette), sz)
               for sz in (random_partition(rng, p) if p else [])]
    if nilpotent is None:
        nilpotent = random_partition(rng, q) if q else []
    nblocks = [NilpotentBlockSpec(sz) for sz in nilpotent]
    f_w = block_diag([Matrix.identity(p, Mode.EXACT),
                      assemble_Hq(nblocks, Mode.EXACT)], Mode.EXACT)
    g_w = block_diag([assemble_Jp(jblocks, Mode.EXACT),
                      Matrix.identity(q, Mode.EXACT)], Mode.EXACT)
    left, right = conjugate(rng, n), conjugate(rng, n)
    pen = Pencil(left @ f_w @ right, left @ g_w @ right)
    return pen, jblocks, nblocks


def singular_pencil(rng: random.Random, eps: int, eta: int, regular: int) -> Pencil:
    """Square pencil with det(sF - G) identically zero: the Kronecker blocks
    L_eps = s[I | 0] - [0 | I] (eps x (eps + 1)) and L_eta^T ((eta + 1) x
    eta) beside a planted regular pencil of size ``regular``, hidden by
    rational conjugation.  (sF - G) x(s) = 0 for a polynomial x(s) of
    degree eps and no lower."""
    def m(rows, cols, entry):
        if not (rows and cols):
            return Matrix.zeros(rows, cols, Mode.EXACT)
        return Matrix([[int(entry(i, j)) for j in range(cols)] for i in range(rows)],
                      Mode.EXACT)

    f_l, g_l = m(eps, eps + 1, lambda i, j: i == j), m(eps, eps + 1, lambda i, j: j == i + 1)
    f_t, g_t = m(eta + 1, eta, lambda i, j: i == j), m(eta + 1, eta, lambda i, j: i == j + 1)
    blocks = [(f_l, g_l), (f_t, g_t)]
    if regular:
        reg, _, _ = planted_pencil(rng, regular)
        blocks.append((reg.F, reg.G))
    n = eps + eta + 1 + regular
    f_w = block_diag([f for f, _ in blocks], Mode.EXACT)
    g_w = block_diag([g for _, g in blocks], Mode.EXACT)
    left, right = rational_nonsingular(rng, n), rational_nonsingular(rng, n)
    return Pencil(left @ f_w @ right, left @ g_w @ right)


def jordan_multiset(blocks) -> list:
    return sorted((b.eigenvalue, b.size) for b in blocks)


def nilpotent_multiset(blocks) -> list:
    return sorted(b.size for b in blocks)


def _causal_bq_pattern(rng: random.Random, nblocks, l: int) -> Matrix:
    """B_q with nonzero rows only at the first row of each nilpotent block,
    which forces H_q B_q = 0 (state-input causality) by construction."""
    rows = []
    for b in nblocks:
        rows.append([rng.randint(-3, 3) for _ in range(l)])
        rows.extend([[0] * l for _ in range(b.size - 1)])
    return Matrix(rows, Mode.EXACT) if rows else Matrix.zeros(0, l, Mode.EXACT)


def random_descriptor(rng: random.Random, n: int, l: int, m: int, *,
                      q: int | None = None, min_q: int = 0,
                      plant: str = "generic", palette=EIGENVALUE_PALETTE,
                      nilpotent: list[int] | None = None) -> Analysis:
    """Random system with planted canonical structure, as its ``Analysis``;
    ``q``, ``min_q``, ``palette`` and ``nilpotent`` go to :func:`planted_pencil`.

    plant:
      "generic"            -- B, C free random
      "state_causal"       -- B built so that H_q B_q = 0
      "output_causal_only" -- C annihilates the infinite deflating subspace
    Eigenvalues are drawn from ``palette``.
    """
    pen, _, _ = planted_pencil(rng, n, q=q, min_q=min_q, palette=palette,
                               nilpotent=nilpotent)
    w = decompose(pen)
    if plant == "state_causal":
        b_p = small_int_matrix(rng, w.p, l)
        b_q = _causal_bq_pattern(rng, w.nilpotent_blocks, l)
        b = linalg.inverse(w.P) @ vstack([b_p, b_q])
    else:
        b = small_int_matrix(rng, n, l)
    if plant == "output_causal_only":
        c = block_like_c(small_int_matrix(rng, m, w.p), m, w)
    else:
        c = small_int_matrix(rng, m, n)
    return Analysis(DescriptorSystem(pen.F, pen.G, b, c), w, verify(pen, w))


def block_like_c(c_p: Matrix, m: int, w) -> Matrix:
    """C = [C_p | 0] in decomposition coordinates, i.e. C Q_q = 0."""
    c_w = Matrix([c_p.row_list(i) + [0] * w.q for i in range(m)], Mode.EXACT)
    return c_w @ linalg.inverse(w.Q)


def random_signal(rng: random.Random, l: int, k0: int, count: int,
                  mode: Mode = Mode.EXACT) -> InputSignal:
    rows = [[rng.randint(-3, 3) for _ in range(l)] for _ in range(count)]
    return InputSignal.from_rows(k0, rows, mode)


def consistent_y0(rng: random.Random, a: Analysis, signal) -> Matrix:
    w = a.w
    z = Matrix.column([rng.randint(-3, 3) for _ in range(w.p)], w.mode)
    return reference_closed_form(a, signal, z, signal.k0)[0]


def system_file_to_dict(sf: SystemFile) -> dict:
    """The JSON document of a parsed system file, entries as strings."""
    return {
        "n": sf.n,
        "l": sf.l,
        "m": sf.m,
        "mode": str(sf.mode),
        "F": _matrix_to_lists(sf.F),
        "G": _matrix_to_lists(sf.G),
        "B": _matrix_to_lists(sf.B),
        "C": _matrix_to_lists(sf.C),
        "Y0": sf.Y0.format_entries(),
        "k0": sf.k0,
        "inputs": [v.format_entries() for v in sf.inputs],
        "K": sf.K,
    }


# ---------------------------------------------------------------------------
# test machinery
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise ``TimeoutError`` in the body once ``seconds`` of wall time have
    passed (a SIGALRM timer); the previous handler is restored on exit."""
    def over_time(signum, frame):
        raise TimeoutError(f"stopped by the {seconds:g} s alarm")

    previous = signal.signal(signal.SIGALRM, over_time)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def count_calls(monkeypatch, *names) -> dict:
    """Count calls of dkit functions given as "module.function" by patching
    every dkit.* module binding of each, as perfbench/spans.py does."""
    counts = dict.fromkeys(names, 0)
    for qual in names:
        mod_name, attr = qual.split(".")
        orig = getattr(sys.modules[f"dkit.{mod_name}"], attr)

        def counted(*args, _orig=orig, _qual=qual, **kwargs):
            counts[_qual] += 1
            return _orig(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "dkit" or name.startswith("dkit."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, counted)
    return counts


def with_examples(cases):
    """``hypothesis.example`` for each of ``cases``."""
    def apply(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test
    return apply


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(coeffs, x):
    """Horner evaluation of an ascending-coefficient polynomial."""
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * x + c
    return 0 * x if acc is None else acc


def matrix_power(mat: Matrix, k: int) -> Matrix:
    """mat^k by k products, k >= 0."""
    acc = Matrix.identity(mat.rows, mat.mode)
    for _ in range(k):
        acc = acc @ mat
    return acc


def forced_z_q(a: Analysis, signal, k: int) -> Matrix:
    """Z^q_k = -[B_q | H_q B_q | ... | H_q^{q*-1} B_q] [V_k; ...; V_{k+q*-1}].

    The same product ``check_consistency`` subtracts at k0, so in float
    mode a Y_{k0} built on it passes that check without rounding noise.
    """
    w = a.w
    if not w.q_star:
        return Matrix.zeros(w.q, 1, w.mode)
    return -(a.tin.backward @ vstack([signal.sample(k + i) for i in range(w.q_star)]))


def reference_closed_form(a: Analysis, signal, z_p0: Matrix, k: int) -> tuple[Matrix, Matrix, Matrix]:
    """(Y_k, Z^p_k, Z^q_k) from the paper's closed form

        Y_k = Q_p J_p^{k-k0} Z^p_{k0} + Q D_k,
        D_k = [sum_{i=k0}^{k-1} J_p^{k-i-1} B_p V_i;
               -[B_q | H_q B_q | ... | H_q^{q*-1} B_q] [V_k; ...; V_{k+q*-1}]],

    summing powers of J_p where ``solve_from_zp`` steps Z^p one instant at
    a time.
    """
    w, k0 = a.w, signal.k0
    forward, power = Matrix.zeros(w.p, 1, w.mode), Matrix.identity(w.p, w.mode)
    for i in range(k - 1, k0 - 1, -1):  # power = J_p^{k-i-1}
        forward = forward + power @ (a.tin.B_p @ signal.sample(i))
        power = power @ w.J_p
    z_q = forced_z_q(a, signal, k)
    free = power @ z_p0  # J_p^{k-k0} Z^p_{k0}
    y = w.Q_p @ free + w.Q @ vstack([forward, z_q])
    return y, free + forward, z_q


def reference_solve_from_zp(a: Analysis, signal, z_p0: Matrix, K: int) -> Trajectory:
    """``solve_from_zp`` with the column of each instant stacked by
    ``vstack`` from a window cut by ``take_rows``, and the product cut
    into Y_k, X_k, Z^q_k and Z^p_{k+1} by ``take_rows``."""
    k0, w = signal.k0, a.w
    n, m, q, l = a.system.n, a.system.m, w.q, a.system.l
    width = max(w.q_star, 1)
    step_map = a.step_map.S
    last_map = step_map.take_rows(range(step_map.rows - w.p))
    if not w.q_star:  # the final instant reads no V
        last_map = last_map.take_cols(range(w.p))
    inputs = vstack([Matrix.zeros(0, 1, w.mode), *signal.samples])
    z_p_list, z_q_list, states, outputs = [], [], [], []
    zp = z_p0
    for k in range(k0, K + 1):
        step = step_map if k < K else last_map
        i = (k - k0) * l
        window = inputs.take_rows(range(i, i + width * l) if k < K or w.q_star else range(0))
        out = step @ vstack([zp, window])
        z_p_list.append(zp)
        states.append(out.take_rows(range(n)))
        outputs.append(out.take_rows(range(n, n + m)))
        z_q_list.append(out.take_rows(range(n + m, n + m + q)))
        if k < K:
            zp = out.take_rows(range(n + m + q, out.rows))
    return Trajectory(k0, tuple(states), tuple(outputs), tuple(z_p_list), tuple(z_q_list))


def reference_rref_data(data: list[list]) -> list[int]:
    """Gauss-Jordan over ``Fraction``: in-place RREF, returns pivot columns;
    the exact reference for the integer kernel."""
    nrows = len(data)
    ncols = len(data[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if data[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            data[piv], data[r] = data[r], data[piv]
        inv = 1 / data[r][c]
        row_r = data[r]
        for j in range(c, ncols):
            row_r[j] = row_r[j] * inv
        for i in range(nrows):
            if i == r:
                continue
            f = data[i][c]
            if f == 0:
                continue
            row_i = data[i]
            for j in range(c, ncols):
                row_i[j] = row_i[j] - f * row_r[j]
        pivots.append(c)
        r += 1
    return pivots


def exact_det(mat: Matrix) -> Fraction:
    """Determinant of an exact matrix: ``linalg.integer_det`` of its
    integer rows over the product of the row denominators."""
    return Fraction(linalg.integer_det(mat.integer_rows()), math.prod(mat.denominators))


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """The RREF of ``mat`` and its pivot columns, read off
    ``linalg._reduced``."""
    rows, pivots, d = linalg._reduced(mat, None)
    return Matrix.divided(rows, d, mat.cols, mat.mode), pivots


def reference_det(mat: Matrix) -> Fraction:
    """Determinant by Gaussian elimination over ``Fraction``."""
    n = mat.rows
    data = mat.to_lists()
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if data[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
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


class ReferenceMatrix:
    """A matrix of either mode as the flat row-major tuple of its entries,
    ``Fraction`` or ``complex``, every operation done entry by entry in that
    arithmetic: the reference for the integer rows of exact ``Matrix`` and,
    bit for bit, for float ``Matrix``.

    A product entry starts at the mode's zero and adds ``x * y`` over the
    inner index in ascending order, in an explicit loop: ``sum()`` is no
    bit-exact stand-in, as CPython 3.12 made float ``sum()`` compensated."""

    ZERO = {Mode.EXACT: Fraction(0), Mode.FLOAT: 0j}

    def __init__(self, mode: Mode, rows: int, cols: int, entries):
        self.mode, self.rows, self.cols, self.e = mode, rows, cols, tuple(entries)

    @classmethod
    def of(cls, m: Matrix) -> "ReferenceMatrix":
        return cls(m.mode, m.rows, m.cols, (x for row in m.to_lists() for x in row))

    def _like(self, rows, cols, entries):
        return ReferenceMatrix(self.mode, rows, cols, entries)

    def at(self, i, j):
        return self.e[i * self.cols + j]

    def map(self, fn):
        return self._like(self.rows, self.cols, map(fn, self.e))

    def __matmul__(self, other):
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                s = self.ZERO[self.mode]
                for t in range(self.cols):
                    s += self.at(i, t) * other.at(t, j)
                out.append(s)
        return self._like(self.rows, other.cols, out)

    def __add__(self, other):
        return self._like(self.rows, self.cols, (a + b for a, b in zip(self.e, other.e)))

    def __sub__(self, other):
        return self._like(self.rows, self.cols, (a - b for a, b in zip(self.e, other.e)))

    def __neg__(self):
        return self.map(lambda x: -x)

    def scale(self, s):
        return self.map(lambda x: s * x)

    def take_rows(self, iz):
        return self._like(len(iz), self.cols, (self.at(i, j) for i in iz for j in range(self.cols)))

    def take_cols(self, js):
        return self._like(self.rows, len(js), (self.at(i, j) for i in range(self.rows) for j in js))

    @property
    def T(self):
        return self._like(self.cols, self.rows,
                          (self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def __eq__(self, other):
        return ((self.mode, self.rows, self.cols, self.e)
                == (other.mode, other.rows, other.cols, other.e))

    def is_zero(self):
        return all(x == 0 for x in self.e)

    def max_abs(self):
        return max(map(abs, self.e), default=abs(self.ZERO[self.mode]))


def reference_hstack(mats: list[ReferenceMatrix]) -> ReferenceMatrix:
    return mats[0]._like(mats[0].rows, sum(m.cols for m in mats), (
        m.at(i, j) for i in range(mats[0].rows) for m in mats for j in range(m.cols)))


def reference_vstack(mats: list[ReferenceMatrix]) -> ReferenceMatrix:
    return mats[0]._like(sum(m.rows for m in mats), mats[0].cols, (x for m in mats for x in m.e))


def reference_block_diag(mats: list[ReferenceMatrix], mode: Mode) -> ReferenceMatrix:
    n, c = sum(m.rows for m in mats), sum(m.cols for m in mats)
    out = [[ReferenceMatrix.ZERO[mode]] * c for _ in range(n)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m.at(i, j)
        r0, c0 = r0 + m.rows, c0 + m.cols
    return ReferenceMatrix(mode, n, c, (x for row in out for x in row))


def reference_float_det(m: Matrix) -> complex:
    """Determinant of a square float matrix by the loop that
    ``linalg.float_det`` replaced: partial pivoting on a copy of the rows
    under ``DEFAULT_RANK_TOL`` times the largest entry magnitude, and 0 at
    the first column with no pivot above that."""
    n = m.rows
    data = m.to_lists()
    thr = linalg.DEFAULT_RANK_TOL * ReferenceMatrix.of(m).max_abs()
    sign, result = 1, complex(1.0)
    for c in range(n):
        piv, best_mag = None, thr
        for i in range(c, n):
            if abs(data[i][c]) > best_mag:
                piv, best_mag = i, abs(data[i][c])
        if piv is None:
            return complex(0.0)
        if piv != c:
            data[piv], data[c] = data[c], data[piv]
            sign = -sign
        pv = data[c][c]
        result = result * pv
        for i in range(c + 1, n):
            f = data[i][c] / pv
            if f == 0:
                continue
            for j in range(c, n):
                data[i][j] = data[i][j] - f * data[c][j]
    return result if sign > 0 else -result


def _reference_divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of zero")
    small, large = [], []
    d = 1
    while d <= math.isqrt(n):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def reference_rational_roots(coeffs: list[Fraction]) -> tuple[list[tuple[Fraction, int]], list[Fraction]]:
    """All rational roots with multiplicity, plus the unfactored remainder.

    ``Fraction`` Horner tests of every candidate from a divisor scan up to
    the square roots of the end coefficients; reference for
    ``pencil._rational_roots``.
    """
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    work = [c * lcm for c in coeffs]
    roots: list[tuple[Fraction, int]] = []
    # roots at zero
    t = 0
    while t < len(work) - 1 and work[t] == 0:
        t += 1
    if t:
        roots.append((Fraction(0), t))
        work = work[t:]
    if len(work) <= 1:
        return roots, []
    num_divs = _reference_divisors(int(work[0]))
    den_divs = _reference_divisors(int(work[-1]))
    candidates = sorted(
        {s * Fraction(pn, qd) for pn in num_divs for qd in den_divs for s in (1, -1)},
        key=lambda f: (f.numerator, f.denominator),
    )
    for cand in candidates:
        while len(work) > 1 and poly_eval(work, cand) == 0:
            # synthetic division by (s - cand)
            out = [Fraction(0)] * (len(work) - 1)
            out[-1] = work[-1]
            for j in range(len(work) - 2, 0, -1):
                out[j - 1] = work[j] + cand * out[j]
            work = out
            found = False
            for i, (r, m) in enumerate(roots):
                if r == cand:
                    roots[i] = (r, m + 1)
                    found = True
                    break
            if not found:
                roots.append((cand, 1))
    remainder = work if len(work) > 1 else []
    return roots, [Fraction(c) for c in remainder]


def reference_char_poly(pencil: Pencil) -> CharPoly:
    """det(sF - G) of an exact pencil from the node matrices sF - G at
    s = 0..n, built entry by entry over ``Fraction``, :func:`reference_det`
    of each and the Vandermonde system [V | dets] reduced by
    :func:`reference_rref_data`; reference for the integer route of
    ``pencil.char_poly``."""
    n = pencil.n
    f, g = pencil.F.to_lists(), pencil.G.to_lists()
    system = []
    for s in map(Fraction, range(n + 1)):
        node = Matrix([[s * x - y for x, y in zip(fr, gr)] for fr, gr in zip(f, g)], Mode.EXACT)
        system.append([s**j for j in range(n + 1)] + [reference_det(node)])
    assert reference_rref_data(system) == list(range(n + 1))
    coeffs = [row[-1] for row in system]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return CharPoly(tuple(coeffs), n)


def reference_float_char_poly(pencil: Pencil, tol: float | None = None) -> CharPoly:
    """det(sF - G) of a float pencil from :func:`reference_float_det` of the
    node matrices sF - G at s = 0..n and a Vandermonde solve, trimmed within
    ``tol``; reference for the node rows and the replayed elimination of
    ``pencil.char_poly``, which must match its coefficients bit for bit
    and break down where it does, with a message of its own."""
    n = pencil.n
    mode = pencil.mode
    nodes = [complex(i) for i in range(n + 1)]
    dets = [reference_float_det(pencil.F.scale(s) - pencil.G) for s in nodes]
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


def reference_residuals(pencil: Pencil, w) -> tuple:
    """The two residuals of the reconstruction check as differences:
    F_w = I_p (+) H_q and G_w = J_p (+) I_q built as matrices and
    subtracted from P F Q and P G Q, then ``max_abs`` of each."""
    mode = w.mode
    f_w = block_diag([Matrix.identity(w.p, mode), assemble_Hq(w.nilpotent_blocks, mode)], mode)
    g_w = block_diag([assemble_Jp(w.jordan_blocks, mode), Matrix.identity(w.q, mode)], mode)
    return ((w.P @ pencil.F @ w.Q - f_w).max_abs(), (w.P @ pencil.G @ w.Q - g_w).max_abs())


def reference_verify(pencil: Pencil, w, tol: float | None = None) -> VerificationReport:
    """The reconstruction check by its defining formula in both modes: the
    residuals of :func:`reference_residuals`, then P and Q tested for rank
    when both pass, which in float mode also needs every entry of P F Q
    and P G Q finite.  ``w.P`` is built as ``linalg.inverse(M)`` where the
    decomposition defines it as M^{-1}.  Reference for
    ``weierstrass.verify``."""
    if w.n != pencil.n:
        raise ValueError("decomposition and pencil dimensions differ")
    F, G = pencil.F, pencil.G
    pfq, pgq = w.P @ F @ w.Q, w.P @ G @ w.Q
    res_f, res_g = reference_residuals(pencil, w)
    if pencil.mode is Mode.EXACT:
        ok = res_f == 0 and res_g == 0
    else:
        scale = float(max(abs(F.max_abs()), abs(G.max_abs()), 1.0))
        thr = (linalg.DEFAULT_RANK_TOL if tol is None else tol) * scale
        finite = all(cmath.isfinite(x) for m in (pfq, pgq) for row in m.to_lists() for x in row)
        ok = finite and float(res_f) <= thr and float(res_g) <= thr
    if not ok:
        return VerificationReport(res_f, res_g, None, None)
    return VerificationReport(res_f, res_g, linalg.is_nonsingular(w.P, tol),
                              linalg.is_nonsingular(w.Q, tol))


def reference_pick_independent(candidates: Matrix, context: list[Matrix], tol: float | None) -> int:
    """Index of the first candidate column outside the span of the context
    columns, by one rank elimination per candidate; reference for
    ``weierstrass._pick_independent``."""
    if context:
        s = hstack(context)
        base = linalg.rank(s, tol)
    else:
        s = None
        base = 0
    for j in range(candidates.cols):
        v = candidates.col(j)
        trial = hstack([s, v]) if s is not None else v
        if linalg.rank(trial, tol) == base + 1:
            return j
    raise ChainConstructionFailure("no chain top vector available at this level")


def reference_chains(A: Matrix, E: Matrix, bases, tol: float | None) -> list[list[Matrix]]:
    """The chains of ``weierstrass._chains`` with each step solved afresh:
    v_{k-1} = N_{k-1} y, y the unique solution of E N_{k-1} y = A v_k;
    reference for the exact chains, which read y off the walk's y-maps."""
    picked: list[Matrix] = []
    chains: list[list[Matrix]] = []
    for r in _block_sizes([b.cols for b in bases]):
        context = [bases[r - 2]] + picked if r >= 2 else picked
        chain = [bases[r - 1].col(reference_pick_independent(bases[r - 1], context, tol))]
        for k in range(r, 1, -1):
            b = bases[k - 2]
            try:
                y = linalg.solve_unique(E @ b, A @ chain[-1], tol)
            except ValueError as exc:
                raise ChainConstructionFailure(f"chain step solve failed: {exc}") from None
            chain.append(b @ y)
        chain.reverse()
        chains.append(chain)
        picked.extend(chain)
    return chains


def reference_filtration(A: Matrix, E: Matrix, target: int, tol: float | None) -> list[Matrix]:
    """Bases of N_1 = ker A <= N_2 <= ... up to dimension ``target``, each
    N_k the column space of the v-parts of ker [A | -E N_{k-1}], one
    elimination of the stacked matrix per step; reference for
    ``linalg.filtration``, which it follows in raising
    ``ChainConstructionFailure`` when the dimensions stall."""
    bases = [linalg.kernel_basis(A, tol)]
    while bases[-1].cols < target:
        k = linalg.kernel_basis(hstack([A, -(E @ bases[-1])]), tol)
        nxt = linalg.column_space_basis(k.take_rows(range(A.cols)), tol)
        if not bases[-1].cols < nxt.cols <= target:
            raise ChainConstructionFailure("chain subspaces stalled")
        bases.append(nxt)
    return bases


def reference_causality_oracle(
    a: Analysis,
    mode: str,
    horizon: int,
    trials: int = 50,
    *,
    rng: random.Random | None = None,
    seed: int | None = None,
    tol: float | None = None,
) -> OracleCounterexample | None:
    """One mode per pass: solves both signals of a trial to the full
    horizon and returns the first counterexample, or None.  At horizon
    max(q* + 5, 8) the library oracle must give each mode the
    counterexample this gives it.

    Empirical causality test straight from the definition.

    Each trial draws a random input signal and a random forward coordinate
    Z^p_{k0}, then perturbs exactly one future sample (index j) by a random
    nonzero vector.  The perturbation is placed at j >= k0 + q*, which
    leaves D_{k0} untouched, so the initial state Q_p Z^p_{k0} + Q D_{k0}
    is the same for both signals and the two trajectories are comparable.
    Both run from that Z^p_{k0} itself: in float mode a Y_{k0} solved back
    for it would come back with rounding.  Any difference in a state (or
    output, per ``mode``) at a time k < j witnesses non-causality.
    """
    if mode not in ("state", "output"):
        raise ValueError(f"mode must be 'state' or 'output', got {mode!r}")
    if rng is None:
        rng = random.Random(0 if seed is None else seed)
    sys, w = a.system, a.w
    if sys.l == 0:
        return None
    k0 = 0
    K = horizon
    count = K - k0 + w.q_star  # covers indices k0 .. K + q* - 1
    j_min = k0 + max(w.q_star, 1)
    j_max = min(K, k0 + count - 1)  # perturbed sample must exist
    if j_min > j_max:
        raise ValueError(f"horizon {horizon} too short; need at least {j_min - k0 + 1}")

    for t in range(trials):
        rows = [[rng.randint(-3, 3) for _ in range(sys.l)] for _ in range(count)]
        j = rng.randrange(j_min, j_max + 1)
        delta = [rng.randint(-3, 3) for _ in range(sys.l)]
        while all(d == 0 for d in delta):
            delta = [rng.randint(-3, 3) for _ in range(sys.l)]
        pert_rows = [list(r) for r in rows]
        pert_rows[j - k0] = [a + b for a, b in zip(pert_rows[j - k0], delta)]

        base = InputSignal.from_rows(k0, rows, sys.mode)
        pert = InputSignal.from_rows(k0, pert_rows, sys.mode)

        z = Matrix.column([rng.randint(-3, 3) for _ in range(w.p)], sys.mode)
        traj_base = solve_from_zp(a, base, z, K)
        traj_pert = solve_from_zp(a, pert, z, K)
        seq_base = traj_base.states if mode == "state" else traj_base.outputs
        seq_pert = traj_pert.states if mode == "state" else traj_pert.outputs

        for k in range(k0, j):
            diff = seq_base[k - k0] - seq_pert[k - k0]
            if not diff.is_zero(DEFAULT_CAUSALITY_TOL if tol is None else tol):
                return OracleCounterexample(
                    trial=t,
                    perturbed_index=j,
                    diverged_at=k,
                    base_signal=base,
                    perturbed_signal=pert,
                    base_value=seq_base[k - k0],
                    perturbed_value=seq_pert[k - k0],
                )
    return None
