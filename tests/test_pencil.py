import math
import random
import signal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dkit import (
    ChainConstructionFailure,
    CharPoly,
    DescriptorSystem,
    IrregularPencil,
    Matrix,
    Pencil,
    UnresolvableSpectrum,
    char_poly,
    decompose,
    finite_eigenvalues,
    hstack,
)
from dkit import linalg
from dkit.cli import parse_system_file
from dkit.scalars import Mode

from dkit.pencil import _rational_roots, _vandermonde
from dkit.weierstrass import _block_sizes
from helpers import (
    brute_char_poly,
    exact_det,
    planted_pencil,
    poly_eval,
    poly_mul,
    random_descriptor,
    rational_nonsingular,
    reference_char_poly,
    reference_float_char_poly,
    reference_rational_roots,
    singular_pencil,
)
from test_golden import PLANTS, planted_doc

EX = Mode.EXACT
FL = Mode.FLOAT
PLANT_KINDS = ("generic", "state_causal", "output_causal_only")


def pen(f_rows, g_rows, mode=EX):
    return Pencil(Matrix(f_rows, mode), Matrix(g_rows, mode))


def test_char_poly_scalar_pencil():
    cp = char_poly(pen([[1]], [[2]]))
    assert cp.coefficients == (Fraction(-2), Fraction(1))
    assert cp.p == 1 and cp.q == 0


def test_char_poly_identically_zero():
    cp = char_poly(pen([[0]], [[0]]))
    assert cp.is_zero
    assert cp.p is None and cp.q is None


def test_char_poly_diag_fixture():
    # sF - G = diag(s-2, -1), det = -(s-2); frozen from the cofactor oracle
    f, g = [[1, 0], [0, 0]], [[2, 0], [0, 1]]
    cp = char_poly(pen(f, g))
    assert cp.coefficients == (Fraction(2), Fraction(-1))
    assert cp.p == 1 and cp.q == 1
    assert cp.coefficients == brute_char_poly(Matrix(f, EX), Matrix(g, EX))


def test_char_poly_matches_cofactor_oracle_on_random_pencils():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        f = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], EX)
        g = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], EX)
        assert char_poly(Pencil(f, g)).coefficients == brute_char_poly(f, g)


def test_char_poly_evaluation_matches_determinant_away_from_nodes():
    rng = random.Random(12)
    for _ in range(20):
        p, _, _ = planted_pencil(rng, rng.randint(1, 5))
        cp = char_poly(p)
        for a in (Fraction(17), Fraction(-9, 2), Fraction(23, 3)):
            assert poly_eval(cp.coefficients, a) == exact_det(p.F.scale(a) - p.G)


def test_is_regular_examples():
    assert not char_poly(pen([[1, 0], [0, 1]], [[5, -7], [2, 0]])).is_zero
    assert char_poly(pen([[0]], [[0]])).is_zero
    assert char_poly(pen([[1, 0], [0, 0]], [[0, 0], [0, 0]])).is_zero


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_identity_f_always_regular(g_rows):
    assert not char_poly(pen([[1 if i == j else 0 for j in range(3)] for i in range(3)],
                             g_rows)).is_zero


def test_p_plus_q_is_n_and_multiplicities_sum_to_p():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 6)
        p, _, _ = planted_pencil(rng, n)
        cp = char_poly(p)
        assert cp.p + cp.q == n
        eigs = finite_eigenvalues(cp)
        assert sum(m for _, m in eigs) == cp.p


def test_finite_eigenvalues_linear_factor():
    cp = CharPoly((Fraction(-2), Fraction(1)), n=1)  # s - 2
    assert finite_eigenvalues(cp) == [(Fraction(2), 1)]


def test_finite_eigenvalues_repeated_root():
    cp = CharPoly((Fraction(1), Fraction(-2), Fraction(1)), n=2)  # (s-1)^2
    assert finite_eigenvalues(cp) == [(Fraction(1), 2)]


def test_finite_eigenvalues_rational_and_zero_roots():
    # s(2s - 1) = 2s^2 - s
    cp = CharPoly((Fraction(0), Fraction(-1), Fraction(2)), n=2)
    assert finite_eigenvalues(cp) == [(Fraction(0), 1), (Fraction(1, 2), 1)]


def test_finite_eigenvalues_unresolvable_in_exact_mode():
    cp = CharPoly((Fraction(1), Fraction(0), Fraction(1)), n=2)  # s^2 + 1
    with pytest.raises(UnresolvableSpectrum) as err:
        finite_eigenvalues(cp)
    assert len(err.value.remaining) == 3


def test_finite_eigenvalues_zero_poly_rejected():
    with pytest.raises(ValueError):
        finite_eigenvalues(CharPoly((), n=2))


def test_float_mode_char_poly_and_clustering():
    f = Matrix([[1, 0], [0, 0]], Mode.FLOAT)
    g = Matrix([[2, 0], [0, 1]], Mode.FLOAT)
    cp = char_poly(Pencil(f, g))
    assert cp.p == 1 and cp.q == 1
    assert abs(cp.coefficients[0] - 2) < 1e-12
    assert abs(cp.coefficients[1] + 1) < 1e-12
    # (s-1)^2 (s-2) with double root recovered through clustering
    coeffs = (complex(-2), complex(5), complex(-4), complex(1))
    eigs = finite_eigenvalues(CharPoly(coeffs, n=3))
    assert [(round(v.real), m) for v, m in eigs] == [(1, 2), (2, 1)]


def test_float_mode_zero_polynomial_tolerance():
    f = Matrix([[0.0]], Mode.FLOAT)
    g = Matrix([[1e-15]], Mode.FLOAT)
    assert char_poly(Pencil(f, g)).is_zero


def test_float_mode_evaluation_tracks_determinant():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(1, 5)
        rows_f = [[float(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        rows_g = [[float(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        p = Pencil(Matrix(rows_f, Mode.FLOAT), Matrix(rows_g, Mode.FLOAT))
        cp = char_poly(p)
        if cp.is_zero:
            continue
        for a in (complex(7.5), complex(-3.25)):
            d = linalg.float_det((p.F.scale(a) - p.G).to_lists())
            assert abs(poly_eval(cp.coefficients, a) - d) <= 1e-9 * (1 + abs(d))


NAN, INF = float("nan"), float("inf")
FLOAT_ENTRIES = {
    "complex": st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    "singular_f": st.builds(complex, st.integers(-3, 3)),
    # products of such entries overflow, so node determinants turn inf or NaN
    "huge": st.builds(lambda m, e: complex(m * 10.0**e), st.floats(-9, 9), st.integers(290, 307)),
    "nonfinite": st.sampled_from([complex(NAN), complex(INF), complex(0, -INF), 1 + 0j, 0j,
                                  2 - 1j, complex(-3)]),
}


@st.composite
def float_pencils(draw):
    """Float pencils of n = 1..11, so that the replayed Vandermonde
    elimination and both breakdowns (from n = 10 before any node, and
    wherever the node determinants dwarf V) all run: an integer-valued
    plant, random complex entries, a singular F, entries near 1e300, or
    NaN and inf entries that ``Matrix`` lets in."""
    n = draw(st.integers(1, 11))
    kind = draw(st.sampled_from(["plant", *FLOAT_ENTRIES]))
    if kind == "plant":
        pencil, _, _ = planted_pencil(random.Random(draw(st.integers(0, 2**32))), n)
        return Pencil(pencil.F.to_float(), pencil.G.to_float())
    entries = st.lists(st.lists(FLOAT_ENTRIES[kind], min_size=n, max_size=n),
                       min_size=n, max_size=n)
    f, g = draw(entries), draw(entries)
    if kind == "singular_f":
        f[draw(st.integers(0, n - 1))] = [0j] * n
    return Pencil(Matrix(f, FL), Matrix(g, FL))


def float_char_poly_outcome(char_poly_of, pencil, tol=None):
    """The coefficients as ``float.hex`` of their parts, in which every NaN
    reads "nan", or the breakdown message."""
    try:
        cp = char_poly_of(pencil, tol)
    except ChainConstructionFailure as exc:
        return str(exc)
    return cp.n, [(c.real.hex(), c.imag.hex()) for c in cp.coefficients]


def breakdown(n, thr):
    """The message of a float char poly breakdown on nodes 0..n, whose
    Vandermonde pivot 1 lies within the rank threshold ``thr``."""
    return (f"char poly interpolation on nodes 0..{n} broke down: "
            f"Vandermonde pivot 1 within the rank threshold {thr}")


def diagonal_float_pencil(n):
    return pen([[int(i == j) for j in range(n)] for i in range(n)],
               [[(i + 1) * int(i == j) for j in range(n)] for i in range(n)], FL)


@settings(max_examples=300, deadline=None)
@given(float_pencils(), st.sampled_from([None, 1e-6]))
@example(diagonal_float_pencil(4), None)
@example(diagonal_float_pencil(10), None)
def test_float_char_poly_is_bit_identical_to_the_node_matrix_route(pencil, tol):
    """Where the node matrices and the full Vandermonde solve of the
    reference give coefficients, ``char_poly`` gives them bit for bit;
    where that solve breaks down, ``char_poly`` breaks down too, with its
    own message, and nowhere else."""
    want = float_char_poly_outcome(reference_float_char_poly, pencil, tol)
    got = float_char_poly_outcome(char_poly, pencil, tol)
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith(breakdown(pencil.n, ""))
    else:
        assert got == want


@pytest.mark.parametrize("n, thr", [(10, "10"), (11, "285")])
def test_float_char_poly_from_n_10_breaks_down_before_any_node_determinant(n, thr):
    """n^n >= 1e9 puts the threshold of V alone over the pivot 1."""
    with mock.patch.object(linalg, "float_det", wraps=linalg.float_det) as det:
        with pytest.raises(ChainConstructionFailure) as exc:
            char_poly(diagonal_float_pencil(n))
    assert str(exc.value) == breakdown(n, thr)
    assert det.call_count == 0


def test_float_char_poly_breaks_down_after_its_nodes_once_a_determinant_reaches_1e9():
    """The golden plant_n9_wide: at n = 9 the threshold of V, 0.387, is
    under the pivot 1, but its eigenvalues run to 2^20, so its node
    determinants reach 1e9 and the threshold of [V | dets] covers it."""
    sf = parse_system_file(planted_doc(*PLANTS["plant_n9_wide"]), FL)
    pencil = Pencil(sf.F, sf.G)
    assert isinstance(float_char_poly_outcome(reference_float_char_poly, pencil), str)
    with mock.patch.object(linalg, "float_det", wraps=linalg.float_det) as det:
        with pytest.raises(ChainConstructionFailure) as exc:
            char_poly(pencil)
    assert str(exc.value) == breakdown(9, "4.49e+08")
    assert det.call_count == 10


def test_float_pencils_of_one_size_eliminate_the_vandermonde_matrix_once():
    pencils = [diagonal_float_pencil(5),
               Pencil(Matrix([[1, 2j, 0, 1, 0], [0, 1, 3, 0, 0], [1, 0, 0, 0, 2],
                              [0, 0, 0, 0, 0], [2, 1, 1, 0, 1]], FL),
                      Matrix([[0, 1, 0, 0, 4], [1, 0, 2, 0, 0], [0, 3, 1, 0, 0],
                              [0, 0, 0, 1, 0], [1, 1, 0, 2, 0]], FL))]
    want = [float_char_poly_outcome(reference_float_char_poly, p) for p in pencils]
    _vandermonde.cache_clear()
    with mock.patch.object(linalg, "_rref_data", wraps=linalg._rref_data) as elim, \
            mock.patch.object(linalg, "solve_unique", wraps=linalg.solve_unique) as solve:
        got = [float_char_poly_outcome(char_poly, p) for p in pencils]
    assert got == want
    assert elim.call_count == 1 and solve.call_count == 0  # both replayed the one log


def test_pencil_validation():
    with pytest.raises(ValueError):
        Pencil(Matrix([[1, 0]], EX), Matrix([[1, 0]], EX))
    with pytest.raises(ValueError):
        Pencil(Matrix([[1]], EX), Matrix([[1]], Mode.FLOAT))
    with pytest.raises(ValueError):
        Pencil(Matrix([], EX), Matrix([], EX))


# irreducible over Q, ascending coefficients
IRREDUCIBLE = [
    (1, 0, 1),        # s^2 + 1
    (-2, 0, 1),       # s^2 - 2
    (1, 1, 1),        # s^2 + s + 1
    (-3, 0, 2),       # 2 s^2 - 3
    (-2, 0, 0, 1),    # s^3 - 2
    (1, 1, 0, 1),     # s^3 + s + 1
    (1, -3, 0, 1),    # s^3 - 3 s + 1
    (5, 0, 0, 3),     # 3 s^3 + 5
]

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@given(
    st.lists(st.tuples(small_rationals, st.integers(1, 3)), max_size=3),
    st.lists(st.sampled_from(IRREDUCIBLE), max_size=2),
    st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool),
)
def test_rational_roots_match_the_fraction_reference(linear, irreducible, scale):
    coeffs = [scale]
    for root, mult in linear:
        for _ in range(mult):
            coeffs = poly_mul(coeffs, [-root, Fraction(1)])
    for factor in irreducible:
        coeffs = poly_mul(coeffs, [Fraction(c) for c in factor])
    roots, remainder = _rational_roots(coeffs)
    ref_roots, ref_remainder = reference_rational_roots(coeffs)
    assert sorted(roots) == sorted(ref_roots)
    assert remainder == ref_remainder
    assert all(isinstance(c, Fraction) for c in remainder)


def test_finite_eigenvalues_large_smooth_coefficients():
    # cleared, the end coefficients are -2^40 3^50 and 49: a divisor scan
    # up to their square roots would take about 10^18 steps
    big, neg = Fraction(2**40), Fraction(-3**25, 7)
    coeffs = poly_mul(poly_mul([-big, Fraction(1)], [-neg, Fraction(1)]),
                      [-neg, Fraction(1)])
    cp = CharPoly(tuple(coeffs), n=3)
    assert finite_eigenvalues(cp) == [(neg, 2), (big, 1)]


ENTRIES = st.builds(Fraction, st.integers(-12, 12),
                    st.sampled_from([1, 1, 1, 2, 3, 7, 12, 10**9 + 7]))


@st.composite
def exact_pencils(draw):
    """n = 1..7 with negative entries and per-row denominators; generic,
    row-scaled by large denominators, singular F (p < n), a zero row
    shared by F and G (identically zero) or F = 0."""
    n = draw(st.integers(1, 7))

    def rows(r, c):
        return [draw(st.lists(ENTRIES, min_size=c, max_size=c)) for _ in range(r)]

    f, g = rows(n, n), rows(n, n)
    kind = draw(st.sampled_from(["generic", "row_scaled", "singular_f", "zero_row", "zero_f"]))
    if kind == "row_scaled":
        for i in range(n):
            d = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 3**40)))
            f[i], g[i] = [d * x for x in f[i]], [d * x for x in g[i]]
    elif kind == "singular_f":
        inner = draw(st.integers(0, n - 1))
        left, right = rows(n, inner), rows(inner, n)
        f = [[sum((left[i][t] * right[t][j] for t in range(inner)), Fraction(0))
              for j in range(n)] for i in range(n)]
    elif kind == "zero_row":
        i = draw(st.integers(0, n - 1))
        f[i] = g[i] = [Fraction(0)] * n
    elif kind == "zero_f":
        f = [[Fraction(0)] * n for _ in range(n)]
    return pen(f, g)


def assert_same_char_poly(pencil):
    cp, ref = char_poly(pencil), reference_char_poly(pencil)
    assert cp.coefficients == ref.coefficients  # same values, same trimmed length
    assert all(type(c) is Fraction for c in cp.coefficients)
    assert cp.n == ref.n


@settings(max_examples=300)
@given(exact_pencils())
def test_char_poly_matches_the_vandermonde_reference(pencil):
    assert_same_char_poly(pencil)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 20))
def test_char_poly_matches_the_vandermonde_reference_on_planted_pencils(seed, n):
    pencil, _, _ = planted_pencil(random.Random(seed), n)
    assert_same_char_poly(pencil)


@st.composite
def chained_pencils(draw):
    """Planted pencils of size n <= 16 under rational conjugation, with
    nilpotent chains up to q* = 6 long (a Wong sequence of q* steps),
    p = 0 and p = n included.  Returns (pencil, nilpotent block sizes)."""
    nilpotent = draw(st.lists(st.integers(1, 6), max_size=4).filter(lambda b: sum(b) <= 16))
    q = sum(nilpotent)
    p = draw(st.integers(0 if q else 1, 16 - q))
    pencil, _, _ = planted_pencil(random.Random(draw(st.integers(0, 2**32))), p + q,
                                  nilpotent=nilpotent, conjugate=rational_nonsingular)
    return pencil, nilpotent


@settings(max_examples=40, deadline=None)
@given(chained_pencils())
@example((planted_pencil(random.Random(0), 16, nilpotent=[6, 6, 4],
                         conjugate=rational_nonsingular)[0], [6, 6, 4]))
@example((planted_pencil(random.Random(1), 16, nilpotent=[6, 1],
                         conjugate=rational_nonsingular)[0], [6, 1]))
def test_char_poly_matches_the_reference_on_long_nilpotent_chains(case):
    pencil, nilpotent = case
    assert_same_char_poly(pencil)
    assert char_poly(pencil).p == pencil.n - sum(nilpotent)


@st.composite
def descriptor_pencils(draw):
    """The pencil of a ``random_descriptor`` system of one of the three
    plant kinds, n <= 8, and its planted nilpotent block sizes (the system
    is drawn from the rng state that ``planted_pencil`` starts from)."""
    n, seed = draw(st.integers(1, 8)), draw(st.integers(0, 2**32))
    q = draw(st.integers(0, n))
    system = random_descriptor(random.Random(seed), n, 1, 1, q=q,
                               plant=draw(st.sampled_from(PLANT_KINDS))).system
    pencil, _, nblocks = planted_pencil(random.Random(seed), n, q=q)
    assert (system.F, system.G) == (pencil.F, pencil.G)
    return system.pencil, [b.size for b in nblocks]


@st.composite
def singular_pencils(draw):
    return singular_pencil(random.Random(draw(st.integers(0, 2**32))), draw(st.integers(0, 3)),
                           draw(st.integers(0, 3)), draw(st.integers(0, 6))), None


@settings(max_examples=60, deadline=None)
@given(st.one_of(descriptor_pencils(), chained_pencils(), singular_pencils()))
def test_the_cached_walk_is_the_wong_sequence_up_to_w_star(case):
    """Pencil.wong_sequence has q* steps whose dimensions give the planted
    nilpotent blocks and end at dim W* = n - p; on a singular pencil G W*
    has a kernel.  The step past the walk, made in full, gives W* again:
    on a regular pencil [F | G W*] has full row rank, so the walk ended
    that step early."""
    pencil, nilpotent = case
    n, F, G = pencil.n, pencil.F, pencil.G
    walk = pencil.wong_sequence
    assert walk is pencil.wong_sequence
    w_star = walk[-1] if walk else Matrix.zeros(n, 0, EX)
    if nilpotent is None:
        assert linalg.kernel_basis(G @ w_star).cols > 0
    else:
        assert len(walk) == max(nilpotent, default=0)
        assert _block_sizes([b.cols for b in walk]) == sorted(nilpotent, reverse=True)
        assert w_star.cols == n - char_poly(pencil).p
        assert linalg.rank(hstack([F, G @ w_star])) == n
        if walk:
            assert linalg.preimages(F)[1](-(G @ w_star)) is None
    if walk:
        full = linalg.kernel_basis(hstack([F, -(G @ w_star)])).take_rows(range(n))
        assert linalg.column_space_basis(full) == linalg.column_space_basis(w_star)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 6), st.integers(0, 2**32))
@example(0, 0, 0, 0)
@example(3, 1, 4, 0)
def test_singular_pencils_are_caught_by_a_dependent_column_of_G_on_W_star(eps, eta, regular,
                                                                         seed):
    """A polynomial kernel vector x_0 + s x_1 + ... of sF - G has x_0 != 0
    in W* and G x_0 = 0, so one of the constant columns -G W* is
    dependent: the deflating elimination after the walk finds it, and no
    node is evaluated."""
    pencil = singular_pencil(random.Random(seed), eps, eta, regular)
    with mock.patch.object(linalg, "_bareiss", wraps=linalg._bareiss) as elim:
        pencil.wong_sequence
        walked = elim.call_count
        cp = char_poly(pencil)
    assert cp.is_zero and cp.p is None
    assert elim.call_count - walked == 1
    assert reference_char_poly(pencil).is_zero
    with pytest.raises(IrregularPencil):
        decompose(pencil)


@pytest.mark.parametrize("f, g", [
    ([[1, 0], [0, 0]], [[2 * 10**9, 0], [0, 1]]),
    ([[Fraction(1, 10**6), 0], [0, 0]], [[Fraction(2, 10**6), 0], [0, Fraction(1, 10**6)]]),
    ([[0, 0], [0, 0]], [[0, 0], [0, 0]]),
])
def test_only_an_exact_char_poly_that_reads_zero_is_an_irregular_verdict(f, g):
    """The first two pencils are regular, and their float char polys read
    zero all the same: float mode cannot tell them from F = G = 0, so for
    all three it raises ChainConstructionFailure, and exact mode decides."""
    exact = Pencil(Matrix(f, EX), Matrix(g, EX))
    fl = Pencil(exact.F.to_float(), exact.G.to_float())
    assert char_poly(fl).is_zero
    b, c = Matrix.zeros(2, 0, FL), Matrix.zeros(0, 2, FL)
    with pytest.raises(ChainConstructionFailure, match="reads zero under the float thresholds"):
        decompose(fl)
    with pytest.raises(ChainConstructionFailure, match="reads zero under the float thresholds"):
        DescriptorSystem(fl.F, fl.G, b, c)
    if f == g:
        with pytest.raises(IrregularPencil):
            decompose(exact)
    else:
        assert char_poly(exact).p == 1 and decompose(exact).p == 1


def _over_time(signum, frame):
    raise TimeoutError("stopped by the 2 s alarm")


def test_char_poly_bit_growth_stays_bounded_at_n30():
    """The one deflation by W* keeps the entries small: each basis vector
    of W* is canonical and cleared to integers of content 1, and the
    constant columns are eliminated once; pivots compounded over repeated
    deflations would take minutes, so an alarm stops it at the bound."""
    pencil, _, _ = planted_pencil(random.Random(30), 30, nilpotent=[8, 6, 3, 1],
                                  conjugate=rational_nonsingular)
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        cp = char_poly(pencil)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert cp.p == 12


def test_rational_roots_of_a_quadratic_with_a_large_smooth_content_end_within_2s():
    """61 P s^2 - 59 P, P the product of the first 11 primes: the candidate
    search runs on 61 s^2 - 59 once the content P is divided out, and the
    remainder carries P again."""
    big = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    coeffs = [Fraction(-59 * big), Fraction(0), Fraction(61 * big)]
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        roots, remainder = _rational_roots(coeffs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert (roots, remainder) == ([], coeffs)


@pytest.mark.xfail(strict=True, raises=TimeoutError,
                   reason="_rational_roots searches the divisors of the constant term by "
                          "trial division, about 10^12 steps for s^2 - p1 p2")
def test_finite_eigenvalues_of_a_two_prime_quadratic_ends_within_2s():
    """s^2 - p1 p2 with p1 = 10^12 + 39 and p2 = 10^12 + 61 has no rational
    root; exact mode must say so with UnresolvableSpectrum, not hang."""
    p1, p2 = 10**12 + 39, 10**12 + 61
    cp = CharPoly((Fraction(-p1 * p2), Fraction(0), Fraction(1)), n=2)
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(UnresolvableSpectrum):
            finite_eigenvalues(cp)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
