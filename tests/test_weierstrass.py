import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dkit import (
    ChainConstructionFailure,
    IrregularPencil,
    JordanBlockSpec,
    Matrix,
    NilpotentBlockSpec,
    Pencil,
    UnresolvableSpectrum,
    WeierstrassDecomposition,
    assemble_Hq,
    assemble_Jp,
    block_diag,
    decompose,
    hstack,
    verify,
)
from dkit import linalg, weierstrass
from dkit.scalars import Mode
from dkit.pencil import char_poly
from dkit.weierstrass import _decompose, _pick_independent

from helpers import (
    jordan_multiset,
    matrix_power,
    nilpotent_multiset,
    planted_pencil,
    rational_nonsingular,
    reference_chains,
    reference_filtration,
    reference_pick_independent,
    reference_residuals,
    unimodular,
)

EX = Mode.EXACT


def test_assemble_jordan_singleton():
    m = assemble_Jp([JordanBlockSpec(Fraction(5), 1)], EX)
    assert m.to_lists() == [[5]]


def test_assemble_jordan_block_of_two():
    # eigenvalue on the diagonal, one directly above it
    m = assemble_Jp([JordanBlockSpec(Fraction(2), 2)], EX)
    assert m.to_lists() == [[2, 1], [0, 2]]


def test_assemble_nilpotent_direct_sum():
    m = assemble_Hq([NilpotentBlockSpec(2), NilpotentBlockSpec(1)], EX)
    assert m.to_lists() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert sum(x != 0 for row in m.to_lists() for x in row) == 1


def test_decompose_diag_fixture():
    pen = Pencil(Matrix([[1, 0], [0, 0]], EX), Matrix([[2, 0], [0, 1]], EX))
    w = decompose(pen)
    assert w.P == Matrix.identity(2, EX)
    assert w.Q == Matrix.identity(2, EX)
    assert w.jordan_blocks == (JordanBlockSpec(Fraction(2), 1),)
    assert w.nilpotent_blocks == (NilpotentBlockSpec(1),)
    assert (w.p, w.q, w.q_star) == (1, 1, 1)


def test_decompose_pencil_already_in_jordan_form():
    pen = Pencil(Matrix.identity(2, EX), Matrix([[1, 1], [0, 1]], EX))
    w = decompose(pen)
    assert (w.p, w.q) == (2, 0)
    assert w.J_p.to_lists() == [[1, 1], [0, 1]]
    assert w.Q_q.shape == (2, 0)
    assert w.q_star == 0


def test_canonical_blocks_are_built_once_and_leave_equality_alone():
    rng = random.Random(11)
    pen, _, _ = planted_pencil(rng, 6, q=3)
    w = decompose(pen)
    names = ("Q_p", "Q_q", "J_p", "H_q")
    first = {name: getattr(w, name) for name in names}
    for name in names:
        assert getattr(w, name) is first[name]
    assert w.Q_p == w.Q.take_cols(range(w.p)) and w.Q_q == w.Q.take_cols(range(w.p, w.n))
    assert w.J_p == assemble_Jp(w.jordan_blocks, EX) and w.H_q == assemble_Hq(w.nilpotent_blocks, EX)
    fresh = decompose(pen)
    assert fresh == w and hash(fresh) == hash(w)   # read blocks do not enter equality
    fields = (w.P, w.Q, w.jordan_blocks, w.nilpotent_blocks)
    copy = WeierstrassDecomposition(*fields)
    assert copy == w and copy.J_p == w.J_p and copy.J_p is not w.J_p
    moved = WeierstrassDecomposition(w.P.scale(2), *fields[1:])
    assert moved != w and moved.Q_p == w.Q_p
    assert WeierstrassDecomposition(w.P, w.Q, (), *fields[3:]).J_p.shape == (0, 0)


def test_decompose_nilpotent_3x3_fixture():
    pen = Pencil(
        Matrix([[1, 0, 0], [0, 0, 1], [0, 0, 0]], EX),
        Matrix.identity(3, EX),
    )
    w = decompose(pen)
    assert (w.p, w.q, w.q_star) == (1, 2, 2)
    assert w.jordan_blocks == (JordanBlockSpec(Fraction(1), 1),)
    assert w.H_q.to_lists() == [[0, 1], [0, 0]]
    assert w.P == Matrix.identity(3, EX)
    assert w.Q == Matrix.identity(3, EX)


def test_verify_zero_residuals_for_decompose_output():
    rng = random.Random(21)
    for _ in range(10):
        pen, _, _ = planted_pencil(rng, rng.randint(1, 5))
        w = decompose(pen)
        rep = verify(pen, w)
        assert rep.residual_F == 0 and rep.residual_G == 0
        assert rep.P_nonsingular and rep.Q_nonsingular


def test_verify_hand_decomposition_of_diag_fixture():
    pen = Pencil(Matrix([[1, 0], [0, 0]], EX), Matrix([[2, 0], [0, 1]], EX))
    w = WeierstrassDecomposition(
        P=Matrix.identity(2, EX),
        Q=Matrix.identity(2, EX),
        jordan_blocks=(JordanBlockSpec(Fraction(2), 1),),
        nilpotent_blocks=(NilpotentBlockSpec(1),),
    )
    rep = verify(pen, w)
    assert rep.residual_F == 0 and rep.residual_G == 0


def test_p_q_and_q_star_are_read_off_the_blocks():
    pen = Pencil(Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]], EX),
                 Matrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], EX))
    blocks = (JordanBlockSpec(Fraction(2), 1),)
    nil = (NilpotentBlockSpec(2), NilpotentBlockSpec(1))
    eye = Matrix.identity(4, EX)
    w = WeierstrassDecomposition(eye, eye, blocks, nil)
    assert (w.p, w.q, w.q_star, w.n) == (1, 3, 2, 4)
    assert w == decompose(pen)
    rep = verify(pen, w)
    assert rep.residual_F == 0 and rep.residual_G == 0
    with pytest.raises(TypeError):
        WeierstrassDecomposition(eye, eye, blocks, nil, p=2, q=0, q_star=5)


def test_verify_detects_permuted_blocks():
    pen = Pencil(Matrix.identity(2, EX), Matrix([[2, 0], [0, 3]], EX))
    wrong = WeierstrassDecomposition(
        P=Matrix.identity(2, EX),
        Q=Matrix.identity(2, EX),
        jordan_blocks=(JordanBlockSpec(Fraction(3), 1), JordanBlockSpec(Fraction(2), 1)),
        nilpotent_blocks=(),
    )
    rep = verify(pen, wrong)
    assert rep.residual_G != 0


FL = Mode.FLOAT
# finite blocks only, infinite blocks only, and both
PLANT_KINDS = (dict(n=4, q=0), dict(n=4, nilpotent=[3, 1]), dict(n=5, nilpotent=[2, 1]))


def _planted_decomposition(rng, conjugate, **kind):
    """A planted pencil and its planted decomposition: P and Q are the
    inverses of the two matrices that conjugate F_w and G_w."""
    made = []

    def record(rng, n):
        made.append(conjugate(rng, n))
        return made[-1]

    pen, jb, nb = planted_pencil(rng, conjugate=record, **kind)
    left, right = made
    return pen, WeierstrassDecomposition(linalg.inverse(left), linalg.inverse(right),
                                         tuple(jb), tuple(nb))


def _to_float(pen, w):
    return (Pencil(pen.F.to_float(), pen.G.to_float()),
            WeierstrassDecomposition(
                w.P.to_float(), w.Q.to_float(),
                tuple(JordanBlockSpec(complex(b.eigenvalue), b.size) for b in w.jordan_blocks),
                w.nilpotent_blocks))


def _with_p(w, p_mat):
    return WeierstrassDecomposition(p_mat, w.Q, w.jordan_blocks, w.nilpotent_blocks)


def _nan_at(m, k):
    """``m`` with a NaN at row-major position k."""
    rows = m.to_lists()
    rows[k // m.cols][k % m.cols] = complex(float("nan"), 0.0)
    return Matrix(rows, FL)


def _wrong_ps(w):
    """Wrong versions of P: scaled by 2 and, in float mode, with a NaN just
    before and just after its largest entry (row-major), where there is one."""
    out = [w.P.scale(2)]
    if w.mode is FL:
        flat = [abs(x) for row in w.P.to_lists() for x in row]
        k = flat.index(max(flat))
        out += [_nan_at(w.P, j) for j in (k - 1, k + 1) if 0 <= j < len(flat)]
    return out


def _residual_corpus():
    """(pencil, decomposition) pairs: planted exact and float decompositions
    of each kind, with unimodular and rational conjugators, and wrong ones
    made from them by permuting the blocks and by each wrong P."""
    rng = random.Random(41)
    out = []
    for kind in PLANT_KINDS:
        for conjugate in (unimodular, rational_nonsingular):
            for _ in range(4):
                pen, w = _planted_decomposition(rng, conjugate, **kind)
                for pen, w in ((pen, w), _to_float(pen, w)):
                    out.append((pen, w))
                    out.append((pen, WeierstrassDecomposition(
                        w.P, w.Q, w.jordan_blocks[::-1], w.nilpotent_blocks[::-1])))
                    out += [(pen, _with_p(w, p)) for p in _wrong_ps(w)]
    return out


def test_verify_residuals_equal_the_difference_matrices_bit_for_bit():
    seen, nans = set(), []
    for pen, w in _residual_corpus():
        got = verify(pen, w)
        want = reference_residuals(pen, w)
        if w.mode is EX:
            assert (got.residual_F, got.residual_G) == want
        else:
            assert (got.residual_F.hex(), got.residual_G.hex()) == (want[0].hex(), want[1].hex())
            nans.append(math.isnan(got.residual_F))
        seen.add((w.mode, max((b.size for b in w.jordan_blocks), default=0),
                  max((b.size for b in w.nilpotent_blocks), default=0)))
    for mode in (EX, FL):  # each kind with blocks of size >= 2
        assert any(m == mode and j >= 2 and k == 0 for m, j, k in seen)
        assert any(m == mode and j == 0 and k >= 2 for m, j, k in seen)
        assert any(m == mode and j >= 2 and k >= 2 for m, j, k in seen)
    assert any(nans) and not all(nans)  # a NaN counts in the first row only


def test_reconstruction_failure_message_reads_the_reference_residuals():
    """A wrong P out of the inversion: _decompose names the residuals the
    difference matrices give, in the message it raised before."""
    rng = random.Random(43)
    checked = 0
    for kind in PLANT_KINDS:
        pen, _, _ = planted_pencil(rng, **kind)
        for pen in (pen, Pencil(pen.F.to_float(), pen.G.to_float())):
            try:
                w = decompose(pen)
            except ChainConstructionFailure:
                continue
            for p_mat in _wrong_ps(w):
                want = reference_residuals(pen, _with_p(w, p_mat))
                with mock.patch.object(linalg, "inverse", return_value=p_mat), \
                        pytest.raises(ChainConstructionFailure) as info:
                    _decompose(pen, char_poly(pen), tol=None, cluster_radius=None)
                assert str(info.value) == (f"reconstruction check failed: residuals "
                                           f"{want[0]}, {want[1]}")
                checked += 1
    assert checked >= 2 * len(PLANT_KINDS)


@pytest.mark.parametrize("mode", [EX, FL])
def test_verify_tests_ranks_only_when_the_residuals_pass(mode):
    pen, w = _planted_decomposition(random.Random(5), unimodular, n=5, nilpotent=[2])
    if mode is FL:
        pen, w = _to_float(pen, w)
    with mock.patch.object(linalg, "is_nonsingular", wraps=linalg.is_nonsingular) as spy:
        bad = verify(pen, _with_p(w, w.P.scale(2)))
        assert spy.call_count == 0
        assert (bad.P_nonsingular, bad.Q_nonsingular) == (None, None)
        assert bad.max_residual > 0
        good = verify(pen, w)
        assert spy.call_count == 2
        assert (good.P_nonsingular, good.Q_nonsingular) == (True, True)
    singular = verify(pen, _with_p(w, Matrix.zeros(5, 5, mode)))
    assert (singular.P_nonsingular, singular.Q_nonsingular) == (None, None)


def test_reconstruction_recovers_planted_structure():
    rng = random.Random(22)
    for _ in range(40):
        pen, jb, nb = planted_pencil(rng, rng.randint(1, 6))
        w = decompose(pen)
        rep = verify(pen, w)
        assert rep.residual_F == 0 and rep.residual_G == 0
        assert jordan_multiset(w.jordan_blocks) == jordan_multiset(jb)
        assert nilpotent_multiset(w.nilpotent_blocks) == nilpotent_multiset(nb)


def test_nilpotency_index_and_ones_count():
    rng = random.Random(23)
    for _ in range(25):
        pen, _, _ = planted_pencil(rng, rng.randint(1, 6), min_q=1)
        w = decompose(pen)
        h = w.H_q
        assert matrix_power(h, w.q_star).is_zero()
        if w.q_star > 0:
            assert not matrix_power(h, w.q_star - 1).is_zero()
        assert w.q_star == max(b.size for b in w.nilpotent_blocks)
        ones = sum(x != 0 for row in h.to_lists() for x in row)
        assert ones == w.q - len(w.nilpotent_blocks)


def test_qp_spans_the_finite_deflating_subspace():
    rng = random.Random(24)
    for _ in range(20):
        pen, _, _ = planted_pencil(rng, rng.randint(2, 6))
        w = decompose(pen)
        assert linalg.rank(w.Q_p) == w.p
        assert linalg.is_nonsingular(w.Q)
        # F Q_p and G Q_p stay inside one p-dimensional subspace
        if w.p:
            assert linalg.rank(hstack([pen.F @ w.Q_p, pen.G @ w.Q_p])) == w.p


def test_block_structure_is_equivalence_invariant():
    rng = random.Random(25)
    for _ in range(15):
        pen, _, _ = planted_pencil(rng, rng.randint(1, 5))
        w = decompose(pen)
        m_l, m_r = unimodular(rng, pen.n), unimodular(rng, pen.n)
        pen2 = Pencil(m_l @ pen.F @ m_r, m_l @ pen.G @ m_r)
        w2 = decompose(pen2)
        assert jordan_multiset(w.jordan_blocks) == jordan_multiset(w2.jordan_blocks)
        assert nilpotent_multiset(w.nilpotent_blocks) == nilpotent_multiset(w2.nilpotent_blocks)


def test_block_ordering_is_canonical():
    # two eigenvalues, one with two blocks of different sizes
    blocks = [
        JordanBlockSpec(Fraction(2), 1),
        JordanBlockSpec(Fraction(1, 2), 2),
        JordanBlockSpec(Fraction(1, 2), 1),
    ]
    f_w = Matrix.identity(4, EX)
    g_w = assemble_Jp(blocks, EX)
    w = decompose(Pencil(f_w, g_w))
    # sorted by (numerator, denominator), then descending size
    assert [(b.eigenvalue, b.size) for b in w.jordan_blocks] == [
        (Fraction(1, 2), 2),
        (Fraction(1, 2), 1),
        (Fraction(2), 1),
    ]


def test_decompose_purely_infinite_pencil():
    # det(s*0 - 1) = -1: degree 0, so p = 0 and everything is infinite
    pen = Pencil(Matrix([[0]], EX), Matrix([[1]], EX))
    w = decompose(pen)
    assert (w.p, w.q, w.q_star) == (0, 1, 1)
    assert w.jordan_blocks == ()
    assert w.Q_p.shape == (1, 0)
    rep = verify(pen, w)
    assert rep.residual_F == 0 and rep.residual_G == 0


def test_irregular_pencil_rejected():
    with pytest.raises(IrregularPencil):
        decompose(Pencil(Matrix.zeros(2, 2, EX), Matrix.zeros(2, 2, EX)))


def test_unresolvable_spectrum_propagates_in_exact_mode():
    pen = Pencil(Matrix.identity(2, EX), Matrix([[0, -1], [1, 0]], EX))
    with pytest.raises(UnresolvableSpectrum):
        decompose(pen)


def test_complex_spectrum_in_float_mode():
    pen = Pencil(Matrix.identity(2, Mode.FLOAT), Matrix([[0, -1], [1, 0]], Mode.FLOAT))
    w = decompose(pen)
    assert w.p == 2 and w.q == 0
    eigs = sorted((b.eigenvalue for b in w.jordan_blocks), key=lambda z: z.imag)
    assert abs(eigs[0] + 1j) < 1e-9 and abs(eigs[1] - 1j) < 1e-9
    rep = verify(pen, w)
    assert float(rep.residual_F) <= 1e-9 and float(rep.residual_G) <= 1e-9


def test_float_mode_fixture_residuals_within_tolerance():
    for f_rows, g_rows in [
        ([[1, 0], [0, 0]], [[2, 0], [0, 1]]),
        ([[1, 0, 0], [0, 0, 1], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ]:
        pen_e = Pencil(Matrix(f_rows, EX), Matrix(g_rows, EX))
        pen_f = Pencil(Matrix(f_rows, Mode.FLOAT), Matrix(g_rows, Mode.FLOAT))
        w_e, w_f = decompose(pen_e), decompose(pen_f)
        assert w_e.p == w_f.p and w_e.q == w_f.q and w_e.q_star == w_f.q_star
        rep = verify(pen_f, w_f)
        scale = float(max(abs(pen_f.F.max_abs()), abs(pen_f.G.max_abs())))
        assert float(rep.max_residual) <= 1e-9 * scale


@st.composite
def pick_inputs(draw):
    """(candidates, context): an n-row candidate block and 0..2 context
    blocks; the leading candidates are sometimes combinations of the
    context columns, so the pick has to skip them."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)

    def block(cols):
        return [[draw(entries) for _ in range(cols)] for _ in range(n)]

    context = [block(draw(st.integers(0, 3))) for _ in range(draw(st.integers(0, 2)))]
    ctx_cols = [[row[j] for row in blk] for blk in context for j in range(len(blk[0]))]
    candidates = []
    for _ in range(draw(st.integers(1, 4))):
        if ctx_cols and draw(st.booleans()):
            weights = [draw(entries) for _ in ctx_cols]
            candidates.append([sum(w * col[i] for w, col in zip(weights, ctx_cols))
                               for i in range(n)])
        else:
            candidates.append([draw(entries) for _ in range(n)])
    cand = Matrix([[c[i] for c in candidates] for i in range(n)], EX)
    return cand, [Matrix(blk, EX) if blk[0] else Matrix.zeros(n, 0, EX) for blk in context]


def _pick(fn, candidates, context):
    try:
        return fn(candidates, context, None)
    except ChainConstructionFailure:
        return None


@given(pick_inputs())
def test_pick_independent_matches_the_rank_per_candidate_reference(inputs):
    candidates, context = inputs
    got = _pick(_pick_independent, candidates, context)
    assert got == _pick(reference_pick_independent, candidates, context)
    fc = candidates.to_float()
    f_ctx = [m.to_float() for m in context]
    assert _pick(_pick_independent, fc, f_ctx) == _pick(reference_pick_independent, fc, f_ctx)


def test_pick_independent_skips_a_dependent_first_candidate():
    context = [Matrix([[1], [0], [0]], EX)]
    candidates = Matrix([[2, 1, 5], [0, 1, 0], [0, 0, 0]], EX)
    assert _pick_independent(candidates, context, None) == 1
    assert _pick_independent(candidates, [], None) == 0
    with pytest.raises(ChainConstructionFailure):
        _pick_independent(candidates.take_cols([0, 2]), context, None)


def test_assemble_hq_is_assemble_jp_at_eigenvalue_zero():
    blocks = [NilpotentBlockSpec(3), NilpotentBlockSpec(1), NilpotentBlockSpec(2)]
    for mode in (EX, Mode.FLOAT):
        h = assemble_Hq(blocks, mode)
        expected = [[1 if j == i + 1 and i not in (2, 3) else 0 for j in range(6)]
                    for i in range(6)]
        assert h == Matrix(expected, mode)
        assert all(type(x) is type(h[0, 0]) for row in h.to_lists() for x in row)
    assert assemble_Hq([], EX).shape == (0, 0)


def pencil_from_blocks(rng, jordan, nilpotent, rational=False):
    """The pencil with Jordan blocks ``jordan`` ((eigenvalue, size) pairs)
    and nilpotent blocks of the sizes ``nilpotent``, hidden by unimodular
    or by rational conjugation."""
    jb = [JordanBlockSpec(a, k) for a, k in jordan]
    nb = [NilpotentBlockSpec(k) for k in nilpotent]
    p, q = sum(b.size for b in jb), sum(b.size for b in nb)
    f_w = block_diag([Matrix.identity(p, EX), assemble_Hq(nb, EX)], EX)
    g_w = block_diag([assemble_Jp(jb, EX), Matrix.identity(q, EX)], EX)
    conj = rational_nonsingular if rational else unimodular
    left, right = conj(rng, p + q), conj(rng, p + q)
    return Pencil(left @ f_w @ right, left @ g_w @ right)


def filtration_pairs(pencil, jordan, nilpotent):
    """(A, E, target) of every filtration of the pencil: (G - aF, F) for
    each eigenvalue a with its multiplicity, and (F, G) with q."""
    F, G = pencil.F, pencil.G
    mult = {}
    for a, k in jordan:
        mult[a] = mult.get(a, 0) + k
    pairs = [(G - F.scale(a), F, m) for a, m in sorted(mult.items())]
    return pairs + ([(F, G, sum(nilpotent))] if nilpotent else [])


def _bases_or_none(filtration, A, E, target):
    try:
        return filtration(A, E, target, None)
    except ChainConstructionFailure:
        return None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32),
       st.lists(st.tuples(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2),
                                           Fraction(-7, 3)]), st.integers(1, 3)),
                max_size=3),
       st.lists(st.integers(1, 4), max_size=3),
       st.booleans())
@example(5, [(Fraction(1, 2), 3), (Fraction(1, 2), 1)], [4, 3, 1], True)   # q* = 4
@example(6, [(Fraction(-7, 3), 2), (Fraction(-7, 3), 2)], [3, 3], False)   # q* = 3
def test_filtration_matches_the_stacked_reference(seed, jordan, nilpotent, rational):
    if not jordan and not nilpotent:
        return
    pencil = pencil_from_blocks(random.Random(seed), jordan, nilpotent, rational)
    for A, E, target in filtration_pairs(pencil, jordan, nilpotent):
        assert linalg.filtration(A, E, target, None) == reference_filtration(A, E, target, None)
        fa, fe = A.to_float(), E.to_float()
        assert _bases_or_none(linalg.filtration, fa, fe, target) == _bases_or_none(
            reference_filtration, fa, fe, target)


def _scales_rows_of(rows, a_rows) -> bool:
    """Whether each of ``rows`` starts with a positive multiple of the same
    row of ``a_rows``."""
    if len(rows) != len(a_rows) or (rows and len(rows[0]) < len(a_rows[0])):
        return False
    for row, a in zip(rows, a_rows):
        head = row[: len(a)]
        j = next((j for j, x in enumerate(a) if x), None)
        if j is None:
            if any(head):
                return False
        elif not (head[j] * a[j] > 0 and [Fraction(head[j], a[j]) * x for x in a] == head):
            return False
    return True


def test_filtration_eliminates_the_columns_of_A_once():
    """Every preimage step resumes A's elimination: of all eliminations in
    one filtration, one runs over rows that start with A's rows."""
    jordan, nilpotent = [(Fraction(1, 2), 1)], [4, 2]
    pencil = pencil_from_blocks(random.Random(3), jordan, nilpotent, rational=True)
    A, E, target = filtration_pairs(pencil, jordan, nilpotent)[-1]
    calls = []
    elim = linalg._bareiss

    def recorded(rows, *args, **kwargs):
        calls.append([list(r) for r in rows])
        return elim(rows, *args, **kwargs)

    with mock.patch.object(linalg, "_bareiss", recorded):
        bases = linalg.filtration(A, E, target, None)
    assert [b.cols for b in bases] == [2, 4, 5, 6]  # three preimage steps
    assert sum(_scales_rows_of(rows, A.integer_rows()) for rows in calls) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32),
       st.lists(st.tuples(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2),
                                           Fraction(-7, 3)]), st.integers(1, 3)),
                max_size=3),
       st.lists(st.integers(1, 4), max_size=3))
@example(5, [(Fraction(1, 2), 3), (Fraction(1, 2), 1)], [4, 3, 1])   # q* = 4
@example(6, [(Fraction(-7, 3), 2), (Fraction(-7, 3), 2)], [3, 3])
def test_the_kept_y_maps_solve_each_step_and_give_the_solved_chains(seed, jordan, nilpotent):
    """Every y-map of an exact walk, eigenvalue filtration or Wong walk,
    satisfies A N_k = E N_{k-1} Y_k exactly, and the decomposition built
    on the maps is the one whose chain steps each solve
    E N_{k-1} y = A v_k."""
    if not jordan and not nilpotent:
        return
    pencil = pencil_from_blocks(random.Random(seed), jordan, nilpotent, rational=True)
    walks = []
    for A, E, target in filtration_pairs(pencil, jordan, nilpotent):
        maps = []
        walks.append((A, E, linalg.filtration(A, E, target, None, maps), maps))
    if nilpotent:
        walks.append((pencil.F, pencil.G, pencil.wong_sequence, pencil.wong_maps))
        assert walks[-1][2] == tuple(walks[-2][2]) and walks[-1][3] == tuple(walks[-2][3])
    for A, E, bases, maps in walks:
        assert len(maps) == len(bases) - 1
        for k, y in enumerate(maps, 1):
            assert y is not None and y.shape == (bases[k - 1].cols, bases[k].cols)
            assert A @ bases[k] == E @ bases[k - 1] @ y
    cp = char_poly(pencil)
    got = _decompose(pencil, cp, tol=None, cluster_radius=None)[0]
    with mock.patch.object(weierstrass, "_chains",
                           lambda A, E, bases, maps, tol: reference_chains(A, E, bases, tol)):
        want = _decompose(pencil, cp, tol=None, cluster_radius=None)[0]
    assert got == want


def _chain_work(pencil):
    """(chain steps, ``solve_unique`` calls, products with E on the left)
    made inside ``_chains`` by one ``_decompose`` of the pencil."""
    inside, counts = [], [0, 0, 0]
    chains, matmul, solve = weierstrass._chains, Matrix.__matmul__, linalg.solve_unique

    def spy_chains(A, E, *rest):
        inside.append(E)
        try:
            out = chains(A, E, *rest)
        finally:
            inside.pop()
        counts[0] += sum(len(chain) - 1 for chain in out)
        return out

    def spy_matmul(x, y):
        counts[2] += bool(inside) and x is inside[-1]
        return matmul(x, y)

    def spy_solve(*args, **kwargs):
        counts[1] += bool(inside)
        return solve(*args, **kwargs)

    with mock.patch.object(weierstrass, "_chains", spy_chains), \
            mock.patch.object(Matrix, "__matmul__", spy_matmul), \
            mock.patch.object(linalg, "solve_unique", spy_solve):
        _decompose(pencil, char_poly(pencil), tol=None, cluster_radius=None)
    return tuple(counts)


def test_exact_chains_solve_nothing_and_multiply_nothing_by_E():
    """Exact chains read each step off the walk's y-maps: no
    ``solve_unique`` and no product E N_{k-1}; float chains solve each
    step, one product E N_{k-1} per step."""
    jordan, nilpotent = [(Fraction(2), 2), (Fraction(-1), 2)], [3, 1]
    steps = sum(k - 1 for _, k in jordan) + sum(k - 1 for k in nilpotent)
    assert _chain_work(pencil_from_blocks(random.Random(4), jordan, nilpotent)) == (steps, 0, 0)
    # float mode splits the defective eigenvalues of a conjugated plant
    jb, nb = [JordanBlockSpec(a, k) for a, k in jordan], [NilpotentBlockSpec(k) for k in nilpotent]
    f_w = block_diag([Matrix.identity(4, EX), assemble_Hq(nb, EX)], EX)
    g_w = block_diag([assemble_Jp(jb, EX), Matrix.identity(4, EX)], EX)
    assert _chain_work(Pencil(f_w.to_float(), g_w.to_float())) == (steps, steps, steps)
