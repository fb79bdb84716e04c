import importlib
import inspect
import pkgutil
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest

import dkit
from dkit import (
    Analysis,
    ChainConstructionFailure,
    DescriptorSystem,
    DkitError,
    InconsistentInitialCondition,
    InputHorizonTooShort,
    InputSignal,
    IrregularPencil,
    Matrix,
    Pencil,
    Trajectory,
    WeierstrassDecomposition,
    analyze,
    char_poly,
    check_consistency,
    decompose,
    finite_eigenvalues,
    residual_oracle,
    solve,
    solve_from_zp,
    transform_input,
    verify,
    vstack,
)
from dkit import linalg, solver
from dkit.causality import build_report
from dkit.scalars import Mode

from helpers import (
    ReferenceMatrix,
    consistent_y0,
    planted_pencil,
    random_descriptor,
    random_signal,
    reference_closed_form,
    reference_solve_from_zp,
)

EX = Mode.EXACT


def diag_fixture():
    f = Matrix([[1, 0], [0, 0]], EX)
    g = Matrix([[2, 0], [0, 1]], EX)
    b = Matrix([[1], [1]], EX)
    c = Matrix.identity(2, EX)
    sig = InputSignal.from_rows(0, [[1]] * 5, EX)
    return analyze(DescriptorSystem(f, g, b, c)), sig


def test_descriptor_system_validation():
    f = Matrix([[1, 0], [0, 0]], EX)
    with pytest.raises(IrregularPencil):
        DescriptorSystem(f, Matrix.zeros(2, 2, EX),
                         Matrix.zeros(2, 1, EX), Matrix.identity(2, EX))
    with pytest.raises(ValueError):
        DescriptorSystem(f, Matrix([[2, 0], [0, 1]], EX),
                         Matrix.zeros(3, 1, EX), Matrix.identity(2, EX))


@pytest.mark.parametrize("name", "FGBC")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, -float("inf"))])
def test_a_float_system_with_a_non_finite_entry_is_rejected_by_name(name, bad):
    """F = [[1, 0], [0, nan]], G = diag(2, 1) was taken as an irregular
    pencil; each matrix is now checked before the char poly."""
    mats = {"F": [[1, 0], [0, 0]], "G": [[2, 0], [0, 1]], "B": [[1], [1]], "C": [[1, 0]]}
    mats[name][-1][-1] = bad
    with mock.patch.object(solver, "char_poly", wraps=solver.char_poly) as cp:
        with pytest.raises(ValueError, match=f"^{name} has a NaN or infinite entry$"):
            DescriptorSystem(*(Matrix(mats[k], Mode.FLOAT) for k in "FGBC"))
    assert cp.call_count == 0


def test_the_float_tolerance_is_a_field_of_the_system():
    a, _ = diag_fixture()
    loose = DescriptorSystem(a.system.F, a.system.G, a.system.B, a.system.C, tol=1e-4)
    assert a.system.tol is None and loose.to_float().tol == 1e-4
    assert loose != a.system and loose.to_float() != a.system.to_float()
    assert loose.char_poly == a.system.char_poly  # exact mode ignores tol


def test_no_public_signature_takes_a_second_tolerance():
    params = set()
    for info in pkgutil.iter_modules(dkit.__path__):
        mod = importlib.import_module(f"dkit.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = [obj]
            if isinstance(obj, type):
                members += [getattr(obj, m) for m in vars(obj) if not m.startswith("_")]
            for fn in filter(callable, members):
                try:
                    params |= set(inspect.signature(fn).parameters)
                except ValueError:  # an exception class that keeps Exception's
                    continue
    assert "tol" in params and "cluster_radius" in params
    assert not params & {"zero_tol", "rank_tol", "rng"}


def test_the_analysis_derives_its_own_transformed_input():
    """P B is read off the analysed system on first read and kept; no
    caller can hand the analysis a P B of another input matrix."""
    a, _ = diag_fixture()
    assert Analysis._fields == ("system", "w", "verification")
    with pytest.raises(TypeError):
        Analysis(a.system, a.w, a.verification, transform_input(a.w, a.system.B.scale(2)))
    fresh = Analysis(a.system, a.w, a.verification)
    assert fresh == a
    assert fresh.tin == transform_input(fresh.w, fresh.system.B)
    assert fresh.tin is fresh.tin


def test_consistency_with_rank_deficient_Q_p_is_typed():
    # Float decomposition can return a Q_p that lost rank numerically; then
    # the least-squares residual of an inconsistent y0 is undefined.
    a, sig = diag_fixture()
    w = a.w
    broken = Analysis(a.system, WeierstrassDecomposition(
        w.P, Matrix([[0, 0], [0, 1]], EX), w.jordan_blocks, w.nilpotent_blocks),
        a.verification)
    with pytest.raises(ChainConstructionFailure, match="rank deficient"):
        check_consistency(broken, sig, Matrix.column([5, -1], EX))


def test_transformed_input_stacks_to_pb():
    a, _ = diag_fixture()
    sysm, w, tin = a.system, a.w, a.tin
    assert vstack([tin.B_p, tin.B_q]) == w.P @ sysm.B
    assert tin.B_p.shape == (w.p, sysm.l)
    assert tin.B_q.shape == (w.q, sysm.l)


def test_every_y0_is_consistent_without_an_infinite_part():
    """q = 0: colspan Q_p is the whole space and D_{k0} reads no sample."""
    f = Matrix.identity(2, EX)
    g = Matrix([[1, 1], [0, 1]], EX)
    b = Matrix([[1], [0]], EX)
    a = analyze(DescriptorSystem(f, g, b, Matrix.identity(2, EX)))
    assert a.w.q == 0
    for sig in (InputSignal.from_rows(0, [[1], [2], [3]], EX), InputSignal(0, [])):
        for y0 in ([0, 0], [1, -2], [Fraction(7, 3), 5]):
            y0 = Matrix.column(y0, EX)
            res = check_consistency(a, sig, y0)
            assert res.consistent and res.residual.is_zero()
            assert a.w.Q_p @ res.z_p0 == y0
    y0 = Matrix.column([1, -2], EX)
    assert solve(a, InputSignal(0, []), y0, 0).states == (y0,)


def test_zero_input_makes_colspan_qp_the_consistent_set():
    rng = random.Random(20)
    for i in range(8):
        a = diag_fixture()[0] if i == 0 else random_descriptor(
            rng, rng.randint(2, 5), 1, 1, min_q=1)
        w = a.w
        sig = InputSignal.from_rows(0, [[0]] * (w.q_star + 2), EX)
        z = Matrix.column([rng.randint(-3, 3) for _ in range(w.p)], EX)
        res = check_consistency(a, sig, w.Q_p @ z)
        assert res.consistent and res.z_p0 == z
        assert solve(a, sig, w.Q_p @ z, 2).z_q == (Matrix.zeros(w.q, 1, EX),) * 3
        off = w.Q_q @ Matrix.column([1] + [0] * (w.q - 1), EX)
        assert not check_consistency(a, sig, w.Q_p @ z + off).consistent


def test_diag_fixture_forward_sum_and_forced_coordinate():
    a, sig = diag_fixture()
    assert solve(a, sig, Matrix.column([5, -1], EX), 3).z_q[0].to_lists() == [[-1]]
    traj = solve_from_zp(a, sig, Matrix.zeros(1, 1, EX), 2)
    assert traj.z_p[2].to_lists() == [[3]]    # 2*1 + 1*1
    assert traj.z_q[2].to_lists() == [[-1]]   # -(H^0 B_q V_2)


def test_consistency_reads_the_inputs_up_to_k0_plus_q_star_minus_1():
    """Z^q_{k0} reads V_{k0} .. V_{k0+q*-1}, in that order; no later sample."""
    f = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]], EX)
    g = Matrix.identity(3, EX)
    b = Matrix([[0], [0], [1]], EX)
    a = analyze(DescriptorSystem(f, g, b, Matrix.identity(3, EX)))
    assert (a.w.p, a.w.q_star) == (0, 3)
    y0 = Matrix.zeros(3, 1, EX)
    for count, needed in ((0, 0), (2, 2)):
        sig = InputSignal.from_rows(0, [[1]] * count, EX)
        with pytest.raises(InputHorizonTooShort) as exc:
            check_consistency(a, sig, y0)
        assert (exc.value.needed, exc.value.have_last) == (needed, count - 1)
    assert check_consistency(a, InputSignal.from_rows(0, [[0]] * 3, EX), y0).consistent
    # the diag fixture (q* = 1) needs only V_{k0}
    d, _ = diag_fixture()
    with pytest.raises(InputHorizonTooShort):
        check_consistency(d, InputSignal(0, []), Matrix.column([5, -1], EX))
    assert check_consistency(d, InputSignal.from_rows(0, [[1]], EX),
                             Matrix.column([5, -1], EX)).consistent


def test_consistency_diag_fixture():
    a, sig = diag_fixture()
    good = check_consistency(a, sig, Matrix.column([5, -1], EX))
    assert good.consistent
    assert good.z_p0.to_lists() == [[5]]
    assert good.residual.is_zero()

    bad = check_consistency(a, sig, Matrix.column([5, 7], EX))
    assert not bad.consistent
    assert bad.z_p0 is None
    assert bad.residual.to_lists() == [[0], [8]]


def test_every_y0_consistent_when_q_zero():
    rng = random.Random(31)
    for _ in range(10):
        a = random_descriptor(rng, rng.randint(1, 4), 1, 1, q=0)
        sig = random_signal(rng, 1, 0, 6)
        y0 = Matrix.column([rng.randint(-5, 5) for _ in range(a.system.n)], EX)
        assert check_consistency(a, sig, y0).consistent


def test_scalar_system_reduces_to_ordinary_recursion():
    a, b = Fraction(3, 2), Fraction(-2)
    sysm = DescriptorSystem(Matrix([[1]], EX), Matrix([[a]], EX),
                            Matrix([[b]], EX), Matrix([[1]], EX))
    rows = [[1], [2], [-1], [3], [0]]
    sig = InputSignal.from_rows(0, rows, EX)
    y0 = Matrix.column([7], EX)
    traj = solve(analyze(sysm), sig, y0, 5)
    y = Fraction(7)
    for idx in range(5):
        assert traj.states[idx].column_list() == [y]
        y = a * y + b * Fraction(rows[idx][0])
    assert traj.states[5].column_list() == [y]


def test_pure_nilpotent_state_tracks_input():
    # q = 1 block: Z^q_k = -B_q V_k for every k
    a, sig = diag_fixture()
    y0 = Matrix.column([5, -1], EX)
    traj = solve(a, sig, y0, 3)
    for idx in range(4):
        v = sig.sample(idx)
        assert traj.z_q[idx] == -(a.tin.B_q @ v)


def test_worked_trajectory_values():
    a, sig = diag_fixture()
    traj = solve(a, sig, Matrix.column([5, -1], EX), 3)
    assert [s.column_list() for s in traj.states] == [
        [Fraction(5), Fraction(-1)],
        [Fraction(11), Fraction(-1)],
        [Fraction(23), Fraction(-1)],
        [Fraction(47), Fraction(-1)],
    ]
    assert traj.outputs == traj.states  # C = I
    res = residual_oracle(a.system, sig, traj, Matrix.column([5, -1], EX))
    assert res.step_residual == 0 and res.y0_mismatch == 0


def test_solve_rejects_inconsistent_y0():
    a, sig = diag_fixture()
    with pytest.raises(InconsistentInitialCondition) as err:
        solve(a, sig, Matrix.column([5, 7], EX), 3)
    assert err.value.residual is not None


def test_solve_rejects_short_horizon():
    a, _ = diag_fixture()
    sig = InputSignal.from_rows(0, [[1], [1], [1]], EX)  # need 4 for K=3, q*=1
    with pytest.raises(InputHorizonTooShort):
        solve(a, sig, Matrix.column([5, -1], EX), 3)


def test_trajectory_invariants_and_subsystem_equation():
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = random_descriptor(rng, n, rng.randint(1, 2), rng.randint(1, 2))
        sysm, w, tin = a.system, a.w, a.tin
        k0 = rng.randint(-2, 2)
        K = k0 + rng.randint(2, 8)
        sig = random_signal(rng, sysm.l, k0, K - k0 + w.q_star)
        y0 = consistent_y0(rng, a, sig)
        traj = solve(a, sig, y0, K)
        assert residual_oracle(sysm, sig, traj, y0).step_residual == 0
        for idx in range(len(traj)):
            # Y = Q [Z^p; Z^q] and X = C Y at every stored instant
            assert traj.states[idx] == w.Q @ vstack([traj.z_p[idx], traj.z_q[idx]])
            assert traj.outputs[idx] == sysm.C @ traj.states[idx]
        for idx in range(len(traj) - 1):
            # backward subsystem: H Z^q_{k+1} = Z^q_k + B_q V_k
            k = traj.k0 + idx
            assert w.H_q @ traj.z_q[idx + 1] == traj.z_q[idx] + tin.B_q @ sig.sample(k)


def test_closed_form_matches_recursion():
    """The step map of solve_from_zp reproduces the paper's closed form
    Y_k = Q_p J_p^{k-k0} Z^p_{k0} + Q D_k bit for bit: Y_k, X_k = C Y_k,
    Z^p_k and Z^q_k, on all three plant kinds, with q* = 0, q* >= 3 and
    k0 < 0 among the draws."""
    rng = random.Random(33)
    seen = set()
    for i in range(30):
        plant = ("generic", "state_causal", "output_causal_only")[i % 3]
        q = (0, 3, 4, None, None)[i % 5]
        n = rng.randint(max(q or 0, 1), 6)
        a = random_descriptor(rng, n, rng.randint(1, 2), rng.randint(1, 2), q=q,
                              plant=plant)
        sysm, w = a.system, a.w
        k0 = rng.randint(-3, 1)
        K = k0 + rng.randint(2, 7)
        sig = random_signal(rng, sysm.l, k0, K - k0 + w.q_star)
        y0 = consistent_y0(rng, a, sig)
        traj = solve(a, sig, y0, K)
        for idx in range(len(traj)):
            y, z_p, z_q = reference_closed_form(a, sig, traj.z_p[0], k0 + idx)
            assert traj.states[idx] == y
            assert traj.outputs[idx] == sysm.C @ y
            assert traj.z_p[idx] == z_p
            assert traj.z_q[idx] == z_q
        seen |= {plant, "q*=0" if w.q_star == 0 else "q*>=3" if w.q_star >= 3 else "q*"}
        seen |= {"k0<0"} if k0 < 0 else set()
    assert seen >= {"generic", "state_causal", "output_causal_only", "q*=0", "q*>=3", "k0<0"}


def test_residual_oracle_detects_corruption():
    a, sig = diag_fixture()
    sysm = a.system
    traj = solve(a, sig, Matrix.column([5, -1], EX), 3)
    bumped = list(traj.states)
    bumped[2] = bumped[2] + Matrix.column([1, 0], EX)
    corrupted = Trajectory(k0=traj.k0, states=tuple(bumped),
                           outputs=traj.outputs, z_p=traj.z_p, z_q=traj.z_q)
    assert residual_oracle(sysm, sig, corrupted).step_residual != 0
    with pytest.raises(ValueError):
        residual_oracle(sysm, sig,
                        Trajectory(0, (traj.states[0],), (traj.outputs[0],),
                                   (traj.z_p[0],), (traj.z_q[0],)))


def _grid_uniqueness_check(a, sig, y0, K):
    """Enumerate candidate trajectories around the solver's output and check
    that zero-residual candidates agree with it wherever the window pins the
    state (k <= T - q*, with steps enforced on k0..T-1)."""
    k0, sysm = sig.k0, a.system
    T = K + a.w.q_star
    truth = solve(a, sig, y0, T)
    n = sysm.n
    free_coords = n * (T - k0)
    offsets = [Fraction(0), Fraction(1), Fraction(-1)]
    matches = 0
    for combo in product(offsets, repeat=free_coords):
        states = [y0]
        pos = 0
        for idx in range(1, T - k0 + 1):
            base = truth.states[idx]
            delta = Matrix.column(list(combo[pos:pos + n]), EX)
            states.append(base + delta)
            pos += n
        ok = all(
            (sysm.F @ states[i + 1] - sysm.G @ states[i] - sysm.B @ sig.sample(k0 + i)).is_zero()
            for i in range(T - k0)
        )
        if not ok:
            continue
        matches += 1
        for idx in range(K - k0 + 1):  # pinned prefix k <= T - q* = K
            assert states[idx] == truth.states[idx]
    assert matches >= 1  # the true trajectory itself is in the grid


def test_uniqueness_by_brute_force_on_diag_fixture():
    a, sig = diag_fixture()
    _grid_uniqueness_check(a, sig, Matrix.column([5, -1], EX), K=1)


def test_uniqueness_by_brute_force_on_nilpotent_fixture():
    f = Matrix([[1, 0, 0], [0, 0, 1], [0, 0, 0]], EX)
    g = Matrix.identity(3, EX)
    b = Matrix([[0], [0], [1]], EX)
    a = analyze(DescriptorSystem(f, g, b, Matrix.identity(3, EX)))
    sig = InputSignal.from_rows(0, [[1], [2], [-1], [3], [1]], EX)
    y0 = Matrix.column([2, -2, -1], EX)  # (z, -v_1, -v_0) with z = 2
    assert check_consistency(a, sig, y0).consistent
    _grid_uniqueness_check(a, sig, y0, K=1)


def test_single_state_trajectory():
    a, sig = diag_fixture()
    traj = solve(a, sig, Matrix.column([5, -1], EX), 0)
    assert len(traj) == 1 and traj.K == 0


def test_q_zero_reduces_to_explicit_recursion():
    rng = random.Random(35)
    for _ in range(5):
        a = random_descriptor(rng, rng.randint(1, 4), 1, 1, q=0)
        sysm = a.system
        sig = random_signal(rng, 1, 0, 6)
        y0 = Matrix.column([rng.randint(-3, 3) for _ in range(sysm.n)], EX)
        traj = solve(a, sig, y0, 6)
        a_mat = linalg.inverse(sysm.F) @ sysm.G
        b_mat = linalg.inverse(sysm.F) @ sysm.B
        y = y0
        for idx in range(7):
            assert traj.states[idx] == y
            if idx < 6:
                y = a_mat @ y + b_mat @ sig.sample(idx)


def test_float_mode_worked_trajectory():
    f = Matrix([[1, 0], [0, 0]], Mode.FLOAT)
    g = Matrix([[2, 0], [0, 1]], Mode.FLOAT)
    b = Matrix([[1], [1]], Mode.FLOAT)
    sysm = DescriptorSystem(f, g, b, Matrix.identity(2, Mode.FLOAT))
    sig = InputSignal.from_rows(0, [[1]] * 5, Mode.FLOAT)
    traj = solve(analyze(sysm), sig, Matrix.column([5, -1], Mode.FLOAT), 3)
    want = [5.0, 11.0, 23.0, 47.0]
    for idx, target in enumerate(want):
        assert abs(traj.states[idx][0, 0] - target) < 1e-9
        assert abs(traj.states[idx][1, 0] + 1.0) < 1e-9
    assert float(residual_oracle(sysm, sig, traj).step_residual) < 1e-9


def test_analyze_matches_the_separate_library_calls():
    rng = random.Random(17)
    for mode in (Mode.EXACT, Mode.FLOAT):
        for _ in range(10):
            sysm = random_descriptor(rng, rng.randint(1, 5), 2, 2).system
            if mode is Mode.FLOAT:
                sysm = sysm.to_float()
            try:
                w = decompose(sysm.pencil)
            except ChainConstructionFailure:
                continue
            a = analyze(sysm)
            assert a.system is sysm
            assert sysm.char_poly == char_poly(sysm.pencil)
            assert a.w == w
            assert a.verification == verify(sysm.pencil, w)
            assert a.tin == transform_input(w, sysm.B)


def test_each_pencil_walks_the_wong_sequence_of_F_G_once():
    """DescriptorSystem walks the Wong sequence of (F, G) for its char
    poly; analyze then steps preimages only under G - aF, once per finite
    eigenvalue a, and decompose of a new pencil walks (F, G) once."""
    pen, _, _ = planted_pencil(random.Random(5), 8, nilpotent=[3, 1])
    calls = []
    preimages = linalg.preimages

    def recorded(a, tol=None):
        calls.append(a)
        return preimages(a, tol)

    with mock.patch.object(linalg, "preimages", recorded):
        sysm = DescriptorSystem(pen.F, pen.G, Matrix.zeros(8, 1, EX), Matrix.zeros(1, 8, EX))
        assert calls == [pen.F]
        calls.clear()
        analyze(sysm)
        eigenvalues = finite_eigenvalues(sysm.char_poly)
        assert eigenvalues and calls == [pen.G - pen.F.scale(a) for a, _ in eigenvalues]
        calls.clear()
        decompose(Pencil(pen.F, pen.G))
        assert calls.count(pen.F) == 1


def _reference_step_residual(sysm, sig, states):
    """max_k |F Y_{k+1} - G Y_k - B V_k| from separate Fraction products."""
    F, G, B = map(ReferenceMatrix.of, (sysm.F, sysm.G, sysm.B))
    y = [ReferenceMatrix.of(state) for state in states]
    worst = Fraction(0)
    for idx in range(len(y) - 1):
        v = ReferenceMatrix.of(sig.sample(sig.k0 + idx))
        worst = max(worst, (F @ y[idx + 1] - G @ y[idx] - B @ v).max_abs())
    return worst


def test_fused_residual_oracle_matches_separate_products():
    rng = random.Random(36)
    for _ in range(25):
        a = random_descriptor(rng, rng.randint(1, 5), rng.randint(1, 2), rng.randint(1, 2))
        sysm = a.system
        k0 = rng.randint(-2, 2)
        K = k0 + rng.randint(1, 6)
        sig = random_signal(rng, sysm.l, k0, K - k0 + a.w.q_star)
        traj = solve(a, sig, consistent_y0(rng, a, sig), K)
        states = list(traj.states)
        for idx in rng.sample(range(len(states)), rng.randint(1, len(states))):
            bump = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(sysm.n)]
            states[idx] = states[idx] + Matrix.column(bump, EX)
        corrupted = Trajectory(traj.k0, tuple(states), traj.outputs, traj.z_p, traj.z_q)
        got = residual_oracle(sysm, sig, corrupted).step_residual
        assert type(got) is Fraction
        assert got == _reference_step_residual(sysm, sig, states)


def test_solve_makes_no_product_per_step_and_the_oracle_one(monkeypatch):
    """Pins the stepping core: solve makes no ``Matrix`` product per step,
    so its products are the same at every horizon, and the oracle makes
    one [F | -G | -B] product per step.  The first solve also builds the
    step map, with two products (Q_q M and C [Q_p | -Q_q M]); later solves
    reuse it."""
    calls = [0]
    matmul = Matrix.__matmul__

    def counted(a, b):
        calls[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    rng = random.Random(37)
    for _ in range(5):
        a = random_descriptor(rng, rng.randint(2, 5), 2, 2, min_q=1)
        sig = random_signal(rng, 2, 0, 12 + a.w.q_star)
        y0 = consistent_y0(rng, a, sig)
        setups = []
        for K in (1, 4, 12):
            calls[0] = 0
            traj = solve(a, sig, y0, K)
            setups.append(calls[0])
            calls[0] = 0
            residual_oracle(a.system, sig, traj, y0)
            assert calls[0] == K
        assert setups[0] - 2 == setups[1] == setups[2]


@pytest.mark.parametrize("mode", [EX, Mode.FLOAT], ids=["exact", "float"])
def test_solve_from_zp_makes_no_product_and_gives_the_restacking_loops_trajectory(mode, monkeypatch):
    """No ``Matrix.__matmul__`` call once the step map is built, and the
    trajectory the loop that restacks each column with ``vstack`` and
    ``take_rows`` and multiplies it by the step map gives, bit for bit in
    both modes; with q* = 0, q* = 1, q* >= 2, p = 0 and k0 < 0 among the
    plants, and fractional samples in exact mode."""
    calls = [0]
    matmul = Matrix.__matmul__

    def counted(a, b):
        calls[0] += 1
        return matmul(a, b)

    def bits(traj):  # repr tells -0.0 from 0.0, which == does not
        return repr([[x._r for x in seq]
                     for seq in (traj.states, traj.outputs, traj.z_p, traj.z_q)])

    rng = random.Random(40)
    covered = set()
    for nilpotent in ([], [1, 1], [3], [2, 2, 1], [3, 1]) * 2:
        n = sum(nilpotent) + (0 if nilpotent == [3, 1] else rng.randint(1, 3))
        sysm = random_descriptor(rng, n, 2, rng.randint(1, 2), nilpotent=nilpotent).system
        try:
            a = analyze(sysm if mode is EX else sysm.to_float())
        except DkitError:  # float analysis fails on some plants; coverage is asserted below
            continue
        covered |= {min(a.w.q_star, 2), "p = 0" if a.w.p == 0 else "p > 0"}
        k0 = rng.randint(-3, 2)
        sig = random_signal(rng, 2, k0, 9 + a.w.q_star, mode)
        z = Matrix.column([rng.randint(-3, 3) for _ in range(a.w.p)], mode)
        a.step_map  # built before the products are counted
        signals = [sig]
        if mode is EX:  # samples with denominators 1 and 3 as well
            signals.append(InputSignal(k0, [v.scale(Fraction(1, 3)) for v in sig.samples]))
        for s, K in product(signals, (k0, k0 + 1, k0 + 9)):
            want = reference_solve_from_zp(a, s, z, K)
            calls[0] = 0
            with monkeypatch.context() as m:
                m.setattr(Matrix, "__matmul__", counted)
                traj = solve_from_zp(a, s, z, K)
            assert calls[0] == 0
            assert traj == want and bits(traj) == bits(want)
    assert covered == {0, 1, 2, "p = 0", "p > 0"}


def test_step_map_is_built_on_the_first_solve_and_kept():
    rng = random.Random(38)
    sysm = random_descriptor(rng, 5, 2, 2, min_q=2).system
    with mock.patch.object(solver, "_step_map", wraps=solver._step_map) as build:
        a = analyze(sysm)
        sig = random_signal(rng, 2, 0, 6 + a.w.q_star)
        build_report(a.system, a.w, a.tin)
        y0 = consistent_y0(rng, a, sig)
        assert build.call_count == 0
        traj = solve(a, sig, y0, 6)
        assert solve(a, sig, y0, 3).states == traj.states[:4]
        assert build.call_count == 1
        # a system that differs only in C gets its own analysis and its own map
        other = analyze(DescriptorSystem(sysm.F, sysm.G, sysm.B, sysm.C.scale(3)))
        got = solve(other, sig, y0, 6)
        assert build.call_count == 2
        assert solve(a, sig, y0, 6) == traj
        assert build.call_count == 2
    assert got.states == traj.states
    assert got.outputs == tuple(x.scale(3) for x in traj.outputs)


def test_float_solve_on_the_step_map_tracks_exact_solve():
    """The step map re-associates the float sums for Y and X; the float
    trajectory still matches the exact one to 1e-9 of its scale."""
    rng = random.Random(39)
    checked = 0
    for _ in range(10):
        a = random_descriptor(rng, rng.randint(2, 6), 2, 2)
        K = 8
        sig = random_signal(rng, 2, 0, K + a.w.q_star)
        y0 = consistent_y0(rng, a, sig)
        exact = solve(a, sig, y0, K)
        try:
            sys_f = a.system.to_float()
            a_f = analyze(sys_f)
        except DkitError:
            continue
        sig_f = InputSignal(sig.k0, [v.to_float() for v in sig.samples])
        got = solve(a_f, sig_f, y0.to_float(), K)
        scale = max([1.0] + [float(abs(v.max_abs())) for v in exact.states + exact.outputs])
        for ex, fl in zip(exact.states + exact.outputs, got.states + got.outputs):
            assert float((ex.to_float() - fl).max_abs()) <= 1e-9 * scale
        assert float(residual_oracle(sys_f, sig_f, got, y0.to_float()).step_residual) <= 1e-9 * scale
        checked += 1
    assert checked >= 5


def test_float_consistency_keeps_the_exact_consistent_states_of_pure_nilpotent_plants():
    """With p = 0 the consistency test is rhs = Y0 - Q_q Z^q_{k0} = 0, a
    difference that cancels: its pivot threshold scales with Y0 and
    Q_q Z^q_{k0} as well, so a rounding residual of the difference is no
    pivot and every exactly consistent Y0 stays consistent in float mode."""
    checked = 0
    for n in range(2, 6):
        for seed in range(20):
            rng = random.Random(seed)
            a = random_descriptor(rng, n, 1, 1, q=n)
            sig = random_signal(rng, 1, 0, a.w.q_star)
            y0 = consistent_y0(rng, a, sig)
            assert a.w.p == 0 and check_consistency(a, sig, y0).consistent
            a_f = analyze(a.system.to_float())
            sig_f = InputSignal(sig.k0, [v.to_float() for v in sig.samples])
            assert check_consistency(a_f, sig_f, y0.to_float()).consistent, (n, seed)
            checked += 1
    assert checked == 80


def test_the_zp_entry_is_solve_from_the_state_it_pins_down():
    """solve_from_zp(a, s, z, K) equals solve(a, s, Q_p z + Q D_{k0}, K):
    bit for bit in exact mode, within 1e-9 of the trajectory's scale in
    float mode, where the consistency solve rounds."""
    def values(traj):
        return traj.states + traj.outputs + traj.z_p + traj.z_q

    rng = random.Random(43)
    floats = 0
    for i in range(18):
        plant = ("generic", "state_causal", "output_causal_only")[i % 3]
        exact = random_descriptor(rng, rng.randint(2, 6), 2, 2, plant=plant)
        K = rng.randint(0, 6)
        sig = random_signal(rng, 2, 0, K + exact.w.q_star + 1)
        z = [rng.randint(-3, 3) for _ in range(exact.w.p)]
        cases = [(exact, sig)]
        try:
            cases.append((analyze(exact.system.to_float()),
                          InputSignal(sig.k0, [v.to_float() for v in sig.samples])))
        except DkitError:
            pass
        for a, s in cases:
            w = a.w
            z_p0 = Matrix.column(z, w.mode)
            y0 = reference_closed_form(a, s, z_p0, s.k0)[0]
            got, want = solve_from_zp(a, s, z_p0, K), solve(a, s, y0, K)
            if a is exact:
                assert got == want
                continue
            floats += 1
            scale = max([1.0] + [float(abs(v.max_abs())) for v in values(want)])
            for g, h in zip(values(got), values(want), strict=True):
                assert float((g - h).max_abs()) <= 1e-9 * scale
    assert floats >= 6
