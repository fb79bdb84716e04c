import dataclasses
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest

from dkit import (
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
    analyze,
    char_poly,
    check_consistency,
    closed_form_zp,
    compute_Dk,
    decompose,
    residual_oracle,
    solve,
    transform_input,
    verify,
    vstack,
)
from dkit import linalg, solver
from dkit.causality import build_report
from dkit.scalars import Mode

from helpers import (
    consistent_y0,
    random_descriptor,
    random_signal,
    reference_matmul,
    stacked_step_solvable,
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


def test_consistency_with_rank_deficient_Q_p_is_typed():
    # Float decomposition can return a Q_p that lost rank numerically; then
    # the least-squares residual of an inconsistent y0 is undefined.
    a, sig = diag_fixture()
    broken = dataclasses.replace(a, w=dataclasses.replace(a.w, Q=Matrix([[0, 0], [0, 1]], EX)))
    with pytest.raises(ChainConstructionFailure, match="rank deficient"):
        check_consistency(broken, sig, Matrix.column([5, -1], EX))


def test_transformed_input_stacks_to_pb():
    a, _ = diag_fixture()
    sysm, w, tin = a.system, a.w, a.tin
    assert vstack([tin.B_p, tin.B_q]) == w.P @ sysm.B
    assert tin.B_p.shape == (w.p, sysm.l)
    assert tin.B_q.shape == (w.q, sysm.l)


def test_compute_dk_no_infinite_part():
    f = Matrix.identity(2, EX)
    g = Matrix([[1, 1], [0, 1]], EX)
    b = Matrix([[1], [0]], EX)
    w = decompose(Pencil(f, g))
    tin = transform_input(w, b)
    sig = InputSignal.from_rows(0, [[1], [2], [3]], EX)
    d = compute_Dk(w, tin, sig, 2)
    assert d.bottom.shape == (0, 1)
    assert d.stacked == d.top


def test_compute_dk_zero_input():
    a, _ = diag_fixture()
    sig = InputSignal.from_rows(0, [[0]] * 4, EX)
    for k in range(3):
        assert compute_Dk(a.w, a.tin, sig, k).stacked.is_zero()


def test_compute_dk_diag_fixture_values():
    a, sig = diag_fixture()
    d2 = compute_Dk(a.w, a.tin, sig, 2)
    assert d2.top.to_lists() == [[3]]       # 2*1 + 1*1
    assert d2.bottom.to_lists() == [[-1]]   # -(H^0 B_q V_2)


def test_compute_dk_needs_future_samples():
    a, _ = diag_fixture()
    sig = InputSignal.from_rows(0, [[1], [1]], EX)
    with pytest.raises(InputHorizonTooShort):
        compute_Dk(a.w, a.tin, sig, 2)  # bottom block reads V_2
    with pytest.raises(ValueError):
        compute_Dk(a.w, a.tin, sig, -1)


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
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(1, 5)
        a = random_descriptor(rng, n, 1, 1)
        w, tin = a.w, a.tin
        k0 = rng.randint(-1, 1)
        K = k0 + rng.randint(2, 7)
        sig = random_signal(rng, 1, k0, K - k0 + w.q_star)
        y0 = consistent_y0(rng, a, sig)
        traj = solve(a, sig, y0, K)
        for idx in range(len(traj)):
            k = k0 + idx
            assert traj.z_p[idx] == closed_form_zp(w, tin, sig, traj.z_p[0], k)
            # full closed form: Y_k = Q_p J^{k-k0} Z^p_{k0} + Q D_k
            d = compute_Dk(w, tin, sig, k)
            lhs = w.Q_p @ (linalg.matrix_power(w.J_p, k - k0) @ traj.z_p[0]) + w.Q @ d.stacked
            assert traj.states[idx] == lhs


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


def test_consistency_iff_stacked_step_solvable():
    rng = random.Random(34)
    checked_reject = 0
    for _ in range(20):
        n = rng.randint(2, 5)
        a = random_descriptor(rng, n, 1, 1, min_q=1)
        w = a.w
        sig = random_signal(rng, 1, 0, w.q_star + 3)
        good = consistent_y0(rng, a, sig)
        assert check_consistency(a, sig, good).consistent
        assert stacked_step_solvable(a, sig, good)
        if w.q:
            u = Matrix.column([rng.choice([1, 2, -1]) for _ in range(w.q)], EX)
            bad = good + w.Q_q @ u
            assert not check_consistency(a, sig, bad).consistent
            assert not stacked_step_solvable(a, sig, bad)
            checked_reject += 1
    assert checked_reject >= 15


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


def _reference_step_residual(sysm, sig, states):
    """max_k |F Y_{k+1} - G Y_k - B V_k| from separate Fraction products."""
    worst = Fraction(0)
    for idx in range(len(states) - 1):
        v = sig.sample(sig.k0 + idx)
        f_y, g_y, b_v = (reference_matmul(sysm.F, states[idx + 1]),
                         reference_matmul(sysm.G, states[idx]),
                         reference_matmul(sysm.B, v))
        worst = max([worst] + [abs(f_y[i, 0] - g_y[i, 0] - b_v[i, 0])
                               for i in range(sysm.n)])
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
        corrupted = dataclasses.replace(traj, states=tuple(states))
        got = residual_oracle(sysm, sig, corrupted).step_residual
        assert type(got) is Fraction
        assert got == _reference_step_residual(sysm, sig, states)


def test_solve_makes_one_product_per_step_and_the_oracle_one(monkeypatch):
    """Pins the fused loop: per step one step-map product in solve, one
    [F | -G | -B] product in the oracle.  The first solve also builds the
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
            setups.append(calls[0] - K)
            calls[0] = 0
            residual_oracle(a.system, sig, traj, y0)
            assert calls[0] == K
        assert setups[0] - 2 == setups[1] == setups[2]


def test_step_map_is_built_on_the_first_solve_and_kept():
    rng = random.Random(38)
    sysm = random_descriptor(rng, 5, 2, 2, min_q=2).system
    with mock.patch.object(solver, "_step_maps", wraps=solver._step_maps) as build:
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
