import dataclasses
import random

import pytest

from dkit import (
    DescriptorSystem,
    DkitError,
    InputSignal,
    Matrix,
    Pencil,
    analyze,
    brute_force_causality_oracle,
    build_report,
    check_output_causality,
    check_output_causality_nullspace,
    check_state_causality,
    decompose,
    transform_input,
)
from dkit.causality import OracleCounterexample
from dkit.scalars import Mode

from helpers import random_descriptor, rational_nonsingular, reference_causality_oracle

EX = Mode.EXACT


def nilpotent3(c_rows):
    f = Matrix([[1, 0, 0], [0, 0, 1], [0, 0, 0]], EX)
    g = Matrix.identity(3, EX)
    b = Matrix([[0], [0], [1]], EX)
    return analyze(DescriptorSystem(f, g, b, Matrix(c_rows, EX)))


def test_state_causality_trivial_when_q_zero():
    rng = random.Random(41)
    a = random_descriptor(rng, 3, 1, 1, q=0)
    ok, witness = check_state_causality(a.w, a.tin)
    assert ok
    assert witness.shape == (0, 1)


def test_state_causality_diag_fixture():
    f = Matrix([[1, 0], [0, 0]], EX)
    g = Matrix([[2, 0], [0, 1]], EX)
    b = Matrix([[5], [-7]], EX)
    w = decompose(Pencil(f, g))
    ok, witness = check_state_causality(w, transform_input(w, b))
    assert ok                      # 1x1 nilpotent block is the zero matrix
    assert witness.is_zero()


def test_state_causality_3x3_fixture():
    a = nilpotent3([[1, 0, 0]])
    ok, witness = check_state_causality(a.w, a.tin)
    assert not ok
    assert witness.to_lists() == [[1], [0]]


def test_output_causality_zero_c_always_causal():
    a = nilpotent3([[0, 0, 0]])
    sysm, w, tin = a.system, a.w, a.tin
    ok, _ = check_output_causality(sysm, w, tin)
    assert ok
    assert check_output_causality_nullspace(sysm, w, tin)


def test_output_causality_3x3_fixture_c100():
    a = nilpotent3([[1, 0, 0]])
    sysm, w, tin = a.system, a.w, a.tin
    ok, witnesses = check_output_causality(sysm, w, tin)
    assert ok
    assert len(witnesses) == w.q_star - 1 == 1
    assert witnesses[0].is_zero()
    assert check_output_causality_nullspace(sysm, w, tin)


def test_output_causality_3x3_fixture_c_identity():
    a = nilpotent3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    sysm, w, tin = a.system, a.w, a.tin
    ok, witnesses = check_output_causality(sysm, w, tin)
    assert not ok
    # with P = Q = I the single witness is Q_q H_q B_q = e2 (nonzero 3x1)
    assert witnesses[0].to_lists() == [[0], [1], [0]]
    assert not check_output_causality_nullspace(sysm, w, tin)


def test_report_fields_are_consistent():
    a = nilpotent3([[1, 0, 0]])
    sysm, w, tin = a.system, a.w, a.tin
    rep = build_report(sysm, w, tin)
    assert rep.state_input_causal == rep.criterion_state.is_zero()
    assert rep.output_input_causal == all(m.is_zero() for m in rep.criteria_output)
    assert rep.output_input_causal == (sysm.C @ rep.nullspace_form).is_zero()
    assert rep.nullspace_form.shape == (3, (w.q_star - 1) * sysm.l)
    assert not rep.no_infinite_eigenvalues
    assert rep.tolerance is None


def test_nullspace_and_product_checks_agree_everywhere():
    rng = random.Random(42)
    for i in range(40):
        plant = ("generic", "state_causal", "output_causal_only")[i % 3]
        a = random_descriptor(
            rng, rng.randint(1, 6), rng.randint(1, 2), rng.randint(1, 2),
            min_q=(1 if plant != "generic" else 0), plant=plant)
        sysm, w, tin = a.system, a.w, a.tin
        ok_products, _ = check_output_causality(sysm, w, tin)
        assert ok_products == check_output_causality_nullspace(sysm, w, tin)


def test_state_causal_implies_output_causal():
    rng = random.Random(43)
    hits = 0
    for _ in range(25):
        a = random_descriptor(
            rng, rng.randint(2, 6), rng.randint(1, 2), rng.randint(1, 2),
            min_q=1, plant="state_causal")
        sysm, w, tin = a.system, a.w, a.tin
        ok_state, _ = check_state_causality(w, tin)
        assert ok_state  # planted
        ok_out, _ = check_output_causality(sysm, w, tin)
        assert ok_out
        hits += 1
    assert hits == 25


def test_remark_no_infinite_eigenvalues_forces_causality():
    rng = random.Random(44)
    for _ in range(10):
        a = random_descriptor(rng, rng.randint(1, 4), 1, 1, q=0)
        sysm, w, tin = a.system, a.w, a.tin
        assert check_state_causality(w, tin)[0]
        assert check_output_causality(sysm, w, tin)[0]
        assert check_output_causality_nullspace(sysm, w, tin)
        rep = build_report(sysm, w, tin)
        assert rep.no_infinite_eigenvalues


def test_oracle_on_fixture_family():
    a = nilpotent3([[1, 0, 0]])
    out = brute_force_causality_oracle(a, ("state",), horizon=8, trials=25, seed=5)[0]
    assert not out.causal
    ce = out.counterexample
    assert ce is not None
    assert ce.diverged_at < ce.perturbed_index
    assert ce.base_value != ce.perturbed_value

    assert brute_force_causality_oracle(a, ("output",), horizon=8, trials=25, seed=5)[0].causal

    a_b = nilpotent3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    out_b = brute_force_causality_oracle(a_b, ("output",), horizon=8, trials=25, seed=5)[0]
    assert not out_b.causal


def test_oracle_trivially_true_for_q_zero():
    rng = random.Random(45)
    a = random_descriptor(rng, 3, 1, 1, q=0)
    for mode in ("state", "output"):
        assert brute_force_causality_oracle(a, (mode,), horizon=6, trials=15, seed=1)[0].causal


def test_oracle_agrees_with_criteria_on_random_systems():
    rng = random.Random(46)
    for i in range(12):
        plant = ("generic", "state_causal", "output_causal_only")[i % 3]
        a = random_descriptor(
            rng, rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 2),
            min_q=1, plant=plant)
        sysm, w, tin = a.system, a.w, a.tin
        horizon = w.q_star + 5
        state_expected = check_state_causality(w, tin)[0]
        output_expected = check_output_causality(sysm, w, tin)[0]
        got_state = brute_force_causality_oracle(
            a, ("state",), horizon=horizon, trials=50, seed=100 + i)[0].causal
        got_output = brute_force_causality_oracle(
            a, ("output",), horizon=horizon, trials=50, seed=200 + i)[0].causal
        assert got_state == state_expected
        assert got_output == output_expected


def _assert_same_outcome(got, want):
    assert got.causal == want.causal
    assert (got.counterexample is None) == (want.counterexample is None)
    if got.counterexample is None:
        return
    for field in dataclasses.fields(OracleCounterexample):
        a = getattr(got.counterexample, field.name)
        b = getattr(want.counterexample, field.name)
        if isinstance(a, InputSignal):
            assert (a.k0, a.samples) == (b.k0, b.samples), field.name
        else:
            assert a == b, field.name


def _two_channel():
    """Two nilpotent blocks of size 2 with one input each: every nonzero
    perturbation moves an earlier state, but only one of input 1 moves an
    earlier output, so the two modes can find their counterexamples in
    different trials."""
    f = Matrix([[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0],
                [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]], EX)
    g = Matrix.identity(5, EX)
    b = Matrix([[1, 1], [0, 0], [1, 0], [0, 0], [0, 1]], EX)
    c = Matrix([[0, 1, 0, 0, 0]], EX)
    return DescriptorSystem(f, g, b, c)


def test_one_pass_oracle_matches_the_one_mode_reference_loop():
    """Each mode's outcome, counterexample included, is the one the
    reference loop finds for that mode alone with the same seed, whatever
    the modes asked and their order, in exact mode and in float mode."""
    rng = random.Random(48)
    cases = []
    for i in range(30):
        plant = ("generic", "state_causal", "output_causal_only")[i % 3]
        sysm = random_descriptor(
            rng, rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 2),
            min_q=1, plant=plant).system
        cases.append((sysm, rng.randint(2, 5), rng.randint(5, 25), 300 + i))
    cases += [(_two_channel(), 4, 20, seed) for seed in range(8)]
    counterexamples = {EX: 0, Mode.FLOAT: 0}
    apart = 0  # cases whose modes find their counterexamples in different trials
    for sysm, extra, trials, seed in cases:
        for s in (sysm, sysm.to_float()):
            try:
                a = analyze(s)
            except DkitError:
                continue
            horizon = a.w.q_star + extra
            want = {mode: reference_causality_oracle(a, mode, horizon=horizon,
                                                     trials=trials, seed=seed)
                    for mode in ("state", "output")}
            found = [o.counterexample for o in want.values() if o.counterexample]
            counterexamples[s.mode] += len(found)
            apart += len({ce.trial for ce in found}) > 1
            for modes in (("state", "output"), ("output", "state"), ("state",), ("output",)):
                got = brute_force_causality_oracle(a, modes, horizon=horizon,
                                                   trials=trials, seed=seed)
                assert len(got) == len(modes)
                for mode, outcome in zip(modes, got):
                    _assert_same_outcome(outcome, want[mode])
    assert min(counterexamples.values()) >= 10 and apart >= 2


def test_verdicts_invariant_under_equivalence_transform():
    rng = random.Random(47)
    for i in range(12):
        plant = ("generic", "state_causal", "output_causal_only")[i % 3]
        a = random_descriptor(
            rng, rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 2),
            min_q=1, plant=plant)
        sysm, w, tin = a.system, a.w, a.tin
        state0 = check_state_causality(w, tin)[0]
        out0 = check_output_causality(sysm, w, tin)[0]

        m_l = rational_nonsingular(rng, sysm.n)
        m_r = rational_nonsingular(rng, sysm.n)
        # state change Y = N Y~ sends (F, G, B, C) to (MFN, MGN, MB, CN)
        sys2 = DescriptorSystem(m_l @ sysm.F @ m_r, m_l @ sysm.G @ m_r,
                                m_l @ sysm.B, sysm.C @ m_r)
        w2 = decompose(Pencil(sys2.F, sys2.G))
        tin2 = transform_input(w2, sys2.B)
        assert check_state_causality(w2, tin2)[0] == state0
        assert check_output_causality(sys2, w2, tin2)[0] == out0
        assert check_output_causality_nullspace(sys2, w2, tin2) == out0


def test_float_zero_threshold_semantics():
    sys_f = nilpotent3([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).system.to_float()
    w_f = decompose(Pencil(sys_f.F, sys_f.G))
    tin_f = transform_input(w_f, sys_f.B)
    ok, _ = check_state_causality(w_f, tin_f)
    assert not ok
    # an absurdly large threshold declares every witness zero
    ok_loose, _ = check_state_causality(w_f, tin_f, tol=10.0)
    assert ok_loose
    rep = build_report(sys_f, w_f, tin_f)
    assert rep.tolerance == pytest.approx(1e-8)


def test_oracle_rejects_bad_mode_and_short_horizon():
    a = nilpotent3([[1, 0, 0]])
    with pytest.raises(ValueError):
        brute_force_causality_oracle(a, ("sideways",))
    with pytest.raises(ValueError):
        brute_force_causality_oracle(a, ("state",), horizon=1)
