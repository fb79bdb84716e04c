import random
from collections import Counter

import pytest

from dkit import (
    DescriptorSystem,
    DkitError,
    Matrix,
    analyze,
    brute_force_causality_oracle,
    build_report,
)
from dkit import causality as causality_mod
from dkit.causality import OracleCounterexample
from dkit.scalars import Mode

from helpers import (
    count_calls,
    random_descriptor,
    rational_nonsingular,
    reference_causality_oracle,
)

EX = Mode.EXACT


def nilpotent3(c_rows):
    f = Matrix([[1, 0, 0], [0, 0, 1], [0, 0, 0]], EX)
    g = Matrix.identity(3, EX)
    b = Matrix([[0], [0], [1]], EX)
    return analyze(DescriptorSystem(f, g, b, Matrix(c_rows, EX)))


def report(a, tol=None):
    return build_report(a.system, a.w, a.tin, tol)


def nullspace_verdict(sysm, rep):
    """The output criterion as one membership test: C annihilates every
    column of the report's stacked null-space form."""
    return (sysm.C @ rep.nullspace_form).is_zero(rep.tolerance)


def test_state_causality_trivial_when_q_zero():
    rng = random.Random(41)
    a = random_descriptor(rng, 3, 1, 1, q=0)
    rep = report(a)
    assert rep.state_input_causal
    assert rep.criterion_state.shape == (0, 1)


def test_state_causality_diag_fixture():
    f = Matrix([[1, 0], [0, 0]], EX)
    g = Matrix([[2, 0], [0, 1]], EX)
    b = Matrix([[5], [-7]], EX)
    rep = report(analyze(DescriptorSystem(f, g, b, Matrix.identity(2, EX))))
    assert rep.state_input_causal  # 1x1 nilpotent block is the zero matrix
    assert rep.criterion_state.is_zero()


def test_state_causality_3x3_fixture():
    rep = report(nilpotent3([[1, 0, 0]]))
    assert not rep.state_input_causal
    assert rep.criterion_state.to_lists() == [[1], [0]]


def test_output_causality_zero_c_always_causal():
    a = nilpotent3([[0, 0, 0]])
    rep = report(a)
    assert rep.output_input_causal
    assert nullspace_verdict(a.system, rep)


def test_output_causality_3x3_fixture_c100():
    a = nilpotent3([[1, 0, 0]])
    rep = report(a)
    assert rep.output_input_causal
    assert len(rep.criteria_output) == a.w.q_star - 1 == 1
    assert rep.criteria_output[0].is_zero()
    assert nullspace_verdict(a.system, rep)


def test_output_causality_3x3_fixture_c_identity():
    a = nilpotent3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rep = report(a)
    assert not rep.output_input_causal
    # with P = Q = I the single witness is Q_q H_q B_q = e2 (nonzero 3x1)
    assert rep.criteria_output[0].to_lists() == [[0], [1], [0]]
    assert not nullspace_verdict(a.system, rep)


def test_report_fields_are_consistent():
    a = nilpotent3([[1, 0, 0]])
    sysm, w = a.system, a.w
    rep = report(a)
    assert rep.state_input_causal == rep.criterion_state.is_zero()
    assert rep.output_input_causal == all(m.is_zero() for m in rep.criteria_output)
    assert rep.output_input_causal == nullspace_verdict(sysm, rep)
    assert rep.nullspace_form.shape == (3, (w.q_star - 1) * sysm.l)
    assert not rep.no_infinite_eigenvalues
    assert rep.tolerance is None


def test_nullspace_and_product_checks_agree_everywhere():
    rng = random.Random(42)
    checked = {EX: 0, Mode.FLOAT: 0}
    for i in range(40):
        plant = ("generic", "state_causal", "output_causal_only")[i % 3]
        a = random_descriptor(
            rng, rng.randint(1, 6), rng.randint(1, 2), rng.randint(1, 2),
            min_q=(1 if plant != "generic" else 0), plant=plant)
        for sysm in (a.system, a.system.to_float()):
            try:
                rep = report(a if sysm is a.system else analyze(sysm))
            except DkitError:
                continue
            assert rep.output_input_causal == nullspace_verdict(sysm, rep)
            checked[sysm.mode] += 1
    assert checked[EX] == 40 and checked[Mode.FLOAT] >= 20


def test_state_causal_implies_output_causal():
    rng = random.Random(43)
    hits = 0
    for _ in range(25):
        a = random_descriptor(
            rng, rng.randint(2, 6), rng.randint(1, 2), rng.randint(1, 2),
            min_q=1, plant="state_causal")
        rep = report(a)
        assert rep.state_input_causal  # planted
        assert rep.output_input_causal
        hits += 1
    assert hits == 25


def test_remark_no_infinite_eigenvalues_forces_causality():
    rng = random.Random(44)
    for _ in range(10):
        a = random_descriptor(rng, rng.randint(1, 4), 1, 1, q=0)
        rep = report(a)
        assert rep.state_input_causal
        assert rep.output_input_causal
        assert nullspace_verdict(a.system, rep)
        assert rep.no_infinite_eigenvalues


def test_oracle_on_fixture_family():
    a = nilpotent3([[1, 0, 0]])
    ce, output_ce = brute_force_causality_oracle(a, 25, seed=5)
    assert ce is not None
    assert ce.diverged_at < ce.perturbed_index
    assert ce.base_value != ce.perturbed_value
    assert output_ce is None

    a_b = nilpotent3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert brute_force_causality_oracle(a_b, 25, seed=5)[1] is not None


def test_oracle_trivially_true_for_q_zero():
    rng = random.Random(45)
    a = random_descriptor(rng, 3, 1, 1, q=0)
    assert brute_force_causality_oracle(a, 15, seed=1) == (None, None)


def test_oracle_agrees_with_criteria_on_random_systems():
    rng = random.Random(46)
    for i in range(12):
        plant = ("generic", "state_causal", "output_causal_only")[i % 3]
        a = random_descriptor(
            rng, rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 2),
            min_q=1, plant=plant)
        rep = report(a)
        state_expected, output_expected = rep.state_input_causal, rep.output_input_causal
        got_state = brute_force_causality_oracle(a, 50, seed=100 + i)[0] is None
        got_output = brute_force_causality_oracle(a, 50, seed=200 + i)[1] is None
        assert got_state == state_expected
        assert got_output == output_expected


def _assert_same_counterexample(got, want):
    assert (got is None) == (want is None)
    if got is None:
        return
    for name in OracleCounterexample._fields:
        assert getattr(got, name) == getattr(want, name), name


def _assert_matches_reference(a, trials, seed):
    """The oracle's (state, output) pair is the pair of counterexamples the
    one-mode reference finds at horizon max(q* + 5, 8); returns it."""
    got = brute_force_causality_oracle(a, trials, seed=seed)
    assert len(got) == 2
    for mode, ce in zip(("state", "output"), got):
        want = reference_causality_oracle(a, mode, horizon=max(a.w.q_star + 5, 8),
                                          trials=trials, seed=seed)
        _assert_same_counterexample(ce, want)
    return got


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
    """Each verdict's counterexample, or None, is the one the reference
    loop finds for that mode alone with the same seed, in exact mode and in
    float mode."""
    rng = random.Random(48)
    cases = []
    for i in range(30):
        plant = ("generic", "state_causal", "output_causal_only")[i % 3]
        sysm = random_descriptor(
            rng, rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 2),
            min_q=1, plant=plant).system
        cases.append((sysm, rng.randint(5, 25), 300 + i))
    cases += [(_two_channel(), 20, seed) for seed in range(8)]
    counterexamples = {EX: 0, Mode.FLOAT: 0}
    apart = 0  # cases whose verdicts find their counterexamples in different trials
    for sysm, trials, seed in cases:
        for s in (sysm, sysm.to_float()):
            try:
                a = analyze(s)
            except DkitError:
                continue
            found = [ce for ce in _assert_matches_reference(a, trials, seed) if ce]
            counterexamples[s.mode] += len(found)
            apart += len({ce.trial for ce in found}) > 1
    assert min(counterexamples.values()) >= 10 and apart >= 2


@pytest.mark.parametrize("nilpotent", [[], [1], [1, 1, 1], [2], [2, 1], [3, 2]],
                         ids=["none", "1", "1-1-1", "2", "2-1", "3-2"])
def test_oracle_matches_the_full_horizon_reference_at_every_q_star(nilpotent, monkeypatch):
    """With q* = 0, q* = 1 and q* >= 2, on all three plant kinds, in exact
    and float mode, each verdict's counterexample, or None, is the one the
    reference finds solving both signals over the whole horizon.
    With q* <= 1 no instant reads the perturbed sample before it, so no
    trial runs the stepping core: no perturbed run, and no base run."""
    runs = []
    real_steps = causality_mod._steps

    def recorded_steps(st, rows, z, e, inputs, i, count):
        runs.append(i)
        return real_steps(st, rows, z, e, inputs, i, count)

    monkeypatch.setattr(causality_mod, "_steps", recorded_steps)
    rng = random.Random(49 + len(nilpotent))
    q_star = max(nilpotent, default=0)
    checked = Counter()
    for plant in ("generic", "state_causal", "output_causal_only"):
        for _ in range(2):
            sysm = random_descriptor(rng, sum(nilpotent) + rng.randint(1, 3), 2,
                                     rng.randint(1, 2), plant=plant,
                                     nilpotent=nilpotent).system
            for s in (sysm, sysm.to_float()):
                try:
                    a = analyze(s)
                except DkitError:
                    continue
                assert a.w.q_star == q_star
                trials, seed = 12, rng.randrange(100)
                runs.clear()
                got = _assert_matches_reference(a, trials, seed)
                if q_star <= 1:
                    assert runs == []
                for ce in got:
                    checked[s.mode, ce is None] += 1
    assert checked[EX, True] and checked[Mode.FLOAT, True]
    if q_star >= 2:
        assert checked[EX, False] and checked[Mode.FLOAT, False]


def test_oracle_reads_its_horizon_off_q_star():
    """At q* = 11 the perturbed sample must lie at 11 or later, past the
    old fixed horizon of 10: the horizon max(q* + 5, 8) = 16 leaves room,
    and each verdict's counterexample, or None, is the reference's there.
    Exact mode only: float mode's char poly breaks down from n = 12."""
    rng = random.Random(50)
    verdicts = Counter()
    for plant in ("generic", "state_causal", "output_causal_only"):
        a = random_descriptor(rng, 12, 1, 1, plant=plant, nilpotent=[11])
        assert a.w.q_star == 11
        for ce in _assert_matches_reference(a, 4, rng.randrange(100)):
            verdicts[ce is None] += 1
            if ce is not None:
                assert 11 <= ce.perturbed_index <= 16
    assert verdicts[True] and verdicts[False]


def test_the_oracle_does_no_consistency_work(monkeypatch):
    """Each trial runs from the Z^p_{k0} it draws: no trial builds D_{k0},
    decides consistency or eliminates Q_p, under any dkit binding."""
    rng = random.Random(12)
    a = random_descriptor(rng, 6, 2, 2, q=3, plant="state_causal")
    counts = count_calls(monkeypatch, "solver.check_consistency", "linalg.solve")
    assert brute_force_causality_oracle(a, 5, seed=3) == (None, None)  # so all 5 trials ran
    assert counts == {"solver.check_consistency": 0, "linalg.solve": 0}


def test_verdicts_invariant_under_equivalence_transform():
    rng = random.Random(47)
    for i in range(12):
        plant = ("generic", "state_causal", "output_causal_only")[i % 3]
        a = random_descriptor(
            rng, rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 2),
            min_q=1, plant=plant)
        sysm, rep = a.system, report(a)

        m_l = rational_nonsingular(rng, sysm.n)
        m_r = rational_nonsingular(rng, sysm.n)
        # state change Y = N Y~ sends (F, G, B, C) to (MFN, MGN, MB, CN)
        sys2 = DescriptorSystem(m_l @ sysm.F @ m_r, m_l @ sysm.G @ m_r,
                                m_l @ sysm.B, sysm.C @ m_r)
        rep2 = report(analyze(sys2))
        assert rep2.state_input_causal == rep.state_input_causal
        assert rep2.output_input_causal == rep.output_input_causal
        assert nullspace_verdict(sys2, rep2) == rep.output_input_causal


def test_float_zero_threshold_semantics():
    a_f = analyze(nilpotent3([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).system.to_float())
    rep = report(a_f)
    assert not rep.state_input_causal and not rep.output_input_causal
    assert rep.tolerance == pytest.approx(1e-8)
    # an absurdly large threshold declares every witness zero
    loose = report(a_f, tol=10.0)
    assert loose.state_input_causal and loose.output_input_causal
    assert loose.tolerance == 10.0
    assert nullspace_verdict(a_f.system, loose)
