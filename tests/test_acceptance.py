"""Acceptance suite.

Each criterion runs at its stated size and tolerance and prints one
PASS/FAIL line (visible with ``pytest -s``).  Exact mode means exact:
every zero below is an exact rational zero, not a small number.
"""

import csv
import io
import random
from pathlib import Path

import pytest

from dkit import (
    Matrix,
    Pencil,
    analyze,
    brute_force_causality_oracle,
    build_report,
    check_consistency,
    decompose,
    residual_oracle,
    solve,
    verify,
)
from dkit.cli import EXIT_OK, main, parse_system_file
from dkit.scalars import Mode
from dkit.solver import DescriptorSystem

from helpers import (
    consistent_y0,
    jordan_multiset,
    nilpotent_multiset,
    planted_pencil,
    random_descriptor,
    random_signal,
    rational_nonsingular,
    reference_closed_form,
)
from test_exact_consistency import stacked_step_verdict

DATA = Path(__file__).parent / "data"
FIXTURES = {
    "diag": str(DATA / "diag_system.json"),
    "nil_c100": str(DATA / "nilpotent3_c100.json"),
    "nil_ceye": str(DATA / "nilpotent3_ceye.json"),
}


def _verdict(name, failures):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"{name}; first failures: {failures[:3]}"


def test_criterion_1_weierstrass_reconstruction():
    rng = random.Random(1001)
    failures = []
    for i in range(200):
        pen, jb, nb = planted_pencil(rng, rng.randint(1, 6))
        w = decompose(pen)
        rep = verify(pen, w)
        if rep.residual_F != 0 or rep.residual_G != 0:
            failures.append((i, "nonzero residual"))
        elif not (rep.P_nonsingular and rep.Q_nonsingular):
            failures.append((i, "singular transform"))
        elif jordan_multiset(w.jordan_blocks) != jordan_multiset(jb):
            failures.append((i, "jordan multiset mismatch"))
        elif nilpotent_multiset(w.nilpotent_blocks) != nilpotent_multiset(nb):
            failures.append((i, "nilpotent multiset mismatch"))
    _verdict("criterion 1: Weierstrass reconstruction, 200 planted pencils, "
             "exact zero residuals", failures)


def test_criterion_2_solution_correctness_and_closed_form():
    rng = random.Random(1002)
    failures = []
    for i in range(200):
        n = rng.randint(1, 5)
        a = random_descriptor(rng, n, rng.randint(1, 2), rng.randint(1, 2))
        sysm, w = a.system, a.w
        k0 = rng.randint(-2, 2)
        K = k0 + rng.randint(3, 20)
        sig = random_signal(rng, sysm.l, k0, K - k0 + w.q_star)
        y0 = consistent_y0(rng, a, sig)
        traj = solve(a, sig, y0, K)
        res = residual_oracle(sysm, sig, traj, y0)
        if res.step_residual != 0 or res.y0_mismatch != 0:
            failures.append((i, "nonzero residual"))
            continue
        for idx in range(len(traj)):
            want = reference_closed_form(a, sig, traj.z_p[0], k0 + idx)
            if (traj.states[idx], traj.z_p[idx], traj.z_q[idx]) != want:
                failures.append((i, f"closed form != recursion at k={k0 + idx}"))
                break
    _verdict("criterion 2: 200 consistent systems solved with exact zero "
             "residuals; closed form == recursion at every k", failures)


def test_criterion_3_consistency_condition():
    rng = random.Random(1003)
    failures = []
    for i in range(100):
        n = rng.randint(2, 6)
        a = random_descriptor(rng, n, rng.randint(1, 2), 1, min_q=1)
        sysm, w = a.system, a.w
        K = rng.randint(2, 6)
        sig = random_signal(rng, sysm.l, 0, K + w.q_star)
        good = consistent_y0(rng, a, sig)
        res = check_consistency(a, sig, good)
        if not res.consistent:
            failures.append((i, "consistent y0 rejected"))
            continue
        traj = solve(a, sig, good, K)
        if residual_oracle(sysm, sig, traj, good).step_residual != 0:
            failures.append((i, "accepted y0 but solution residual nonzero"))
            continue
        # displace off the affine set by a vector outside colspan Q_p
        u = Matrix.column([rng.choice([1, -1, 2]) for _ in range(w.q)], Mode.EXACT)
        bad = good + w.Q_q @ u
        if check_consistency(a, sig, bad).consistent:
            failures.append((i, "displaced y0 accepted"))
        elif stacked_step_verdict(a, sig, bad):
            failures.append((i, "rejected y0 but stacked step equations solvable"))
    _verdict("criterion 3: consistency acceptance/rejection on 100 systems, "
             "rejection certified on the stacked step equations, zero tolerance",
             failures)


@pytest.fixture(scope="module")
def causality_corpus():
    rng = random.Random(1004)
    corpus = []
    plants = ["generic", "state_causal", "output_causal_only"]
    for i in range(100):
        if i % 2 == 0:
            plant = plants[(i // 2) % 3]
            a = random_descriptor(
                rng, rng.randint(2, 6), rng.randint(1, 2), rng.randint(1, 2),
                min_q=1, plant=plant)
        else:
            a = random_descriptor(
                rng, rng.randint(1, 6), rng.randint(1, 2), rng.randint(1, 2))
        corpus.append(a)
    return corpus


def test_criterion_4_causality_criteria_vs_definition(causality_corpus):
    failures = []
    for i, a in enumerate(causality_corpus):
        rep = build_report(a.system, a.w, a.tin)
        state_claim, output_claim = rep.state_input_causal, rep.output_input_causal
        if output_claim != (a.system.C @ rep.nullspace_form).is_zero(rep.tolerance):
            failures.append((i, "product and nullspace forms disagree"))
            continue
        state_seen = brute_force_causality_oracle(a, 50, seed=9000 + i)[0] is None
        output_seen = brute_force_causality_oracle(a, 50, seed=9500 + i)[1] is None
        if state_seen != state_claim:
            failures.append((i, f"state criterion {state_claim} vs oracle {state_seen}"))
        if output_seen != output_claim:
            failures.append((i, f"output criterion {output_claim} vs oracle {output_seen}"))
    _verdict("criterion 4: closed-form causality criteria agree with the "
             "brute-force oracle (100 systems, 50 trials each)", failures)


def test_criterion_5_structural_implications(causality_corpus):
    failures = []
    state_causal_seen = 0
    q_zero_seen = 0
    for i, a in enumerate(causality_corpus):
        w, rep = a.w, build_report(a.system, a.w, a.tin)
        state_ok, output_ok = rep.state_input_causal, rep.output_input_causal
        if state_ok:
            state_causal_seen += 1
            if not output_ok:
                failures.append((i, "state-causal but not output-causal"))
        if w.q == 0:
            q_zero_seen += 1
            if not (state_ok and output_ok
                    and (a.system.C @ rep.nullspace_form).is_zero(rep.tolerance)):
                failures.append((i, "q = 0 system not fully causal"))
    if state_causal_seen == 0:
        failures.append(("corpus", "no state-causal systems sampled"))
    if q_zero_seen == 0:
        failures.append(("corpus", "no q = 0 systems sampled"))
    _verdict(f"criterion 5: structural implications over the same corpus "
             f"({state_causal_seen} state-causal, {q_zero_seen} with q = 0)",
             failures)


def test_criterion_6_equivalence_invariance():
    rng = random.Random(1006)
    failures = []
    plants = ["generic", "state_causal", "output_causal_only"]
    for i in range(50):
        plant = plants[i % 3]
        a = random_descriptor(
            rng, rng.randint(2, 6), rng.randint(1, 2), rng.randint(1, 2),
            min_q=(1 if plant != "generic" else 0), plant=plant)
        sysm, w = a.system, a.w
        rep = build_report(sysm, w, a.tin)
        verdicts = (rep.state_input_causal, rep.output_input_causal)
        m_l = rational_nonsingular(rng, sysm.n)
        m_r = rational_nonsingular(rng, sysm.n)
        # state change Y = N Y~ maps (F, G, B, C) to (MFN, MGN, MB, CN)
        sys2 = DescriptorSystem(m_l @ sysm.F @ m_r, m_l @ sysm.G @ m_r,
                                m_l @ sysm.B, sysm.C @ m_r)
        a2 = analyze(sys2)
        w2, rep2 = a2.w, build_report(sys2, a2.w, a2.tin)
        verdicts2 = (rep2.state_input_causal, rep2.output_input_causal)
        if verdicts != verdicts2:
            failures.append((i, f"verdicts {verdicts} vs {verdicts2}"))
        elif jordan_multiset(w.jordan_blocks) != jordan_multiset(w2.jordan_blocks):
            failures.append((i, "jordan multiset changed"))
        elif nilpotent_multiset(w.nilpotent_blocks) != nilpotent_multiset(w2.nilpotent_blocks):
            failures.append((i, "nilpotent multiset changed"))
    _verdict("criterion 6: causality verdicts and block multisets invariant "
             "under 50 random equivalence transforms", failures)


def test_criterion_7_worked_fixtures_via_cli(capsys):
    failures = []

    if main(["analyze", FIXTURES["diag"]]) != EXIT_OK:
        failures.append("diag analyze exit")
    out = capsys.readouterr().out
    for needle in ("p = 1, q = 1, q_star = 1",
                   "consistent, Z^p_k0 = [[5]]",
                   "state-input causality: CAUSAL",
                   "output-input causality: CAUSAL"):
        if needle not in out:
            failures.append(f"diag analyze missing {needle!r}")

    if main(["solve", FIXTURES["diag"]]) != EXIT_OK:
        failures.append("diag solve exit")
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    ys = [(r[1], r[2]) for r in rows[1:]]
    if ys != [("5", "-1"), ("11", "-1"), ("23", "-1"), ("47", "-1")]:
        failures.append(f"diag trajectory mismatch: {ys}")

    if main(["causality", FIXTURES["nil_c100"], "--oracle-trials", "50"]) != EXIT_OK:
        failures.append("nil_c100 causality exit")
    out = capsys.readouterr().out
    if "state-input causality: NON-CAUSAL" not in out:
        failures.append("nil_c100 state verdict")
    if "output-input causality: CAUSAL" not in out:
        failures.append("nil_c100 output verdict")
    if out.count("agrees") != 2:
        failures.append("nil_c100 oracle agreement")

    if main(["causality", FIXTURES["nil_ceye"], "--oracle-trials", "50"]) != EXIT_OK:
        failures.append("nil_ceye causality exit")
    out = capsys.readouterr().out
    if "output-input causality: NON-CAUSAL" not in out:
        failures.append("nil_ceye output verdict")

    with capsys.disabled():
        _verdict("criterion 7: worked fixtures reproduce stated verdicts and "
                 "the 5, 11, 23, 47 / -1 trajectory bit-exactly via the CLI",
                 failures)


def _verdicts(a, sf):
    """Both criteria, the null-space cross-check and the consistency of Y0."""
    rep = build_report(a.system, a.w, a.tin)
    return (
        rep.state_input_causal,
        rep.output_input_causal,
        (a.system.C @ rep.nullspace_form).is_zero(rep.tolerance),
        check_consistency(a, sf.signal(), sf.Y0).consistent,
    )


def test_criterion_8_float_mode_sanity(capsys):
    failures = []
    for name, path in FIXTURES.items():
        sf_e = parse_system_file(path)
        sf_f = parse_system_file(path, mode_override=Mode.FLOAT)
        a_e, a_f = analyze(sf_e.system()), analyze(sf_f.system())
        w_e, w_f = a_e.w, a_f.w
        if (w_e.p, w_e.q, w_e.q_star) != (w_f.p, w_f.q, w_f.q_star):
            failures.append((name, "structure differs between modes"))
            continue
        rep = verify(Pencil(sf_f.F, sf_f.G), w_f)
        scale = float(max(abs(sf_f.F.max_abs()), abs(sf_f.G.max_abs())))
        if float(rep.max_residual) > 1e-9 * scale:
            failures.append((name, f"float residual {rep.max_residual}"))
            continue
        verdicts_e, verdicts_f = _verdicts(a_e, sf_e), _verdicts(a_f, sf_f)
        if verdicts_e != verdicts_f:
            failures.append((name, f"verdicts {verdicts_e} vs {verdicts_f}"))
    with capsys.disabled():
        _verdict("criterion 8: float-mode fixtures match exact verdicts at "
                 "default tolerances; residuals <= 1e-9 * max entry", failures)
