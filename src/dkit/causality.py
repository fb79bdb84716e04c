"""Causality of descriptor systems: the closed-form criteria, computed in
one pass by :func:`build_report`, and a brute-force trial oracle,
:func:`brute_force_causality_oracle`.

State-input causality fails exactly when the backward subsystem feeds a
future input into the current state, i.e. when H_q B_q != 0.  Output-input
causality only needs those leaks to be invisible through C, i.e.
C Q_q H_q^i B_q = 0 for i = 1 .. q* - 1; equivalently every column of
[Q_q H_q B_q | ... | Q_q H_q^{q*-1} B_q] lies in the right nullspace of C.
The report carries both verdicts, their witnesses, that stacked matrix and
the one zero threshold every test used.

The oracle at the bottom tests the definition itself: perturb one future
input sample and watch whether any earlier state (or output) moves.  It
goes through the solver, not through the criteria, so the two can referee
each other.  Each trial runs the base signal from the Z^p_{k0} it draws:
the perturbed sample V_j lies at or past k0 + q*, so D_{k0}, and with it
the consistent initial state, is the same for both signals.  Instant k
reads V_k .. V_{k+w-1}, w = max(q*, 1), so the perturbed signal is run
only from the first instant that reads V_j, j - w + 1, starting at the
base run's Z^p there; nothing is run at j, which is never compared.  One
pass of trials serves both verdicts: each trial's runs are read as states
and as outputs.  The oracle returns one counterexample or None per
verdict, state first; None means no trial found the system non-causal.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .matrices import Matrix
from .scalars import Mode
from .solver import (
    Analysis,
    DescriptorSystem,
    InputSignal,
    TransformedInput,
    solve_from_zp,
)
from .weierstrass import WeierstrassDecomposition

DEFAULT_CAUSALITY_TOL = 1e-8


def _threshold(mode: Mode, tol: float | None) -> float | None:
    """The zero threshold of every causality test: ``tol`` or its default
    in float mode, None in exact mode, where zero means exactly zero."""
    if mode is Mode.EXACT:
        return None
    return DEFAULT_CAUSALITY_TOL if tol is None else tol


class CausalityReport(NamedTuple):
    state_input_causal: bool
    output_input_causal: bool
    criterion_state: Matrix                 # H_q B_q
    criteria_output: tuple[Matrix, ...]     # C Q_q H_q^i B_q, i = 1..q*-1
    nullspace_form: Matrix
    no_infinite_eigenvalues: bool
    tolerance: float | None                 # zero threshold (None in exact mode)


def build_report(
    sys: DescriptorSystem,
    w: WeierstrassDecomposition,
    tin: TransformedInput,
    tol: float | None = None,
) -> CausalityReport:
    """Both criteria with their witnesses, in one pass over the leaks
    H_q^i B_q, i = 1 .. q* - 1: the width-l column blocks of the backward
    map after the first.  The output criterion is vacuous when q* <= 1.
    Every zero test reads the one threshold kept as ``tolerance``."""
    thr = _threshold(sys.mode, tol)
    l = tin.B_q.cols
    leaks = [tin.backward.take_cols(range(i * l, (i + 1) * l)) for i in range(1, w.q_star)]
    state = leaks[0] if leaks else Matrix.zeros(w.q, l, w.mode)
    c_qq = sys.C @ w.Q_q
    output = tuple(c_qq @ leak for leak in leaks)
    return CausalityReport(
        state_input_causal=state.is_zero(thr),
        output_input_causal=all(m.is_zero(thr) for m in output),
        criterion_state=state,
        criteria_output=output,
        nullspace_form=w.Q_q @ tin.backward.take_cols(range(l, w.q_star * l)),
        no_infinite_eigenvalues=(w.q == 0),
        tolerance=thr,
    )


class OracleCounterexample(NamedTuple):
    trial: int
    perturbed_index: int
    diverged_at: int
    base_signal: InputSignal
    perturbed_signal: InputSignal
    base_value: Matrix
    perturbed_value: Matrix


def brute_force_causality_oracle(
    a: Analysis,
    trials: int = 50,
    *,
    seed: int | None = None,
    tol: float | None = None,
) -> tuple[OracleCounterexample | None, OracleCounterexample | None]:
    """Empirical causality test of the analysed system straight from the
    definition: a (state, output) pair, each entry the first counterexample
    the trials found, or None when no trial found one (causal).

    Each trial draws a random input signal and a random forward coordinate
    Z^p_{k0}, then perturbs exactly one future sample (index j) by a random
    nonzero vector.  The perturbation is placed at j >= k0 + q*, which
    leaves D_{k0} untouched, so the consistent initial state Q_p Z^p_{k0}
    + Q D_{k0} is the same for both signals and the two trajectories are
    comparable.  Any difference in a state (or output) at a time k < j
    witnesses non-causality: in exact mode any inequality, in float mode
    a difference over the zero threshold.  The signals cover the horizon
    max(q* + 5, 8), which always leaves room for j: it ranges over
    k0 + max(q*, 1) .. the horizon (its last instant when q* = 0).

    Each instant is computed once, up to K = j - 1, the last one compared.
    The base signal is run from Z^p_{k0} itself (``solve_from_zp``), so no
    trial builds the initial state or solves for Z^p_{k0}.  Instant k of
    the solver reads V_k .. V_{k+w-1}, w = max(q*, 1), so the instants
    before k1 = max(k0, j - w + 1), and Z^p_{k1}, read only samples the two
    signals share, and both runs agree there whatever q* the solver uses.
    The perturbed signal is run from the base run's Z^p_{k1}, and only the
    instants k1 .. j - 1 are compared; when q* <= 1 there are none, and no
    perturbed run is made.  Each trial's runs are read as states and as
    outputs, for each verdict that has no counterexample yet; the pass ends
    when both have one.  The draws do not depend on what is read, so each
    entry is the counterexample a pass reading that verdict alone finds.
    """
    rng = random.Random(0 if seed is None else seed)
    sys, w = a.system, a.w
    if sys.l == 0:
        return None, None
    thr = _threshold(sys.mode, tol)
    k0 = 0
    horizon = max(w.q_star + 5, 8)
    count = horizon - k0 + w.q_star  # covers indices k0 .. horizon + q* - 1
    width = max(w.q_star, 1)  # instant k reads V_k .. V_{k+width-1}
    j_min = k0 + width
    j_max = min(horizon, k0 + count - 1)  # the perturbed sample must exist: horizon - 1 if q* = 0

    found: list[OracleCounterexample | None] = [None, None]  # state, output
    for t in range(trials):
        if all(found):
            break
        rows = [[rng.randint(-3, 3) for _ in range(sys.l)] for _ in range(count)]
        j = rng.randrange(j_min, j_max + 1)
        delta = [rng.randint(-3, 3) for _ in range(sys.l)]
        while all(d == 0 for d in delta):
            delta = [rng.randint(-3, 3) for _ in range(sys.l)]
        base = InputSignal.from_rows(k0, rows, sys.mode)
        moved = Matrix.column([v + d for v, d in zip(rows[j - k0], delta)], sys.mode)
        pert = InputSignal(k0, base.samples[:j - k0] + (moved,) + base.samples[j - k0 + 1:])

        z = Matrix.column([rng.randint(-3, 3) for _ in range(w.p)], sys.mode)
        traj_base = solve_from_zp(a, base, z, j - 1)
        # instants before k1 and Z^p_{k1} read only samples the signals share
        k1 = max(k0, j - width + 1)
        if k1 > j - 1:
            continue
        traj_pert = solve_from_zp(a, InputSignal(k1, pert.samples[k1 - k0:]),
                                  traj_base.z_p[k1 - k0], j - 1)
        pairs = ((traj_base.states, traj_pert.states), (traj_base.outputs, traj_pert.outputs))
        for i, (seq_base, seq_pert) in enumerate(pairs):
            if found[i]:
                continue
            for k in range(k1, j):
                b, q = seq_base[k - k0], seq_pert[k - k1]
                if (b != q) if thr is None else not (b - q).is_zero(thr):
                    found[i] = OracleCounterexample(
                        trial=t,
                        perturbed_index=j,
                        diverged_at=k,
                        base_signal=base,
                        perturbed_signal=pert,
                        base_value=b,
                        perturbed_value=q,
                    )
                    break
    return tuple(found)
