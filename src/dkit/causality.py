"""Causality of descriptor systems: the closed-form criteria, computed in
one pass by :func:`build_report`, and a brute-force trial oracle,
:func:`brute_force_causality_oracle`.

State-input causality fails exactly when the backward subsystem feeds a
future input into the current state, i.e. when H_q B_q != 0.  Output-input
causality only needs those leaks to be invisible through C, i.e.
C Q_q H_q^i B_q = 0 for i = 1 .. q* - 1; equivalently every column of
[Q_q H_q B_q | ... | Q_q H_q^{q*-1} B_q] lies in the right nullspace of C.

The oracle tests the definition itself: perturb one future input sample
and watch whether any earlier state (or output) moves.  It steps the
system on the solver's stepping core, the one loop ``solve`` runs, not
through the criteria, so the two can referee each other; how it spares
work is in :func:`brute_force_causality_oracle`.
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
    _steps,
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

    The trials run on the solver's stepping core (``solver._steps``), from
    the Z^p_{k0} drawn, so no trial builds an initial state or solves for
    Z^p_{k0}.  Instant k reads V_k .. V_{k+w-1}, w = max(q*, 1), so the
    instants before k1 = max(k0, j - w + 1), and Z^p_{k1}, read only
    samples the two signals share: Z^p is advanced from k0 to k1 once, on
    the forward rows of the step map alone.  From Z^p_{k1} both signals
    are run over k1 .. j - 1, the instants compared, on the rows of the
    verdicts that have no counterexample yet (and the forward rows, to
    step); no run computes instant j.  When q* <= 1 there are no such
    instants and a trial makes no run.  An instant is decided on the
    values as the core gives them: exact mode by cross-multiplying the
    two runs' numerators by each other's column denominator, float mode
    by |b - q| over the threshold, entry by entry.  The signals and the
    values of a counterexample are made only when one is found.  The pass
    ends when both verdicts have one; the draws do not depend on what is
    read, so each entry is the counterexample a pass reading that verdict
    alone finds.
    """
    rng = random.Random(0 if seed is None else seed)
    sys, w = a.system, a.w
    if sys.l == 0:
        return None, None
    thr = _threshold(sys.mode, tol)
    exact = sys.mode is Mode.EXACT
    k0, l, n, m = 0, sys.l, sys.n, sys.m
    horizon = max(w.q_star + 5, 8)
    count = horizon - k0 + w.q_star  # covers indices k0 .. horizon + q* - 1
    width = max(w.q_star, 1)  # instant k reads V_k .. V_{k+width-1}
    j_min = k0 + width
    j_max = min(horizon, k0 + count - 1)  # the perturbed sample must exist: horizon - 1 if q* = 0
    st = a.step_map
    blocks = ((0, n), (n, n + m))  # the rows of S each verdict reads: Y, X

    found: list[OracleCounterexample | None] = [None, None]  # state, output
    for t in range(trials):
        if all(found):
            break
        rows = [[rng.randint(-3, 3) for _ in range(l)] for _ in range(count)]
        j = rng.randrange(j_min, j_max + 1)
        delta = [rng.randint(-3, 3) for _ in range(l)]
        while all(d == 0 for d in delta):
            delta = [rng.randint(-3, 3) for _ in range(l)]
        z = [rng.randint(-3, 3) for _ in range(w.p)]
        k1 = max(k0, j - width + 1)
        if k1 > j - 1:
            continue
        pert_rows = list(rows)
        pert_rows[j - k0] = [v + d for v, d in zip(rows[j - k0], delta)]
        runs = [([x if exact else complex(x) for r in sig for x in r], None)  # integer samples
                for sig in (rows, pert_rows)]
        if not exact:
            z = list(map(complex, z))
        *_, (z, e, _, _) = _steps(st, (), z, 1, runs[0], 0, k1 - k0 + 1)  # Z^p_{k1}
        lo, hi = n if found[0] else 0, n if found[1] else n + m  # the rows still read
        out_b, out_p = (list(_steps(st, st.rows[lo:hi], z, e, v, (k1 - k0) * l, j - k1))
                        for v in runs)
        for i, (r0, r1) in enumerate(blocks):
            if found[i]:
                continue
            for k, (*_, vb, cb), (*_, vq, cq) in zip(range(k1, j), out_b, out_p):
                b, q = vb[r0 - lo:r1 - lo], vq[r0 - lo:r1 - lo]
                if exact:
                    if all(x * cq == y * cb for x, y in zip(b, q)):
                        continue
                elif all(abs(x - y) <= thr for x, y in zip(b, q)):
                    continue
                dens = [d for _, d in st.rows[r0:r1]]
                found[i] = OracleCounterexample(
                    trial=t,
                    perturbed_index=j,
                    diverged_at=k,
                    base_signal=InputSignal.from_rows(k0, rows, sys.mode),
                    perturbed_signal=InputSignal.from_rows(k0, pert_rows, sys.mode),
                    base_value=Matrix.ratios(b, dens, cb, sys.mode),
                    perturbed_value=Matrix.ratios(q, dens, cq, sys.mode),
                )
                break
    return tuple(found)
