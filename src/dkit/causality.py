"""Causality of descriptor systems: closed-form criteria and a brute-force
trial oracle.

State-input causality fails exactly when the backward subsystem feeds a
future input into the current state, i.e. when H_q B_q != 0.  Output-input
causality only needs those leaks to be invisible through C, i.e.
C Q_q H_q^i B_q = 0 for i = 1 .. q* - 1; equivalently every column of
[Q_q H_q B_q | ... | Q_q H_q^{q*-1} B_q] lies in the right nullspace of C.

The oracle at the bottom tests the definition itself: perturb one future
input sample and watch whether any earlier state (or output) moves.  It
goes through the solver, not through the criteria, so the two can referee
each other.  One pass of trials serves every mode asked for: each trial
solves its two signals once and is read as states and as outputs, and a
seed gives each mode the verdict a pass for that mode alone would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .matrices import Matrix
from .scalars import Mode
from .solver import (
    Analysis,
    DescriptorSystem,
    InputSignal,
    TransformedInput,
    compute_Dk,
    solve,
)
from .weierstrass import WeierstrassDecomposition

DEFAULT_CAUSALITY_TOL = 1e-8


def _is_zero(mat: Matrix, tol: float | None) -> bool:
    if mat.mode is Mode.EXACT:
        return mat.is_zero()
    return mat.is_zero(DEFAULT_CAUSALITY_TOL if tol is None else tol)


def _leaks(w: WeierstrassDecomposition, tin: TransformedInput) -> list[Matrix]:
    """H_q^i B_q for i = 1 .. q* - 1: the width-l column blocks of the
    backward map [B_q | H_q B_q | ... | H_q^{q*-1} B_q] after the first."""
    l = tin.B_q.cols
    return [tin.backward.take_cols(range(i * l, (i + 1) * l)) for i in range(1, w.q_star)]


def check_state_causality(
    w: WeierstrassDecomposition, tin: TransformedInput, tol: float | None = None
) -> tuple[bool, Matrix]:
    """State-input causality holds iff H_q B_q = 0; the product is the witness."""
    leaks = _leaks(w, tin)
    witness = leaks[0] if leaks else Matrix.zeros(w.q, tin.B_q.cols, w.mode)
    return _is_zero(witness, tol), witness


def check_output_causality(
    sys: DescriptorSystem,
    w: WeierstrassDecomposition,
    tin: TransformedInput,
    tol: float | None = None,
) -> tuple[bool, tuple[Matrix, ...]]:
    """Output-input causality via the products C Q_q H_q^i B_q, i = 1..q*-1.

    Vacuously true when q* <= 1 (no future sample reaches the output).
    """
    c_qq = sys.C @ w.Q_q
    witnesses = tuple(c_qq @ leak for leak in _leaks(w, tin))
    return all(_is_zero(m, tol) for m in witnesses), witnesses


def nullspace_form(
    w: WeierstrassDecomposition, tin: TransformedInput
) -> Matrix:
    """The stacked matrix [Q_q H_q B_q | ... | Q_q H_q^{q*-1} B_q]."""
    l = tin.B_q.cols
    return w.Q_q @ tin.backward.take_cols(range(l, w.q_star * l))


def check_output_causality_nullspace(
    sys: DescriptorSystem,
    w: WeierstrassDecomposition,
    tin: TransformedInput,
    tol: float | None = None,
) -> bool:
    """Same verdict as :func:`check_output_causality`, computed as a single
    membership test: C annihilates every column of the stacked matrix."""
    return _is_zero(sys.C @ nullspace_form(w, tin), tol)


@dataclass(frozen=True)
class CausalityReport:
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
    state_ok, state_witness = check_state_causality(w, tin, tol)
    output_ok, output_witnesses = check_output_causality(sys, w, tin, tol)
    return CausalityReport(
        state_input_causal=state_ok,
        output_input_causal=output_ok,
        criterion_state=state_witness,
        criteria_output=output_witnesses,
        nullspace_form=nullspace_form(w, tin),
        no_infinite_eigenvalues=(w.q == 0),
        tolerance=(None if sys.mode is Mode.EXACT
                   else (DEFAULT_CAUSALITY_TOL if tol is None else tol)),
    )


@dataclass(frozen=True)
class OracleCounterexample:
    trial: int
    perturbed_index: int
    diverged_at: int
    mode: str
    base_signal: InputSignal
    perturbed_signal: InputSignal
    base_value: Matrix
    perturbed_value: Matrix


@dataclass(frozen=True)
class OracleOutcome:
    causal: bool
    counterexample: OracleCounterexample | None


def brute_force_causality_oracle(
    a: Analysis,
    modes: Sequence[str] = ("state", "output"),
    horizon: int = 10,
    trials: int = 50,
    *,
    rng: random.Random | None = None,
    seed: int | None = None,
    tol: float | None = None,
) -> tuple[OracleOutcome, ...]:
    """Empirical causality test of the analysed system straight from the
    definition, one outcome per entry of ``modes`` ("state" or "output"),
    in that order.

    Each trial draws a random consistent initial state and a random input
    signal, then perturbs exactly one future sample (index j) by a random
    nonzero vector.  The perturbation is placed at j >= k0 + q*, which
    leaves D_{k0} untouched, so the same initial state stays consistent
    for both signals and the two trajectories are comparable.  Any
    difference in a state (or output) at a time k < j witnesses
    non-causality.

    One pass serves every mode: each trial solves both signals once, up to
    K = j, as no later instant is compared, and tests each mode that has
    no counterexample yet; the pass ends when every mode has one.  The
    draws do not depend on the modes, so a mode's outcome is the one a
    pass for that mode alone with the same ``seed`` finds.
    """
    for mode in modes:
        if mode not in ("state", "output"):
            raise ValueError(f"mode must be 'state' or 'output', got {mode!r}")
    if rng is None:
        rng = random.Random(0 if seed is None else seed)
    sys, w = a.system, a.w
    if sys.l == 0:
        return tuple(OracleOutcome(True, None) for _ in modes)
    k0 = 0
    count = horizon - k0 + w.q_star  # covers indices k0 .. horizon + q* - 1
    j_min = k0 + max(w.q_star, 1)
    j_max = min(horizon, k0 + count - 1)  # perturbed sample must exist
    if j_min > j_max:
        raise ValueError(f"horizon {horizon} too short; need at least {j_min - k0 + 1}")

    found: list[OracleCounterexample | None] = [None] * len(modes)
    for t in range(trials):
        if all(found):
            break
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
        y0 = w.Q_p @ z + w.Q @ compute_Dk(w, a.tin, base, k0).stacked

        traj_base = solve(a, base, y0, j)
        traj_pert = solve(a, pert, y0, j)
        for i, mode in enumerate(modes):
            if found[i]:
                continue
            seq_base = traj_base.states if mode == "state" else traj_base.outputs
            seq_pert = traj_pert.states if mode == "state" else traj_pert.outputs
            for k in range(k0, j):
                if not _is_zero(seq_base[k - k0] - seq_pert[k - k0], tol):
                    found[i] = OracleCounterexample(
                        trial=t,
                        perturbed_index=j,
                        diverged_at=k,
                        mode=mode,
                        base_signal=base,
                        perturbed_signal=pert,
                        base_value=seq_base[k - k0],
                        perturbed_value=seq_pert[k - k0],
                    )
                    break
    return tuple(OracleOutcome(ce is None, ce) for ce in found)
