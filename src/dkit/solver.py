"""Unique closed-form solutions of F Y_{k+1} = G Y_k + B V_k, X_k = C Y_k.

In Weierstrass coordinates Z_k = Q^{-1} Y_k the system splits into a
forward subsystem driven by J_p and a backward nilpotent subsystem driven
by H_q.  The backward part is forced: it reads the next q* - 1 input
samples, which is why every operation here is explicit about the input
horizon it needs and refuses to zero-pad.

Both parts together make one constant linear map per instant, the step map

    [Y_k; X_k; Z^q_k; Z^p_{k+1}] = S [Z^p_k; V_k; ...; V_{k+w-1}],
    w = max(q*, 1),

so :func:`solve` spends one product per step; S is built once per
:class:`Analysis`, on its first solve.

An initial state is admissible exactly when it lies in the affine set
colspan(Q_p) + Q D_{k0}; the solver rejects anything else.  The residual
oracle at the bottom re-checks a trajectory against the original
difference equation and is deliberately independent of the decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from . import linalg
from .errors import (
    ChainConstructionFailure,
    InconsistentInitialCondition,
    InputHorizonTooShort,
    IrregularPencil,
)
from .matrices import Matrix, hstack, vstack
from .pencil import Pencil, char_poly
from .scalars import Mode
from .weierstrass import VerificationReport, WeierstrassDecomposition, _decompose


class DescriptorSystem:
    """The quadruple (F, G, B, C) with a regular pencil sF - G; keeps the
    char poly det(sF - G) that proves the regularity."""

    def __init__(self, F: Matrix, G: Matrix, B: Matrix, C: Matrix,
                 *, zero_tol: float | None = None):
        pencil = Pencil(F, G)
        n = pencil.n
        if B.rows != n:
            raise ValueError(f"B must have {n} rows, has {B.rows}")
        if C.cols != n:
            raise ValueError(f"C must have {n} columns, has {C.cols}")
        for mat in (B, C):
            if mat.mode is not F.mode:
                raise ValueError("all system matrices must share one scalar mode")
        cp = char_poly(pencil, zero_tol)
        if cp.is_zero:
            raise IrregularPencil("det(sF - G) is identically zero")
        self.F, self.G, self.B, self.C = F, G, B, C
        self.pencil, self.char_poly = pencil, cp

    @property
    def n(self) -> int:
        return self.F.rows

    @property
    def l(self) -> int:
        return self.B.cols

    @property
    def m(self) -> int:
        return self.C.rows

    @property
    def mode(self) -> Mode:
        return self.F.mode

    def to_float(self) -> "DescriptorSystem":
        return DescriptorSystem(self.F.to_float(), self.G.to_float(),
                                self.B.to_float(), self.C.to_float())


class InputSignal:
    """Samples V_{k0}, V_{k0+1}, ... as l x 1 columns."""

    def __init__(self, k0: int, samples: Sequence[Matrix]):
        self.k0 = k0
        self.samples = tuple(samples)
        for s in self.samples:
            if s.cols != 1:
                raise ValueError("input samples must be column vectors")
            if s.rows != self.samples[0].rows or s.mode is not self.samples[0].mode:
                raise ValueError("input samples must agree in dimension and mode")

    @classmethod
    def from_rows(cls, k0: int, rows: Sequence[Sequence], mode: Mode) -> "InputSignal":
        return cls(k0, [Matrix.column(r, mode) for r in rows])

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def last_index(self) -> int:
        return self.k0 + len(self.samples) - 1

    def sample(self, k: int) -> Matrix:
        if not (self.k0 <= k <= self.last_index):
            raise InputHorizonTooShort(k, self.k0, self.last_index)
        return self.samples[k - self.k0]


@dataclass(frozen=True)
class TransformedInput:
    """P B split into its forward (p x l) and backward (q x l) rows, and the
    backward map [B_q | H_q B_q | ... | H_q^{q*-1} B_q] (q x l q*)."""

    B_p: Matrix
    B_q: Matrix
    backward: Matrix


def _step_maps(a: Analysis) -> tuple[Matrix, Matrix]:
    """S, with w = max(q*, 1): rows Y (n), X (m), Z^q (q) and the next Z^p
    (p); columns Z^p (p), then V_k .. V_{k+w-1} (l each).

        [ Q_p    | -Q_q M    ]        M = the backward map, widened
        [ C Q_p  | -C Q_q M  ]            to l columns when q* = 0
        [ 0      | -M        ]
        [ J_p    | B_p  0    ]

    The final instant needs no Z^p_{k+1} rows, and no V columns when q* = 0,
    so it reads no sample past the horizon.
    """
    w, tin, l = a.w, a.tin, a.system.l
    back = tin.backward if w.q_star else Matrix.zeros(w.q, l, w.mode)
    state = hstack([w.Q_p, -(w.Q_q @ back)])
    step = vstack([
        state,
        a.system.C @ state,
        hstack([Matrix.zeros(w.q, w.p, w.mode), -back]),
        hstack([w.J_p, tin.B_p, Matrix.zeros(w.p, l * (max(w.q_star, 1) - 1), w.mode)]),
    ])
    last = step.take_rows(range(step.rows - w.p))
    return step, (last if w.q_star else last.take_cols(range(w.p)))


def transform_input(w: WeierstrassDecomposition, B: Matrix) -> TransformedInput:
    """P B in the blocks the solver and the causality checks read."""
    pb = w.P @ B
    b_q, h_q = pb.take_rows(range(w.p, w.n)), w.H_q
    blocks: list[Matrix] = []
    for _ in range(w.q_star):
        blocks.append(h_q @ blocks[-1] if blocks else b_q)
    return TransformedInput(
        B_p=pb.take_rows(range(w.p)),
        B_q=b_q,
        backward=hstack(blocks) if blocks else Matrix.zeros(w.q, 0, w.mode),
    )


@dataclass(frozen=True)
class Analysis:
    """The one handle for running a system: everything derived from it,
    each computed once.  The canonical form with its reconstruction report
    and P B come from :func:`analyze` (the char poly stays on the system);
    the step map of :func:`solve` is built on its first solve and kept.
    :func:`solve` and :func:`check_consistency` decide ranks with the
    ``rank_tol`` the canonical form was found with."""

    system: DescriptorSystem
    w: WeierstrassDecomposition
    verification: VerificationReport
    tin: TransformedInput
    rank_tol: float | None = None

    @cached_property
    def step_maps(self) -> tuple[Matrix, Matrix]:
        """The step map S and its final-instant form."""
        return _step_maps(self)


def analyze(
    system: DescriptorSystem,
    *,
    cluster_radius: float | None = None,
    rank_tol: float | None = None,
) -> Analysis:
    """Canonical form and transformed input of ``system``, reusing the char
    poly its regularity check computed.  Raises as ``weierstrass.decompose`` does."""
    w, verification = _decompose(system.pencil, system.char_poly,
                                 cluster_radius=cluster_radius, rank_tol=rank_tol)
    return Analysis(system, w, verification, transform_input(w, system.B), rank_tol)


class Dk(NamedTuple):
    top: Matrix       # forward convolution, p x 1
    bottom: Matrix    # backward forced part, q x 1
    stacked: Matrix   # n x 1


def compute_Dk(
    w: WeierstrassDecomposition,
    tin: TransformedInput,
    signal: InputSignal,
    k: int,
) -> Dk:
    """The driving vector D_k (forward sum over past inputs stacked on the
    backward sum over the next q* samples)."""
    if k < signal.k0:
        raise ValueError(f"k = {k} precedes the initial time {signal.k0}")
    top, j_p = Matrix.zeros(w.p, 1, w.mode), w.J_p
    for j in range(signal.k0, k):
        top = j_p @ top + tin.B_p @ signal.sample(j)
    if w.q_star:
        bottom = -(tin.backward @ vstack([signal.sample(k + i) for i in range(w.q_star)]))
    else:
        bottom = Matrix.zeros(w.q, 1, w.mode)
    return Dk(top=top, bottom=bottom, stacked=vstack([top, bottom]))


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    z_p0: Matrix | None
    residual: Matrix   # y0 - Q_p z - Q D_{k0}; zero when consistent


def check_consistency(a: Analysis, signal: InputSignal, y0: Matrix) -> ConsistencyResult:
    """Decide membership of y0 in colspan(Q_p) + Q D_{k0}.

    Q_p has full column rank, so a consistent y0 pins down Z^p_{k0}
    uniquely.  For an inconsistent y0 the returned residual is measured
    against the least-squares projection onto the admissible set.
    """
    n, w = a.system.n, a.w
    if y0.shape != (n, 1):
        raise ValueError(f"y0 must be {n} x 1")
    d0 = compute_Dk(w, a.tin, signal, signal.k0)
    rhs = y0 - w.Q @ d0.stacked
    q_p = w.Q_p
    z = linalg.solve(q_p, rhs, a.rank_tol)
    if z is not None:
        return ConsistencyResult(True, z, Matrix.zeros(n, 1, w.mode))
    try:
        z_ls = linalg.least_squares(q_p, rhs, a.rank_tol)
    except ValueError as exc:  # float only: an exact Q_p has full column rank
        raise ChainConstructionFailure(
            f"Q_p is numerically rank deficient: {exc}") from None
    return ConsistencyResult(False, None, rhs - q_p @ z_ls)


@dataclass(frozen=True)
class Trajectory:
    k0: int
    states: tuple[Matrix, ...]    # Y_k, n x 1
    outputs: tuple[Matrix, ...]   # X_k, m x 1
    z_p: tuple[Matrix, ...]       # forward coordinates, p x 1
    z_q: tuple[Matrix, ...]       # backward coordinates, q x 1

    @property
    def K(self) -> int:
        return self.k0 + len(self.states) - 1

    def __len__(self) -> int:
        return len(self.states)


def solve(a: Analysis, signal: InputSignal, y0: Matrix, K: int) -> Trajectory:
    """Unique trajectory on k0..K for a consistent initial state.

    Needs input samples up to index K + q* - 1; raises
    InputHorizonTooShort instead of fabricating missing samples.  Each
    instant is one product of the step map ``a.step_maps`` with
    [Z^p_k; V_k; ...; V_{k+w-1}].
    """
    k0, w = signal.k0, a.w
    if K < k0:
        raise ValueError(f"horizon K = {K} precedes the initial time {k0}")
    last_needed = K + w.q_star - 1
    if last_needed >= k0:
        signal.sample(last_needed)  # fail fast before any work

    res = check_consistency(a, signal, y0)
    if not res.consistent:
        raise InconsistentInitialCondition(
            "initial state lies outside colspan(Q_p) + Q D_{k0}",
            residual=res.residual,
        )

    n, m, q, l = a.system.n, a.system.m, w.q, a.system.l
    width = max(w.q_star, 1)
    step_map, last_map = a.step_maps
    inputs = vstack([Matrix.zeros(0, 1, w.mode), *signal.samples])
    z_p_list, z_q_list, states, outputs = [], [], [], []
    zp = res.z_p0
    for k in range(k0, K + 1):
        step = step_map if k < K else last_map
        i = (k - k0) * l  # V_k .. V_{k+width-1} are rows i .. i + width l of the inputs
        window = inputs.take_rows(range(i, i + width * l) if k < K or w.q_star else range(0))
        out = step @ vstack([zp, window])
        z_p_list.append(zp)
        states.append(out.take_rows(range(n)))
        outputs.append(out.take_rows(range(n, n + m)))
        z_q_list.append(out.take_rows(range(n + m, n + m + q)))
        if k < K:
            zp = out.take_rows(range(n + m + q, out.rows))
    return Trajectory(
        k0=k0,
        states=tuple(states),
        outputs=tuple(outputs),
        z_p=tuple(z_p_list),
        z_q=tuple(z_q_list),
    )


def closed_form_zp(
    w: WeierstrassDecomposition,
    tin: TransformedInput,
    signal: InputSignal,
    z_p0: Matrix,
    k: int,
) -> Matrix:
    """Non-recursive forward coordinate: J_p^{k-k0} Z^p_{k0} plus the
    convolution of past inputs.  Must agree with the recursion used by
    :func:`solve`; tests hold both paths to that."""
    k0 = signal.k0
    acc = linalg.matrix_power(w.J_p, k - k0) @ z_p0
    for i in range(k0, k):
        acc = acc + linalg.matrix_power(w.J_p, k - i - 1) @ (tin.B_p @ signal.sample(i))
    return acc


class SolutionResidual(NamedTuple):
    step_residual: object   # max over k of |F Y_{k+1} - G Y_k - B V_k|
    y0_mismatch: object     # |Y_{k0} - y0|, zero when y0 not supplied


def residual_oracle(
    sys: DescriptorSystem,
    signal: InputSignal,
    traj: Trajectory,
    y0: Matrix | None = None,
) -> SolutionResidual:
    """Check a trajectory against the original difference equation.

    Works directly on (F, G, B); no canonical form involved, so it can
    referee the solver.  Each step is one product of [F | -G | -B] with
    the stacked [Y_{k+1}; Y_k; V_k]; a zero residual costs no norm.
    """
    if len(traj) < 2:
        raise ValueError("trajectory must contain at least two states")
    nil = Fraction(0) if sys.mode is Mode.EXACT else 0.0
    worst = nil
    step = hstack([sys.F, -sys.G, -sys.B])
    for idx in range(len(traj) - 1):
        k = traj.k0 + idx
        r = step @ vstack([traj.states[idx + 1], traj.states[idx], signal.sample(k)])
        if not r.is_zero():
            worst = max(worst, r.max_abs())
    mismatch = (traj.states[0] - y0).max_abs() if y0 is not None else nil
    return SolutionResidual(step_residual=worst, y0_mismatch=mismatch)
