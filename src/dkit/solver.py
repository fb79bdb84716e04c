"""Unique closed-form solutions of F Y_{k+1} = G Y_k + B V_k, X_k = C Y_k.

In Weierstrass coordinates Z_k = Q^{-1} Y_k the system splits into a
forward subsystem driven by J_p and a backward nilpotent subsystem driven
by H_q.  The backward part is forced: it reads the next q* - 1 input
samples, which is why every operation here is explicit about the input
horizon it needs and refuses to zero-pad.

:func:`analyze` makes the :class:`Analysis` every run reads;
:func:`check_consistency` decides whether an initial state is admissible,
:func:`solve` runs it, and :func:`residual_oracle` re-checks a trajectory
against the original equation, independently of the decomposition.
:func:`_steps` is the one loop that steps a system, on the integer rows
of the step map; the causality oracle runs it, and :func:`_instants`
makes each instant's matrices from it.  ``solve`` is the gate
:func:`_pinned_zp` and those instants collected; ``dkit solve`` passes
the gate, then checks (:func:`_residual`) and prints each instant as it
comes and keeps none.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import linalg
from .errors import (
    ChainConstructionFailure,
    InconsistentInitialCondition,
    InputHorizonTooShort,
)
from .matrices import Matrix, hstack, vstack
from .pencil import Pencil, char_poly, require_regular
from .record import Record
from .scalars import Mode
from .weierstrass import VerificationReport, WeierstrassDecomposition, _decompose


class DescriptorSystem(Record):
    """The quadruple (F, G, B, C) with a regular pencil sF - G, and ``tol``,
    the float-mode zero/rank tolerance (relative; None for the default)
    that trims its char poly and decides every rank in its analysis.
    Float F, G, B and C must be finite.  Keeps the pencil and the char
    poly det(sF - G) that proves the regularity, both derived from F, G
    and ``tol``."""

    _fields = ("F", "G", "B", "C", "tol")

    def __init__(self, F: Matrix, G: Matrix, B: Matrix, C: Matrix,
                 *, tol: float | None = None):
        pencil = Pencil(F, G)
        n = pencil.n
        if B.rows != n:
            raise ValueError(f"B must have {n} rows, has {B.rows}")
        if C.cols != n:
            raise ValueError(f"C must have {n} columns, has {C.cols}")
        for mat in (B, C):
            if mat.mode is not F.mode:
                raise ValueError("all system matrices must share one scalar mode")
        for name, mat in zip("FGBC", (F, G, B, C)):
            if not mat.is_finite():
                raise ValueError(f"{name} has a NaN or infinite entry")
        cp = char_poly(pencil, tol)
        require_regular(pencil, cp, tol)
        self._set(F=F, G=G, B=B, C=C, tol=tol, pencil=pencil, char_poly=cp)

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
                                self.B.to_float(), self.C.to_float(), tol=self.tol)


class InputSignal(Record):
    """Samples V_{k0}, V_{k0+1}, ... as l x 1 columns."""

    _fields = ("k0", "samples")

    def __init__(self, k0: int, samples: Sequence[Matrix]):
        samples = tuple(samples)
        for s in samples:
            if s.cols != 1:
                raise ValueError("input samples must be column vectors")
            if s.rows != samples[0].rows or s.mode is not samples[0].mode:
                raise ValueError("input samples must agree in dimension and mode")
        self._set(k0=k0, samples=samples)

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


class TransformedInput(NamedTuple):
    """P B split into its forward (p x l) and backward (q x l) rows, and the
    backward map [B_q | H_q B_q | ... | H_q^{q*-1} B_q] (q x l q*)."""

    B_p: Matrix
    B_q: Matrix
    backward: Matrix


class StepMap(NamedTuple):
    """The step map S of :func:`_step_map` as the stepping core
    :func:`_steps` reads it."""

    S: Matrix
    rows: tuple     # S's rows as (entries, d): exact integer numerators over d, float values over 1
    forward: tuple  # the last p rows [J_p | B_p 0] as (entries, L / d), L the lcm of their d
    lcm: int        # L
    l: int          # the rows of one sample
    width: int      # the rows of V_k .. V_{k+w-1}: w l
    final: int      # the rows the final instant reads of them: w l, or none when q* = 0


def _step_map(a: Analysis) -> StepMap:
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
    if w.mode is Mode.EXACT:
        rows = tuple(zip(map(tuple, step.integer_rows()), step.denominators))
    else:
        rows = tuple((tuple(r), 1) for r in step.to_lists())
    forward = rows[len(rows) - w.p:]
    lcm = math.lcm(*[d for _, d in forward])
    width = max(w.q_star, 1) * l
    return StepMap(step, rows, tuple((r, lcm // d) for r, d in forward), lcm, l, width,
                   width if w.q_star else 0)


def transform_input(w: WeierstrassDecomposition, B: Matrix) -> TransformedInput:
    """P B (``w.P_times``) in the blocks the solver and the causality
    checks read."""
    pb = w.P_times(B)
    b_p, b_q = pb.take_rows(range(w.p)), pb.take_rows(range(w.p, w.n))
    blocks: list[Matrix] = []
    for _ in range(w.q_star):
        blocks.append(w.H_q @ blocks[-1] if blocks else b_q)
    return TransformedInput(
        B_p=b_p,
        B_q=b_q,
        backward=hstack(blocks) if blocks else Matrix.zeros(w.q, 0, w.mode),
    )


class Analysis(Record):
    """The one handle for running a system: everything derived from it,
    each computed once.  The canonical form with its reconstruction report
    comes from :func:`analyze` (the char poly stays on the system); P B and
    the step map of :func:`solve` are built on first read and kept."""

    _fields = ("system", "w", "verification")

    def __init__(self, system: DescriptorSystem, w: WeierstrassDecomposition,
                 verification: VerificationReport):
        self._set(system=system, w=w, verification=verification)

    @cached_property
    def tin(self) -> TransformedInput:
        """P B of the system in the blocks of ``w``."""
        return transform_input(self.w, self.system.B)

    @cached_property
    def step_map(self) -> StepMap:
        """The step map S in the form the solver steps it."""
        return _step_map(self)


def analyze(system: DescriptorSystem, *, cluster_radius: float | None = None) -> Analysis:
    """Canonical form of ``system``, reusing the char poly its regularity
    check computed.  Raises as ``weierstrass.decompose`` does."""
    w, verification = _decompose(system.pencil, system.char_poly,
                                 tol=system.tol, cluster_radius=cluster_radius)
    return Analysis(system, w, verification)


class ConsistencyResult(NamedTuple):
    consistent: bool
    z_p0: Matrix | None
    residual: Matrix   # y0 - Q_p z - Q D_{k0}; zero when consistent


def check_consistency(a: Analysis, signal: InputSignal, y0: Matrix) -> ConsistencyResult:
    """Decide membership of y0 in the admissible set colspan(Q_p) + Q D_{k0}.

    D_k stacks the forward sum over the inputs before k on the forced Z^q_k;
    at k0 that sum is empty, so Q D_{k0} = Q_q Z^q_{k0}.
    Q_p has full column rank, so a consistent y0 pins down Z^p_{k0}
    uniquely.  In float mode the pivot threshold scales with
    [Q_p | y0 - Q_q Z^q_{k0} | y0 | Q_q Z^q_{k0}]: when the two terms
    cancel, a threshold scaled by their difference would cancel with them.
    For an inconsistent y0 the returned residual is measured against the
    least-squares projection onto the admissible set.
    """
    n, w = a.system.n, a.w
    if y0.shape != (n, 1):
        raise ValueError(f"y0 must be {n} x 1")
    rhs, q_p, thr_of = y0, w.Q_p, None
    if w.q_star:  # the forced Z^q_{k0} reads V_{k0} .. V_{k0+q*-1}
        z_q0 = -(a.tin.backward @ vstack([signal.sample(signal.k0 + i)
                                          for i in range(w.q_star)]))
        forced = w.Q_q @ z_q0
        rhs = y0 - forced
        if w.mode is Mode.FLOAT:
            thr_of = hstack([q_p, rhs, y0, forced])
    z = linalg.solve(q_p, rhs, a.system.tol, thr_of)
    if z is not None:
        return ConsistencyResult(True, z, Matrix.zeros(n, 1, w.mode))
    try:
        z_ls = linalg.least_squares(q_p, rhs, a.system.tol)
    except ValueError as exc:  # float only: an exact Q_p has full column rank
        raise ChainConstructionFailure(
            f"Q_p is numerically rank deficient: {exc}") from None
    return ConsistencyResult(False, None, rhs - q_p @ z_ls)


class Trajectory(Record):
    """Y, X, Z^p and Z^q at the instants k0, k0 + 1, ..., K."""

    _fields = ("k0", "states", "outputs", "z_p", "z_q")

    def __init__(self, k0: int,
                 states: tuple[Matrix, ...],    # Y_k, n x 1
                 outputs: tuple[Matrix, ...],   # X_k, m x 1
                 z_p: tuple[Matrix, ...],       # forward coordinates, p x 1
                 z_q: tuple[Matrix, ...]):      # backward coordinates, q x 1
        self._set(k0=k0, states=states, outputs=outputs, z_p=z_p, z_q=z_q)

    @property
    def K(self) -> int:
        return self.k0 + len(self.states) - 1

    def __len__(self) -> int:
        return len(self.states)


def _check_horizon(a: Analysis, signal: InputSignal, K: int) -> None:
    """Raise unless k0 <= K and the signal has samples up to K + q* - 1:
    InputHorizonTooShort instead of fabricating missing samples."""
    k0 = signal.k0
    if K < k0:
        raise ValueError(f"horizon K = {K} precedes the initial time {k0}")
    last_needed = K + a.w.q_star - 1
    if last_needed >= k0:
        signal.sample(last_needed)


def solve(a: Analysis, signal: InputSignal, y0: Matrix, K: int) -> Trajectory:
    """Unique trajectory on k0..K for a consistent initial state: the gate
    :func:`_pinned_zp`, then :func:`solve_from_zp` from the Z^p_{k0} it
    gives."""
    return solve_from_zp(a, signal, _pinned_zp(a, signal, y0, K), K)


def _pinned_zp(a: Analysis, signal: InputSignal, y0: Matrix, K: int) -> Matrix:
    """The gate of :func:`solve`: the input horizon, checked before any
    other work, then the Z^p_{k0} that a consistent ``y0`` pins down."""
    _check_horizon(a, signal, K)
    res = check_consistency(a, signal, y0)
    if not res.consistent:
        raise InconsistentInitialCondition(
            "initial state lies outside colspan(Q_p) + Q D_{k0}",
            residual=res.residual,
        )
    return res.z_p0


def solve_from_zp(a: Analysis, signal: InputSignal, z_p0: Matrix, K: int) -> Trajectory:
    """The trajectory on k0..K from the forward coordinate Z^p_{k0} (p x 1):
    the instants of :func:`_instants`, collected.

    Every Z^p_{k0} gives a consistent initial state, Y_{k0} = Q_p Z^p_{k0}
    + Q D_{k0}, so only the input horizon is checked, as :func:`solve`
    does.
    """
    _check_horizon(a, signal, K)
    return Trajectory(signal.k0, *zip(*_instants(a, signal, z_p0, K)))


def _instants(a: Analysis, signal: InputSignal, z_p0: Matrix,
              K: int) -> Iterator[tuple[Matrix, Matrix, Matrix, Matrix]]:
    """(Y_k, X_k, Z^p_k, Z^q_k) for k = k0..K, each made as its instant is
    stepped, so a caller that drops them holds no trajectory: :func:`_steps`
    on every row of the step map, whose values become the matrices.  The
    caller checks the input horizon first."""
    st, mode = a.step_map, a.w.mode
    exact, n, m, p = mode is Mode.EXACT, a.system.n, a.system.m, a.w.p
    dens = [d for _, d in st.rows]
    d_y, d_x, d_q, ones = dens[:n], dens[n:n + m], dens[n + m:len(dens) - p], [1] * p
    if exact:  # Z^p_{k0} on its least common denominator e; the samples' entries as num / den
        e = math.lcm(*z_p0.denominators)
        z = [r[0] * (e // d) for r, d in zip(z_p0.integer_rows(), z_p0.denominators)]
        v_dens = [d for v in signal.samples for d in v.denominators]
        inputs = ([r[0] for v in signal.samples for r in v.integer_rows()],
                  v_dens if any(d != 1 for d in v_dens) else None)
    else:
        z, e = z_p0.column_list(), 1
        inputs = ([x for v in signal.samples for x in v.column_list()], None)
    for t, (z, e, vals, c) in enumerate(_steps(st, st.rows[:len(dens) - p], z, e, inputs, 0,
                                               K - signal.k0 + 1)):
        yield (Matrix.ratios(vals[:n], d_y, c, mode), Matrix.ratios(vals[n:n + m], d_x, c, mode),
               Matrix.ratios(z, ones, e, mode) if t else z_p0,
               Matrix.ratios(vals[n + m:], d_q, c, mode))


def _steps(st: StepMap, rows: Sequence, z: list, e: int, inputs: tuple[list, list | None],
           i: int, count: int) -> Iterator[tuple]:
    """``count`` instants of the step map: the one loop that steps a system.

    The column of an instant is [Z^p_k; V_k; ...; V_{k+w-1}]: Z^p_k is z
    (exact mode: integers over e) and V_k starts at entry i of ``inputs``,
    l entries further each instant (exact mode: the entries' numerators
    and denominators, None when all are 1; float mode: their values and
    None).  Each instant
    yields (z, e, values, c): its Z^p_k and the values of ``rows`` (rows of
    ``st.rows``).  Exact mode puts the column on its least common
    denominator c, as ``Matrix.__matmul__`` does, and a value is the
    integer dot product of a row (entries, d) with it, read as over d c;
    float mode sums each value from 0j in index order, as ``@`` does, and
    c = 1.  No ``Matrix`` is made.  Z^p_{k+1} comes from the forward rows
    ``st.forward`` alone, on its least common denominator in turn; the
    last instant is not stepped past, and reads no V when q* = 0.
    """
    exact = st.S.mode is Mode.EXACT
    vals, dens = inputs
    mul, gcd, lcm = operator.mul, math.gcd, math.lcm
    for t in range(count):
        step = t < count - 1
        stop = i + (st.width if step else st.final)
        if exact:
            c = e if dens is None else lcm(e, *dens[i:stop])
            if dens is None:
                col = z + [v * c for v in vals[i:stop]]
            else:
                col = [x * (c // e) for x in z] + [
                    v * (c // d) for v, d in zip(vals[i:stop], dens[i:stop])]
            yield z, e, [sum(map(mul, a, col)) for a, _ in rows], c
            if step:
                z, e = [sum(map(mul, a, col)) * f for a, f in st.forward], c * st.lcm
                g = gcd(*z, e)
                if g != 1:
                    z, e = [x // g for x in z], e // g
        else:
            col = z + vals[i:stop]
            yield z, 1, [_dot(a, col) for a, _ in rows], 1
            if step:
                z = [_dot(a, col) for a, _ in st.forward]
        i += st.l


def _dot(row: Sequence[complex], col: list[complex]) -> complex:
    """A float dot product summed from 0j in index order, as ``@`` sums."""
    s = 0j
    for x, y in zip(row, col):
        s += x * y
    return s


class SolutionResidual(NamedTuple):
    step_residual: object   # max over k of |F Y_{k+1} - G Y_k - B V_k|
    y0_mismatch: object     # |Y_{k0} - y0|, zero when y0 not supplied


def residual_oracle(
    sys: DescriptorSystem,
    signal: InputSignal,
    traj: Trajectory,
    y0: Matrix | None = None,
) -> SolutionResidual:
    """Check a trajectory against the original difference equation:
    :func:`_residual` of its states."""
    if len(traj) < 2:
        raise ValueError("trajectory must contain at least two states")
    return _residual(sys, signal, traj.k0, traj.states, y0)


def _residual(sys: DescriptorSystem, signal: InputSignal, k0: int,
              states: Iterable[Matrix], y0: Matrix | None) -> SolutionResidual:
    """The residual of the states Y_{k0}, Y_{k0+1}, ... (at least one).

    Works directly on (F, G, B); no canonical form involved, so it can
    referee the solver.  Each step is one product of [F | -G | -B] with
    the stacked [Y_{k+1}; Y_k; V_k], made as Y_{k+1} arrives, so a caller
    may pass states it does not keep; a zero residual costs no norm.
    """
    nil = Fraction(0) if sys.mode is Mode.EXACT else 0.0
    worst = nil
    step = hstack([sys.F, -sys.G, -sys.B])
    states = iter(states)
    first = prev = next(states)
    for k, y in enumerate(states, k0):
        r = step @ vstack([y, prev, signal.sample(k)])
        if not r.is_zero():
            worst = max(worst, r.max_abs())
        prev = y
    mismatch = (first - y0).max_abs() if y0 is not None else nil
    return SolutionResidual(step_residual=worst, y0_mismatch=mismatch)
