"""Complex Weierstrass canonical form of a regular pencil.

For a regular pencil sF - G this module produces nonsingular P, Q with

    P F Q = I_p (+) H_q        P G Q = J_p (+) I_q

where J_p collects Jordan blocks of the finite eigenvalues and H_q is the
nilpotent block of the infinite eigenstructure (ones on the superdiagonal).

Construction outline.  Eigenvector chains are built directly on the
pencil: for a finite eigenvalue a the chain relation is

    (G - a F) v_1 = 0,     (G - a F) v_k = F v_{k-1},

and for the infinite structure the reversed relation

    F w_1 = 0,             F w_k = G w_{k-1}.

Both are instances of one scheme, "A v_k = E v_{k-1}".  The nested
subspaces N_1 = ker A, N_k = {v : A v in E(N_{k-1})} grow exactly like the
kernel filtration of a nilpotent operator, so the usual Jordan machinery
applies: block sizes come from the dimension increments, top vectors of
long chains are picked first, and each chain runs downward through the
unique x in N_{k-1} with E x = A v_k.  N_k is read off the kernel of
[A | -E N_{k-1}] (``linalg.filtration``), whose vectors (v, y) pair each v
in N_k with the y that gives A v = E N_{k-1} y.  In exact mode A is
eliminated once, each step resumes that elimination on the appended
columns rather than starting again from column 0, and the walk keeps the
y-map Y_k of each basis, A N_k = E N_{k-1} Y_k: a chain step is then
the product of Y_k with the coordinates of v_k, solved for nothing.
Float mode solves E N_{k-1} y = A v_k at each step.  For the infinite
structure the N_k are the Wong sequence of the pencil, and in exact mode
they are the pencil's own walk, ``Pencil.wong_sequence`` with
``Pencil.wong_maps``, the one its char poly deflates by.  Columns of Q
are the chain vectors; P is then forced, because the first p columns of
P^{-1} must be F Q_p and the last q columns must be G Q_q.

All choices are canonical: kernels come from the (unique) reduced row
echelon form, eigenvalues are sorted, and block sizes are descending, so
repeated runs produce identical output.

The result is accepted by the reconstruction check, :func:`verify`.  It
reads the residuals |P F Q - (I_p (+) H_q)| and |P G Q - (J_p (+) I_q)|
off the two products against the block pattern, the diagonal and the
ones above it inside each block, without building either right-hand
side.  Only when both pass (0 in exact mode, at most tol * max(|F|, |G|,
1) in float mode) does it test P and Q for rank.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import linalg
from .errors import ChainConstructionFailure, IrregularPencil
from .matrices import Matrix, block_diag, hstack
from .pencil import CharPoly, Pencil, char_poly, finite_eigenvalues
from .record import Record
from .scalars import Mode, Scalar


class JordanBlockSpec(Record):
    """A Jordan block of ``size`` >= 1 at ``eigenvalue``."""

    _fields = ("eigenvalue", "size")

    def __init__(self, eigenvalue: Scalar, size: int):
        if size < 1:
            raise ValueError("block size must be >= 1")
        self._set(eigenvalue=eigenvalue, size=size)


class NilpotentBlockSpec(Record):
    """A nilpotent shift block of ``size`` >= 1."""

    _fields = ("size",)

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("block size must be >= 1")
        self._set(size=size)


def assemble_Jp(blocks: list[JordanBlockSpec] | tuple, mode: Mode) -> Matrix:
    """Direct sum of Jordan blocks: eigenvalue diagonal, ones above it."""
    mats = []
    for b in blocks:
        rows = [
            [
                b.eigenvalue if i == j else (1 if j == i + 1 else 0)
                for j in range(b.size)
            ]
            for i in range(b.size)
        ]
        mats.append(Matrix(rows, mode))
    return block_diag(mats, mode)


def assemble_Hq(blocks: list[NilpotentBlockSpec] | tuple, mode: Mode) -> Matrix:
    """Direct sum of nilpotent shift blocks: Jordan blocks of eigenvalue 0."""
    return assemble_Jp([JordanBlockSpec(0, b.size) for b in blocks], mode)


class WeierstrassDecomposition(Record):
    """P, Q and the block structure.  p and q are the total sizes of the
    Jordan and of the nilpotent blocks, and q_star, the nilpotency index,
    the largest nilpotent block; the blocks Q_p, Q_q, J_p and H_q are
    built on first read and kept (equality reads the fields only)."""

    _fields = ("P", "Q", "jordan_blocks", "nilpotent_blocks")

    def __init__(self, P: Matrix, Q: Matrix,
                 jordan_blocks: tuple[JordanBlockSpec, ...],
                 nilpotent_blocks: tuple[NilpotentBlockSpec, ...]):
        self._set(P=P, Q=Q, jordan_blocks=jordan_blocks, nilpotent_blocks=nilpotent_blocks,
                  p=sum(b.size for b in jordan_blocks),
                  q=sum(b.size for b in nilpotent_blocks),
                  q_star=max((b.size for b in nilpotent_blocks), default=0))

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def mode(self) -> Mode:
        return self.P.mode

    @cached_property
    def Q_p(self) -> Matrix:
        return self.Q.take_cols(range(self.p))

    @cached_property
    def Q_q(self) -> Matrix:
        return self.Q.take_cols(range(self.p, self.n))

    @cached_property
    def J_p(self) -> Matrix:
        return assemble_Jp(self.jordan_blocks, self.mode)

    @cached_property
    def H_q(self) -> Matrix:
        return assemble_Hq(self.nilpotent_blocks, self.mode)


class VerificationReport(NamedTuple):
    """The reconstruction check of a decomposition: its two residuals, and
    whether P and Q are nonsingular, which is tested only when the
    residuals pass (None otherwise)."""

    residual_F: Fraction | float
    residual_G: Fraction | float
    P_nonsingular: bool | None
    Q_nonsingular: bool | None

    @property
    def max_residual(self):
        return max(self.residual_F, self.residual_G)


def _block_sizes(dims: list[int]) -> list[int]:
    """Block sizes (descending) from cumulative filtration dimensions."""
    counts_ge = [b - a for a, b in zip([0] + dims, dims)]
    sizes: list[int] = []
    for k in range(1, len(dims) + 1):
        exactly = counts_ge[k - 1] - (counts_ge[k] if k < len(dims) else 0)
        if exactly < 0:
            raise ChainConstructionFailure("non-monotone chain dimension increments")
        sizes.extend([k] * exactly)
    sizes.sort(reverse=True)
    return sizes


def _pick_independent(candidates: Matrix, context: list[Matrix], tol: float | None) -> int:
    """Index of the first candidate column outside the span of the context
    columns: the first pivot column of [context | candidates] past the
    context."""
    width = sum(c.cols for c in context)
    pivots = linalg.pivot_columns(hstack(context + [candidates]), tol)
    j = next((c for c in pivots if c >= width), None)
    if j is None:
        raise ChainConstructionFailure("no chain top vector available at this level")
    return j - width


def _chains(A: Matrix, E: Matrix, bases, maps, tol: float | None) -> list[list[Matrix]]:
    """The chains v_1..v_r of A v_k = E v_{k-1} on the filtration
    ``bases``, one per block, longest first: the block sizes, read off the
    dimensions, are the chain lengths.

    The top vector of an r-chain is chosen in N_r, column j of its basis,
    independent of N_{r-1} and of every previously picked chain vector.
    The rest of the chain is read off the walk's y-maps ``maps`` (exact
    mode), maps[k - 2] = Y_k with A N_k = E N_{k-1} Y_k: with v_k = N_k c_k
    and c_r = e_j, v_{k-1} = N_{k-1} c_{k-1}, c_{k-1} = Y_k c_k.  E is
    injective on N_{k-1}, so that is the unique solution of
    E x = A v_k inside N_{k-1}, which float mode (``maps`` None) solves
    for at each step.
    """
    picked: list[Matrix] = []
    chains: list[list[Matrix]] = []
    for r in _block_sizes([b.cols for b in bases]):
        context = [bases[r - 2]] + picked if r >= 2 else picked
        j = _pick_independent(bases[r - 1], context, tol)
        chain = [bases[r - 1].col(j)]
        for k in range(r, 1, -1):
            b = bases[k - 2]
            if maps is not None:
                y = maps[k - 2].col(j) if k == r else maps[k - 2] @ y
            else:
                try:
                    y = linalg.solve_unique(E @ b, A @ chain[-1], tol)
                except ValueError as exc:
                    raise ChainConstructionFailure(f"chain step solve failed: {exc}") from None
            chain.append(b @ y)
        chain.reverse()
        chains.append(chain)
        picked.extend(chain)
    return chains


def decompose(
    pencil: Pencil,
    *,
    tol: float | None = None,
    cluster_radius: float | None = None,
) -> WeierstrassDecomposition:
    """Weierstrass canonical form of a regular pencil; ``tol`` is the
    float-mode zero/rank tolerance of the char poly and of every rank
    decision.

    Raises IrregularPencil when det(sF - G) vanishes identically,
    UnresolvableSpectrum in exact mode for irrational spectra, and
    ChainConstructionFailure when the observed rank structure breaks down
    (float-mode numerical trouble).
    """
    cp = char_poly(pencil, tol)
    return _decompose(pencil, cp, tol=tol, cluster_radius=cluster_radius)[0]


def _decompose(
    pencil: Pencil,
    cp: CharPoly,
    *,
    tol: float | None,
    cluster_radius: float | None,
) -> tuple[WeierstrassDecomposition, VerificationReport]:
    """:func:`decompose` for a pencil whose char poly ``cp`` is known; also
    returns the report of the reconstruction check that gates the result."""
    if cp.is_zero:
        raise IrregularPencil("det(sF - G) is identically zero")
    p, q = cp.p, cp.q
    mode = pencil.mode
    F, G = pencil.F, pencil.G
    n = pencil.n

    exact = mode is Mode.EXACT
    jordan_blocks: list[JordanBlockSpec] = []
    qp_cols: list[Matrix] = []
    if p > 0:
        for a, mult in finite_eigenvalues(cp, cluster_radius):
            A = G.sub_scaled(F, a)
            maps = [] if exact else None
            bases = linalg.filtration(A, F, mult, tol, maps)
            for chain in _chains(A, F, bases, maps, tol):
                jordan_blocks.append(JordanBlockSpec(a, len(chain)))
                qp_cols.extend(chain)

    nilpotent_blocks: list[NilpotentBlockSpec] = []
    qq_cols: list[Matrix] = []
    if q > 0:
        if exact:
            walk, maps = pencil.wong_sequence, pencil.wong_maps
        else:
            walk, maps = linalg.filtration(F, G, q, tol), None
        for chain in _chains(F, G, walk, maps, tol):
            nilpotent_blocks.append(NilpotentBlockSpec(len(chain)))
            qq_cols.extend(chain)

    q_p = hstack(qp_cols) if qp_cols else Matrix.zeros(n, 0, mode)
    q_q = hstack(qq_cols) if qq_cols else Matrix.zeros(n, 0, mode)
    q_full = hstack([q_p, q_q])

    # P^{-1} is forced blockwise: columns 1..p equal F Q_p, columns p+1..n
    # equal G Q_q; inverting it solves both block equations at once.
    pinv = hstack([F @ q_p, G @ q_q])
    try:
        p_mat = linalg.inverse(pinv, tol)
    except ValueError:
        raise ChainConstructionFailure("[F Q_p | G Q_q] is singular") from None

    w = WeierstrassDecomposition(
        P=p_mat,
        Q=q_full,
        jordan_blocks=tuple(jordan_blocks),
        nilpotent_blocks=tuple(nilpotent_blocks),
    )

    report = verify(pencil, w, tol)
    if not (report.P_nonsingular and report.Q_nonsingular):
        raise ChainConstructionFailure(
            f"reconstruction check failed: residuals "
            f"{report.residual_F}, {report.residual_G}"
        )
    return w, report


def verify(
    pencil: Pencil, w: WeierstrassDecomposition, tol: float | None = None
) -> VerificationReport:
    """The reconstruction check of ``w``: the residuals of the two defining
    block equations in the max-abs norm, |P F Q - (I_p (+) H_q)| and
    |P G Q - (J_p (+) I_q)|, read off the two products against the block
    pattern (``Matrix.max_abs_off_jordan``).  They pass when both are 0
    (exact mode) or at most ``tol`` (default ``linalg.DEFAULT_RANK_TOL``)
    times max(|F|, |G|, 1) (float mode).  Only then are P and Q tested for
    rank under ``tol``; the two rank fields read None otherwise."""
    if w.n != pencil.n:
        raise ValueError("decomposition and pencil dimensions differ")
    F, G = pencil.F, pencil.G
    res_f = (w.P @ F @ w.Q).max_abs_off_jordan(
        [(1, 1)] * w.p + [(0, b.size) for b in w.nilpotent_blocks])
    res_g = (w.P @ G @ w.Q).max_abs_off_jordan(
        [(b.eigenvalue, b.size) for b in w.jordan_blocks] + [(1, 1)] * w.q)
    if pencil.mode is Mode.EXACT:
        ok = res_f == 0 and res_g == 0
    else:
        scale = float(max(abs(F.max_abs()), abs(G.max_abs()), 1.0))
        thr = (linalg.DEFAULT_RANK_TOL if tol is None else tol) * scale
        ok = float(res_f) <= thr and float(res_g) <= thr
    if not ok:
        return VerificationReport(res_f, res_g, None, None)
    return VerificationReport(res_f, res_g, linalg.is_nonsingular(w.P, tol),
                              linalg.is_nonsingular(w.Q, tol))
