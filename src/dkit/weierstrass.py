"""Complex Weierstrass canonical form of a regular pencil.

For a regular pencil sF - G this module produces nonsingular P, Q with

    P F Q = I_p (+) H_q        P G Q = J_p (+) I_q

where J_p collects Jordan blocks of the finite eigenvalues and H_q is the
nilpotent block of the infinite eigenstructure (ones on the superdiagonal).

Eigenvector chains are built directly on the pencil: for a finite
eigenvalue a the chain relation is

    (G - a F) v_1 = 0,     (G - a F) v_k = F v_{k-1},

and for the infinite structure the reversed relation

    F w_1 = 0,             F w_k = G w_{k-1}.

Both are instances of one scheme, "A v_k = E v_{k-1}".  The nested
subspaces N_1 = ker A, N_k = {v : A v in E(N_{k-1})} (``linalg.filtration``;
for the infinite structure the Wong sequence, ``Pencil.wong_sequence``)
grow exactly like the kernel filtration of a nilpotent operator, so
:func:`_chains` reads Jordan chains off them.  Columns of Q are the chain
vectors; P is then forced, because the first p columns of P^{-1} must be
F Q_p and the last q columns must be G Q_q: P = M^{-1}, M = [F Q_p | G Q_q]
(the quasi-Weierstrass construction of Berger, Ilchmann & Trenn 2012
defines it from the two deflating subspaces the same way).
:class:`WeierstrassDecomposition` says when P is built.

All choices are canonical: kernels come from the (unique) reduced row
echelon form, eigenvalues are sorted, and block sizes are descending, so
repeated runs produce identical output.

:func:`verify` is the reconstruction check of any decomposition against
any pencil.  Float :func:`decompose` accepts its result by it.  Exact
:func:`decompose`, which has just defined P as M^{-1}, accepts it by the
chain relations instead:

    P F Q - (I_p (+) H_q) = P [0 | F Q_q - G Q_q H_q],
    P G Q - (J_p (+) I_q) = P [G Q_p - F Q_p J_p | 0],

so G Q_p = (F Q_p) J_p and F Q_q = (G Q_q) H_q make both residuals 0,
and then det P det(sF - G) det Q = det(sI - J_p) (-1)^q, a nonzero
polynomial, so P and Q are nonsingular: the report :func:`verify` gives.
A relation that fails leaves the report to :func:`verify`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterator, NamedTuple

from . import linalg
from .errors import ChainConstructionFailure
from .matrices import Matrix, hstack
from .pencil import CharPoly, Pencil, char_poly, finite_eigenvalues, require_regular
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


def _jordan_entries(blocks) -> Iterator[tuple[int, int, Scalar]]:
    """The (row, column, value) entries that need not be 0 of the direct
    sum of the Jordan blocks ``blocks``, (eigenvalue, size) pairs."""
    start = 0
    for v, size in blocks:
        end = start + size
        for i in range(start, end):
            yield i, i, v
            if i + 1 < end:
                yield i, i + 1, 1
        start = end


def assemble_Jp(blocks: list[JordanBlockSpec] | tuple, mode: Mode) -> Matrix:
    """Direct sum of Jordan blocks: eigenvalue diagonal, ones above it."""
    n = sum(b.size for b in blocks)
    rows = [[0] * n for _ in range(n)]
    for i, j, v in _jordan_entries([(b.eigenvalue, b.size) for b in blocks]):
        rows[i][j] = v
    return Matrix(rows, mode)


def assemble_Hq(blocks: list[NilpotentBlockSpec] | tuple, mode: Mode) -> Matrix:
    """Direct sum of nilpotent shift blocks: Jordan blocks of eigenvalue 0."""
    return assemble_Jp([JordanBlockSpec(0, b.size) for b in blocks], mode)


class WeierstrassDecomposition(Record):
    """P, Q and the block structure.  p and q are the total sizes of the
    Jordan and of the nilpotent blocks, and q_star, the nilpotency index,
    the largest nilpotent block; the blocks Q_p, Q_q, J_p and H_q are
    built on first read and kept (equality reads the fields only).

    An exact decomposition from :func:`decompose` defines P as M^{-1},
    M = [F Q_p | G Q_q] of its pencil, and builds it (``linalg.inverse``)
    only when ``P`` is first read, as equality, hash and repr do;
    :meth:`P_times` solves M X = B instead.  It keeps no pencil."""

    _fields = ("P", "Q", "jordan_blocks", "nilpotent_blocks")

    def __init__(self, P: Matrix, Q: Matrix,
                 jordan_blocks: tuple[JordanBlockSpec, ...],
                 nilpotent_blocks: tuple[NilpotentBlockSpec, ...]):
        self._set(P=P, _M=None)
        self._set_blocks(Q, jordan_blocks, nilpotent_blocks)

    @classmethod
    def _inverse_of(cls, M: Matrix, q_p: Matrix, q_q: Matrix,
                    jordan_blocks: tuple[JordanBlockSpec, ...],
                    nilpotent_blocks: tuple[NilpotentBlockSpec, ...]) -> "WeierstrassDecomposition":
        """The decomposition with Q = [Q_p | Q_q] whose P is M^{-1}, for a
        nonsingular M = [F Q_p | G Q_q]."""
        w = object.__new__(cls)
        w._set(_M=M, Q_p=q_p, Q_q=q_q)
        w._set_blocks(hstack([q_p, q_q]), jordan_blocks, nilpotent_blocks)
        return w

    def _set_blocks(self, Q, jordan_blocks, nilpotent_blocks):
        self._set(Q=Q, jordan_blocks=jordan_blocks, nilpotent_blocks=nilpotent_blocks,
                  p=sum(b.size for b in jordan_blocks),
                  q=sum(b.size for b in nilpotent_blocks),
                  q_star=max((b.size for b in nilpotent_blocks), default=0))

    @cached_property
    def P(self) -> Matrix:
        # reached only when P is defined as M^{-1}: the constructor sets it
        return linalg.inverse(self._M)

    def P_times(self, B: Matrix) -> Matrix:
        """P B: where P is defined as M^{-1}, the solution of M X = B by one
        elimination of [M | B], the same entries as P @ B."""
        return self.P @ B if self._M is None else linalg.solve_unique(self._M, B)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def mode(self) -> Mode:
        return self.Q.mode

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
    The rest of the chain is read off the walk's y-maps ``maps``,
    maps[k - 2] = Y_k with A N_k = E N_{k-1} Y_k: with v_k = N_k c_k and
    c_r = e_j, v_{k-1} = N_{k-1} c_{k-1}, c_{k-1} = Y_k c_k.  E is
    injective on N_{k-1}, so that is the unique solution of
    E x = A v_k inside N_{k-1}, which a step whose map is None (every
    float step) solves for.
    """
    picked: list[Matrix] = []
    chains: list[list[Matrix]] = []
    for r in _block_sizes([b.cols for b in bases]):
        context = [bases[r - 2]] + picked if r >= 2 else picked
        j = _pick_independent(bases[r - 1], context, tol)
        chain = [bases[r - 1].col(j)]
        for k in range(r, 1, -1):
            b = bases[k - 2]
            if maps[k - 2] is not None:
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

    Raises as ``pencil.require_regular`` does when det(sF - G) reads zero,
    UnresolvableSpectrum in exact mode for irrational spectra, and
    ChainConstructionFailure when the observed rank structure breaks down
    (float-mode numerical trouble).
    """
    cp = char_poly(pencil, tol)
    require_regular(pencil, cp, tol)
    return _decompose(pencil, cp, tol=tol, cluster_radius=cluster_radius)[0]


def _decompose(
    pencil: Pencil,
    cp: CharPoly,
    *,
    tol: float | None,
    cluster_radius: float | None,
) -> tuple[WeierstrassDecomposition, VerificationReport]:
    """:func:`decompose` for a pencil whose char poly ``cp`` is known and
    has passed ``pencil.require_regular``; also
    returns the report that gates the result: (0, 0, True, True) from the
    chain relations of an exact result (module docstring), else
    :func:`verify`'s."""
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
            for chain in _chains(A, F, *linalg.filtration(A, F, mult, tol), tol):
                jordan_blocks.append(JordanBlockSpec(a, len(chain)))
                qp_cols.extend(chain)

    nilpotent_blocks: list[NilpotentBlockSpec] = []
    qq_cols: list[Matrix] = []
    if q > 0:
        if exact:
            walk, maps = pencil.wong_sequence, pencil.wong_maps
        else:
            walk, maps = linalg.filtration(F, G, q, tol)
        for chain in _chains(F, G, walk, maps, tol):
            nilpotent_blocks.append(NilpotentBlockSpec(len(chain)))
            qq_cols.extend(chain)

    q_p = hstack(qp_cols) if qp_cols else Matrix.zeros(n, 0, mode)
    q_q = hstack(qq_cols) if qq_cols else Matrix.zeros(n, 0, mode)
    jb, nb = tuple(jordan_blocks), tuple(nilpotent_blocks)

    # P = M^{-1} is forced; exact mode tests M only for rank
    fq_p, gq_q = F @ q_p, G @ q_q
    m = hstack([fq_p, gq_q])
    if exact:
        w = (WeierstrassDecomposition._inverse_of(m, q_p, q_q, jb, nb)
             if linalg.is_nonsingular(m) else None)
    else:
        try:
            w = WeierstrassDecomposition(linalg.inverse(m, tol), hstack([q_p, q_q]), jb, nb)
        except ValueError:
            w = None
    if w is None:
        raise ChainConstructionFailure("[F Q_p | G Q_q] is singular")

    if exact and G @ q_p == fq_p @ w.J_p and F @ q_q == gq_q @ w.H_q:
        return w, VerificationReport(Fraction(0), Fraction(0), True, True)
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
    pattern (:func:`_residual`).  They pass when both are 0 (exact mode)
    or at most ``tol`` (default ``linalg.DEFAULT_RANK_TOL``) times
    max(|F|, |G|, 1) with both products finite (float mode).  Only then
    are P and Q tested for rank under ``tol``; the two rank fields read
    None otherwise."""
    if w.n != pencil.n:
        raise ValueError("decomposition and pencil dimensions differ")
    F, G = pencil.F, pencil.G
    pfq, pgq = w.P @ F @ w.Q, w.P @ G @ w.Q
    res_f = _residual(pfq, [(1, 1)] * w.p + [(0, b.size) for b in w.nilpotent_blocks])
    res_g = _residual(pgq, [(b.eigenvalue, b.size) for b in w.jordan_blocks] + [(1, 1)] * w.q)
    if pencil.mode is Mode.EXACT:
        ok = res_f == 0 and res_g == 0
    else:
        # the residual scan, like max, passes over a NaN after a larger entry
        scale = float(max(abs(F.max_abs()), abs(G.max_abs()), 1.0))
        thr = (linalg.DEFAULT_RANK_TOL if tol is None else tol) * scale
        ok = (float(res_f) <= thr and float(res_g) <= thr
              and pfq.is_finite() and pgq.is_finite())
    if not ok:
        return VerificationReport(res_f, res_g, None, None)
    return VerificationReport(res_f, res_g, linalg.is_nonsingular(w.P, tol),
                              linalg.is_nonsingular(w.Q, tol))


def _residual(product: Matrix, blocks: list[tuple]) -> Fraction | float:
    """``(product - J).max_abs()`` for J the direct sum of the Jordan
    blocks ``blocks``, (eigenvalue, size) pairs.  It takes J's entries
    (:func:`_jordan_entries`) off a copy of the rows and builds no J; the
    scan is ``max_abs``'s, row-major, so a NaN counts where it would in
    ``product - J``."""
    n = sum(size for _, size in blocks)
    if product.shape != (n, n):
        raise ValueError(f"Jordan blocks of {n} rows do not fit {product.rows}x{product.cols}")
    rows = product.to_lists()
    for i, j, v in _jordan_entries(blocks):
        if v != 0:  # x - 0 has the magnitude of x
            rows[i][j] -= v
    return max(map(abs, chain.from_iterable(rows)),
               default=Fraction(0) if product.mode is Mode.EXACT else 0.0)
