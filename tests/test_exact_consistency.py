"""An exact referee for ``check_consistency`` from F, G, B and the inputs
alone, without the canonical form.

In Weierstrass coordinates the backward part steps as
H_q Z^q_{k+1} = Z^q_k + B_q V_k with H_q nilpotent of index q*, so over
N >= q* steps Z^q_{k0} is forced by V_{k0} .. V_{k0+N-1} and Z^p_{k0} is
free.  Hence y0 is consistent exactly when the stacked step equations

    F Y_{k+1} - G Y_k = B V_k,   k = k0 .. k0 + N - 1,   Y_{k0} = y0,

have a solution Y_{k0+1} .. Y_{k0+N}.  When they have none, a row lambda
with lambda A = 0 and lambda b != 0 proves it (Farkas' lemma over Q).  The
referee takes N = max(q*, 1); q* is the largest size of an infinite
elementary divisor of sF - G, an invariant of the pencil, so the
equations read no basis of the decomposition.  Each verdict comes with its
certificate, a solution x or such a row lambda, checked over ``Fraction``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkit import Matrix, check_consistency, linalg
from dkit.scalars import Mode

from helpers import consistent_y0, matrix_power, random_descriptor, random_signal

KINDS = ("generic", "state_causal", "output_causal_only")


def _dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def _stacked_steps(sysm, signal, y0: Matrix, steps: int):
    """A and b of the stacked step equations, ``Fraction`` entries, over
    the unknowns [Y_{k0+1}; ..; Y_{k0+steps}]: row block t holds
    F Y_{k0+t+1} - G Y_{k0+t} = B V_{k0+t}, with G y0 moved to b at t = 0."""
    n = sysm.n
    f, g, b = sysm.F.to_lists(), sysm.G.to_lists(), sysm.B.to_lists()
    y = y0.column_list()
    a_rows, rhs = [], []
    for t in range(steps):
        v = signal.sample(signal.k0 + t).column_list()
        for i in range(n):
            row = [Fraction(0)] * (n * steps)
            row[t * n:(t + 1) * n] = f[i]
            if t:
                row[(t - 1) * n:t * n] = [-x for x in g[i]]
            a_rows.append(row)
            rhs.append(_dot(b[i], v) + (_dot(g[i], y) if t == 0 else 0))
    return a_rows, rhs


def stacked_step_verdict(a, signal, y0: Matrix) -> bool:
    """Whether ``y0`` is consistent, on the stacked step equations with
    N = max(q*, 1), with its certificate checked: a solution x of A x = b,
    or a row lambda of ``kernel_basis(A^T)`` with lambda A = 0 and
    lambda b != 0."""
    a_rows, b = _stacked_steps(a.system, signal, y0, max(a.w.q_star, 1))
    mat = Matrix(a_rows, Mode.EXACT)
    x = linalg.solve(mat, Matrix.column(b, Mode.EXACT))
    if x is not None:
        x = x.column_list()
        assert [_dot(row, x) for row in a_rows] == b
        return True
    lam = next((lam for lam in zip(*linalg.kernel_basis(mat.T).to_lists()) if _dot(lam, b)),
               None)
    assert lam is not None, "A x = b has no solution and no row of the left kernel proves it"
    assert all(_dot(lam, col) == 0 for col in zip(*a_rows))
    return False


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), l=st.integers(1, 2),
       k0=st.integers(-3, 3))
def test_check_consistency_matches_the_stacked_step_equations(kind, seed, n, l, k0):
    rng = random.Random(seed)
    a = random_descriptor(rng, n, l, 1, min_q=1, plant=kind)
    w = a.w
    sig = random_signal(rng, l, k0, w.q_star + 1)
    good = consistent_y0(rng, a, sig)
    assert check_consistency(a, sig, good).consistent
    assert stacked_step_verdict(a, sig, good)
    # Q_q u, u = H_q^s r != 0, moves Z^q_{k0} off its forced value; r has no
    # zero entry, so u != 0 for s < q*, and only N > s steps can see it
    r = Matrix.column([rng.choice([1, 2, -1]) for _ in range(w.q)], Mode.EXACT)
    u = matrix_power(w.H_q, rng.randrange(w.q_star)) @ r
    bad = good + w.Q_q @ u
    assert not check_consistency(a, sig, bad).consistent
    assert not stacked_step_verdict(a, sig, bad)
