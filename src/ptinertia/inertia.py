"""Inertia of a Hermitian matrix and of a partial transpose, and the embed lift."""

from __future__ import annotations

import numpy as np

from .linalg import Inertia, TOL_ZERO, herm_eig, spectrum_inertia, zero_band
from .states import State, partial_transpose


def inertia_of(mat: np.ndarray, tol_zero: float = TOL_ZERO, *,
               with_flag: bool = False):
    """Inertia triple of a Hermitian matrix.

    Eigenvalues below -tau, within [-tau, tau], above tau are counted as
    negative, zero, positive, with tau the zero band of linalg.zero_band.
    With ``with_flag=True`` also returns the marginal-spectrum flag raised
    when any eigenvalue sits close enough to tau to make the classification
    tolerance-sensitive.
    """
    dec = herm_eig(mat)
    ine, marginal = spectrum_inertia(dec.values, tol_zero)
    return (ine, marginal) if with_flag else ine


def pt_inertia(state: State, tol_zero: float = TOL_ZERO, *, with_flag: bool = False):
    """Inertia of the partial transpose of a state."""
    return inertia_of(partial_transpose(state), tol_zero, with_flag=with_flag)


def embed(state: State, m2: int, n2: int, lift: int, *,
          lift_kernel: bool = True, tol_zero: float = TOL_ZERO) -> State:
    """Embed a state on (m1,n1) into (m2,n2), lifting `lift` new basis states.

    The input occupies the |i,j> block with i < m1, j < n1; `lift` of the
    m2*n2 - m1*n1 product basis states outside that block get a small
    diagonal weight eps (their own partial transpose), each contributing one
    positive eigenvalue to the PT.  With ``lift_kernel=True`` (default) the
    in-block PT zeros are first lifted by an identity shift on the block, so
    an input PT inertia (a,b,c) yields exactly

        (a, m2*n2 - m1*n1 - lift, b + c + lift).

    With ``lift_kernel=False`` the block is embedded as-is and the result is
    (a, b + m2*n2 - m1*n1 - lift, c + lift).

    eps is 1e-3 times the smallest nonzero PT eigenvalue magnitude.  A
    result off the formula, or marginal, raises RuntimeError: a smaller eps
    would only move the lifted eigenvalues toward the zero band.
    """
    m1, n1 = state.m, state.n
    if m1 > m2 or n1 > n2:
        raise ValueError(f"target dims ({m2},{n2}) must dominate ({m1},{n1})")
    extra = m2 * n2 - m1 * n1
    if not 0 <= lift <= extra:
        raise ValueError(f"lift must be in [0, {extra}], got {lift}")

    vals = herm_eig(partial_transpose(state)).values
    (a, b, c), _ = spectrum_inertia(vals, tol_zero)
    nonzero = np.abs(vals)[np.abs(vals) > zero_band(vals, tol_zero)]
    if nonzero.size == 0:
        raise ValueError("cannot embed a state whose PT is identically zero")
    eps = 1e-3 * float(nonzero.min())

    if lift_kernel:
        expected = Inertia(a, extra - lift, b + c + lift)
    else:
        expected = Inertia(a, b + extra - lift, c + lift)

    block = np.zeros((m2 * n2, m2 * n2), dtype=complex)
    block.reshape(m2, n2, m2, n2)[:m1, :n1, :m1, :n1] = state.mat.reshape(m1, n1, m1, n1)
    # the first `lift` outside states, plus the block's own diagonal when its
    # zeros are lifted (without disturbing signs); the indices are disjoint,
    # so the fancy += below adds eps once to each
    lifted = [i * n2 + j for i in range(m2) for j in range(n2)
              if i >= m1 or j >= n1][:lift]
    if lift_kernel and b > 0:
        lifted += [i * n2 + j for i in range(m1) for j in range(n1)]
    block[lifted, lifted] += eps
    out = State(m2, n2, block)
    got, marginal = pt_inertia(out, tol_zero, with_flag=True)
    if got != expected or marginal:
        raise RuntimeError(f"embed missed {expected}: got {got}, marginal={marginal}")
    return out
