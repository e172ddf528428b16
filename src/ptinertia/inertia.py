"""Inertia analysis of partial transposes: classification and transforms."""

from __future__ import annotations

from typing import NamedTuple

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


def negativity(state: State, tol_zero: float = TOL_ZERO) -> float:
    """Sum of |lambda| over negative eigenvalues of the PT, at unit trace."""
    gamma = partial_transpose(state.normalized())
    vals = herm_eig(gamma).values
    return float(-vals[vals < -zero_band(vals, tol_zero)].sum())


class PptVerdict(NamedTuple):
    label: str  # "NPT" or "PPT"
    marginal: bool


def classify_ppt(state: State, tol_zero: float = TOL_ZERO) -> PptVerdict:
    """NPT iff the partial transpose has at least one negative eigenvalue."""
    ine, marginal = pt_inertia(state, tol_zero, with_flag=True)
    return PptVerdict("NPT" if ine.neg >= 1 else "PPT", marginal)


def pure_inertia(r: int, m: int, n: int) -> Inertia:
    """PT inertia of a pure state with Schmidt rank r on dims (m, n)."""
    if not 1 <= r <= min(m, n):
        raise ValueError(f"Schmidt rank {r} out of range for dims ({m},{n})")
    return Inertia((r * r - r) // 2, m * n - r * r, (r * r + r) // 2)


def shift_identity(state: State, tol_zero: float = TOL_ZERO) -> tuple[State, float]:
    """Add x*I to lift all PT zeros: (a,b,c) becomes (a,0,b+c).

    x is half the magnitude of the PT eigenvalue closest to zero from below,
    strictly inside (0, min|negative eigenvalue|), so negatives stay negative
    while zeros move up.  Requires an NPT input; the shifted state stays PSD
    and NPT.
    """
    vals = herm_eig(partial_transpose(state)).values
    negs = vals[vals < -zero_band(vals, tol_zero)]
    if negs.size == 0:
        raise ValueError("shift_identity requires an NPT state (no negative PT eigenvalue)")
    x = 0.5 * float(np.abs(negs).min())
    return State(state.m, state.n, state.mat + x * np.eye(state.dim)), x


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


class UpdateOutcome(NamedTuple):
    case: int  # 1, 2, or 3
    inertia: Inertia
    rank_p: int
    rank_q: int


def rank_one_update_check(state: State, a_vec: np.ndarray, b_vec: np.ndarray,
                          tol_zero: float = TOL_ZERO) -> UpdateOutcome:
    """Check the rank-one-update trichotomy for PT plus a product projector.

    Writes the PT as P - Q (orthogonal positive/negative parts with ranks
    p, q read off the spectrum at tol_zero) and requires |a,b> to lie in the
    range of the PT, to a relative residual of 1e-8.  Adding |a,b><a,b| must
    land on one of three triples, with d the total dimension:

        case 1: (q,     d - p - q,     p)
        case 2: (q - 1, d - p - q,     p + 1)
        case 3: (q - 1, d + 1 - p - q, p)

    Returns which case occurred; anything else raises, since it would
    falsify the trichotomy.
    """
    gamma = partial_transpose(state)
    dec = herm_eig(gamma)
    d = gamma.shape[0]
    tau = zero_band(dec.values, tol_zero)
    rank_p = int((dec.values > tau).sum())
    rank_q = int((dec.values < -tau).sum())

    ab = np.kron(np.asarray(a_vec, dtype=complex), np.asarray(b_vec, dtype=complex))
    norm = np.linalg.norm(ab)
    if norm == 0:
        raise ValueError("product vector must be nonzero")
    support = dec.vectors[:, np.abs(dec.values) > tau]
    resid = np.linalg.norm(ab - support @ (support.conj().T @ ab)) / norm
    if resid > 1e-8:
        raise ValueError(
            f"|a,b> is not in the range of the partial transpose (residual {resid:.3e})"
        )

    got = inertia_of(gamma + np.outer(ab, ab.conj()), tol_zero)
    cases = {
        1: Inertia(rank_q, d - rank_p - rank_q, rank_p),
        2: Inertia(rank_q - 1, d - rank_p - rank_q, rank_p + 1),
        3: Inertia(rank_q - 1, d + 1 - rank_p - rank_q, rank_p),
    }
    for case, triple in cases.items():
        if got == triple:
            return UpdateOutcome(case, got, rank_p, rank_q)
    raise AssertionError(
        f"rank-one update produced {got}, outside the trichotomy {list(cases.values())}"
    )
