"""Reference code that the tests check ptinertia against, and no command runs.

The pure-state inertia formula, the identity shift, the rank-one-update
trichotomy and the ex11 closed-form spectrum back the acceptance criteria;
negativity, classify_ppt and validate_state are the tests' own checks of a
state.  Each is built on the package's linalg, states and inertia functions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ptinertia.inertia import inertia_of, pt_inertia
from ptinertia.linalg import Inertia, TOL_ZERO, herm_eig, require_hermitian, zero_band
from ptinertia.states import State, partial_transpose


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


def ex11_closed_form(a: complex, b: complex) -> np.ndarray:
    """Closed-form PT spectrum of the ex11 family, ascending.

    Six constant eigenvalues -1,-1,1,1,1,1 together with the three real roots
    of  x^3 + (-1-|a|^2-|b|^2) x^2 + (-1+|b|^2) x + (1+|a|^2),  computed by a
    cubic solver.  The Vieta identities (root sum 1+|a|^2+|b|^2, root product
    -1-|a|^2) are asserted to 1e-10 as a sanity check.
    """
    aa = abs(complex(a)) ** 2
    bb = abs(complex(b)) ** 2
    coeffs = [1.0, -1.0 - aa - bb, -1.0 + bb, 1.0 + aa]
    roots = np.roots(coeffs)
    if np.abs(roots.imag).max() > 1e-9 * max(1.0, np.abs(roots).max()):
        raise RuntimeError(f"cubic produced non-real roots: {roots}")
    roots = np.sort(roots.real)
    scale = max(1.0, np.abs(roots).max())
    if abs(roots.sum() - (1.0 + aa + bb)) > 1e-10 * scale:
        raise RuntimeError("cubic root sum violates the Vieta identity")
    if abs(np.prod(roots) + 1.0 + aa) > 1e-10 * scale ** 3:
        raise RuntimeError("cubic root product violates the Vieta identity")
    return np.sort(np.concatenate([[-1.0, -1.0, 1.0, 1.0, 1.0, 1.0], roots]))


def validate_state(state: State) -> None:
    """Check Hermiticity, positive trace, and lambda_min >= -1e-10 * max|rho_ij|."""
    scale = require_hermitian(state.mat)
    tr = float(np.real(np.trace(state.mat)))
    if tr <= 0:
        raise ValueError(f"state trace {tr} is not positive")
    lo = float(np.linalg.eigvalsh(state.mat)[0])
    if lo < -1e-10 * scale:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
