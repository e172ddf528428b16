"""Entanglement-witness checks for partial transposes of NPT states.

A witness here is a Hermitian W that is not positive semidefinite yet has
nonnegative expectation on every product vector.  The PT of an NPT state is
the canonical decomposable example; min_product_expectation provides the
(heuristic but multi-restart) product-vector minimum used to validate the
second clause.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inertia import pt_inertia
from .linalg import TOL_ZERO, herm_eig, max_abs, require_hermitian
from .states import State, partial_transpose

EW_TOL = 1e-7
DEFAULT_RESTARTS = 50
ITER_CAP = 500


@dataclass(frozen=True)
class Witness:
    m: int
    n: int
    mat: np.ndarray


def _random_unit(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _min_eigvec(mat: np.ndarray) -> tuple[float, np.ndarray]:
    dec = herm_eig(0.5 * (mat + mat.conj().T))
    return float(dec.values[0]), dec.vectors[:, 0]


def min_product_expectation(w: np.ndarray, m: int, n: int,
                            restarts: int = DEFAULT_RESTARTS,
                            seed: int = 0,
                            iter_cap: int = ITER_CAP):
    """Approximate min of <a,b|W|a,b> over unit product vectors.

    Alternating eigenvector iteration: with a fixed, the optimal b is the
    bottom eigenvector of the n x n effective matrix (a (x) I)^dag W (a (x) I),
    and symmetrically for a, each contracted from W[i, j, k, l] = <i,j|W|k,l>.
    Each restart draws its own generator from (seed, restart index), so the
    result is deterministic and independent of evaluation order.  The value
    is an upper bound on the true minimum.
    """
    w = np.asarray(w, dtype=complex)
    require_hermitian(w)
    if w.shape != (m * n, m * n):
        raise ValueError(f"matrix shape {w.shape} does not match dims ({m},{n})")
    tol = 1e-12 * max(1.0, max_abs(w))
    w4 = w.reshape(m, n, m, n)
    best_val = np.inf
    best_pair = None
    for restart in range(restarts):
        rng = np.random.default_rng((seed, restart))
        a = _random_unit(rng, m)
        b = _random_unit(rng, n)
        value = np.inf
        for _ in range(iter_cap):
            val_b, b = _min_eigvec(np.einsum("i,ijkl,k->jl", a.conj(), w4, a))
            val_a, a = _min_eigvec(np.einsum("j,ijkl,l->ik", b.conj(), w4, b))
            if abs(value - val_a) <= tol:
                value = val_a
                break
            value = val_a
        if value < best_val:
            best_val = value
            best_pair = (a.copy(), b.copy())
    return best_val, best_pair


def is_witness(state: State, tol_zero: float = TOL_ZERO, ew_tol: float = EW_TOL,
               restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> Witness:
    """Return the PT of a trace-normalized NPT state as a validated witness.

    Checks both clauses: at least one negative eigenvalue, and product-vector
    expectations bounded below by -ew_tol.  PPT input or a product minimum
    below the tolerance is rejected.
    """
    gamma = partial_transpose(state.normalized())
    ine = pt_inertia(state, tol_zero)
    if ine.neg < 1:
        raise ValueError(f"state is PPT (inertia {ine}); its PT is not a witness")
    value, _ = min_product_expectation(gamma, state.m, state.n,
                                       restarts=restarts, seed=seed)
    if value < -ew_tol:
        raise ValueError(
            f"product-vector minimum {value:.3e} below -{ew_tol:.1e}; not a witness"
        )
    return Witness(state.m, state.n, gamma)


def compress(w: np.ndarray, proj: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Two-sided compression P W P by an orthogonal projector."""
    w = np.asarray(w, dtype=complex)
    proj = np.asarray(proj, dtype=complex)
    if proj.shape != w.shape:
        raise ValueError("projector shape must match the matrix")
    scale = max(1.0, max_abs(proj))
    if max_abs(proj @ proj - proj) > tol * scale or max_abs(proj - proj.conj().T) > tol * scale:
        raise ValueError("P is not an orthogonal projector within tolerance")
    return proj @ w @ proj


def corner_projector(m: int, n: int, keep_a, keep_b) -> np.ndarray:
    """Diagonal product projector selecting A-levels keep_a and B-levels keep_b."""
    pa = np.zeros((m, m))
    for i in keep_a:
        pa[i, i] = 1.0
    pb = np.zeros((n, n))
    for j in keep_b:
        pb[j, j] = 1.0
    return np.kron(pa, pb)
