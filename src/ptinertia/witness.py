"""Entanglement-witness checks for partial transposes of NPT states.

A witness here is a Hermitian W that is not positive semidefinite yet has
nonnegative expectation on every product vector.  The PT of an NPT state is
the canonical decomposable example: for every product vector
<a,b|rho^Gamma|a,b> = <a*,b|rho|a*,b> >= lambda_min(rho), so the product
clause follows from rho >= 0 (Peres-Horodecki).  is_witness certifies that
clause by checking rho >= 0, exactly over Q(i) when an exact view of rho is
given and against the float zero band otherwise; it decides both clauses on
the trace-normalized state, so a state's scale does not move its verdict,
and hands back the PT inertia it decided on with the verdict either way.
min_product_expectation, a multi-restart alternating minimiser, is a
diagnostic for an arbitrary W that decides no verdict; its value is only an
upper bound on the product minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .exact import ExactMatrix, exact_inertia
from .inertia import inertia_of
from .linalg import (TOL_RESID, TOL_ZERO, Inertia, herm_eig, max_abs, require_hermitian,
                     zero_band)
from .states import State, partial_transpose

DEFAULT_RESTARTS = 50
ITER_CAP = 500


class NotAWitness(ValueError):
    """is_witness's verdict on a valid call: this state's PT is not a witness.

    `inertia` is the PT inertia of the trace-normalized state it decided on.
    """

    def __init__(self, message: str, inertia: Inertia):
        super().__init__(message)
        self.inertia = inertia


@dataclass(frozen=True)
class Witness:
    m: int
    n: int
    mat: np.ndarray
    certified: Literal["exact", "float"]
    inertia: Inertia


def _random_unit(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _min_eigvec(mat: np.ndarray) -> tuple[float, np.ndarray]:
    dec = herm_eig(0.5 * (mat + mat.conj().T))
    return float(dec.values[0]), dec.vectors[:, 0]


def min_product_expectation(w: np.ndarray, m: int, n: int,
                            restarts: int = DEFAULT_RESTARTS,
                            seed: int = 0):
    """Approximate min of <a,b|W|a,b> over unit product vectors.

    Alternating eigenvector iteration: with a fixed, the optimal b is the
    bottom eigenvector of the n x n effective matrix (a (x) I)^dag W (a (x) I),
    and symmetrically for a, each contracted from W[i, j, k, l] = <i,j|W|k,l>.
    Each restart draws its own generator from (seed, restart index), so the
    result is deterministic and independent of evaluation order.  The value
    is an upper bound on the true minimum.  A restart stops after ITER_CAP
    sweeps.  With restarts < 1 no product vector would be tried, and a
    negative seed names no generator: either raises ValueError.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    w = np.asarray(w, dtype=complex)
    scale = require_hermitian(w)
    if w.shape != (m * n, m * n):
        raise ValueError(f"matrix shape {w.shape} does not match dims ({m},{n})")
    tol = 1e-12 * max(1.0, scale)
    w4 = w.reshape(m, n, m, n)
    best_val = np.inf
    best_pair = None
    for restart in range(restarts):
        rng = np.random.default_rng((seed, restart))
        a = _random_unit(rng, m)
        b = _random_unit(rng, n)
        value = np.inf
        for _ in range(ITER_CAP):
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


def is_witness(state: State, tol_zero: float = TOL_ZERO,
               exact: ExactMatrix | None = None) -> Witness:
    """Return the PT of a trace-normalized NPT state as a certified witness.

    Both clauses are decided on rho, the trace-normalized state, so the
    verdict does not change with the state's scale: the zero band
    tol_zero * max(1, max|lambda|) has an absolute floor, which a state
    scaled far below unit trace would fall inside.  The NPT clause needs at
    least one negative eigenvalue of rho's PT.  The product clause is
    certified from rho >= 0: with `exact`, an ExactMatrix of the same
    state, by exact_inertia(exact).neg == 0 (certified="exact"); otherwise
    by lambda_min(rho) >= -zero_band(spectrum, tol_zero) (certified="float").
    The exact view must match the state's matrix to within
    TOL_RESID * max|rho_ij|, with no absolute floor.  A PPT or non-PSD input
    raises NotAWitness.  The returned Witness holds rho's PT as `mat` and
    its inertia as `inertia`; a NotAWitness carries that inertia too.
    """
    rho = state.normalized()
    gamma = partial_transpose(rho)
    ine = inertia_of(gamma, tol_zero)
    if ine.neg < 1:
        raise NotAWitness(f"state is PPT (inertia {ine}); its PT is not a witness", ine)
    # inertia_of has checked that the PT, and so rho, is Hermitian
    values = np.linalg.eigvalsh(rho.mat)
    if exact is None:
        certified = "float"
        psd = values[0] >= -zero_band(values, tol_zero)
    else:
        certified = "exact"
        if exact.shape != state.mat.shape or (
                max_abs(exact.float_view() - state.mat)
                > TOL_RESID * max_abs(state.mat)):
            raise ValueError("exact view does not match the state's matrix")
        psd = exact_inertia(exact).neg == 0
    if not psd:
        raise NotAWitness(f"state is not PSD ({certified} check, smallest eigenvalue "
                          f"{values[0]:.3e}); its PT is not a witness", ine)
    return Witness(state.m, state.n, gamma, certified, ine)
