"""Bipartite states: construction, partial transpose, Schmidt analysis, sampling.

Composite indices are row-major over (A-index, B-index): the basis vector
|i,j> on dims (m,n) sits at position i*n + j.  All displayed reference
matrices in the catalog pin this convention down.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Literal, Sequence

import numpy as np

from .linalg import TOL_ZERO, max_abs, require_hermitian, require_invertible

SCHMIDT_TOL = 1e-10
ENSEMBLES = ("real", "complex", "structured")


@dataclass(frozen=True)
class State:
    """A (not necessarily normalized) bipartite PSD matrix with local dims."""

    m: int
    n: int
    mat: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"local dimensions must be >= 1, got ({self.m},{self.n})")
        mat = np.asarray(self.mat, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dims ({self.m},{self.n})"
            )
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.m * self.n

    def scaled(self, factor: float) -> "State":
        return State(self.m, self.n, factor * self.mat)

    def normalized(self) -> "State":
        tr = float(np.real(np.trace(self.mat)))
        if tr <= 0:
            raise ValueError("state has non-positive trace")
        return self.scaled(1.0 / tr)


def validate_state(state: State, tol: float = 1e-10) -> None:
    """Check Hermiticity, positive trace, and PSD-ness up to tolerance."""
    require_hermitian(state.mat)
    tr = float(np.real(np.trace(state.mat)))
    if tr <= 0:
        raise ValueError(f"state trace {tr} is not positive")
    lo = float(np.linalg.eigvalsh(state.mat)[0])
    if lo < -tol * max(1.0, max_abs(state.mat)):
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")


def ket_vector(m: int, n: int, terms: Sequence[tuple[complex, int, int]]) -> np.ndarray:
    """Amplitude vector of sum_k c_k |i_k, j_k> on dims (m, n)."""
    vec = np.zeros(m * n, dtype=complex)
    for coef, i, j in terms:
        if not (0 <= i < m and 0 <= j < n):
            raise ValueError(f"ket index ({i},{j}) out of range for dims ({m},{n})")
        vec[i * n + j] += complex(coef)
    return vec


def pt_array(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """Partial transpose on system A of an (m*n) x (m*n) matrix."""
    mat = np.asarray(mat)
    d = m * n
    if mat.shape != (d, d):
        raise ValueError(f"matrix shape {mat.shape} does not match dims ({m},{n})")
    return mat.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(d, d)


def partial_transpose(state: State) -> np.ndarray:
    return pt_array(state.mat, state.m, state.n)


@dataclass(frozen=True)
class SchmidtDecomposition:
    coefficients: np.ndarray  # descending, length min(m, n)
    basis_a: np.ndarray  # columns are the A-side vectors
    basis_b: np.ndarray  # rows are the B-side vectors
    rank: int


def schmidt(psi: np.ndarray, m: int, n: int, tol: float = SCHMIDT_TOL) -> SchmidtDecomposition:
    """Schmidt decomposition of a pure bipartite vector via SVD.

    psi = sum_k c_k |a_k> x |b_k| with c_k the singular values of the m x n
    matricization; rank counts c_k > tol * c_max.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != m * n:
        raise ValueError(f"vector length {psi.shape[0]} does not match dims ({m},{n})")
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("cannot Schmidt-decompose the zero vector")
    u, s, vh = np.linalg.svd(psi.reshape(m, n), full_matrices=False)
    rank = int((s > tol * s[0]).sum())
    return SchmidtDecomposition(coefficients=s, basis_a=u, basis_b=vh, rank=rank)


def schmidt_rank(psi: np.ndarray, m: int, n: int, tol: float = SCHMIDT_TOL) -> int:
    return schmidt(psi, m, n, tol).rank


def dm_from_kets(kets: Sequence[np.ndarray], weights: Sequence[float] | None = None,
                 m: int | None = None, n: int | None = None) -> State:
    """Density matrix sum_i w_i |psi_i><psi_i| from amplitude vectors."""
    if not kets:
        raise ValueError("at least one ket is required")
    if m is None or n is None:
        raise ValueError("local dims (m, n) are required")
    if weights is None:
        weights = [1.0] * len(kets)
    if len(weights) != len(kets):
        raise ValueError("kets and weights differ in length")
    d = m * n
    out = np.zeros((d, d), dtype=complex)
    for w, psi in zip(weights, kets):
        if w <= 0:
            raise ValueError(f"weights must be positive, got {w}")
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        if psi.shape[0] != d:
            raise ValueError("ket dimension mismatch")
        out += w * np.outer(psi, psi.conj())
    return State(m, n, out)


def trace_out_b(state: State) -> np.ndarray:
    """Reduced matrix on A: rho_A[i,j] = sum_k rho[(i,k),(j,k)]."""
    return np.trace(state.mat.reshape(state.m, state.n, state.m, state.n),
                    axis1=1, axis2=3)


def trace_out_a(state: State) -> np.ndarray:
    return np.trace(state.mat.reshape(state.m, state.n, state.m, state.n),
                    axis1=0, axis2=2)


def local_ranks(state: State, tol_zero: float = TOL_ZERO) -> tuple[int, int]:
    """Ranks of both reduced matrices, with the shared zero tolerance."""

    def rank_of(red: np.ndarray) -> int:
        vals = np.linalg.eigvalsh(red)
        t = tol_zero * max(1.0, float(np.abs(vals).max()))
        return int((np.abs(vals) > t).sum())

    return rank_of(trace_out_b(state)), rank_of(trace_out_a(state))


def apply_slocc(state: State, a: np.ndarray, b: np.ndarray) -> State:
    """Congruence by the product operator A x B (both invertible)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (state.m, state.m) or b.shape != (state.n, state.n):
        raise ValueError("local operator shapes do not match state dims")
    require_invertible(a)
    require_invertible(b)
    op = np.kron(a, b)
    return State(state.m, state.n, op @ state.mat @ op.conj().T)


def random_state(m: int, n: int, rank: int,
                 ensemble: Literal["real", "complex", "structured"] = "real",
                 seed=0) -> State:
    """Wishart-style random state rho = R R^dagger / tr, reproducible by seed.

    R is (m*n) x rank with i.i.d. standard normal entries (real or complex).
    The "structured" ensemble zeroes the A=0 block of R, so the resulting
    state is unsupported on that row and every |0,y> lies in the kernel of
    the partial transpose.  `seed` may be an int or a tuple fed to numpy's
    SeedSequence, which makes disjoint per-sample streams trivial, or a
    numpy Generator, which is drawn from in sequence: consecutive calls on
    one Generator give consecutive states of its stream.
    """
    d = m * n
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    if ensemble == "real":
        r = rng.standard_normal((d, rank))
    elif ensemble == "complex":
        r = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(2)
    elif ensemble == "structured":
        if m < 2:
            raise ValueError("structured ensemble needs m >= 2")
        r = rng.standard_normal((d, rank))
        r[:n, :] = 0.0
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    mat = r @ r.conj().T
    tr = float(np.real(np.trace(mat)))
    return State(m, n, mat / tr)


def _quadratic_roots(a: complex, b: complex, c: complex, tol: float) -> list[np.ndarray]:
    """Projective roots (x:y) of a x^2 + b xy + c y^2 = 0, as unit 2-vectors."""
    if abs(a) > tol:
        disc = np.sqrt(complex(b * b - 4 * a * c))
        roots = [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
        pts = [np.array([t, 1.0], dtype=complex) for t in roots]
    elif abs(b) > tol:
        pts = [np.array([1.0, 0.0], dtype=complex), np.array([-c / b, 1.0], dtype=complex)]
    else:
        pts = [np.array([1.0, 0.0], dtype=complex)]
    return [p / np.linalg.norm(p) for p in pts]


def pencil_rank1(u: np.ndarray, v: np.ndarray, tol: float = 1e-12,
                 match_tol: float = 1e-8):
    """Points (x:y) where x*U + y*V drops to rank <= 1, or "infinite".

    Each 2x2 minor of x*U + y*V is a binary quadratic in (x, y); the rank-one
    locus is the common projective root set.  When every minor vanishes
    identically the whole pencil has rank <= 1 and the answer is "infinite".
    Returns a list of (x, y) pairs (unit-normalized, first nonzero component
    made real positive) otherwise.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2:
        raise ValueError("U and V must be matrices of equal shape")
    stack = np.stack([u.reshape(-1), v.reshape(-1)])
    if np.linalg.matrix_rank(stack, tol=1e-10 * max(1.0, max_abs(stack))) < 2:
        raise ValueError("U and V must be linearly independent")
    scale = max(max_abs(u), max_abs(v)) ** 2
    quads = []
    rows, cols = u.shape
    for p, q in combinations(range(rows), 2):
        for r, s in combinations(range(cols), 2):
            a = u[p, r] * u[q, s] - u[p, s] * u[q, r]
            b = (u[p, r] * v[q, s] + v[p, r] * u[q, s]
                 - u[p, s] * v[q, r] - v[p, s] * u[q, r])
            c = v[p, r] * v[q, s] - v[p, s] * v[q, r]
            if max(abs(a), abs(b), abs(c)) > tol * scale:
                quads.append((a, b, c))
    if not quads:
        return "infinite"
    candidates = _quadratic_roots(*quads[0], tol=tol * scale)
    points: list[np.ndarray] = []
    for pt in candidates:
        value = max(abs(a * pt[0] ** 2 + b * pt[0] * pt[1] + c * pt[1] ** 2)
                    for a, b, c in quads)
        if value > match_tol * scale:
            continue
        # canonical phase: first nonzero component real positive
        lead = pt[0] if abs(pt[0]) > match_tol else pt[1]
        pt = pt * (abs(lead) / lead)
        if not any(abs(abs(np.vdot(pt, known)) - 1.0) < match_tol for known in points):
            points.append(pt)
    return [(p[0], p[1]) for p in points]
