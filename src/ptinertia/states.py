"""Bipartite states: construction, partial transpose, Schmidt analysis, sampling.

Composite indices are row-major over (A-index, B-index): the basis vector
|i,j> on dims (m,n) sits at position i*n + j.  All displayed reference
matrices in the catalog pin this convention down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .exact import ExactMatrix

SCHMIDT_TOL = 1e-10
ENSEMBLES = ("real", "complex", "structured")
# multiplying by this is how numpy divides a complex by np.sqrt(2), bit for bit;
# np.sqrt(0.5) differs from it in the last bit
_INV_SQRT2 = 1 / np.sqrt(2)
_COMPLEX = np.dtype(complex)


@dataclass(frozen=True)
class State:
    """A (not necessarily normalized) bipartite PSD matrix with local dims."""

    m: int
    n: int
    mat: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"local dimensions must be >= 1, got ({self.m},{self.n})")
        mat, d = self.mat, self.m * self.n
        # a complex ndarray is kept as it is: no second pass over a random_state matrix
        if type(mat) is not np.ndarray or mat.dtype is not _COMPLEX:
            mat = np.asarray(mat, dtype=complex)
            object.__setattr__(self, "mat", mat)
        if mat.shape != (d, d):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dims ({self.m},{self.n})"
            )

    @property
    def dim(self) -> int:
        return self.m * self.n

    def scaled(self, factor: float) -> "State":
        return State(self.m, self.n, factor * self.mat)

    def normalized(self) -> "State":
        # the diagonal of a finite matrix can sum past the float range
        with np.errstate(over="ignore"):
            tr = float(np.real(np.trace(self.mat)))
        if tr <= 0:
            raise ValueError("state has non-positive trace")
        if tr == np.inf:
            raise ValueError("state trace overflows the float range")
        return self.scaled(1.0 / tr)


def ket_vector(m: int, n: int, terms: Sequence[tuple[complex, int, int]]) -> np.ndarray:
    """Amplitude vector of sum_k c_k |i_k, j_k> on dims (m, n)."""
    vec = np.zeros(m * n, dtype=complex)
    for coef, i, j in terms:
        if not (0 <= i < m and 0 <= j < n):
            raise ValueError(f"ket index ({i},{j}) out of range for dims ({m},{n})")
        vec[i * n + j] += complex(coef)
    return vec


def pt_array(mat, m: int, n: int):
    """Partial transpose on system A of an (m*n) x (m*n) array or ExactMatrix.

    An ExactMatrix's two numerator arrays are transposed alike.
    """
    if isinstance(mat, ExactMatrix):
        return ExactMatrix(pt_array(mat.re, m, n), pt_array(mat.im, m, n), mat.den)
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


def schmidt(psi: np.ndarray, m: int, n: int) -> SchmidtDecomposition:
    """Schmidt decomposition of a pure bipartite vector via SVD.

    psi = sum_k c_k |a_k> x |b_k| with c_k the singular values of the m x n
    matricization; rank counts c_k > SCHMIDT_TOL * c_max.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != m * n:
        raise ValueError(f"vector length {psi.shape[0]} does not match dims ({m},{n})")
    if not psi.any():
        raise ValueError("cannot Schmidt-decompose the zero vector")
    u, s, vh = np.linalg.svd(psi.reshape(m, n), full_matrices=False)
    rank = int((s > SCHMIDT_TOL * s[0]).sum())
    return SchmidtDecomposition(coefficients=s, basis_a=u, basis_b=vh, rank=rank)


def dm_from_kets(kets: Sequence[np.ndarray], weights: Sequence[float], m: int, n: int) -> State:
    """Density matrix sum_i w_i |psi_i><psi_i| on dims (m, n) from amplitude vectors."""
    if not kets:
        raise ValueError("at least one ket is required")
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


def random_state(m: int, n: int, rank: int,
                 ensemble: Literal["real", "complex", "structured"] = "real",
                 seed=0) -> State:
    """Wishart-style random state rho = R R^dagger / tr, reproducible by seed.

    R is (m*n) x rank with i.i.d. standard normal entries (real or complex).
    A complex R takes its d*rank real parts, then its d*rank imaginary parts,
    from one draw of 2*d*rank normals, each scaled by 1/sqrt(2); search's
    block generator skips earlier samples on that count.  The "structured"
    ensemble zeroes the A=0 block of R, so the resulting state is
    unsupported on that row and every |0,y> lies in the kernel of the
    partial transpose.  `seed` may be an int or a tuple fed to numpy's
    SeedSequence, which makes disjoint per-sample streams trivial, or a
    numpy Generator, which is drawn from in sequence: consecutive calls on
    one Generator give consecutive states of its stream.
    """
    d = m * n
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    if ensemble == "complex":
        z = rng.standard_normal((2, d, rank))
        z *= _INV_SQRT2
        r = np.empty((d, rank), dtype=complex)
        r.real = z[0]
        r.imag = z[1]
        mat = r @ r.conj().T
        # add.reduce of the diagonal is the complex sum ndarray.trace takes; numpy
        # divides a complex by a real as a multiply by its reciprocal
        mat *= 1.0 / np.add.reduce(mat.diagonal()).real
        return State(m, n, mat)
    if ensemble == "real":
        r = rng.standard_normal((d, rank))
    elif ensemble == "structured":
        if m < 2:
            raise ValueError("structured ensemble needs m >= 2")
        r = rng.standard_normal((d, rank))
        r[:n, :] = 0.0
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    mat = r @ r.T  # r.conj() of a real array is r itself
    # a real one is divided in place, since its reciprocal's multiply differs, then cast once
    mat /= np.add.reduce(mat.diagonal())
    return State(m, n, mat.astype(complex))
