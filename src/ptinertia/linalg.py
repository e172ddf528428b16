"""Dense Hermitian linear algebra: eigendecomposition and inertia counting.

Everything here works on plain complex numpy arrays.  Matrices are small
(dimension a few tens at most), so robustness and validation win over speed.
The zero-band rule is written once, in zero_band; every caller that sorts
eigenvalues into zero and nonzero asks it or spectrum_inertia.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Default relative tolerance for classifying an eigenvalue as zero.
TOL_ZERO = 1e-9
# Hermiticity acceptance tolerance (relative to the largest entry).
TOL_HERM = 1e-12
# Validation bound for eigendecomposition residuals.
TOL_RESID = 1e-10


class Inertia(NamedTuple):
    """Signature triple (v_minus, v_zero, v_plus) of a Hermitian matrix."""

    neg: int
    zero: int
    pos: int

    def __str__(self) -> str:
        return f"({self.neg},{self.zero},{self.pos})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def max_abs(mat: np.ndarray) -> float:
    return float(np.abs(mat).max()) if mat.size else 0.0


def hermiticity_defect(mat: np.ndarray) -> float:
    """Largest entrywise deviation of M from its conjugate transpose."""
    return max_abs(mat - mat.conj().T)


def require_hermitian(mat: np.ndarray) -> float:
    """max|M_ij| of a square Hermitian M.

    A non-square M, one with a NaN or infinite entry, or one with asymmetry
    above TOL_HERM * max(1, max|M_ij|) raises ValueError.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    scale = max_abs(mat)
    if not math.isfinite(scale):
        # a NaN would pass every `defect > bound` test below
        i, j = np.argwhere(~np.isfinite(mat))[0].tolist()
        raise ValueError(f"matrix entry ({i},{j}) is not finite: {mat[i, j]}")
    defect = hermiticity_defect(mat)
    bound = TOL_HERM * max(1.0, scale)
    if defect > bound:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {bound:.3e}"
        )
    return scale


def herm_eig(mat: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, with residual validation.

    Raises ValueError on non-Hermitian input (see require_hermitian) and
    RuntimeError if the solver fails to converge or the reconstruction
    residual is out of bounds.
    """
    scale = max(1.0, require_hermitian(mat))
    mat = np.asarray(mat, dtype=complex)
    try:
        values, vectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    resid = max_abs(mat - (vectors * values) @ vectors.conj().T)
    ortho = max_abs(vectors.conj().T @ vectors - np.eye(mat.shape[0]))
    if resid > TOL_RESID * scale or ortho > TOL_RESID:
        raise RuntimeError(
            f"eigendecomposition failed validation: residual={resid:.3e}, "
            f"orthonormality defect={ortho:.3e}"
        )
    return EigenDecomposition(values=values, vectors=vectors)


def check_tol_zero(tol_zero: float) -> float:
    """Return tol_zero if it is a finite positive number, else raise ValueError.

    A non-number is refused, and so is a bool (or numpy bool): True would
    pass as a band of 1.0.
    """
    try:
        ok = math.isfinite(tol_zero) and tol_zero > 0
    except TypeError:
        ok = None
    if ok is None or isinstance(tol_zero, (bool, np.bool_)):
        raise ValueError(f"tol_zero must be a real number, got {tol_zero!r}")
    if not ok:
        raise ValueError(f"tol_zero must be finite and > 0, got {tol_zero}")
    return tol_zero


def zero_band(values: np.ndarray, tol_zero: float = TOL_ZERO):
    """Half-width of the zero band of a spectrum: tol_zero * max(1, max|lambda|).

    For a (..., d) stack of spectra the band is taken per spectrum over the
    last axis and returned as an array over the leading axes.
    """
    check_tol_zero(tol_zero)
    return tol_zero * np.maximum(1.0, np.abs(values).max(axis=-1, initial=0.0))


def spectrum_inertia(values: np.ndarray, tol_zero: float = TOL_ZERO) -> tuple[Inertia, bool]:
    """Classify eigenvalues into (negative, zero, positive) counts.

    Eigenvalues inside the zero band (see zero_band) count as zero.  The
    result is flagged marginal when some |lambda| lies in the band between
    tol_zero/10 and 10*tol_zero, where a count would change at one of those
    tolerances.  A 1-D spectrum gives an Inertia of ints and a bool; a
    (..., d) stack gives integer and boolean arrays over its leading axes.
    """
    values = np.asarray(values, dtype=float)
    check_tol_zero(tol_zero)
    # the band is linear in the tolerance, and 1.0 * x is exact, so tol * unit
    # is bit for bit zero_band(values, tol)
    unit = zero_band(values, 1.0)[..., None]
    band = tol_zero * unit
    neg, pos = (values < -band).sum(axis=-1), (values > band).sum(axis=-1)
    mag = np.abs(values)
    marginal = ((tol_zero / 10 * unit < mag) & (mag <= tol_zero * 10 * unit)).any(axis=-1)
    ine = Inertia(neg, values.shape[-1] - neg - pos, pos)
    if values.ndim == 1:
        return Inertia(*map(int, ine)), bool(marginal)
    return ine, marginal
