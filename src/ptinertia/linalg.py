"""Dense Hermitian linear algebra: eigendecomposition and inertia counting.

Everything here works on plain complex numpy arrays.  Matrices are small
(dimension a few tens at most), so robustness and validation win over speed.
herm_eig also takes a (k, d, d) stack, solved by one eigh call and checked
matrix by matrix under the same rules; catalog.lemma3n_family verifies the
rows of each chain seed with one such validated eigensolve.
The zero-band rule is written once, in zero_band; every caller that sorts
eigenvalues into zero and nonzero asks it or spectrum_inertia.  Hermiticity
is checked once, in require_hermitian, which returns max|M_ij|: herm_eig
scales its residual bound by max(1, max|M_ij|) from that value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Default relative tolerance for classifying an eigenvalue as zero.
TOL_ZERO = 1e-9
# Hermiticity acceptance tolerance (relative to the largest entry, no floor).
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


def max_abs(mat: np.ndarray) -> float | np.ndarray:
    """max|M_ij| of a matrix, or an array of it per matrix of a (k, d, d) stack."""
    return np.abs(mat).max(axis=(-2, -1), initial=0.0)


def _first_failure(ok: np.bool_ | np.ndarray) -> tuple | None:
    """Index of the first matrix whose check failed, or None if none did.

    ok is one flag for a single matrix, whose index is (), or an array of
    flags over a stack's leading axis.
    """
    if ok.ndim == 0:
        return None if ok else ()
    return None if ok.all() else (int(ok.argmin()),)


def _stack_index(at: tuple) -> str:
    return f"stack index {at[0]}: " if at else ""


def require_hermitian(mat: np.ndarray) -> float | np.ndarray:
    """max|M_ij| of a square Hermitian M, or an array of it for a (k, d, d) stack.

    A non-square M, one with a NaN or infinite entry, or one with asymmetry
    above TOL_HERM * max|M_ij| raises ValueError.  The bound has no absolute
    floor, so a tiny matrix is held to the same relative rule as any other
    (an all-zero one passes).  Each matrix of a stack is held to the same
    rules, and the message names the stack index of the first one that
    breaks one.
    """
    mat = np.asarray(mat)
    if mat.ndim not in (2, 3) or mat.shape[-2] != mat.shape[-1]:
        raise ValueError(f"expected a square matrix or a (k, d, d) stack, got shape {mat.shape}")
    scale = max_abs(mat)
    # false for an infinite or NaN scale, which the asymmetry test below
    # would otherwise report as asymmetry
    at = _first_failure(scale < math.inf)
    if at is not None:
        i, j = np.argwhere(~np.isfinite(mat[at]))[0].tolist()
        raise ValueError(f"{_stack_index(at)}matrix entry ({i},{j}) is not finite: "
                         f"{mat[at][i, j]}")
    # M^H copied to C order first: numpy subtracts a stack from its own
    # transposed view about twice as slowly as from a copy
    diff = mat.conj().swapaxes(-2, -1).copy()
    defect = max_abs(np.subtract(mat, diff, out=diff))
    bound = TOL_HERM * scale
    at = _first_failure(defect <= bound)
    if at is not None:
        raise ValueError(f"{_stack_index(at)}matrix is not Hermitian: "
                         f"max asymmetry {defect[at]:.3e} exceeds {bound[at]:.3e}")
    return scale


def herm_eig(mat: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, with residual validation.

    A (k, d, d) stack is solved by one eigh call, and gives (k, d) values
    and (k, d, d) vectors; each of its matrices is checked as a single one
    would be.  Raises ValueError on non-Hermitian input (see
    require_hermitian) and RuntimeError if the solver fails to converge or
    a reconstruction residual is out of bounds.
    """
    unit = np.maximum(1.0, require_hermitian(mat))
    mat = np.asarray(mat, dtype=complex)
    try:
        values, vectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    # a finite matrix near the float limit can have an infinite eigenvalue;
    # its NaN residual fails the check below instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        adjoint = vectors.conj().swapaxes(-2, -1)
        recon = (vectors * values[..., None, :]) @ adjoint
        resid = max_abs(np.subtract(mat, recon, out=recon))
        gram = adjoint @ vectors
        ortho = max_abs(np.subtract(gram, np.eye(mat.shape[-1]), out=gram))
    at = _first_failure((resid <= TOL_RESID * unit) & (ortho <= TOL_RESID))
    if at is not None:
        raise RuntimeError(
            f"{_stack_index(at)}eigendecomposition failed validation: "
            f"residual={resid[at]:.3e}, orthonormality defect={ortho[at]:.3e}"
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
