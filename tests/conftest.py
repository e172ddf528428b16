from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ptinertia.exact import GaussianRational

settings.register_profile(
    "ci", deadline=None, max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_invertible(rng, dim, tries=20):
    for _ in range(tries):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return a
    raise RuntimeError("could not draw an invertible matrix")


def random_pure_slocc(rng, m, n, r):
    """Random Schmidt-rank-r vector: (A x B) applied to sum_{i<r} |i,i>."""
    base = np.zeros(m * n, dtype=complex)
    for i in range(r):
        base[i * n + i] = 1.0
    a = random_invertible(rng, m)
    b = random_invertible(rng, n)
    return np.kron(a, b) @ base


def congruence(mat, s):
    """S M S^dagger, symmetrised so that herm_eig's Hermitian check sees no roundoff skew."""
    out = s @ mat @ s.conj().T
    return 0.5 * (out + out.conj().T)


def local_ranks(state):
    """Ranks of the reduced matrices on A and on B, at 1e-9 of max(1, max|entry|)."""
    rho = state.mat.reshape(state.m, state.n, state.m, state.n)
    reduced = (np.trace(rho, axis1=1, axis2=3), np.trace(rho, axis1=0, axis2=2))
    return tuple(int(np.linalg.matrix_rank(red, tol=1e-9 * max(1.0, np.abs(red).max())))
                 for red in reduced)


def exact_cells(em):
    """An ExactMatrix's cells as nested lists of GaussianRational, each part
    its numerator over den."""
    return [[GaussianRational(Fraction(a, em.den), Fraction(b, em.den)) for a, b in zip(ra, ia)]
            for ra, ia in zip(em.re.tolist(), em.im.tolist())]
