from fractions import Fraction

import numpy as np
import pytest

from ptinertia import build_exact, inertia_of, pt_array
from ptinertia.exact import GaussianRational, exact_inertia, exact_is_hermitian
from ptinertia.linalg import Inertia

G = GaussianRational


def test_arithmetic_identities():
    x = G(Fraction(3, 4), Fraction(-1, 2))
    y = G(2, 5)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x * x.conjugate() == G(x.abs2())
    assert -(-x) == x
    assert complex(G(1, 2)) == 1 + 2j
    assert str(G(Fraction(3, 4), Fraction(-1, 2))) == "3/4-1/2j"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        G(1) / G(0)


def test_coerce_rejects_floats():
    with pytest.raises(TypeError):
        G.coerce(0.5)


def test_exact_inertia_identity():
    assert exact_inertia(np.diag([G(1)] * 3)) == Inertia(0, 0, 3)


def test_exact_inertia_antidiagonal_forces_block_pivot():
    mat = [[G(0), G(1)], [G(1), G(0)]]
    assert exact_inertia(mat) == Inertia(1, 0, 1)


def test_exact_inertia_rejects_non_hermitian():
    mat = [[G(0), G(1)], [G(2), G(0)]]
    with pytest.raises(ValueError):
        exact_inertia(mat)


def test_exact_pt_of_rank2_pure():
    rho = build_exact("arr13_vi")
    gamma = pt_array(rho, 3, 3)
    assert exact_is_hermitian(gamma)
    assert exact_inertia(gamma) == Inertia(1, 5, 3)


def test_exact_matches_float_on_random_rational_hermitians(rng):
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        num = rng.integers(-4, 5, size=(dim, dim, 2))
        mat = [[G(0) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            mat[i][i] = G(Fraction(int(num[i, i, 0]), 3))
            for j in range(i + 1, dim):
                entry = G(Fraction(int(num[i, j, 0]), 2), Fraction(int(num[i, j, 1]), 5))
                mat[i][j] = entry
                mat[j][i] = entry.conjugate()
        assert exact_inertia(mat) == inertia_of(np.array(mat).astype(complex))


def test_exact_dm_is_psd_mixture():
    ket = [G(1), G(0, 1), G(Fraction(1, 2))]
    rho = np.outer(ket, np.conj(ket)) * Fraction(2)
    assert exact_is_hermitian(rho)
    ine = exact_inertia(rho)
    assert ine.neg == 0 and ine.pos == 1
