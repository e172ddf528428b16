import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptinertia import (State, build, dm_from_kets, inertia_of, ket_vector,
                       partial_transpose, pt_array, random_state, schmidt)

from conftest import (congruence, local_ranks, random_hermitian, random_invertible,
                      random_pure_slocc)
from reference import validate_state


def bell(m, n, r=2):
    return ket_vector(m, n, [(1, i, i) for i in range(r)])


# ---------------------------------------------------------------- partial transpose

def test_pt_identity_invariant():
    assert np.array_equal(pt_array(np.eye(9), 3, 3), np.eye(9))


def test_pt_matches_index_oracle(rng):
    # oracle: PT[(i,k),(j,l)] = rho[(j,k),(i,l)], enumerated explicitly
    m = n = 2
    rho = random_hermitian(rng, 4)
    gamma = pt_array(rho, m, n)
    for i in range(m):
        for j in range(m):
            for k in range(n):
                for l in range(n):
                    assert gamma[i * n + k, j * n + l] == rho[j * n + k, i * n + l]


def test_pt_reference_matrix_display():
    # the rank-3 + rank-1 family has a fully written-out PT; pin it entrywise
    a, b = 1.0, 2.0
    state = build("ex11", a=1, b=2)
    expect = np.zeros((9, 9), dtype=complex)
    expect[0, 0] = 1 + a * a
    expect[0, 1] = a * b
    expect[1, 0] = a * b
    expect[1, 1] = b * b
    for r, c in [(1, 3), (2, 6), (5, 7)]:
        expect[r, c] = 1
        expect[c, r] = 1
    expect[4, 4] = 1
    expect[8, 8] = 1
    assert np.allclose(partial_transpose(state), expect)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_pt_involution_trace_hermiticity(seed, dims):
    m, n = dims
    rng = np.random.default_rng(seed)
    rho = random_hermitian(rng, m * n)
    gamma = pt_array(rho, m, n)
    assert np.array_equal(pt_array(gamma, m, n), rho)
    assert abs(np.trace(gamma) - np.trace(rho)) < 1e-12
    assert np.abs(gamma - gamma.conj().T).max() < 1e-12


def test_pt_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        pt_array(np.eye(6), 2, 2)


# ---------------------------------------------------------------- schmidt

def test_schmidt_product_vector_rank_one():
    dec = schmidt(ket_vector(3, 3, [(1, 0, 0)]), 3, 3)
    assert dec.rank == 1


def test_schmidt_maximally_entangled():
    dec = schmidt(bell(3, 3, 3), 3, 3)
    assert dec.rank == 3
    assert np.allclose(dec.coefficients, [1, 1, 1])


def test_schmidt_generic_rank_two_vs_matrix_rank(rng):
    # |0>(a|0>+b|1>+c|2>) + |1>(d|0>+e|1>): rank of the 3x3 matricization
    a, b, c, d, e = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi = ket_vector(3, 3, [(a, 0, 0), (b, 0, 1), (c, 0, 2), (d, 1, 0), (e, 1, 1)])
    oracle = np.linalg.matrix_rank(psi.reshape(3, 3), tol=1e-10)
    assert schmidt(psi, 3, 3).rank == oracle == 2


def test_schmidt_reconstruction(rng):
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    dec = schmidt(psi, 2, 3)
    recon = sum(c * np.kron(dec.basis_a[:, k], dec.basis_b[k, :])
                for k, c in enumerate(dec.coefficients))
    assert np.abs(recon - psi).max() <= 1e-10 * np.abs(psi).max()
    assert abs((dec.coefficients ** 2).sum() - np.linalg.norm(psi) ** 2) < 1e-10


def test_schmidt_rejects_zero():
    with pytest.raises(ValueError):
        schmidt(np.zeros(4), 2, 2)


# ---------------------------------------------------------------- dm_from_kets

def test_dm_single_product_ket():
    psi = ket_vector(3, 3, [(1, 0, 0)])
    state = dm_from_kets([psi], [1.0], 3, 3)
    assert np.allclose(state.mat, np.outer(psi, psi.conj()))


def test_dm_matches_entrywise_oracle(rng):
    kets = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(3)]
    weights = [0.5, 1.0, 2.0]
    state = dm_from_kets(kets, weights, 2, 3)
    oracle = sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets))
    assert np.abs(state.mat - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert np.linalg.matrix_rank(state.mat, tol=1e-10) <= 3
    validate_state(state)


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_validate_state_bounds_lambda_min_relative_to_the_entries(scale):
    # no absolute floor: a matrix scaled far below unit trace is judged as itself
    with pytest.raises(ValueError, match="state has negative eigenvalue"):
        validate_state(State(2, 2, scale * np.diag([1, 1, 1, -0.5])))
    # a PSD state with a kernel, whose zero eigenvalues eigvalsh rounds either way
    validate_state(State(2, 2, scale * np.outer(bell(2, 2), bell(2, 2).conj())))


def test_dm_rejects_bad_input():
    with pytest.raises(ValueError):
        dm_from_kets([np.ones(4)], [1.0], 2, 3)
    with pytest.raises(ValueError):
        dm_from_kets([np.ones(4)], [-1.0], 2, 2)
    with pytest.raises(ValueError):
        dm_from_kets([], [], 2, 2)


# ---------------------------------------------------------------- local ranks

def test_pure_state_local_ranks_equal_schmidt_rank(rng):
    for _ in range(20):
        r = int(rng.integers(1, 4))
        psi = random_pure_slocc(rng, 3, 3, r)
        state = dm_from_kets([psi], [1], 3, 3)
        assert local_ranks(state) == (r, r)
        assert schmidt(psi, 3, 3).rank == r


# ---------------------------------------------------------------- SLOCC

def test_pt_congruence_identity(rng):
    # PT((AxB) rho (AxB)^+) == conj(A)xB applied as congruence to PT(rho)
    for _ in range(10):
        rho = random_hermitian(rng, 6)
        a = random_invertible(rng, 2)
        b = random_invertible(rng, 3)
        lhs = partial_transpose(State(2, 3, congruence(rho, np.kron(a, b))))
        rhs = congruence(pt_array(rho, 2, 3), np.kron(a.conj(), b))
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())


def test_slocc_preserves_pt_inertia(rng):
    for _ in range(20):
        state = random_state(3, 3, 4, seed=int(rng.integers(2 ** 31)))
        a = random_invertible(rng, 3)
        b = random_invertible(rng, 3)
        before = inertia_of(partial_transpose(state))
        after = inertia_of(partial_transpose(
            State(3, 3, congruence(state.mat, np.kron(a, b)))))
        assert before == after


# ---------------------------------------------------------------- random states

def test_random_state_deterministic():
    a = random_state(3, 3, 3, "real", seed=42)
    b = random_state(3, 3, 3, "real", seed=42)
    assert np.array_equal(a.mat, b.mat)
    c = random_state(3, 3, 3, "real", seed=43)
    assert not np.array_equal(a.mat, c.mat)


def test_random_state_rank_and_trace(rng):
    state = random_state(3, 3, 4, "complex", seed=5)
    assert np.linalg.matrix_rank(state.mat, tol=1e-10) == 4
    assert abs(np.trace(state.mat) - 1.0) < 1e-12
    validate_state(state)


def test_full_rank_pt_generically_nonsingular():
    zeros = 0
    for i in range(1000):
        state = random_state(3, 3, 9, "real", seed=(77, i))
        if inertia_of(partial_transpose(state)).zero > 0:
            zeros += 1
    assert zeros <= 10  # v_zero = 0 in at least 99% of draws


def test_structured_ensemble_kernel():
    state = random_state(3, 3, 3, "structured", seed=9)
    gamma = partial_transpose(state)
    for j in range(3):
        e = np.zeros(9)
        e[j] = 1.0  # |0, j>
        assert np.abs(gamma @ e).max() < 1e-12


def _two_draw_random_state(m, n, rank, ensemble, seed):
    """random_state's matrix as the two-draw form computes it: real parts and
    imaginary parts drawn separately, summed, then divided by sqrt(2), and the
    trace taken by np.trace.  The reference the one-draw form must equal."""
    d = m * n
    rng = np.random.default_rng(seed)
    if ensemble == "complex":
        r = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(2)
    else:
        r = rng.standard_normal((d, rank))
        if ensemble == "structured":
            r[:n, :] = 0.0
    mat = r @ r.conj().T
    tr = float(np.real(np.trace(mat)))
    return np.asarray(mat / tr, dtype=complex)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3), (3, 4)])
@pytest.mark.parametrize("ensemble", ["real", "complex", "structured"])
def test_random_state_equals_the_two_draw_form_byte_for_byte(m, n, ensemble):
    for rank in range(1, m * n + 1):
        for seed in (rank, (41, rank)):
            want = _two_draw_random_state(m, n, rank, ensemble, seed)
            assert random_state(m, n, rank, ensemble, seed).mat.tobytes() == want.tobytes()
        # one Generator drawn in sequence: each draw must also leave the stream
        # where the two-draw form leaves it, or the next state differs
        got_rng, want_rng = np.random.default_rng(rank), np.random.default_rng(rank)
        for _ in range(20):
            want = _two_draw_random_state(m, n, rank, ensemble, want_rng)
            got = random_state(m, n, rank, ensemble, seed=got_rng)
            assert got.mat.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_random_state_rank_bounds():
    with pytest.raises(ValueError):
        random_state(2, 2, 5, "real", seed=0)
    with pytest.raises(ValueError):
        random_state(2, 2, 0, "real", seed=0)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3), (3, 4)])
@pytest.mark.parametrize("ensemble", ["real", "complex", "structured"])
def test_random_state_keeps_the_state_contract(m, n, ensemble):
    d = m * n
    for rank in (1, 2, d):
        st = random_state(m, n, rank, ensemble, seed=(5, rank))
        again = State(m, n, st.mat.copy())
        assert (again.m, again.n) == (st.m, st.n) == (m, n)
        assert again.mat.dtype == st.mat.dtype and again.mat.tobytes() == st.mat.tobytes()
        assert st.mat.dtype == complex and st.mat.shape == (d, d)
        assert st.mat.flags.c_contiguous
        for field, value in (("m", 1), ("n", 1), ("mat", np.eye(d))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(st, field, value)


@pytest.mark.parametrize("m, n, rank", [(-3, -3, 2), (0, 3, 1), (3, 0, 1)])
def test_random_state_rejects_bad_dims(m, n, rank):
    # (-3, -3) has m*n = 9, which passes the rank check: State must still refuse it
    for ensemble in ("real", "complex", "structured"):
        with pytest.raises(ValueError):
            random_state(m, n, rank, ensemble, seed=0)


class _Subclass(np.ndarray):
    pass


def test_state_makes_a_list_or_float_matrix_complex():
    want = np.array([[0.5, 0.25], [0.25, 0.5]])
    for mat in (want.tolist(), want, want.astype(np.float32),
                want.astype(complex).view(_Subclass)):
        st = State(1, 2, mat)
        assert type(st.mat) is np.ndarray and st.mat.dtype == complex
        assert np.array_equal(st.mat, want)
    with pytest.raises(ValueError, match="does not match dims"):
        State(2, 2, np.eye(3, dtype=complex))


def test_normalized_refuses_a_trace_past_the_float_range():
    # each entry is finite, but the diagonal sums to inf; 1/inf would zero the state
    with pytest.raises(ValueError, match="state trace overflows the float range"):
        State(1, 2, np.diag([1e308, 1e308])).normalized()
