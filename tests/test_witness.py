import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptinertia import (State, build, build_exact, dm_from_kets, is_witness,
                       ket_vector, min_product_expectation, partial_transpose,
                       pt_inertia, random_state)
from ptinertia.catalog import entry_ids
from ptinertia.exact import ExactMatrix
from ptinertia.matio import loads_matrix
from ptinertia.witness import NotAWitness


def test_min_product_on_identity_is_one():
    value, (a, b) = min_product_expectation(np.eye(4), 2, 2, restarts=5, seed=0)
    assert abs(value - 1.0) < 1e-12
    assert abs(np.linalg.norm(a) - 1) < 1e-12 and abs(np.linalg.norm(b) - 1) < 1e-12


def test_min_product_on_negated_identity():
    value, _ = min_product_expectation(-np.eye(4), 2, 2, restarts=5, seed=0)
    assert abs(value + 1.0) < 1e-12


def test_min_product_on_bell_pt_reaches_zero():
    state = dm_from_kets([ket_vector(2, 2, [(1, 0, 0), (1, 1, 1)])], [0.5], 2, 2)
    gamma = partial_transpose(state)
    value, _ = min_product_expectation(gamma, 2, 2, restarts=30, seed=1)
    assert abs(value) <= 1e-8

    # coarse Bloch-angle grid gives an independent upper-bound oracle
    grid = np.linspace(0, np.pi, 13)
    best = np.inf
    for ta, pa, tb, pb in itertools.product(grid, grid[:7], grid, grid[:7]):
        a = np.array([np.cos(ta / 2), np.exp(1j * pa) * np.sin(ta / 2)])
        b = np.array([np.cos(tb / 2), np.exp(1j * pb) * np.sin(tb / 2)])
        ab = np.kron(a, b)
        best = min(best, float(np.real(ab.conj() @ gamma @ ab)))
    assert best >= -1e-8
    assert value <= best + 1e-8  # alternation is at least as good as the grid


def test_determinism_of_min_product():
    gamma = partial_transpose(build("arr13_ix").normalized())
    first = min_product_expectation(gamma, 3, 3, restarts=10, seed=3)[0]
    second = min_product_expectation(gamma, 3, 3, restarts=10, seed=3)[0]
    assert first == second


def test_witnesses_from_catalog_families():
    for entry_id in entry_ids():
        state = build(entry_id)
        w = is_witness(state)
        ine = pt_inertia(state)
        assert ine.neg >= 1
        assert ine.pos >= 3
        assert ine.neg <= (state.m - 1) * (state.n - 1)
        assert w.mat.shape == (state.dim, state.dim)


def test_is_witness_rejects_ppt():
    psi = ket_vector(2, 2, [(1, 0, 0)])
    with pytest.raises(ValueError, match="PPT"):
        is_witness(dm_from_kets([psi], [1], 2, 2))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_is_witness_verdict_does_not_depend_on_the_state_scale(scale):
    # below unit trace the PT's -scale eigenvalue falls inside the zero band's
    # absolute floor, so only the trace-normalized state shows it
    phi = ket_vector(2, 2, [(1, 0, 0), (1, 1, 1)])
    bell = np.outer(phi, phi.conj())
    w = is_witness(State(2, 2, scale * bell))
    assert w.certified == "float"
    assert np.allclose(w.mat, partial_transpose(State(2, 2, bell / 2)))


def test_separable_mixtures_have_nonnegative_product_minimum(rng):
    for _ in range(5):
        kets = []
        for _ in range(5):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            kets.append(np.kron(a, b))
        state = dm_from_kets(kets, [1] * 5, 3, 3).normalized()
        gamma = partial_transpose(state)
        value, _ = min_product_expectation(gamma, 3, 3, restarts=8, seed=11)
        assert value >= -1e-8


# F + |Phi+><Phi+| on 2x2 (F the swap): its PT is NPT and it has eigenvalue -1,
# yet every product expectation of its PT is >= 0, so the minimiser alone
# cannot reject it
NON_STATE = "4 2 2\n3/2 0 0 1/2\n0 0 1 0\n0 1 0 0\n1/2 0 0 3/2\n"


def test_catalog_witnesses_certified_exact_and_float():
    for entry_id in entry_ids():
        state = build(entry_id)
        exact = build_exact(entry_id)
        assert exact is not None, entry_id
        assert is_witness(state, exact=exact).certified == "exact"
        assert is_witness(state).certified == "float"


def test_is_witness_rejects_non_psd_state_in_both_modes():
    mf = loads_matrix(NON_STATE)
    state = State(2, 2, mf.mat)
    assert pt_inertia(state).neg >= 1
    gamma = partial_transpose(state.normalized())
    assert min_product_expectation(gamma, 2, 2, restarts=10, seed=0)[0] >= -1e-7
    for mode, view in (("float", None), ("exact", mf.exact)):
        with pytest.raises(ValueError,
                           match=rf"not PSD \({mode} check, smallest eigenvalue -3.333e-01"):
            is_witness(state, exact=view)


def test_is_witness_rejects_an_exact_view_of_another_state():
    with pytest.raises(ValueError, match="does not match"):
        is_witness(build("arr13_vi"), exact=build_exact("arr13_ix"))
    with pytest.raises(ValueError, match="does not match"):
        rho = build_exact("arr13_vi")
        is_witness(build("arr13_vi"), exact=ExactMatrix(rho.re[:4, :4], rho.im[:4, :4], rho.den))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       st.integers(1, 9), st.sampled_from(["real", "complex"]))
def test_product_minimum_bounded_by_state_spectrum(seed, dims, rank, ensemble):
    # <a,b|rho^Gamma|a,b> = <a*,b|rho|a*,b> >= lambda_min(rho): the bound
    # behind is_witness's certificate
    m, n = dims
    rho = random_state(m, n, min(rank, m * n), ensemble, seed).normalized()
    value, _ = min_product_expectation(partial_transpose(rho), m, n,
                                       restarts=2, seed=seed)
    assert value >= np.linalg.eigvalsh(rho.mat)[0] - 1e-9


@pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -1}])
def test_min_product_rejects_empty_search(kwargs):
    # with no restart no product vector is tried, and the old (inf, None)
    # result claimed a minimum of +inf for -I
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        min_product_expectation(-np.eye(4), 2, 2, **kwargs)


def test_min_product_refuses_a_negative_seed_by_name():
    # seed=-1 used to reach numpy's own "expected non-negative integer"
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        min_product_expectation(np.eye(4), 2, 2, restarts=1, seed=-1)


def test_is_witness_verdicts_are_not_a_witness_errors():
    with pytest.raises(NotAWitness, match="PPT"):
        is_witness(dm_from_kets([ket_vector(2, 2, [(1, 0, 0)])], [1], 2, 2))
    with pytest.raises(NotAWitness, match="not PSD"):
        is_witness(State(2, 2, loads_matrix(NON_STATE).mat))


@pytest.mark.parametrize("eid", entry_ids())
def test_is_witness_returns_the_pt_inertia_it_decided_on(eid):
    state = build(eid)
    w = is_witness(state)
    assert w.inertia == pt_inertia(state.normalized())
    assert np.array_equal(w.mat, partial_transpose(state.normalized()))


@pytest.mark.parametrize("state, inertia, message", [
    (dm_from_kets([ket_vector(2, 2, [(1, 0, 0)])], [1], 2, 2), (0, 3, 1),
     "state is PPT (inertia (0,3,1)); its PT is not a witness"),
    (State(2, 2, loads_matrix(NON_STATE).mat), (1, 0, 3),
     "state is not PSD (float check, smallest eigenvalue -3.333e-01); "
     "its PT is not a witness"),
], ids=["ppt", "non-psd"])
def test_a_not_a_witness_verdict_carries_the_inertia_it_decided_on(state, inertia, message):
    with pytest.raises(NotAWitness) as caught:
        is_witness(state)
    assert caught.value.inertia == inertia
    assert str(caught.value) == message


def test_an_exact_view_must_match_a_state_far_below_unit_trace():
    # the match is relative to max|rho_ij|: an absolute floor of 1e-10 let
    # I/10^11 pass as the exact view of the Bell projector times 10^-12
    phi = ket_vector(2, 2, [(1, 0, 0), (1, 1, 1)])
    bell = np.outer(phi, phi.conj())
    other = ExactMatrix(np.eye(4, dtype=np.int64), np.zeros((4, 4), dtype=np.int64), 10**11)
    with pytest.raises(ValueError, match="^exact view does not match the state's matrix$"):
        is_witness(State(2, 2, 1e-12 * bell), exact=other)
