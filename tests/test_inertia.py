import numpy as np
import pytest

from ptinertia import (Inertia, State, build, dm_from_kets, embed, inertia_of,
                       ket_vector, partial_transpose, pt_inertia, random_state)
from ptinertia.catalog import entry_ids

from conftest import random_pure_slocc
from reference import (classify_ppt, ex11_closed_form, negativity, pure_inertia,
                       rank_one_update_check, shift_identity)


def bell(m, n, r=2):
    return ket_vector(m, n, [(1, i, i) for i in range(r)])


def bell_state(m, n, r=2):
    return dm_from_kets([bell(m, n, r)], [1], m, n)


# ---------------------------------------------------------------- inertia_of

def test_inertia_identity():
    assert inertia_of(np.eye(9)) == Inertia(0, 0, 9)


def test_inertia_rank2_pure():
    assert pt_inertia(bell_state(3, 3)) == Inertia(1, 5, 3)


def test_inertia_rank2_plus_product():
    assert pt_inertia(build("npt2_i")) == Inertia(1, 4, 4)


def test_inertia_scaling_invariance():
    state = build("arr13_ix")
    base = pt_inertia(state)
    for c in (1e-4, 0.3, 1.0, 1e4):
        assert pt_inertia(state.scaled(c)) == base


# ---------------------------------------------------------------- negativity

def test_negativity_product_state_vanishes():
    psi = ket_vector(2, 2, [(1, 0, 0)])
    assert negativity(dm_from_kets([psi], [1], 2, 2)) == 0.0


def test_negativity_bell_pair_is_half():
    # PT of the normalized Bell pair has spectrum {-1/2, 1/2, 1/2, 1/2}
    assert abs(negativity(bell_state(2, 2)) - 0.5) < 1e-12


def test_negativity_matches_closed_form():
    state = build("ex11", a=1, b=1)
    spectrum = ex11_closed_form(1, 1) / np.trace(state.mat).real
    oracle = -spectrum[spectrum < 0].sum()
    assert abs(negativity(state) - oracle) < 1e-10


# ---------------------------------------------------------------- PPT classification

def test_separable_mixture_is_ppt(rng):
    kets = []
    for _ in range(6):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        kets.append(np.kron(a, b))
    verdict = classify_ppt(dm_from_kets(kets, [1] * 6, 3, 3))
    assert verdict.label == "PPT"


def test_entangled_pure_states_are_npt(rng):
    for r in (2, 3):
        psi = random_pure_slocc(rng, 3, 3, r)
        verdict = classify_ppt(dm_from_kets([psi], [1], 3, 3))
        assert verdict.label == "NPT"


def test_all_reference_families_are_npt():
    for entry_id in entry_ids():
        assert classify_ppt(build(entry_id)).label == "NPT"


# ---------------------------------------------------------------- pure-state formula

def test_pure_inertia_values():
    assert pure_inertia(3, 3, 3) == Inertia(3, 0, 6)
    assert pure_inertia(1, 3, 3) == Inertia(0, 8, 1)
    assert pure_inertia(2, 3, 3) == Inertia(1, 5, 3) == pt_inertia(bell_state(3, 3))
    with pytest.raises(ValueError):
        pure_inertia(3, 2, 3)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
def test_pure_formula_on_random_representatives(rng, m, n):
    for r in range(1, min(m, n) + 1):
        want = pure_inertia(r, m, n)
        for _ in range(25):
            psi = random_pure_slocc(rng, m, n, r)
            state = dm_from_kets([psi], [1], m, n)
            assert pt_inertia(state) == want


# ---------------------------------------------------------------- bounds

def test_negative_and_positive_count_bounds_on_families():
    # every NPT witness here obeys 1 <= v_minus <= (m-1)(n-1) and v_plus >= 3
    for entry_id in entry_ids():
        state = build(entry_id)
        ine = pt_inertia(state)
        assert 1 <= ine.neg <= (state.m - 1) * (state.n - 1)
        assert ine.pos >= 3


# ---------------------------------------------------------------- shift_identity

def test_shift_lifts_all_zeros():
    state = build("arr13_vi")  # PT inertia (1,5,3)
    shifted, x = shift_identity(state)
    assert x > 0
    assert pt_inertia(shifted) == Inertia(1, 0, 8)


def test_shift_keeps_inertia_when_no_zeros():
    state = build("arr13_i")  # (1,0,8) already
    shifted, _ = shift_identity(state)
    assert pt_inertia(shifted) == Inertia(1, 0, 8)


def test_shift_on_random_low_rank_states():
    for i in range(15):
        state = random_state(3, 3, 3, "real", seed=(123, i))
        a, b, c = pt_inertia(state)
        if a == 0:
            continue
        shifted, x = shift_identity(state)
        vals = np.linalg.eigvalsh(partial_transpose(state))
        assert 0 < x < np.abs(vals[vals < 0]).min() + 1e-15
        assert pt_inertia(shifted) == Inertia(a, 0, b + c)


def test_shift_rejects_ppt():
    psi = ket_vector(2, 2, [(1, 0, 0)])
    with pytest.raises(ValueError, match="NPT"):
        shift_identity(dm_from_kets([psi], [1], 2, 2))


# ---------------------------------------------------------------- embed

def test_embed_seed_204_sweep():
    seed = build("arr23_xii")
    want = [(2, 3, 4), (2, 2, 5), (2, 1, 6), (2, 0, 7)]
    for lift, triple in enumerate(want):
        out = embed(seed, 3, 3, lift)
        assert (out.m, out.n) == (3, 3)
        assert pt_inertia(out) == Inertia(*triple)


def test_embed_full_lift_kills_zeros():
    seed = build("pure23_r2")  # (1,2,3)
    out = embed(seed, 3, 3, 3, lift_kernel=True)
    assert pt_inertia(out) == Inertia(1, 0, 8)


def test_embed_plain_sweep_keeps_block_zeros():
    seed = build("pure23_r2")
    want = [(1, 5, 3), (1, 4, 4), (1, 3, 5), (1, 2, 6)]
    for lift, triple in enumerate(want):
        out = embed(seed, 3, 3, lift, lift_kernel=False)
        assert pt_inertia(out) == Inertia(*triple)


def test_embed_formula_on_random_seeds():
    for i in range(10):
        seed = random_state(2, 3, 2, "real", seed=(55, i))
        a, b, c = pt_inertia(seed)
        if a == 0:
            continue
        for lift in range(4):
            got = pt_inertia(embed(seed, 3, 3, lift))
            assert got == Inertia(a, 3 - lift, b + c + lift)


def test_embed_rejects_bad_parameters():
    seed = build("pure23_r2")
    with pytest.raises(ValueError):
        embed(seed, 1, 3, 0)
    with pytest.raises(ValueError):
        embed(seed, 3, 3, 4)


# ---------------------------------------------------------------- rank-one update

def test_update_on_definite_pt_is_case1(rng):
    # PT positive definite: a PSD rank-one addition cannot change the signature
    sep = random_state(3, 3, 9, "real", seed=31)
    state = State(3, 3, np.eye(9) + 0.05 * partial_transpose(sep))
    assert pt_inertia(state) == Inertia(0, 0, 9)
    a = rng.standard_normal(3)
    b = rng.standard_normal(3)
    outcome = rank_one_update_check(state, a, b)
    assert outcome.case == 1
    assert outcome.inertia == Inertia(0, 0, 9)


def test_update_with_supported_product_vector(rng):
    # separable state: PT is PSD and the factors' conjugates lie in its range
    pairs = [(rng.standard_normal(3) + 1j * rng.standard_normal(3),
              rng.standard_normal(3) + 1j * rng.standard_normal(3))
             for _ in range(4)]
    kets = [np.kron(a, b) for a, b in pairs]
    state = dm_from_kets(kets, [1] * 4, 3, 3)
    outcome = rank_one_update_check(state, pairs[0][0].conj(), pairs[0][1])
    assert outcome.case == 1
    assert outcome.rank_q == 0


def test_update_trichotomy_randomized(rng):
    seen = set()
    for i in range(100):
        state = random_state(3, 3, int(rng.integers(4, 10)), "real", seed=(77, i))
        if pt_inertia(state).zero > 0:
            continue  # keep |a,b> trivially inside the range
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        outcome = rank_one_update_check(state, a, b)
        seen.add(outcome.case)
    assert seen <= {1, 2, 3}


def test_update_case3_at_singular_weight():
    # adding (169/63)|0,0><0,0| to the PT of the (4,0,5) family lands exactly
    # on the singular surface: the rising negative eigenvalue parks at zero
    state = build("arr13_xiii")
    assert pt_inertia(state) == Inertia(4, 0, 5)
    w = 169.0 / 63.0
    a = np.array([np.sqrt(w), 0.0, 0.0])
    b = np.array([1.0, 0.0, 0.0])
    outcome = rank_one_update_check(state, a, b)
    assert outcome.case == 3
    assert outcome.inertia == Inertia(3, 1, 5)


def test_update_rejects_vector_outside_range():
    state = build("arr13_vi")  # PT has a 5-dimensional kernel
    with pytest.raises(ValueError, match="range"):
        rank_one_update_check(state, np.array([0, 0, 1.0]), np.array([0, 1.0, 0]))
