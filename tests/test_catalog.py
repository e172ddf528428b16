from fractions import Fraction

import numpy as np
import pytest

from ptinertia import (Inertia, build, build_exact, chain_seed, herm_eig,
                       ket_vector, lemma3n_family, local_ranks,
                       partial_transpose, pt_array, pt_inertia, schmidt, verify,
                       verify_all)
from ptinertia.catalog import (_merge_params, _weighted_kets, entry_ids, ex11_closed_form,
                               expected_inertia, get_entry)
from ptinertia.exact import GaussianRational, exact_inertia

THIRTEEN = {
    (1, 0, 8), (1, 1, 7), (1, 2, 6), (1, 3, 5), (1, 4, 4), (1, 5, 3),
    (2, 0, 7), (2, 1, 6), (2, 2, 5), (2, 3, 4), (3, 0, 6), (3, 1, 5),
    (4, 0, 5),
}


def test_every_entry_verifies_in_both_modes():
    for result in verify_all():
        assert result.passed, f"{result.entry_id}: {result}"
        # all defaults are rational, so the exact certification must be present
        assert result.exact_inertia is not None, result.entry_id
        assert result.exact_inertia == result.expected


def test_thirteen_families_cover_exactly_the_realizable_set():
    got = {tuple(verify(e).float_inertia) for e in entry_ids() if e.startswith("arr13_")}
    assert got == THIRTEEN


def test_unknown_id_and_params_rejected():
    with pytest.raises(KeyError):
        build("nope")
    with pytest.raises(ValueError, match="unknown parameters"):
        build("ex11", q=2)
    with pytest.raises(ValueError, match="nonzero"):
        build("npt2_iib", a=0)
    with pytest.raises(ValueError, match="vanish"):
        build("npt2_iia", a=0, b=0)


def test_ex11_grid_always_3_0_6():
    grid = [Fraction(1, 2), 1, 2]
    for a in grid:
        for b in grid:
            result = verify("ex11", a=a, b=b)
            assert result.passed
            assert result.float_inertia == Inertia(3, 0, 6)
            assert result.exact_inertia == Inertia(3, 0, 6)


def test_closed_form_degenerate_point():
    # at a = b = 0 the cubic factors as (x-1)^2 (x+1)
    spectrum = ex11_closed_form(0, 0)
    assert np.allclose(spectrum, [-1, -1, -1, 1, 1, 1, 1, 1, 1])


def test_closed_form_matches_numeric_spectrum():
    spectrum = ex11_closed_form(1, 1)
    numeric = herm_eig(partial_transpose(build("ex11", a=1, b=1))).values
    assert np.abs(spectrum - numeric).max() < 1e-8


def test_closed_form_cubic_root_signs():
    # across a parameter grid the cubic always has one negative, two positive roots
    for a in (0.5, 1.0, 1.5, 2.0, 3.0):
        for b in (0.5, 1.0, 1.5, 2.0, 3.0):
            aa, bb = a * a, b * b
            roots = np.roots([1.0, -1 - aa - bb, -1 + bb, 1 + aa]).real
            assert (roots < 0).sum() == 1
            assert (roots > 0).sum() == 2


NPT2_SCHMIDT_LABELS = {
    "npt2_i": (2, 1),
    "npt2_iia": (2, 2),
    "npt2_iib": (2, 2),
    "npt2_iii": (3, 1),
    "npt2_iva": (3, 2),
    "npt2_ivb": (3, 2),
    "npt2_ivc": (3, 2),
    "npt2_ivd": (3, 2),
}


@pytest.mark.parametrize("entry_id", sorted(NPT2_SCHMIDT_LABELS))
def test_npt2_entries_rank_and_schmidt_labels(entry_id):
    entry = get_entry(entry_id)
    state = build(entry_id)
    vals = np.linalg.eigvalsh(state.mat)
    assert (vals > 1e-10 * vals.max()).sum() == 2  # rank-two mixtures
    terms = entry.terms(dict(entry.defaults))
    assert len(terms) == 2
    kets = [ket_vector(3, 3, [(complex(c), i, j) for c, i, j in t]) for _, t in terms]
    ranks = tuple(schmidt(k, 3, 3).rank for k in kets)
    assert ranks == NPT2_SCHMIDT_LABELS[entry_id]
    assert local_ranks(state) == (3, 3)  # genuine two-qutrit states


def test_iva_out_of_regime_failures_are_data():
    # the advertised regime rule does not survive exact arithmetic at D >= 0;
    # verify() reports the mismatch rather than hiding it
    zero_regime = verify("npt2_iva", a=0, b=1)  # D = 0
    assert not zero_regime.passed
    assert zero_regime.float_inertia == Inertia(2, 2, 5)
    assert zero_regime.exact_inertia == Inertia(2, 2, 5)
    pos_regime = verify("npt2_iva", a=0, b=2)  # D = 3
    assert not pos_regime.passed
    assert pos_regime.float_inertia == Inertia(3, 0, 6)


def test_ivc_branch_rule():
    generic = verify("npt2_ivc", a=1, b=2, e=2)
    assert generic.passed and generic.float_inertia == Inertia(3, 0, 6)
    branch = verify("npt2_ivc", a=1, b=1, e=-1)  # 1 + a e* = 0
    assert branch.passed and branch.float_inertia == Inertia(2, 2, 5)
    assert branch.exact_inertia == Inertia(2, 2, 5)


def test_boundary_witness_is_exactly_singular():
    # the (3,1,5) witness: certified by the exact route, marginal for floats
    rho = build_exact("arr13_xii")
    gamma = pt_array(rho, 3, 3)
    assert exact_inertia(gamma) == Inertia(3, 1, 5)
    float_result = verify("arr13_xii")
    assert float_result.float_inertia == Inertia(3, 1, 5)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (6, 4)])
def test_chain_seed_inertia(n, k):
    assert pt_inertia(chain_seed(n, k)) == Inertia(k, 2 * n - 2 * k - 2, k + 2)


def test_chain_seed_bounds():
    with pytest.raises(ValueError):
        chain_seed(3, 3)


@pytest.mark.parametrize("n,count,m", [
    (2, 3, 3), (3, 10, 3), (4, 21, 3),
    (2, 1, 2), (3, 4, 2), (4, 9, 2),
], ids=["2-3", "3-10", "4-21", "m2-2-1", "m2-3-4", "m2-4-9"])
def test_lemma3n_family_counts(n, count, m):
    family = lemma3n_family(n, m=m)
    assert len(family) == count == (n - 1) * (m * n - n - 1)
    triples = {tuple(t) for t, _ in family}
    assert len(triples) == count
    for k in range(1, n):
        for j in range(m * n - 2 * k - 1):
            assert (k, m * n - 2 * k - 2 - j, k + 2 + j) in triples
    assert all((state.m, state.n) == (m, n) for _, state in family)


def test_lemma3n_rejects_small_n():
    with pytest.raises(ValueError):
        lemma3n_family(1)
    with pytest.raises(ValueError):
        lemma3n_family(3, m=1)


def test_expected_inertia_accessor():
    assert expected_inertia("arr13_xiii") == Inertia(4, 0, 5)


DYADIC_POINTS = [
    ("ex11", {"a": Fraction(3, 4), "b": Fraction(-5, 8)}),
    ("npt2_iva", {"a": Fraction(1, 2), "b": 2}),
    ("npt2_ivc", {"a": Fraction(-3, 2), "b": Fraction(1, 4), "e": 2}),
    ("npt2_iib", {"a": Fraction(7, 16), "b": -3}),
]


@pytest.mark.parametrize("entry_id, params",
                         [(e, {}) for e in entry_ids()] + DYADIC_POINTS)
def test_float_build_is_the_float_view_of_the_exact_build(entry_id, params):
    # equality is exact at every default and wherever float arithmetic on
    # the data is exact (dyadic rationals)
    exact = build_exact(entry_id, **params)
    assert exact.dtype == object
    assert np.array_equal(build(entry_id, **params).mat, exact.astype(complex))
    # the exact PT is pt_array of the exact build
    m, n = get_entry(entry_id).dims
    assert np.array_equal(pt_array(exact, m, n).astype(complex),
                          partial_transpose(build(entry_id, **params)))


def test_float_build_rounds_per_term_at_non_dyadic_points():
    # 1/5 and 3/7 are not binary fractions: the float build rounds every
    # product, the exact build rounds once, so they may differ in the last bit
    params = {"a": Fraction(2, 3), "b": Fraction(1, 5), "e": Fraction(3, 7)}
    diff = build("npt2_ivc", **params).mat - build_exact("npt2_ivc", **params).astype(complex)
    assert np.abs(diff).max() <= 4 * np.finfo(float).eps


def _dense_exact_build(entry_id, **params):
    """Reference: the sum of full d x d weighted outer products of every ket."""
    entry = get_entry(entry_id)
    pairs = _weighted_kets(entry, _merge_params(entry, params), GaussianRational.coerce)
    return sum(np.outer(ket, np.conj(ket)) * w.re for w, ket in pairs)


RATIONAL_POINTS = DYADIC_POINTS + [
    ("npt2_ivc", {"a": Fraction(2, 3), "b": Fraction(1, 5), "e": Fraction(3, 7)}),
    # cross terms of the two kets cancel in cell (|0,0>, |1,1>): 1 + a e* = 0
    ("npt2_ivc", {"a": 1, "b": Fraction(1, 2), "e": -1}),
    ("npt2_ivc", {"a": GaussianRational(0, 1), "b": 1, "e": GaussianRational(0, -1)}),
    # a zero amplitude leaves its index out of the ket's support
    ("npt2_iia", {"a": 0, "b": Fraction(-2, 3)}),
    ("npt2_iva", {"a": GaussianRational(1, 1), "b": GaussianRational(0, 1)}),
]


@pytest.mark.parametrize("entry_id, params",
                         [(e, {}) for e in entry_ids()] + RATIONAL_POINTS)
def test_support_only_exact_build_equals_the_dense_sum(entry_id, params):
    got = build_exact(entry_id, **params)
    want = _dense_exact_build(entry_id, **params)
    assert got.shape == want.shape
    assert all(type(g) is GaussianRational for g in got.flat)
    assert all(g == w for g, w in zip(got.flat, want.flat))


def test_support_only_build_cancels_exactly():
    rho = build_exact("npt2_ivc", a=1, b=Fraction(1, 2), e=-1)
    assert rho[0, 4] == 0 and rho[4, 0] == 0
    assert rho[0, 0] == 2  # |1|^2 from each ket


@pytest.mark.parametrize("entry_id, params", [
    ("ex11", {"a": 0.5}),
    ("npt2_ivc", {"e": 1j}),
    ("npt2_iva", {"a": 1, "b": 0.25}),
])
def test_irrational_parameters_give_no_exact_build(entry_id, params):
    assert build_exact(entry_id, **params) is None
