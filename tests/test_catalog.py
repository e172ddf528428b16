import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptinertia import (Inertia, build, build_exact, chain_seed, herm_eig,
                       ket_vector, lemma3n_family, partial_transpose, pt_array,
                       pt_inertia, schmidt, verify, verify_all)
from ptinertia.catalog import (_REGISTRY, CatalogEntry, _merge_params,
                               entry_ids, ex11_closed_form, expected_inertia, get_entry)
from ptinertia.cli import main
from ptinertia.exact import GaussianRational, exact_inertia

from conftest import local_ranks

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


@pytest.mark.parametrize("value, message", [
    (float("inf"), "parameter 'a' is not finite: inf"),
    (10 ** 400, f"parameter 'a' is not finite: {10 ** 400}"),
    (None, "parameter 'a' is not a number: None"),
    ("1", "parameter 'a' is not a number: '1'"),
], ids=["inf", "past-float-range", "none", "string"])
def test_a_parameter_without_a_finite_number_is_named_before_any_build(value, message):
    for call in (build, build_exact, verify, expected_inertia):
        with pytest.raises(ValueError) as info:
            call("npt2_iia", a=value, b=1)
        assert str(info.value) == message


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


def _exact_kets(entry, params):
    """The family's (weight, ket) pairs, each ket a full-length GaussianRational vector."""
    m, n = entry.dims
    pairs = []
    for weight, terms in entry.terms(params):
        ket = np.full(m * n, GaussianRational(), dtype=object)
        for coef, i, j in terms:
            ket[i * n + j] = ket[i * n + j] + GaussianRational.coerce(coef)
        pairs.append((GaussianRational.coerce(weight), ket))
    return pairs


def _dense_exact_build(entry_id, **params):
    """Reference: the sum of full d x d weighted outer products of every ket."""
    entry = get_entry(entry_id)
    pairs = _exact_kets(entry, _merge_params(entry, params))
    return sum(np.outer(ket, np.conj(ket)) * w.re for w, ket in pairs)


def _assert_zero_cells_share_one_object(rho, pairs):
    """Every zero cell, and so every cell off all the kets' supports, is one object."""
    support = {k for _, ket in pairs for k in np.flatnonzero(ket).tolist()}
    zeros = [x for x in rho.flat if not x]
    assert all(x is zeros[0] for x in zeros)
    d = len(rho)
    assert all(not rho[r, c] for r in range(d) for c in range(d)
               if r not in support or c not in support)


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
    entry = get_entry(entry_id)
    _assert_zero_cells_share_one_object(got, _exact_kets(entry, _merge_params(entry, params)))


def test_support_only_build_cancels_exactly():
    rho = build_exact("npt2_ivc", a=1, b=Fraction(1, 2), e=-1)
    assert rho[0, 4] == 0 and rho[4, 0] == 0
    assert rho[0, 0] == 2  # |1|^2 from each ket


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
_coefficients = st.one_of(st.integers(-3, 3), _fractions,
                          st.builds(GaussianRational, _fractions, _fractions))
_weights = st.builds(Fraction, st.integers(1, 9), st.integers(1, 12))


@st.composite
def weighted_ket_families(draw):
    """(dims, terms) of a random family of rational and Gaussian-rational kets."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    index = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    terms = [(draw(_weights), [(draw(_coefficients), i, j)
                               for i, j in draw(st.lists(index, max_size=4))])
             for _ in range(draw(st.integers(1, 4)))]
    kind = draw(st.sampled_from(["random", "cancelling", "all_zero"]))
    w, ket = terms[0]
    if kind == "cancelling" and ket:
        # the first ket with one amplitude negated, at the same weight: that
        # amplitude's cross terms with the rest of the ket cancel in the sum
        (c, i, j), *rest = ket
        terms.append((w, [(-c, i, j)] + rest))
    elif kind == "all_zero":
        # a ket whose terms sum to zero, and one with no terms at all
        c, (i, j) = draw(_coefficients), draw(index)
        terms += [(draw(_weights), [(c, i, j), (-c, i, j)]), (draw(_weights), [])]
    return (m, n), terms


@given(weighted_ket_families())
def test_exact_build_equals_the_dense_sum_on_random_kets(family):
    dims, terms = family
    entry = CatalogEntry(id="random_family", dims=dims, defaults={},
                         terms=lambda p: terms, expected=lambda p: None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(_REGISTRY, entry.id, entry)
        got = build_exact(entry.id)
        want = _dense_exact_build(entry.id)
    assert got.shape == want.shape
    assert all(type(g) is GaussianRational for g in got.flat)
    assert all(g == w for g, w in zip(got.flat, want.flat))
    _assert_zero_cells_share_one_object(got, _exact_kets(entry, {}))


def _registered(mp, dims, terms):
    """Register a family of the given kets under a throwaway id and return the id."""
    entry = CatalogEntry(id="refused_family", dims=dims, defaults={},
                         terms=lambda p: terms, expected=lambda p: None)
    mp.setitem(_REGISTRY, entry.id, entry)
    return entry.id


@pytest.mark.parametrize("i, j", [(2, 0), (0, 3), (-1, 1)])
def test_a_ket_index_outside_the_dims_is_refused_by_both_builds(i, j):
    with pytest.MonkeyPatch.context() as mp:
        entry_id = _registered(mp, (2, 3), [(1, [(1, 0, 0), (1, i, j)])])
        for call in (build, build_exact):
            with pytest.raises(ValueError) as info:
                call(entry_id)
            assert str(info.value) == f"ket index ({i},{j}) out of range for dims (2,3)"


@pytest.mark.parametrize("weight", [0, -1])
def test_a_weight_that_is_not_positive_is_refused(weight):
    with pytest.MonkeyPatch.context() as mp:
        entry_id = _registered(mp, (2, 2), [(1, [(1, 0, 0)]), (weight, [(1, 1, 1)])])
        with pytest.raises(ValueError, match="weights must be positive"):
            build(entry_id)
        assert build_exact(entry_id) is None


def test_a_gaussian_weight_has_no_exact_build():
    with pytest.MonkeyPatch.context() as mp:
        entry_id = _registered(mp, (2, 2), [(GaussianRational(1, 1), [(1, 0, 0)])])
        assert build_exact(entry_id) is None


# sha256 of the `catalog dump <id>` bytes, which format only the exact cells
DUMP_SHA256 = {
    "arr13_i": "189fe02746d4684311fba8db8992ef1664ad14f987eaad5343cb88a8be425ac5",
    "arr13_ii": "e1fa3560198938bf7e009195e219c8d2f52300af693c30372fa2fad671f09178",
    "arr13_iii": "274b33644775f7c94f40d0ee3cb7276e5db39ac98b72d1f163008d8aaae6efb0",
    "arr13_iv": "47eaa6b747795bcadd11e8b4d71d76569a66dd019d4f0095bf35751a192a9614",
    "arr13_ix": "8cf4402b31894f1b8c55e93eaed26773d12b35fbfa69744832929bad9cad0533",
    "arr13_v": "67cf3f4887737a7da33bb645a20e0ace4e93e18b8295e464d48fef4d2c4453c6",
    "arr13_vi": "9399bccada23253134a0a02dcb17468f43a2155588897369c0e7568edba9a419",
    "arr13_vii": "d35d22193d810abd6ad0307d1e4b259d7d57c449ec705bbf47d4d4a8a699d66b",
    "arr13_viii": "58affa907ecebdd7ed747279e0054fc8c13bc85b72f20c10b5a7a05c7df56923",
    "arr13_x": "df1958a4684098de634b19c3e23362103d289b76bceadabe5afb14c57e539bb3",
    "arr13_xi": "c1cb32d5abc9fbf7624d94b2bcefb6ad2353b0acee625dae2a8639fcd2854756",
    "arr13_xii": "0c2e7922bdcdc45017d83eda70795d146f42d6aaf6891f585787453d8f7cf5c1",
    "arr13_xiii": "a7c8ba8581c8226af5d0989f2038432eb5230c740f6f2999d85ea6577cc4ed13",
    "arr23_xi": "4630f1ff331228223dd76d93d8eaa47d875890c5104c0cb306a6069cf0cc1f3f",
    "arr23_xii": "2d28eda5d9e34dfa0de7c0016ebcb4819909f3468a73c3a38b2f42a7da21b0b2",
    "arr23_xiii": "e77672f0b929bc336f6cd443b00fd7e0551021924e29060a2090493243a8ec60",
    "ex11": "48b01a253fd0d5f4f1efe71188a1b9f9fabf734ea2435dfab6e2187c093a6617",
    "npt2_i": "67cf3f4887737a7da33bb645a20e0ace4e93e18b8295e464d48fef4d2c4453c6",
    "npt2_iia": "8cf4402b31894f1b8c55e93eaed26773d12b35fbfa69744832929bad9cad0533",
    "npt2_iib": "b65d52f18d5843de431dfa54b51b3525e3dbc71db2a109879c72de682421abec",
    "npt2_iii": "48b01a253fd0d5f4f1efe71188a1b9f9fabf734ea2435dfab6e2187c093a6617",
    "npt2_iva": "58293e824c34c9611cfbb07c5c728177a7deacb68cc98126c3b7d71ef142ed05",
    "npt2_ivb": "fd34619675aa7ccb4508beff41f742bd37f1fd6768a539884b0d5a9455cb2205",
    "npt2_ivc": "ebe93c083804a013c3464eac4a7596ace9f4aa140dbd4038e1ec8f865f6445a6",
    "npt2_ivd": "a7f6d4c7ab25f32003260312f158bac6a195d89d7e44dbec0dacf41bf62398a6",
    "pure22_r2": "3a037a568337a5daa5fc185ab7c0aa92c02f96603b864cc595ed94fa86e33a9a",
    "pure23_r2": "84e79c15ca34eafc75660cfdc2ac2f90499c2fab925b005096b5891a551a76ad",
}


def test_dump_digests_cover_the_catalog():
    assert sorted(DUMP_SHA256) == entry_ids()


@pytest.mark.parametrize("entry_id", sorted(DUMP_SHA256))
def test_catalog_dump_bytes_are_pinned(capsys, entry_id):
    assert main(["catalog", "dump", entry_id]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_SHA256[entry_id]


@pytest.mark.parametrize("entry_id, params", [
    ("ex11", {"a": 0.5}),
    ("npt2_ivc", {"e": 1j}),
    ("npt2_iva", {"a": 1, "b": 0.25}),
])
def test_irrational_parameters_give_no_exact_build(entry_id, params):
    assert build_exact(entry_id, **params) is None
