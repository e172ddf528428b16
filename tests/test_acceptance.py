"""Acceptance suite: one test per acceptance criterion, with a printed
[PASS]/[FAIL] line each.  Run as  pytest tests/test_acceptance.py -v -s

Criterion 4's npt2_iva regime subchecks assert the inertia certified from the
family's characteristic polynomial (see iva_invariants): (3,0,6) wherever
P > 0 and (2,2,5) on P = 0.  The catalog keeps the advertised D-split, so at
D >= 0 they also assert that verify() reports the mismatch.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from ptinertia import (Inertia, SearchConfig, build, dm_from_kets, embed,
                       herm_eig, is_witness, lemma3n_family,
                       min_product_expectation, partial_transpose, pt_inertia,
                       pure_inertia, random_state, rank_one_update_check,
                       run_search, shift_identity, verify)
from ptinertia.catalog import entry_ids, ex11_closed_form
from ptinertia.exact import GaussianRational

from conftest import random_pure_slocc

TOL = 1e-9

THIRTEEN = [
    (1, 0, 8), (1, 1, 7), (1, 2, 6), (1, 3, 5), (1, 4, 4), (1, 5, 3),
    (2, 0, 7), (2, 1, 6), (2, 2, 5), (2, 3, 4), (3, 0, 6), (3, 1, 5),
    (4, 0, 5),
]

EXCLUDED = [Inertia(2, 4, 3), Inertia(3, 3, 3), Inertia(4, 2, 3)]
OPEN = [Inertia(3, 2, 4), Inertia(4, 1, 4)]


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}", flush=True)
    return ok


def test_criterion_1_catalog_thirteen_arrays():
    t0 = time.perf_counter()
    got = []
    for entry_id in sorted(e for e in entry_ids() if e.startswith("arr13_")):
        result = verify(entry_id, tol_zero=TOL)
        assert result.float_inertia == result.expected, (entry_id, result)
        assert result.exact_inertia is not None, f"{entry_id}: no exact certification"
        assert result.exact_inertia == result.expected, (entry_id, result)
        got.append(tuple(result.expected))
    elapsed = time.perf_counter() - t0
    ok = sorted(got) == sorted(THIRTEEN) and elapsed < 5.0
    assert report(1, ok, f"13 families reproduced float+exact in {elapsed:.2f}s")


def test_criterion_2_closed_form_grid():
    grid = [0.5, 1.0, 1.5, 2.0, 3.0]
    worst = 0.0
    for a in grid:
        for b in grid:
            state = build("ex11", a=Fraction(a), b=Fraction(b))
            numeric = herm_eig(partial_transpose(state)).values
            closed = ex11_closed_form(a, b)
            worst = max(worst, float(np.abs(numeric - closed).max()))
            assert pt_inertia(state, TOL) == Inertia(3, 0, 6), (a, b)
    ok = worst <= 1e-8
    assert report(2, ok, f"5x5 grid spectrum deviation {worst:.2e} <= 1e-8, "
                         f"inertia (3,0,6) everywhere")


def test_criterion_3_pure_state_formula():
    rng = np.random.default_rng(30826)
    trials = 0
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        for r in range(1, min(m, n) + 1):
            want = pure_inertia(r, m, n)
            assert want == Inertia((r * r - r) // 2, m * n - r * r, (r * r + r) // 2)
            for _ in range(100):
                psi = random_pure_slocc(rng, m, n, r)
                state = dm_from_kets([psi], [1], m, n)
                assert pt_inertia(state, TOL) == want, (m, n, r)
                trials += 1
    assert report(3, True, f"{trials} random Schmidt-rank representatives "
                           f"all match ((r^2-r)/2, mn-r^2, (r^2+r)/2)")


def iva_invariants(a, b) -> tuple[Fraction, Fraction]:
    """Exact (D, P) of npt2_iva at Gaussian-rational (a, b).

    The PT of |Phi3><Phi3| + |psi><psi|, psi = a|00> + b|01> + |10>, has the
    characteristic polynomial (x-1)^3 (x+1)^2 q(x) with

        q(x) = x^4 - (3+|a|^2+|b|^2) x^3 + (2+|a|^2+2|b|^2) x^2 + P x - P,
        P = |ab* - a*|^2 + (|b|^2 - 1)^2 >= 0.

    For P > 0 the coefficients of q(-x) change sign once, so q (real-rooted,
    as a factor of a Hermitian characteristic polynomial) has exactly one
    negative root and none at zero: the PT inertia is (3,0,6).  P = 0 means
    |b| = 1 and ab* = a*; then q = x^2 times a quadratic with positive root
    sum and product: (2,2,5).  Hence det = -P <= 0 excludes (2,0,7), and a
    zero eigenvalue only comes as a double root, so (2,1,6) never occurs.
    The advertised regime parameter is D = |b|^2 - |ab* - a*|^2 - 1.
    """
    a, b = GaussianRational.coerce(a), GaussianRational.coerce(b)
    cross = (a * b.conjugate() - a.conjugate()).abs2()
    return b.abs2() - cross - 1, cross + (b.abs2() - 1) ** 2


def iva_charpoly(a, b, p) -> np.ndarray:
    """Float coefficients of (x-1)^3 (x+1)^2 q(x) from iva_invariants."""
    aa, bb = abs(complex(a)) ** 2, abs(complex(b)) ** 2
    q = [1.0, -(3 + aa + bb), 2 + aa + 2 * bb, float(p), -float(p)]
    return np.polymul(np.poly([1, 1, 1, -1, -1]), q)


IVA_REGIMES = [
    # (regime, sign of D, advertised inertia, rational (a, b) points)
    ("negative", -1, (3, 0, 6),
     [(1, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))]),
    ("zero", 0, (2, 1, 6),
     [(0, 1), (2, Fraction(5, 3)),  # P = 0; D = 0 but P > 0
      (GaussianRational(1, 1), GaussianRational(0, 1))]),  # P = 0, a, b complex
    ("positive", 1, (2, 0, 7), [(0, 2), (1, 2)]),
]


@pytest.mark.parametrize("regime,d_sign,advertised,points", IVA_REGIMES,
                         ids=[r[0] for r in IVA_REGIMES])
def test_criterion_4_iva_regimes(regime, d_sign, advertised, points):
    """In every D regime the family's PT inertia is the one certified from P
    (iva_invariants): float == exact == certified at each rational point.  The
    catalog's advertised D-split agrees only for D < 0; at D >= 0 verify()
    must keep reporting the mismatch."""
    found = []
    for a, b in points:
        disc, p = iva_invariants(a, b)
        assert (disc > 0) - (disc < 0) == d_sign, (a, b, disc)
        certified = Inertia(3, 0, 6) if p > 0 else Inertia(2, 2, 5)

        gamma = partial_transpose(build("npt2_iva", a=a, b=b))
        charpoly = np.poly(np.linalg.eigvalsh(gamma))
        assert np.allclose(charpoly, iva_charpoly(a, b, p), rtol=0, atol=1e-9), (a, b)

        result = verify("npt2_iva", tol_zero=TOL, a=a, b=b)
        assert result.exact_inertia is not None, (a, b)
        assert result.float_inertia == result.exact_inertia == certified, (a, b, result)
        assert tuple(result.expected) == advertised, (a, b, result.expected)
        assert result.passed == (regime == "negative"), (a, b, result)
        found.append(f"{tuple(certified)} at ({a}, {b}) with P={p}")
    assert report(4, True, f"iva regime {regime}: advertised {advertised}, "
                           f"certified {'; '.join(found)}")


NPT2_CASES = {
    "npt2_i": {(1, 4, 4)},
    "npt2_iia": {(2, 2, 5)},
    "npt2_iib": {(2, 2, 5)},
    "npt2_iii": {(3, 0, 6)},
    "npt2_ivb": {(3, 0, 6)},
    "npt2_ivd": {(3, 0, 6)},
}

SR32_CLAIMED = {(2, 2, 5), (2, 1, 6), (2, 0, 7), (3, 0, 6), (3, 1, 5)}


def test_criterion_4_remaining_cases():
    for entry_id, claimed in NPT2_CASES.items():
        result = verify(entry_id, tol_zero=TOL)
        assert result.passed, (entry_id, result)
        assert {tuple(result.float_inertia)} == claimed, entry_id
    # the (3,2) Schmidt-pair case: observed values stay inside the claimed
    # five-element set; the generic and branch values are both demonstrated
    observed = set()
    for params in ({"a": 1, "b": 1, "e": 1}, {"a": 2, "b": 1, "e": 1},
                   {"a": 1, "b": 1, "e": -1}, {"a": 2, "b": 3, "e": Fraction(-1, 2)}):
        result = verify("npt2_ivc", tol_zero=TOL, **params)
        assert result.passed, (params, result)
        observed.add(tuple(result.float_inertia))
    assert observed <= SR32_CLAIMED
    assert observed == {(3, 0, 6), (2, 2, 5)}
    assert report(4, True, "cases i, ii.a, ii.b, iii, iv.b, iv.c, iv.d match "
                           f"their verified values; iv.c realizes {sorted(observed)}")


def test_criterion_5_shift_and_embed_transforms():
    shifted, x = shift_identity(build("arr13_vi"), TOL)
    assert pt_inertia(shifted, TOL) == Inertia(1, 0, 8)
    assert x > 0

    seed = build("arr23_xii")
    assert pt_inertia(seed, TOL) == Inertia(2, 0, 4)
    got = [tuple(pt_inertia(embed(seed, 3, 3, lift, tol_zero=TOL), TOL))
           for lift in range(4)]
    ok = got == [(2, 3, 4), (2, 2, 5), (2, 1, 6), (2, 0, 7)]
    assert report(5, ok, f"(1,5,3)->(1,0,8) shift and embed sweep {got}")


def test_criterion_6_monte_carlo_consistency():
    alarm_set = EXCLUDED + OPEN
    base = dict(m=3, n=3, ensemble="real", tol_zero=TOL)

    t0 = time.perf_counter()
    main_cfg = SearchConfig(ranks=(3,), samples=100_000, seed=20260809,
                            workers=1, **base)
    main_rec = run_search(main_cfg, alarm_set)
    single_threaded = time.perf_counter() - t0
    assert main_rec.alarms == [], main_rec.alarms

    t0 = time.perf_counter()
    twin = run_search(SearchConfig(ranks=(3,), samples=100_000, seed=20260809,
                                   workers=2, **base), alarm_set)
    two_workers = time.perf_counter() - t0
    assert twin.payload() == main_rec.payload(), "worker count changed the record"

    extra_alarms = 0
    for rank in (2, 4, 5, 9):
        rec = run_search(SearchConfig(ranks=(rank,), samples=10_000,
                                      seed=20260809 + rank, workers=1, **base),
                         alarm_set)
        extra_alarms += len(rec.alarms)
    ok = extra_alarms == 0 and single_threaded < 180.0
    assert report(6, ok,
                  f"1.4e5 samples, zero un-flagged hits of "
                  f"{[tuple(t) for t in alarm_set]}; single-threaded "
                  f"{single_threaded:.1f}s (<180s), workers=2 bit-identical "
                  f"in {two_workers:.1f}s")


def test_criterion_7_two_qubit_baseline():
    cfg = SearchConfig(m=2, n=2, ranks=(1, 2, 3, 4), samples=10_000,
                       seed=77001, tol_zero=TOL)
    rec = run_search(cfg)
    npt_triples = {tuple(t) for t in rec.counts if t.neg >= 1}
    ok = npt_triples <= {(1, 0, 3)} and sum(rec.counts.values()) > 9_900
    assert report(7, ok, f"10^4 two-qubit samples: NPT support {sorted(npt_triples)}, "
                         f"marginal {rec.marginal}")


def test_criterion_8_witness_properties():
    worst_min = 0.0
    checked = 0
    for entry_id in entry_ids():
        state = build(entry_id)
        w = is_witness(state, tol_zero=TOL)
        ine = pt_inertia(state, TOL)
        assert ine.pos >= 3, entry_id
        assert ine.neg <= (state.m - 1) * (state.n - 1), entry_id
        value, _ = min_product_expectation(w.mat, state.m, state.n,
                                           restarts=50, seed=0)
        assert value >= -1e-7, (entry_id, value)
        worst_min = min(worst_min, value)
        checked += 1
    assert report(8, True, f"{checked} witnesses: v_plus >= 3, v_minus <= "
                           f"(m-1)(n-1), product minimum >= {worst_min:.2e}")


def test_criterion_9_rank_one_update_trichotomy():
    rng = np.random.default_rng(909)
    cases = {1: 0, 2: 0, 3: 0}
    trials = 0
    attempt = 0
    while trials < 1000:
        attempt += 1
        assert attempt < 5000, "trial generation stalled"
        if trials % 5 == 4:
            # separable draw: PT is PSD and the conjugated factor is in range
            pairs = [(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                      rng.standard_normal(3) + 1j * rng.standard_normal(3))
                     for _ in range(4)]
            state = dm_from_kets([np.kron(a, b) for a, b in pairs], [1] * 4, 3, 3)
            a_vec, b_vec = pairs[0][0].conj(), pairs[0][1]
        else:
            state = random_state(3, 3, int(rng.integers(3, 10)), "real",
                                 seed=(9090, attempt))
            if pt_inertia(state, TOL).zero > 0:
                continue
            a_vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b_vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        outcome = rank_one_update_check(state, a_vec, b_vec, tol_zero=TOL)
        cases[outcome.case] += 1
        trials += 1
    assert report(9, True, f"1000 trials all inside the trichotomy: {cases}")


def test_criterion_10_three_by_n_families():
    fam3 = lemma3n_family(3, tol_zero=TOL)
    fam4 = lemma3n_family(4, tol_zero=TOL)
    ok = len(fam3) == 10 and len(fam4) == 21
    assert report(10, ok, f"(n-1)(2n-1) verified: n=3 -> {len(fam3)}, "
                          f"n=4 -> {len(fam4)}")
