import numpy as np
import pytest

from ptinertia import build, catalog, herm_eig, inertia_of, partial_transpose
from ptinertia.linalg import Inertia, spectrum_inertia

from conftest import congruence, random_hermitian, random_invertible


def test_herm_eig_identity():
    dec = herm_eig(np.eye(9))
    assert np.allclose(dec.values, 1.0)


def test_herm_eig_diagonal_sorted():
    dec = herm_eig(np.diag([-1.0, 0.0, 2.0]))
    assert np.allclose(dec.values, [-1.0, 0.0, 2.0])


def test_herm_eig_reference_family_constants():
    gamma = partial_transpose(build("ex11", a=1, b=1))
    vals = herm_eig(gamma).values
    assert np.sum(np.abs(vals + 1.0) < 1e-8) == 2
    assert np.sum(np.abs(vals - 1.0) < 1e-8) >= 4


def test_herm_eig_rejects_asymmetry():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        herm_eig(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_is_refused_with_its_position(value):
    mat = np.eye(4, dtype=complex)
    mat[2, 1] = value
    for solve in (herm_eig, inertia_of):
        with pytest.raises(ValueError, match=r"entry \(2,1\) is not finite"):
            solve(mat)
    with pytest.raises(ValueError, match="not finite"):
        catalog.verify("npt2_iia", a=float(value), b=1)


def test_herm_eig_invariants(rng):
    for dim in (2, 5, 9, 16):
        m = random_hermitian(rng, dim, scale=3.0)
        dec = herm_eig(m)
        assert np.all(np.diff(dec.values) >= -1e-12)
        recon = (dec.vectors * dec.values) @ dec.vectors.conj().T
        assert np.abs(recon - m).max() <= 1e-10 * max(1.0, np.abs(m).max())
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.abs(gram - np.eye(dim)).max() <= 1e-10


def test_eigenvalue_sum_matches_trace(rng):
    for _ in range(20):
        m = random_hermitian(rng, 7)
        vals = herm_eig(m).values
        tr = float(np.real(np.trace(m)))
        assert abs(vals.sum() - tr) <= 1e-10 * max(1.0, abs(tr))


@pytest.mark.parametrize("dim", [4, 6, 9])
def test_sylvester_invariance(rng, dim):
    # inertia is a congruence invariant: checked on 100 random pairs per dim
    for _ in range(100):
        m = random_hermitian(rng, dim)
        s = random_invertible(rng, dim)
        ine_m, _ = spectrum_inertia(herm_eig(m).values)
        ine_c, _ = spectrum_inertia(herm_eig(congruence(m, s)).values)
        assert ine_m == ine_c


def test_spectrum_inertia_counts_and_flag():
    vals = np.array([-2.0, -1e-12, 0.0, 3.0])
    ine, marginal = spectrum_inertia(vals, tol_zero=1e-9)
    assert ine == Inertia(1, 2, 1)
    assert not marginal

    # an eigenvalue a factor 3 above the threshold flips classification at 10x
    vals = np.array([3e-9 * 3.0, 1.0, 2.0, 3.0])
    ine, marginal = spectrum_inertia(vals, tol_zero=1e-9)
    assert marginal

    with pytest.raises(ValueError):
        spectrum_inertia(vals, tol_zero=0.0)


def _band_edge_spectra(tol, scale):
    """Spectra with one eigenvalue at, just inside or just outside each of the
    three band edges tol/10, tol and 10*tol (times the spectrum's scale)."""
    rows = []
    for edge in (tol / 10, tol, 10 * tol):
        for nudge in (1 - 1e-3, 1.0, 1 + 1e-3):
            for sign in (-1.0, 1.0):
                rows.append([sign * edge * scale * nudge, -scale, 0.5, scale])
    return np.array(rows)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_stacked_spectrum_inertia_matches_per_row_calls(rng, tol):
    stacks = [rng.standard_normal((50, 6)) * rng.choice([1e-12, 1e-8, 1.0, 5.0], (50, 1)),
              _band_edge_spectra(tol, 1.0), _band_edge_spectra(tol, 7.0)]
    for vals in stacks:
        (neg, zero, pos), marginal = spectrum_inertia(vals, tol)
        assert neg.shape == zero.shape == pos.shape == marginal.shape == (len(vals),)
        for row, *got in zip(vals, neg, zero, pos, marginal):
            ine, flag = spectrum_inertia(row, tol)
            assert type(ine.neg) is int and type(flag) is bool
            assert (tuple(ine), flag) == (tuple(got[:3]), got[3])
    # the band-edge spectra exercise both sides of the marginal flag
    _, marginal = spectrum_inertia(_band_edge_spectra(tol, 7.0), tol)
    assert marginal.any() and not marginal.all()
    # a leading batch shape of more than one axis is kept
    (neg, _, _), marginal = spectrum_inertia(stacks[0].reshape(5, 10, 6), tol)
    assert neg.shape == marginal.shape == (5, 10)


def six_count_marginal(values, tol):
    """Reference: the flag as a change of any of the (neg, pos) counts taken at
    tol/10, tol and 10*tol, each band tol * max(1, max|lambda|)."""
    unit = np.maximum(1.0, np.abs(values).max(axis=-1, initial=0.0))[..., None]

    def counts(t):
        return (values < -t * unit).sum(axis=-1), (values > t * unit).sum(axis=-1)

    (neg, pos), (neg_lo, pos_lo), (neg_hi, pos_hi) = (
        counts(tol), counts(tol / 10), counts(tol * 10))
    return (neg_lo != neg) | (pos_lo != pos) | (neg_hi != neg) | (pos_hi != pos)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.3])
def test_marginal_band_matches_the_six_count_rule(tol):
    # a spectrum within 0.03 of 0 is off the band even at tol = 0.3
    rows = np.concatenate([_band_edge_spectra(tol, scale) for scale in (1.0, 7.0, 0.25)]
                          + [[[0.0, 0.01, -0.02, 0.0]]])
    # one ulp either side of each edge, where the two rules could first part
    for spectrum in _band_edge_spectra(tol, 3.0):
        for direction in (0.0, np.inf):
            nudged = spectrum.copy()
            nudged[0] = np.nextafter(nudged[0], np.copysign(direction, nudged[0]))
            rows = np.vstack([rows, nudged])
    want = six_count_marginal(rows, tol)
    assert want.any() and not want.all()
    _, stacked = spectrum_inertia(rows, tol)
    assert (stacked == want).all()
    assert [spectrum_inertia(row, tol)[1] for row in rows] == want.tolist()


@pytest.mark.parametrize("k, dim, kind", [(1, 6, "complex"), (5, 9, "complex"),
                                          (1, 4, "real"), (7, 12, "real")])
def test_a_stack_decomposes_as_its_matrices_one_by_one(rng, k, dim, kind):
    stack = np.array([random_hermitian(rng, dim, scale=3.0) for _ in range(k)])
    if kind == "real":
        stack = stack.real
    dec = herm_eig(stack)
    assert dec.values.shape == (k, dim) and dec.vectors.shape == (k, dim, dim)
    for mat, values, vectors in zip(stack, dec.values, dec.vectors):
        one = herm_eig(mat)
        assert np.array_equal(values, one.values)
        assert np.array_equal(vectors, one.vectors)


@pytest.mark.parametrize("fault, message", [
    ("nan", r"^stack index 2: matrix entry \(1,0\) is not finite: "),
    ("inf", r"^stack index 2: matrix entry \(1,0\) is not finite: "),
    ("asymmetric", r"^stack index 2: matrix is not Hermitian: max asymmetry 5\.000e-01"),
])
def test_a_stack_names_the_first_matrix_that_fails_a_check(rng, fault, message):
    stack = np.array([random_hermitian(rng, 5) for _ in range(4)])
    bad = {"nan": np.nan, "inf": np.inf, "asymmetric": stack[2, 1, 0] + 0.5}[fault]
    stack[2, 1, 0] = bad
    stack[3, 0, 1] = bad  # a later matrix with the same fault is not the one named
    with pytest.raises(ValueError, match=message):
        herm_eig(stack)
    # a single matrix keeps its message, with no stack index
    with pytest.raises(ValueError, match=message.replace("^stack index 2: ", "^")):
        herm_eig(stack[2])


def test_a_stack_names_the_first_matrix_whose_decomposition_fails_validation(rng, monkeypatch):
    stack = np.array([random_hermitian(rng, 4) for _ in range(3)])
    eigh = np.linalg.eigh

    def eigh_shifted_by(shift):
        # shifted eigenvalues leave a residual of about |shift| in the check
        def shifted(mat):
            values, vectors = eigh(mat)
            return values + shift, vectors
        return shifted

    monkeypatch.setattr(np.linalg, "eigh", eigh_shifted_by(np.array([[0.0], [1e-3], [1e-3]])))
    with pytest.raises(RuntimeError, match=r"^stack index 1: eigendecomposition failed "
                                           r"validation: residual="):
        herm_eig(stack)
    monkeypatch.setattr(np.linalg, "eigh", eigh_shifted_by(1e-3))
    with pytest.raises(RuntimeError, match=r"^eigendecomposition failed validation: residual="):
        herm_eig(stack[0])
