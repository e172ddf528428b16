from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptinertia import build_exact, exact, inertia_of, lemma3n_family, matio, pt_array
from ptinertia.exact import ExactMatrix, GaussianRational, as_exact_matrix, exact_inertia
from ptinertia.linalg import Inertia

from conftest import exact_cells

G = GaussianRational


def is_exactly_hermitian(mat) -> bool:
    """Each cell of a square exact matrix equals the conjugate of its mirror."""
    d = len(mat)
    return all(mat[i][j] == mat[j][i].conjugate() for i in range(d) for j in range(i, d))


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
    for mat in ([[1, 0.0], [0.0, 1]], [[0.5]]):
        with pytest.raises(TypeError):
            exact_inertia(mat)


def test_exact_inertia_identity():
    assert exact_inertia(np.diag([G(1)] * 3)) == Inertia(0, 0, 3)


def test_exact_inertia_antidiagonal_forces_block_pivot():
    mat = [[G(0), G(1)], [G(1), G(0)]]
    assert exact_inertia(mat) == Inertia(1, 0, 1)


def test_exact_inertia_rejects_non_hermitian():
    mat = [[G(0), G(1)], [G(2), G(0)]]
    with pytest.raises(ValueError):
        exact_inertia(mat)


@pytest.mark.parametrize("mat", [
    [[G(1), G(0)], [G(0)]],  # ragged
    np.array([[G(1), G(0), G(0)], [G(0), G(1), G(0)]], dtype=object),  # 2x3
    [[G(1), G(0)], [G(0, 1), G(1)]],  # a nonzero entry whose mirror is zero
    [[G(0, 1)]],  # a non-real diagonal
    [[G(0), G(1, 1)], [G(1, 1), G(0)]],  # symmetric but not Hermitian
    np.array([G(1), G(0)], dtype=object),  # 1-D
    np.array([1, 0, 0, 1], dtype=object),  # 1-D of ints
    np.array([[[G(1)]]], dtype=object),  # 3-D
    np.array(G(1), dtype=object),  # 0-D
])
def test_exact_inertia_rejects_non_square_and_non_hermitian(mat):
    with pytest.raises(ValueError, match="exact_inertia requires an exactly Hermitian matrix"):
        exact_inertia(mat)


_I2 = np.eye(2, dtype=np.int64)


@pytest.mark.parametrize("re_part, im_part, den, message", [
    (_I2, 0 * _I2, 0, "denominator must be a positive int, got 0"),
    (_I2, 0 * _I2, -1, "denominator must be a positive int, got -1"),
    (_I2, 0 * _I2, 2.0, "denominator must be a positive int, got 2.0"),
    (np.ones((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64), 1, "exactly Hermitian"),
    (_I2, np.zeros((3, 3), dtype=np.int64), 1, "exactly Hermitian"),
    (np.ones(4, dtype=np.int64), np.zeros(4, dtype=np.int64), 1, "exactly Hermitian"),
    (_I2.astype(float), 0 * _I2, 1, "exactly Hermitian"),
    (_I2.tolist(), [[0, 0], [0, 0]], 1, "exactly Hermitian"),
])
def test_an_exact_matrix_needs_square_integer_parts_over_a_positive_den(
        re_part, im_part, den, message):
    # exact_inertia works on den * A: -I held as I over den = -1 would
    # certify as (0,0,2)
    with pytest.raises(ValueError, match=message):
        ExactMatrix(re_part, im_part, den)


def test_exact_inertia_accepts_ints_and_fractions():
    mat = [[2, Fraction(1, 2), 0], [Fraction(1, 2), 0, 0], [0, 0, 0]]
    assert exact_inertia(mat) == Inertia(1, 1, 1)
    assert exact_inertia(np.array(mat, dtype=object)) == Inertia(1, 1, 1)
    assert exact_inertia([]) == Inertia(0, 0, 0)


def test_exact_inertia_on_cancelling_and_zero_diagonal_input():
    # the pivot 1 turns the lower block [[1, 1], [1, 1]] into exact zeros
    mat = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    assert exact_inertia(mat) == Inertia(0, 2, 1)
    # a zero diagonal everywhere: no pivot exists until a congruence makes one
    swap = [[0, 0, 0, G(0, 1)], [0, 0, 3, 0], [0, 3, 0, 0], [G(0, -1), 0, 0, 0]]
    assert exact_inertia(swap) == Inertia(2, 0, 2)


@pytest.mark.parametrize("mat, field", [
    ([[0, 1, 1], [1, 0, -1], [1, -1, 0]], Fraction),
    ([[0, G(0, 1), G(0, 1)], [G(0, -1), 0, -1], [G(0, -1), -1, 0]], G),
])
def test_zero_diagonal_congruence_that_cancels_an_entry(mat, field):
    # row 0 += a_01 * row 1 turns a_02 into a_02 + a_01 a_12 = 0, so row 2
    # loses its entry in column 0 before the first pivot
    assert is_exactly_hermitian(mat)
    assert row_scalar_types(mat) == {Fraction}
    assert len(elimination_rows(mat)) == (2 if field is G else 1) * len(mat)
    assert exact_inertia(mat) == charpoly_inertia(mat) == Inertia(1, 0, 2)


def test_hash_agrees_with_eq():
    for value in (0, 1, -3, 10**30, Fraction(1, 2), Fraction(-7, 3)):
        assert G(value) == value and hash(G(value)) == hash(value)
    assert len({1, G(1)}) == len({Fraction(1, 2), G(Fraction(1, 2))}) == 1
    z = G(Fraction(1, 2), -2)
    assert z == G(Fraction(2, 4), Fraction(-4, 2)) and hash(z) == hash(G(Fraction(2, 4), -2))
    assert len({z, z.conjugate(), Fraction(1, 2)}) == 3


def test_exact_pt_of_rank2_pure():
    rho = build_exact("arr13_vi")
    gamma = pt_array(rho, 3, 3)
    assert is_exactly_hermitian(exact_cells(gamma))
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
    assert is_exactly_hermitian(rho)
    ine = exact_inertia(rho)
    assert ine.neg == 0 and ine.pos == 1


def dense_elimination_inertia(mat) -> Inertia:
    """Oracle: dense symmetric elimination with 1x1 and 2x2 pivots.

    It updates every active (i, j) pair at each pivot, picks the diagonal
    entry of largest magnitude and takes a 2x2 pivot on a zero diagonal, so
    it shares no pivot order, no pivot kind for a zero diagonal and no
    sparse bookkeeping with exact_inertia.
    """
    # the elimination works on a private list-of-lists copy
    a = [[GaussianRational.coerce(x) for x in row] for row in mat]
    if any(len(row) != len(a) for row in a) or not is_exactly_hermitian(a):
        raise ValueError("exact_inertia requires an exactly Hermitian matrix")
    active = list(range(len(a)))
    neg = pos = 0

    while active:
        # prefer the diagonal entry of largest magnitude to limit coefficient blowup
        pivot = None
        pivot_mag = Fraction(0)
        for p in active:
            mag = abs(a[p][p].re)
            if mag > pivot_mag:
                pivot, pivot_mag = p, mag
        if pivot is not None:
            d = a[pivot][pivot]
            if d.re > 0:
                pos += 1
            else:
                neg += 1
            active.remove(pivot)
            cols = {i: a[i][pivot] for i in active}
            for i in active:
                if not cols[i]:
                    continue
                ratio = cols[i] / d
                for j in active:
                    a[i][j] = a[i][j] - ratio * cols[j].conjugate()
            continue

        off = None
        for ii, p in enumerate(active):
            for q in active[ii + 1:]:
                if a[p][q]:
                    off = (p, q)
                    break
            if off:
                break
        if off is None:
            break  # active block is identically zero; the rest are zero eigenvalues
        p, q = off
        piv = a[p][q]
        pos += 1
        neg += 1
        active.remove(p)
        active.remove(q)
        # Schur complement against [[0, piv], [piv*, 0]]
        up = {i: a[i][p] for i in active}
        vq = {i: a[i][q] for i in active}
        for i in active:
            if not up[i] and not vq[i]:
                continue
            for j in active:
                corr = up[i] * (vq[j].conjugate() / piv.conjugate()) + vq[i] * (
                    up[j].conjugate() / piv
                )
                a[i][j] = a[i][j] - corr

    return Inertia(neg, len(a) - neg - pos, pos)


def charpoly_inertia(mat) -> Inertia:
    """Independent oracle: inertia from the characteristic polynomial.

    H = A + iB is Hermitian iff its real embedding E = [[A, -B], [B, A]] is
    symmetric, and E has H's spectrum with every eigenvalue twice.  The
    characteristic polynomial of E comes from Faddeev-LeVerrier over Q
    (M_k = E M_{k-1} + c_{N-k+1} I, c_{N-k} = -tr(E M_k) / k); it is
    real-rooted, so Descartes' rule of signs counts its positive and negative
    roots exactly, and the multiplicity of the root 0 is its number of
    vanishing low-order coefficients.  No GaussianRational arithmetic and no
    elimination is involved.
    """
    d = len(mat)
    e = np.array([[Fraction(0)] * (2 * d) for _ in range(2 * d)], dtype=object)
    for i in range(d):
        for j in range(d):
            g = G.coerce(mat[i][j])
            e[i, j] = e[d + i, d + j] = g.re
            e[d + i, j], e[i, d + j] = g.im, -g.im
    big_n = 2 * d
    eye = np.array([[Fraction(int(i == j)) for j in range(big_n)] for i in range(big_n)],
                   dtype=object)
    coeffs = [Fraction(0)] * big_n + [Fraction(1)]  # coeffs[k] multiplies x^k
    m_k = eye * 0
    for k in range(1, big_n + 1):
        m_k = e.dot(m_k) + eye * coeffs[big_n - k + 1]
        coeffs[big_n - k] = -sum((e * m_k.T).flat) / k  # tr(E M_k) without a product

    zero = next(k for k, c in enumerate(coeffs) if c != 0)

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    rest = coeffs[zero:]
    pos = sign_changes(rest)
    neg = sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(rest)])
    assert zero + pos + neg == big_n  # real-rooted, so Descartes is exact
    assert zero % 2 == pos % 2 == neg % 2 == 0
    return Inertia(neg // 2, zero // 2, pos // 2)


def test_charpoly_oracle_on_known_spectra():
    assert charpoly_inertia(np.diag([G(2), G(-1), G(0), G(Fraction(1, 3))])) == Inertia(1, 1, 2)
    assert charpoly_inertia([[G(0), G(0, 1)], [G(0, -1), G(0)]]) == Inertia(1, 0, 1)
    assert charpoly_inertia([[G(1), G(1)], [G(1), G(1)]]) == Inertia(0, 1, 1)
    gamma = pt_array(build_exact("arr13_xii"), 3, 3)
    assert charpoly_inertia(exact_cells(gamma)) == Inertia(3, 1, 5)


_small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_gaussian_rationals = st.builds(G, _small_rationals, _small_rationals)


@st.composite
def gaussian_rational_hermitians(draw):
    """Small Hermitian matrices over Q(i): generic, rank-deficient
    (sum of fewer than d signed projectors) or with a zero diagonal, which
    leaves the elimination no 1x1 pivot at its first step."""
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["generic", "rank_deficient", "zero_diagonal"]))
    if kind == "rank_deficient":
        r = draw(st.integers(0, d - 1))
        vecs = [[draw(_gaussian_rationals) for _ in range(d)] for _ in range(r)]
        signs = [draw(st.sampled_from([-1, 1])) for _ in range(r)]
        return [[sum((s * v[i] * v[j].conjugate() for s, v in zip(signs, vecs)), G(0))
                 for j in range(d)] for i in range(d)]
    mat = [[G(0)] * d for _ in range(d)]
    for i in range(d):
        if kind == "generic":
            mat[i][i] = G(draw(_small_rationals))
        for j in range(i + 1, d):
            mat[i][j] = draw(_gaussian_rationals)
            mat[j][i] = mat[i][j].conjugate()
    return mat


@settings(max_examples=100)
@given(gaussian_rational_hermitians())
def test_exact_inertia_matches_the_charpoly_oracle(mat):
    assert is_exactly_hermitian(mat)
    assert exact_inertia(mat) == charpoly_inertia(mat)


_sparse_entries = st.one_of(st.just(G(0)), st.just(G(0)), _gaussian_rationals)


@st.composite
def sparse_gaussian_rational_hermitians(draw):
    """Sparse Hermitian matrices over Q(i) with d <= 10, in four shapes:
    - block_permuted: Hermitian blocks on the diagonal, then one permutation
      of rows and columns, so nonzeros sit off the band;
    - zero_rows: some rows and their columns are identically zero;
    - zero_diagonal: no diagonal pivot exists until a congruence makes one;
    - cancelling: a sum of r < d signed projectors onto sparse vectors, so
      after r pivots every Schur update cancels to an exact zero."""
    d = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["block_permuted", "zero_rows", "zero_diagonal", "cancelling"]))
    if kind == "cancelling":
        r = draw(st.integers(0, d - 1))
        vecs = [[draw(_sparse_entries) for _ in range(d)] for _ in range(r)]
        signs = [draw(st.sampled_from([-1, 1])) for _ in range(r)]
        return [[sum((s * v[i] * v[j].conjugate() for s, v in zip(signs, vecs)), G(0))
                 for j in range(d)] for i in range(d)]
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=3))) if d > 1 else []
    block = {i: sum(i >= c for c in cuts) for i in range(d)}
    mat = [[G(0)] * d for _ in range(d)]
    for i in range(d):
        if kind != "zero_diagonal":
            mat[i][i] = draw(st.one_of(st.just(G(0)), st.builds(G, _small_rationals)))
        for j in range(i + 1, d):
            if kind != "block_permuted" or block[i] == block[j]:
                mat[i][j] = draw(_sparse_entries)
                mat[j][i] = mat[i][j].conjugate()
    if kind == "zero_rows":
        for k in draw(st.sets(st.integers(0, d - 1), max_size=d // 2)):
            for i in range(d):
                mat[k][i] = mat[i][k] = G(0)
    if kind == "block_permuted":
        perm = draw(st.permutations(range(d)))
        mat = [[mat[perm[i]][perm[j]] for j in range(d)] for i in range(d)]
    return mat


@settings(max_examples=200, deadline=None)
@given(sparse_gaussian_rational_hermitians())
def test_sparse_elimination_matches_the_dense_oracle(mat):
    assert is_exactly_hermitian(mat)
    got = exact_inertia(mat)
    assert got == dense_elimination_inertia(mat)
    if len(mat) <= 6:
        assert got == charpoly_inertia(mat)


def elimination_rows(mat) -> dict[int, dict]:
    """exact_inertia's elimination rows for mat, were every row left to the
    elimination."""
    cells, re_v, im_v = exact._nonzero_rows(as_exact_matrix(mat))
    return exact._elimination_rows(cells, range(len(cells)), re_v, im_v)


def row_scalar_types(mat) -> set[type]:
    """The scalar types elimination_rows(mat) holds."""
    return {type(x) for row in elimination_rows(mat).values() for x in row.values()}


_real_entries = st.one_of(st.integers(-4, 4), _small_rationals,
                          st.builds(G, _small_rationals))  # every im == 0


@st.composite
def real_rational_hermitians(draw):
    """Real symmetric rational matrices (every im == 0) of int, Fraction and
    real GaussianRational entries, as nested lists or object arrays:
    - dense: every entry drawn, d <= 5;
    - rank_deficient: a sum of r < d signed real projectors, d <= 5;
    - sparse: d <= 10, two off-diagonal entries in three are zero;
    - zero_diagonal: sparse with a zero diagonal, so the first pivot needs a
      congruence to make its diagonal entry nonzero."""
    kind = draw(st.sampled_from(["dense", "rank_deficient", "sparse", "zero_diagonal"]))
    d = draw(st.integers(1, 5 if kind in ("dense", "rank_deficient") else 10))
    if kind == "rank_deficient":
        r = draw(st.integers(0, d - 1))
        vecs = [[draw(_real_entries) for _ in range(d)] for _ in range(r)]
        signs = [draw(st.sampled_from([-1, 1])) for _ in range(r)]
        mat = [[sum((s * v[i] * v[j] for s, v in zip(signs, vecs)), Fraction(0))
                for j in range(d)] for i in range(d)]
    else:
        off = (_real_entries if kind == "dense"
               else st.one_of(st.just(0), st.just(Fraction(0)), _real_entries))
        mat = [[0] * d for _ in range(d)]
        for i in range(d):
            if kind != "zero_diagonal":
                mat[i][i] = draw(_real_entries)
            for j in range(i + 1, d):
                mat[i][j] = mat[j][i] = draw(off)
    return np.array(mat, dtype=object) if draw(st.booleans()) else mat


@settings(max_examples=100, deadline=None)
@given(real_rational_hermitians())
def test_real_input_is_eliminated_over_q_and_matches_both_oracles(mat):
    assert is_exactly_hermitian(mat)
    assert row_scalar_types(mat) <= {Fraction}
    got = exact_inertia(mat)
    assert got == dense_elimination_inertia(mat)
    if len(mat) <= 6:
        assert got == charpoly_inertia(mat)


_imaginary_parts = _small_rationals.filter(bool)


@settings(max_examples=60, deadline=None)
@given(real_rational_hermitians().filter(lambda m: len(m) >= 2), st.data())
def test_one_conjugate_pair_embeds_the_whole_matrix_over_q(mat, data):
    d = len(mat)
    mat = [list(row) for row in mat]
    i, j = data.draw(st.permutations(range(d)))[:2]
    entry = G(G.coerce(mat[i][j]).re, data.draw(_imaginary_parts))
    mat[i][j], mat[j][i] = entry, entry.conjugate()
    assert is_exactly_hermitian(mat)
    assert row_scalar_types(mat) == {Fraction}
    # rows i and i + d of the real embedding for every row i, and symmetric
    rows = elimination_rows(mat)
    assert set(rows) == set(range(2 * d))
    assert all(rows[k][i] == x for i, row in rows.items() for k, x in row.items())
    got = exact_inertia(mat)
    assert got == dense_elimination_inertia(mat)
    if d <= 6:
        assert got == charpoly_inertia(mat)


@pytest.mark.parametrize("mat", [
    [[1, Fraction(1, 2)], [Fraction(1, 2), 0.5]],
    [[0, 0.0], [0.0, Fraction(3)]],
    [[2, 1], [1, np.float64(1.0)]],
])
@pytest.mark.parametrize("as_array", [False, True])
def test_real_input_rejects_a_float_entry(mat, as_array):
    with pytest.raises(TypeError):
        exact_inertia(np.array(mat, dtype=object) if as_array else mat)


@pytest.mark.parametrize("mat", [
    [[1, 2], [3, 1]],  # asymmetric
    [[0, Fraction(1, 2)], [0, 0]],  # a nonzero entry whose mirror is zero
    [[1, G(2)], [Fraction(5, 2), 1]],  # asymmetric across entry types
    [[1, 0], [0]],  # ragged
    np.array([[1, 0, 0], [0, 1, 0]], dtype=object),  # 2x3
    np.array([[Fraction(1), 2], [3, 4]], dtype=object),  # asymmetric object array
])
def test_real_input_rejects_non_square_and_non_symmetric(mat):
    with pytest.raises(ValueError, match="exact_inertia requires an exactly Hermitian matrix"):
        exact_inertia(mat)


def _spy_elimination(monkeypatch) -> list:
    """Record every Schur update exact_inertia's elimination makes."""
    calls = []

    def spy(row, coeff, other):
        calls.append(coeff)
        sub_scaled(row, coeff, other)

    sub_scaled = exact._sub_scaled
    monkeypatch.setattr(exact, "_sub_scaled", spy)
    return calls


def _one_by_one_rows(mat) -> list[int]:
    """The rows of mat whose only nonzero is their own diagonal."""
    cells, _, _ = exact._nonzero_rows(as_exact_matrix(mat))
    return [i for i, row in enumerate(cells) if list(row) == [i]]


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (3, 4)])
def test_every_chain_family_row_certifies_exactly(monkeypatch, m, n):
    exact_view = np.vectorize(Fraction, otypes=[object])  # the entries are dyadic
    calls = _spy_elimination(monkeypatch)
    for want, state in lemma3n_family(n, m=m):
        assert not state.mat.imag.any()
        gamma = pt_array(exact_view(state.mat.real), m, n)
        assert _one_by_one_rows(gamma)
        assert exact_inertia(gamma) == want
    # every chain-family PT splits into 1x1 and 2x2 blocks: no pivot is taken
    assert calls == []


def _blocks_and_one_by_ones(coupled):
    """d = 8: 1x1 blocks 3, -1/2 and -2/3 at rows 0, 3 and 7, an all-zero row
    1, the block [[1, 2], [2, 1]] on rows 2 and 5 and the zero-diagonal block
    [[0, c], [conj(c), 0]] on rows 4 and 6; the triple is (4,1,3)."""
    mat = [[G(0)] * 8 for _ in range(8)]
    for i, x in ((0, 3), (3, Fraction(-1, 2)), (7, Fraction(-2, 3)), (2, 1), (5, 1)):
        mat[i][i] = G(x)
    mat[2][5] = mat[5][2] = G(2)
    mat[4][6], mat[6][4] = coupled, coupled.conjugate()
    return mat


@pytest.mark.parametrize("coupled, field", [(G(5), Fraction), (G(1, 1), G)])
def test_one_by_one_blocks_beside_coupled_blocks_match_both_oracles(coupled, field):
    mat = _blocks_and_one_by_ones(coupled)
    assert is_exactly_hermitian(mat)
    assert row_scalar_types(mat) == {Fraction}
    assert len(elimination_rows(mat)) == (2 if field is G else 1) * 8
    assert _one_by_one_rows(mat) == [0, 3, 7]
    got = exact_inertia(mat)
    assert got == dense_elimination_inertia(mat) == charpoly_inertia(mat) == Inertia(4, 1, 3)


@pytest.mark.parametrize("a, c, b, want", [
    (1, 1, 2, Inertia(1, 0, 1)),  # det < 0
    (Fraction(1, 2), -3, Fraction(1, 3), Inertia(1, 0, 1)),  # det < 0, a c < 0
    (2, 3, 1, Inertia(0, 0, 2)),  # det > 0, a > 0
    (-2, Fraction(-3, 2), 1, Inertia(2, 0, 0)),  # det > 0, a < 0
    (1, 4, 2, Inertia(0, 1, 1)),  # det = 0, a > 0
    (Fraction(-1, 2), -8, 2, Inertia(1, 1, 0)),  # det = 0, a < 0
    (0, 3, 1, Inertia(1, 0, 1)),  # a zero diagonal
    (Fraction(-5, 7), 0, 2, Inertia(1, 0, 1)),  # the other diagonal zero
    (0, 0, Fraction(1, 3), Inertia(1, 0, 1)),  # two zero diagonals
])
@pytest.mark.parametrize("phase", [G(1), G(0, 1), G(Fraction(3, 5), Fraction(-4, 5))])
def test_two_by_two_blocks_are_settled_by_their_determinant(monkeypatch, a, c, b, want, phase):
    # |phase| = 1, so a phase keeps |b|^2; G(1) keeps the block over Q
    b = phase * b
    mat = [[G(0)] * 4 for _ in range(4)]
    mat[3][3], mat[1][1] = G(a), G(c)
    mat[3][1], mat[1][3] = b, b.conjugate()
    assert is_exactly_hermitian(mat)
    assert row_scalar_types(mat) == {Fraction}
    assert len(elimination_rows(mat)) == (1 if phase == 1 else 2) * 4
    calls = _spy_elimination(monkeypatch)
    got = exact_inertia(mat)
    assert got == dense_elimination_inertia(mat) == charpoly_inertia(mat)
    assert got == Inertia(want.neg, want.zero + 2, want.pos)  # rows 0 and 2 are zero
    assert calls == []


@pytest.mark.parametrize("perm", [(0, 1, 2), (2, 1, 0), (1, 0, 2), (1, 2, 0)])
@pytest.mark.parametrize("coupling", [G(1), G(1, 1)])
def test_a_pair_whose_row_touches_a_third_row_is_eliminated(monkeypatch, perm, coupling):
    """Rows 0 and 1 look like a block from row 0, but row 1 also touches row
    2: [[1, 1, 0], [1, 1, k], [0, conj(k), 1]] has eigenvalues 1 and
    1 +- |k| sqrt(2), so the triple is (1,0,2) for |k| = 1 or sqrt(2)."""
    base = [[G(1), G(1), G(0)], [G(1), G(1), coupling], [G(0), coupling.conjugate(), G(1)]]
    mat = [[base[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
    calls = _spy_elimination(monkeypatch)
    got = exact_inertia(mat)
    assert got == dense_elimination_inertia(mat) == charpoly_inertia(mat) == Inertia(1, 0, 2)
    assert calls


@pytest.mark.parametrize("coupled", [G(5), G(1, 1)])
def test_two_by_two_blocks_beside_one_by_one_and_three_by_three_blocks(monkeypatch, coupled):
    """d = 9: the 1x1 block -1 at row 0, an all-zero row 7, the blocks
    [[2, 1], [1, 3]] on rows 1 and 5 and [[0, c], [conj(c), 0]] on rows 3 and
    8, and the 3x3 block [[1, 1, 0], [1, 1, 1], [0, 1, 1]] on rows 2, 4 and 6;
    the triple is (3,1,5)."""
    mat = [[G(0)] * 9 for _ in range(9)]
    for i, x in ((0, -1), (1, 2), (5, 3), (2, 1), (4, 1), (6, 1)):
        mat[i][i] = G(x)
    for i, j, x in ((1, 5, G(1)), (3, 8, coupled), (2, 4, G(1)), (4, 6, G(1))):
        mat[i][j], mat[j][i] = x, x.conjugate()
    assert is_exactly_hermitian(mat)
    calls = _spy_elimination(monkeypatch)
    got = exact_inertia(mat)
    assert got == dense_elimination_inertia(mat) == Inertia(3, 1, 5)
    # only the 3x3 block is eliminated: two pivots, one Schur update each
    assert len(calls) == 2


_small_gaussian_integers = st.builds(G, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def permuted_small_block_hermitians(draw):
    """Integer Hermitian matrices made of blocks of size 1 to 3, over Q or
    over Q(i), conjugated by a permutation so a block's rows need not be
    adjacent.  Entries in -2..2 make det = 0 blocks and zero diagonals common."""
    entries = (st.integers(-2, 2).map(G) if draw(st.booleans())
               else _small_gaussian_integers)
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    d = sum(sizes)
    mat = [[G(0)] * d for _ in range(d)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            mat[i][i] = G(draw(st.integers(-2, 2)))
            for j in range(i + 1, start + size):
                mat[i][j] = draw(entries)
                mat[j][i] = mat[i][j].conjugate()
        start += size
    perm = draw(st.permutations(range(d)))
    return [[mat[perm[i]][perm[j]] for j in range(d)] for i in range(d)]


@settings(max_examples=150, deadline=None)
@given(permuted_small_block_hermitians())
def test_permuted_small_blocks_match_both_oracles(mat):
    assert is_exactly_hermitian(mat)
    got = exact_inertia(mat)
    assert got == dense_elimination_inertia(mat)
    if len(mat) <= 6:
        assert got == charpoly_inertia(mat)



_BOUNDARY_INTS = st.sampled_from([2 ** 53, 2 ** 62, 2 ** 63]).flatmap(
    lambda bound: st.integers(bound - 2, bound + 1)).flatmap(lambda v: st.sampled_from([v, -v]))
# 2^31 - 1 and 2^61 - 1 are primes, so a matrix that holds both has a common
# denominator past 2^63
_denominators = st.sampled_from([1, 1, 2, 3, 2 ** 31 - 1, 2 ** 61 - 1])
_numerators = st.one_of(st.integers(-3, 3), _BOUNDARY_INTS)
_boundary_entries = st.builds(lambda p, q, r, s: G(Fraction(p, q), Fraction(r, s)),
                              _numerators, _denominators, _numerators, _denominators)


@st.composite
def boundary_hermitians(draw):
    """Hermitian matrices, d <= 4, whose parts have numerators near +-2^53,
    +-2^62 and +-2^63 and denominators whose lcm may pass 2^63: sparse,
    dense, or a sum of r < d signed projectors."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["sparse", "dense", "rank_deficient"]))
    entries = (_boundary_entries if kind == "dense"
               else st.one_of(st.just(G(0)), _boundary_entries))
    if kind == "rank_deficient":
        r = draw(st.integers(0, d - 1))
        vecs = [[draw(entries) for _ in range(d)] for _ in range(r)]
        signs = [draw(st.sampled_from([-1, 1])) for _ in range(r)]
        return [[sum((s * v[i] * v[j].conjugate() for s, v in zip(signs, vecs)), G(0))
                 for j in range(d)] for i in range(d)]
    mat = [[G(0)] * d for _ in range(d)]
    for i in range(d):
        mat[i][i] = G(draw(entries).re)
        for j in range(i + 1, d):
            mat[i][j] = draw(entries)
            mat[j][i] = mat[i][j].conjugate()
    return mat


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)  # tells -0.0 from 0.0


@settings(max_examples=80, deadline=None)
@given(boundary_hermitians())
def test_exact_matrices_near_the_int64_and_float_bounds_match_both_oracles(mat):
    assert is_exactly_hermitian(mat)
    want = exact_inertia(mat)
    assert want == dense_elimination_inertia(mat)
    if len(mat) <= 3:
        assert want == charpoly_inertia(mat)
    floats = [[complex(g) for g in row] for row in mat]
    text = matio.dumps_matrix(np.array(floats), exact=mat)
    for em in (as_exact_matrix(mat), matio.loads_matrix(text).exact):
        assert isinstance(em, ExactMatrix) and em.den > 0
        numerators = [abs(v) for part in (em.re, em.im) for v in part.flat]
        wide = max(numerators) >= 2 ** 62
        assert em.re.dtype == em.im.dtype == (object if wide else np.int64)
        assert exact_cells(em) == mat
        assert np.array_equal(_bits(em.float_view()), _bits(floats))
        assert exact_inertia(em) == want


def test_a_family_pt_loads_and_certifies_with_no_gaussian_rational(monkeypatch):
    want, state = lemma3n_family(8)[50]
    gamma = pt_array(state.mat, 3, 8)
    text = matio.dumps_matrix(gamma, 3, 8, [[G(Fraction(z.real)) for z in row] for row in gamma])
    made = []
    init = G.__init__
    monkeypatch.setattr(G, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    assert exact_inertia(matio.loads_matrix(text).exact) == want
    assert made == []
    # the exact build makes one per ket coefficient and weight, none per cell
    rho = build_exact("arr13_xiii")
    assert 0 < len(made) <= 12 < rho.re.size


def complex_wishart_pt(seed: int, m: int, n: int, rank: int) -> ExactMatrix:
    """The exact PT of the state R R^dagger, R an (m n) x rank matrix of
    Gaussian integers with parts in -3..3 drawn from seed."""
    xr, xi = np.random.default_rng(seed).integers(-3, 4, size=(2, m * n, rank))
    return pt_array(ExactMatrix(xr @ xr.T + xi @ xi.T, xi @ xr.T - xr @ xi.T, 1), m, n)


def _spy_rows(monkeypatch) -> list:
    """Record the rows each exact_inertia call hands to its elimination."""
    seen = []
    rows_of = exact._elimination_rows
    monkeypatch.setattr(exact, "_elimination_rows",
                        lambda *args: seen.append(rows_of(*args)) or seen[-1])
    return seen


@pytest.mark.parametrize("em", [
    as_exact_matrix([[1, 1, 0], [1, 1, G(1, 1)], [0, G(1, -1), 1]]),
    complex_wishart_pt(3, 3, 4, 6),
], ids=["coupled_3x3_block", "wishart_3x4_pt"])
def test_complex_rows_are_eliminated_with_no_gaussian_rational(monkeypatch, em):
    want = dense_elimination_inertia(exact_cells(em))
    seen = _spy_rows(monkeypatch)
    made = []
    init = G.__init__
    monkeypatch.setattr(G, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    assert exact_inertia(em) == want
    assert made == []
    # every row reaches the elimination, as rows i and i + d of the embedding
    assert [set(rows) for rows in seen] == [set(range(2 * len(em)))]


@pytest.mark.parametrize("seed, m, n, rank", [
    (5, 3, 4, 12), (6, 2, 6, 4), (7, 3, 6, 18), (8, 3, 6, 7), (9, 2, 9, 10),
])
def test_dense_complex_pts_past_the_hypothesis_sizes_match_the_oracles(seed, m, n, rank):
    gamma = complex_wishart_pt(seed, m, n, rank)
    assert gamma.im.any()
    got = exact_inertia(gamma)
    assert got == dense_elimination_inertia(exact_cells(gamma))
    float_ine, marginal = inertia_of(gamma.float_view(), with_flag=True)
    assert marginal or float_ine == got


def test_a_dense_complex_matrix_of_low_rank_keeps_its_zero_count():
    # X diag(-1 x 5, +1 x 6) X^dagger with X an 18 x 11 Gaussian-integer matrix
    xr, xi = np.random.default_rng(11).integers(-3, 4, size=(2, 18, 11))
    s = np.array([-1] * 5 + [1] * 6)
    mat = ExactMatrix((xr * s) @ xr.T + (xi * s) @ xi.T, (xi * s) @ xr.T - (xr * s) @ xi.T, 1)
    assert exact_inertia(mat) == dense_elimination_inertia(exact_cells(mat)) == Inertia(5, 7, 6)
