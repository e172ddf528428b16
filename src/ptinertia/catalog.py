"""Registry of reference state families with certified PT inertias.

Every entry is a weighted ket mixture with one build: build_exact reads each
coefficient and weight exactly (_exact) and adds each weighted projector on
its ket's support, as Gaussian-integer numerators over one common
denominator fixed before the sum, straight into an ExactMatrix's two arrays.
build is that matrix's float view, and verify() compares the float and the
exact inertia of its PT (states.pt_array of either) with the entry's
expected rule.  Parameters must be numbers with a finite complex value.  A
handful of families whose conventional printed forms do not reproduce their
advertised inertia are realized through verified substitute constructions,
documented in their notes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number
from typing import Callable

import numpy as np

from .exact import ExactMatrix, GaussianRational, exact_inertia, int_array
from .inertia import Inertia, pt_inertia
from .linalg import TOL_ZERO, herm_eig, spectrum_inertia
from .states import State, dm_from_kets, ket_vector, pt_array

Terms = list[tuple[object, list[tuple[object, int, int]]]]

PHI2 = [(1, 0, 0), (1, 1, 1)]
PHI3 = [(1, 0, 0), (1, 1, 1), (1, 2, 2)]

# 2x3 seed with PT inertia (2,0,4); also doubles as a corner block on (3,3)
SEED_204 = [
    (1, [(1, 0, 0), (1, 1, 1), (1, 1, 2)]),
    (1, [(1, 0, 0), (2, 0, 1), (2, 1, 1)]),
]

# three-ket family realizing (4,0,5)
_XIII_TERMS: Terms = [
    (1, [(1, 0, 0), (Fraction(1, 4), 1, 1), (1, 2, 2)]),
    (1, [(1, 0, 1), (Fraction(1, 3), 1, 2), (Fraction(1, 3), 2, 0)]),
    (1, [(1, 0, 2), (Fraction(1, 2), 1, 0), (1, 2, 1)]),
]

# Weight putting the boundary state of the (4,0,5) -> (3,0,6) family exactly
# on the singular surface: det(A + w vv^T) = det(A)(1 + w v^T A^-1 v) is
# linear in w, and for A the PT of the (4,0,5) family and v = |0,0> the
# quadratic form is -63/169, certified in exact arithmetic.
W_315 = Fraction(169, 63)


def _projectors(pairs) -> Terms:
    return [(Fraction(1, 10), [(1, i, j)]) for i, j in pairs]


def _diag_block(exclude=()) -> Terms:
    pairs = [(i, j) for i in range(3) for j in range(3) if (i, j) not in exclude]
    return _projectors(pairs)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    dims: tuple[int, int]
    defaults: dict
    terms: Callable[[dict], Terms]
    expected: Callable[[dict], Inertia]
    check: Callable[[dict], None] | None = None
    notes: str = ""


@dataclass(frozen=True)
class VerifyResult:
    entry_id: str
    params: dict
    expected: Inertia
    float_inertia: Inertia
    marginal: bool
    exact_inertia: Inertia

    @property
    def passed(self) -> bool:
        return self.float_inertia == self.expected == self.exact_inertia


def _const(triple) -> Callable[[dict], Inertia]:
    ine = Inertia(*triple)
    return lambda params: ine


def _iva_expected(params: dict) -> Inertia:
    a, b = _exact(params["a"]), _exact(params["b"])
    disc = b.abs2() - (a * b.conjugate() - a.conjugate()).abs2() - 1
    if disc < 0:
        return Inertia(3, 0, 6)
    if disc > 0:
        return Inertia(2, 0, 7)
    return Inertia(2, 1, 6)


def _ivc_expected(params: dict) -> Inertia:
    a, e = _exact(params["a"]), _exact(params["e"])
    if not 1 + a * e.conjugate():
        return Inertia(2, 2, 5)
    return Inertia(3, 0, 6)


def _require_nonzero(*names):
    def check(params):
        for name in names:
            if abs(complex(params[name])) == 0:
                raise ValueError(f"parameter {name!r} must be nonzero")
    return check


def _require_not_all_zero(*names):
    def check(params):
        if all(abs(complex(params[name])) == 0 for name in names):
            raise ValueError(f"parameters {names} must not all vanish")
    return check


_REGISTRY: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    if entry.id in _REGISTRY:
        raise ValueError(f"duplicate catalog id {entry.id!r}")
    _REGISTRY[entry.id] = entry


_register(CatalogEntry(
    id="ex11",
    dims=(3, 3),
    defaults={"a": 1, "b": 1},
    terms=lambda p: [(1, PHI3), (1, [(p["a"], 0, 0), (p["b"], 0, 1)])],
    expected=_const((3, 0, 6)),
    notes="rank-3 plus rank-1 mixture; six constant PT eigenvalues -1,-1,1,1,1,1 "
          "plus the roots of a cubic (see ex11_closed_form in tests/reference.py).",
))

_register(CatalogEntry(
    id="npt2_i",
    dims=(3, 3),
    defaults={},
    terms=lambda p: [(1, PHI2), (1, [(1, 2, 2)])],
    expected=_const((1, 4, 4)),
))

_register(CatalogEntry(
    id="npt2_iia",
    dims=(3, 3),
    defaults={"a": 1, "b": 1},
    terms=lambda p: [(1, PHI2), (1, [(p["a"], 0, 0), (p["b"], 0, 1), (1, 2, 2)])],
    expected=_const((2, 2, 5)),
    check=_require_not_all_zero("a", "b"),
))

_register(CatalogEntry(
    id="npt2_iib",
    dims=(3, 3),
    defaults={"a": 1, "b": 1},
    terms=lambda p: [(1, PHI2), (1, [(1, 0, 2), (p["a"], 2, 0), (p["b"], 2, 1)])],
    expected=_const((2, 2, 5)),
    check=_require_nonzero("a"),
    notes="a=0 degenerates to PT inertia (1,3,5), so the parameter range "
          "excludes it.",
))

_register(CatalogEntry(
    id="npt2_iii",
    dims=(3, 3),
    defaults={"a": 1, "b": 1},
    terms=lambda p: [(1, PHI3), (1, [(p["a"], 0, 0), (p["b"], 0, 1)])],
    expected=_const((3, 0, 6)),
    check=_require_not_all_zero("a", "b"),
))

_register(CatalogEntry(
    id="npt2_iva",
    dims=(3, 3),
    defaults={"a": 1, "b": Fraction(1, 2)},
    terms=lambda p: [(1, PHI3), (1, [(p["a"], 0, 0), (p["b"], 0, 1), (1, 1, 0)])],
    expected=_iva_expected,
    notes="expected rule follows the advertised regime split of "
          "D = |b|^2 - |ab*-a*|^2 - 1.  The PT's characteristic polynomial is "
          "(x-1)^3 (x+1)^2 q(x) with q(0) = -P, P = |ab*-a*|^2 + (|b|^2-1)^2, "
          "so det = -P <= 0: the family yields (3,0,6) wherever P > 0 and "
          "(2,2,5) on P = 0 (|b| = 1 and ab* = a*, inside D = 0), never "
          "(2,1,6) or (2,0,7).  verify() therefore fails at D >= 0; defaults "
          "sit in the D<0 regime.",
))

_register(CatalogEntry(
    id="npt2_ivb",
    dims=(3, 3),
    defaults={"a": 1},
    terms=lambda p: [(1, PHI3), (1, [(p["a"], 0, 0), (1, 0, 2), (1, 1, 0)])],
    expected=_const((3, 0, 6)),
))

_register(CatalogEntry(
    id="npt2_ivc",
    dims=(3, 3),
    defaults={"a": 1, "b": 1, "e": 1},
    terms=lambda p: [(1, PHI3),
                     (1, [(p["a"], 0, 0), (p["b"], 0, 1), (p["e"], 1, 1)])],
    expected=_ivc_expected,
    notes="verified rule: (3,0,6) generically, (2,2,5) exactly on the surface "
          "1 + a e* = 0 (where the residual discriminant vanishes "
          "identically, so no other inertia occurs on that branch).",
))

_register(CatalogEntry(
    id="npt2_ivd",
    dims=(3, 3),
    defaults={"b": 1, "e": 1},
    terms=lambda p: [(1, PHI3),
                     (1, [(p["b"], 0, 1), (1, 0, 2), (p["e"], 1, 1)])],
    expected=_const((3, 0, 6)),
))

_register(CatalogEntry(
    id="arr13_i",
    dims=(3, 3),
    defaults={},
    terms=lambda p: [(1, PHI2)] + _diag_block(),
    expected=_const((1, 0, 8)),
))

_register(CatalogEntry(
    id="arr13_ii",
    dims=(3, 3),
    defaults={},
    terms=lambda p: [(1, PHI2)] + _diag_block(exclude={(2, 2)}),
    expected=_const((1, 1, 7)),
))

_register(CatalogEntry(
    id="arr13_iii",
    dims=(3, 3),
    defaults={},
    terms=lambda p: [(1, PHI2)] + _diag_block(exclude={(2, 2), (2, 1)}),
    expected=_const((1, 2, 6)),
))

_register(CatalogEntry(
    id="arr13_iv",
    dims=(3, 3),
    defaults={},
    terms=lambda p: [(1, PHI2)] + _diag_block(exclude={(2, 2), (2, 1), (2, 0)}),
    expected=_const((1, 3, 5)),
    notes="the background term here removes the diagonal weight from all "
          "three |2,j> states; the alternate reading that re-adds |2,0><2,0| "
          "computes to (1,2,6) instead.",
))

_register(CatalogEntry(
    id="arr13_v",
    dims=(3, 3),
    defaults={},
    terms=lambda p: [(1, PHI2), (1, [(1, 2, 2)])],
    expected=_const((1, 4, 4)),
))

_register(CatalogEntry(
    id="arr13_vi",
    dims=(3, 3),
    defaults={},
    terms=lambda p: [(1, PHI2)],
    expected=_const((1, 5, 3)),
))

_register(CatalogEntry(
    id="arr13_vii",
    dims=(3, 3),
    defaults={},
    terms=lambda p: list(SEED_204) + _projectors([(2, 0), (2, 1), (2, 2)]),
    expected=_const((2, 0, 7)),
    notes="realized as the (2,0,4) corner seed with all three new basis "
          "states lifted; the two-ket variant (|00>+|11>+|22>) + (|01>+|10>) "
          "computes to (2,2,5) in exact arithmetic and cannot carry this id.",
))

_register(CatalogEntry(
    id="arr13_viii",
    dims=(3, 3),
    defaults={},
    terms=lambda p: list(SEED_204) + _projectors([(2, 0), (2, 1)]),
    expected=_const((2, 1, 6)),
    notes="realized as the (2,0,4) corner seed with two lifted basis states; "
          "the variant (|00>+|11>+|22>) + (|00>+|01>+|11>) computes to "
          "(3,0,6) in exact arithmetic.",
))

_register(CatalogEntry(
    id="arr13_ix",
    dims=(3, 3),
    defaults={},
    terms=lambda p: [(1, PHI2), (1, [(1, 0, 0), (1, 0, 1), (1, 2, 2)])],
    expected=_const((2, 2, 5)),
))

_register(CatalogEntry(
    id="arr13_x",
    dims=(3, 3),
    defaults={},
    terms=lambda p: list(SEED_204),
    expected=_const((2, 3, 4)),
    notes="realized as the plain corner embedding of the (2,0,4) seed; the "
          "conventional two-ket display for this inertia is not a valid "
          "Hermitian rank-one mixture.",
))

_register(CatalogEntry(
    id="arr13_xi",
    dims=(3, 3),
    defaults={},
    terms=lambda p: [(1, PHI3), (1, [(1, 1, 1)])],
    expected=_const((3, 0, 6)),
))

_register(CatalogEntry(
    id="arr13_xii",
    dims=(3, 3),
    defaults={},
    terms=lambda p: list(_XIII_TERMS) + [(W_315, [(1, 0, 0)])],
    expected=_const((3, 1, 5)),
    notes="boundary witness: the (4,0,5) family plus w|0,0><0,0| becomes "
          "singular exactly at w = 169/63, where the rising negative "
          "eigenvalue sits at zero (certified in exact arithmetic).  The "
          "conventional display (|00>+|11>+|22>) + (|00>+2|01>+2|11>) "
          "computes to (3,0,6).",
))

_register(CatalogEntry(
    id="arr13_xiii",
    dims=(3, 3),
    defaults={},
    terms=lambda p: list(_XIII_TERMS),
    expected=_const((4, 0, 5)),
))

_register(CatalogEntry(
    id="arr23_xi",
    dims=(2, 3),
    defaults={},
    terms=lambda p: [(1, [(1, 0, 0), (1, 1, 1), (1, 1, 2)]), (1, [(1, 1, 1)])],
    expected=_const((1, 1, 4)),
))

_register(CatalogEntry(
    id="arr23_xii",
    dims=(2, 3),
    defaults={},
    terms=lambda p: list(SEED_204),
    expected=_const((2, 0, 4)),
    notes="first ket reads (|0,0>+|1,1>+|1,2>), keeping every A-index below "
          "2 so the family is a genuine 2x3 state.",
))

_register(CatalogEntry(
    id="arr23_xiii",
    dims=(2, 3),
    defaults={},
    terms=lambda p: [
        (1, [(1, 0, 0), (Fraction(1, 4), 1, 1), (1, 1, 2)]),
        (1, [(1, 0, 1), (Fraction(1, 3), 1, 2), (Fraction(1, 3), 1, 0)]),
        (1, [(1, 0, 2), (Fraction(1, 2), 1, 0), (1, 1, 1)]),
    ],
    expected=_const((2, 0, 4)),
))

_register(CatalogEntry(
    id="pure23_r2",
    dims=(2, 3),
    defaults={},
    terms=lambda p: [(1, [(1, 0, 0), (1, 1, 1)])],
    expected=_const((1, 2, 3)),
))

_register(CatalogEntry(
    id="pure22_r2",
    dims=(2, 2),
    defaults={},
    terms=lambda p: [(1, [(1, 0, 0), (1, 1, 1)])],
    expected=_const((1, 0, 3)),
))


def entry_ids() -> list[str]:
    return sorted(_REGISTRY)


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _REGISTRY[entry_id]
    except KeyError:
        raise KeyError(f"unknown catalog id {entry_id!r}; known ids: {entry_ids()}")


def _merge_params(entry: CatalogEntry, overrides: dict) -> dict:
    unknown = set(overrides) - set(entry.defaults)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)} for entry {entry.id!r}")
    params = dict(entry.defaults)
    params.update(overrides)
    for name, value in params.items():
        if not isinstance(value, (Number, GaussianRational)):
            raise ValueError(f"parameter {name!r} is not a number: {value!r}")
        try:
            finite = cmath.isfinite(complex(value))
        except OverflowError:  # an int or Fraction past the float range
            finite = False
        if not finite:
            raise ValueError(f"parameter {name!r} is not finite: {value!r}")
    if entry.check is not None:
        entry.check(params)
    return params


def build(entry_id: str, **overrides) -> State:
    """A catalog family as a float State: the float view of build_exact."""
    m, n = get_entry(entry_id).dims
    return State(m, n, build_exact(entry_id, **overrides).float_view())


def _exact(value) -> GaussianRational:
    """An int, Fraction or GaussianRational as it is; any other number as the
    binary fractions of its complex() parts, the values float arithmetic uses."""
    if isinstance(value, (int, Fraction, GaussianRational)):
        return GaussianRational.coerce(value)
    z = complex(value)
    return GaussianRational(Fraction(z.real), Fraction(z.imag))


def build_exact(entry_id: str, **overrides) -> ExactMatrix:
    """Exact Gaussian-rational build, every coefficient and weight read by _exact.

    A weight with a nonzero imaginary part (named as written) or one that is
    not positive is refused.
    """
    entry = get_entry(entry_id)
    params = _merge_params(entry, overrides)
    m, n = entry.dims
    kets = []  # (weight, {index: amplitude}) over each ket's support
    for weight, terms in entry.terms(params):
        w = _exact(weight)
        if w.im:
            raise ValueError(f"weights must be real, got {weight!r}")
        support: dict[int, GaussianRational] = {}
        for coef, i, j in terms:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"ket index ({i},{j}) out of range for dims ({m},{n})")
            x, k = _exact(coef), i * n + j
            support[k] = support[k] + x if k in support else x
        kets.append((w.re, support))
    if not kets:
        raise ValueError("at least one ket is required")
    for w, _ in kets:
        if w <= 0:
            raise ValueError(f"weights must be positive, got {float(w)}")
    # sum w|psi><psi| as Gaussian-integer numerators over den = amp_den^2 * weight_den
    amp_den = math.lcm(*(part.denominator for _, support in kets
                         for x in support.values() for part in (x.re, x.im)))
    weight_den = math.lcm(*(w.denominator for w, _ in kets))
    d = m * n
    acc: dict[int, list[int]] = {}  # cell r * d + c: [re, im]
    for w, support in kets:
        factor = w.numerator * (weight_den // w.denominator)
        ints = [(k, x.re.numerator * (amp_den // x.re.denominator),
                 x.im.numerator * (amp_den // x.im.denominator)) for k, x in support.items()]
        for r, ar, ai in ints:
            for c, br, bi in ints:
                # a conj(b) = (a_r b_r + a_i b_i) + i (a_i b_r - a_r b_i)
                cell = acc.setdefault(r * d + c, [0, 0])
                cell[0] += factor * (ar * br + ai * bi)
                cell[1] += factor * (ai * br - ar * bi)
    values = int_array([v for cell in acc.values() for v in cell])
    parts = np.zeros((2, d * d), dtype=values.dtype)
    parts[:, list(acc)] = values.reshape(-1, 2).T
    return ExactMatrix(parts[0].reshape(d, d), parts[1].reshape(d, d),
                       amp_den * amp_den * weight_den)


def expected_inertia(entry_id: str, **overrides) -> Inertia:
    entry = get_entry(entry_id)
    params = _merge_params(entry, overrides)
    return entry.expected(params)


def verify(entry_id: str, tol_zero: float = TOL_ZERO, **overrides) -> VerifyResult:
    """Build one family once; compare its float and exact PT inertia."""
    entry = get_entry(entry_id)
    params = _merge_params(entry, overrides)
    expected = entry.expected(params)
    exact_mat = build_exact(entry_id, **overrides)
    got, marginal = pt_inertia(State(*entry.dims, exact_mat.float_view()), tol_zero,
                               with_flag=True)
    return VerifyResult(entry_id=entry_id, params=params, expected=expected,
                        float_inertia=got, marginal=marginal,
                        exact_inertia=exact_inertia(pt_array(exact_mat, *entry.dims)))


def verify_all(tol_zero: float = TOL_ZERO) -> list[VerifyResult]:
    return [verify(entry_id, tol_zero) for entry_id in entry_ids()]


def chain_seed(n: int, k: int) -> State:
    """2 x n state with PT inertia (k, 2n-2k-2, k+2) and product-basis kernel.

    Mixture of the k kets |0,t> + 2^t |1,t+1|, t < k.  The geometrically
    growing weights keep every interior 2x2 pivot block of the PT indefinite,
    and the untouched basis states |0,j>, |1,j> for j > k span the kernel.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    kets = [ket_vector(2, n, [(1, 0, t), (2.0 ** t, 1, t + 1)]) for t in range(k)]
    return dm_from_kets(kets, [1.0] * k, 2, n)


def lemma3n_family(n: int, tol_zero: float = TOL_ZERO, *,
                   m: int = 3) -> list[tuple[Inertia, State]]:
    """(n-1)(mn-n-1) verified inertias on (m, n), built from 2 x n chain seeds.

    The one builder of the chain-family rows of the 2xN (m=2) and 3xN (m=3)
    inertia tables.  Row k (1 <= k <= n-1) puts chain_seed(n, k) on A-levels
    0 and 1 and lifts j of the product basis states outside its support (the
    seed's own kernel states |0,t>, |1,t> for t > k, then every state with
    A-level >= 2) by 0.125 on the diagonal, sweeping

        (k, mn-2k-2-j, k+2+j)   for 0 <= j <= mn-2k-2.

    Every output is re-verified, the rows of one seed by one validated
    eigensolve of their stacked PTs (linalg.herm_eig); the first row off its
    triple, in (k, j) order, raises.
    """
    if n < 2 or m < 2:
        raise ValueError(f"need m >= 2 and n >= 2, got m={m}, n={n}")
    d = m * n
    out: list[tuple[Inertia, State]] = []
    for k in range(1, n):
        liftable = [i * n + t for i in range(m) for t in range(n) if i >= 2 or t > k]
        width = d - 2 * k - 2
        assert len(liftable) == width
        rows = np.zeros((width + 1, d, d), dtype=complex)
        rows[:, :2 * n, :2 * n] = chain_seed(n, k).mat
        # row j of this np.tri is 1 in its first j columns, so row j lifts
        # liftable[:j]; the 0.0 added to the rest leaves those zeros as they are
        lifted = np.array(liftable, dtype=np.intp)
        rows[:, lifted, lifted] += 0.125 * np.tri(width + 1, width, -1)
        pts = np.stack([pt_array(row, m, n) for row in rows])
        (neg, zero, pos), _ = spectrum_inertia(herm_eig(pts).values, tol_zero)
        for j, row in enumerate(rows):
            want = Inertia(k, width - j, k + 2 + j)
            got = Inertia(int(neg[j]), int(zero[j]), int(pos[j]))
            if got != want:
                raise RuntimeError(f"family row k={k}, j={j}: got {got}, wanted {want}")
            out.append((want, State(m, n, row.copy())))
    assert len(out) == (n - 1) * (d - n - 1)
    return out
