"""Exact Gaussian-rational arithmetic and a certified inertia computation.

An exact matrix (ExactMatrix) is a square matrix over Q(i) held as two
Gaussian-integer numerator arrays over one positive int: cell (i, j) is
(re[i, j] + i im[i, j]) / den.  Each array is int64 while its values lie
below 2^62 in magnitude, and otherwise an object array of Python ints
(int_array).  states.pt_array transposes both arrays, and float_view() is
the float matrix, each part correctly rounded.
catalog.build_exact and matio.loads_matrix make one from integers, with no
GaussianRational per cell; as_exact_matrix reads nested lists or object
arrays of GaussianRational, int or Fraction cells into one.  No zero band is
needed here; the float one is linalg.zero_band.

exact_inertia gives the signature by symmetric Gaussian elimination with 1x1
diagonal pivots: every congruence step is performed over the rationals, so
the resulting triple carries no floating point uncertainty.  This is the
certification path backing the float eigenvalue route.  It works on den * A,
the numerators, which has A's inertia as den > 0.  numpy finds the nonzero
cells and checks Hermiticity, and blocks are settled by signs read from
Python ints before any elimination.  A row whose only nonzero is its
diagonal is a 1x1 block, counted by its sign.  Rows i and j whose nonzeros
all lie in columns i and j hold [[a, b], [conj(b), c]], and by Sylvester's
law det = a c - |b|^2 < 0 gives one negative and one positive eigenvalue,
det > 0 two of the sign of a, and det = 0 one zero and one of the sign of a
(a != 0 there, as a c = |b|^2 > 0).
Only the rows left get dicts of their nonzero entries, and the elimination
does arithmetic only where both factors of an update are nonzero, so a
sparse partial transpose (the chain-family witnesses have a few percent
nonzeros) costs a fraction of a dense one of the same size.  The rows
left are eliminated over Q, as Fractions: as they are when none of their
entries has an imaginary part (every partial transpose of a real state,
such as the integer-Wishart and chain-family ones), else through their real
embedding.  H = A + iB is Hermitian exactly when M = [[A, -B], [B, A]] is
symmetric, and M has each eigenvalue of H twice (Horn & Johnson, Matrix
Analysis, 4.1), so M's counts are halved.  M has twice the rows of H and up
to four times its nonzeros.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .linalg import Inertia

RationalLike = int | Fraction


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        # a Fraction is kept as it is; Fraction(Fraction) would rebuild it
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational exactly")

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its Fraction (and int), so it must hash like one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __complex__(self) -> complex:
        # float(Fraction) is this int / int, behind a Python-level __float__
        return complex(self.re.numerator / self.re.denominator,
                       self.im.numerator / self.im.denominator)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self) -> str:
        # most cells of a sparse PT are zero, and a zero needs no integer part
        if not (self.re or self.im):
            return "0+0j"
        return entry_token(self.re.numerator, self.re.denominator,
                           self.im.numerator, self.im.denominator)


def entry_token(p: int, q: int, r: int, s: int) -> str:
    """The matrix-file token "p/q+r/sj" of p/q + (r/s) i, both in lowest
    terms with q, s > 0, as matio.parse_entry reads it; a "/1" is left out,
    and a zero is "0+0j"."""
    if not (p or r):
        return "0+0j"
    re_s = f"{p}" if q == 1 else f"{p}/{q}"
    return f"{re_s}{r:+d}j" if s == 1 else f"{re_s}{r:+d}/{s}j"


_NOT_HERMITIAN = "exact_inertia requires an exactly Hermitian matrix"
# numerators below this in magnitude are held as int64, so negating one
# stays in range
_INT64_LIMIT = 2 ** 62


def int_array(values: list[int]) -> np.ndarray:
    """A list of Python ints as a 1-D int64 array when every one lies below 2^62 in
    magnitude, else as an object array of the ints themselves."""
    if values and (max(values) >= _INT64_LIMIT or min(values) <= -_INT64_LIMIT):
        return np.array(values, dtype=object)
    return np.array(values, dtype=np.int64)


class ExactMatrix:
    """A square matrix over Q(i): cell (i, j) is (re[i, j] + i im[i, j]) / den.

    ``re`` and ``im`` are square int64 or object arrays of one shape
    (int_array's dtypes) and ``den`` is a positive int; anything else raises
    ValueError.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re: np.ndarray, im: np.ndarray, den: int):
        if not (isinstance(re, np.ndarray) and isinstance(im, np.ndarray)
                and re.ndim == 2 and re.shape[0] == re.shape[1] and re.shape == im.shape
                and all(a.dtype in (np.int64, object) for a in (re, im))):
            raise ValueError(_NOT_HERMITIAN)
        if not (isinstance(den, int) and den > 0):
            raise ValueError(f"an ExactMatrix denominator must be a positive int, got {den!r}")
        self.re, self.im, self.den = re, im, den

    @property
    def shape(self) -> tuple[int, ...]:
        return self.re.shape

    def __len__(self) -> int:
        return len(self.re)

    def float_view(self) -> np.ndarray:
        """The complex float matrix.  Python's int / int divides each nonzero
        part by den, correctly rounded, as complex() of the cell's
        GaussianRational is."""
        out = np.zeros(self.shape, dtype=complex)
        for part, view in ((self.re, out.real), (self.im, out.imag)):
            nonzero = np.nonzero(part)
            view[nonzero] = [v / self.den for v in part[nonzero].tolist()]
        return out


def as_exact_matrix(mat) -> ExactMatrix:
    """mat as an ExactMatrix: one is returned as it is, and nested lists or a
    2-D numpy array of GaussianRational, int or Fraction cells are read over
    the lcm of their denominators.  A float cell raises TypeError; a ragged,
    non-square or not 2-D input raises ValueError."""
    if isinstance(mat, ExactMatrix):
        return mat
    if isinstance(mat, np.ndarray):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(_NOT_HERMITIAN)
        cells = mat.tolist()
    else:
        cells = mat
        if any(len(row) != len(cells) for row in cells):
            raise ValueError(_NOT_HERMITIAN)
    parts = []
    for row in cells:
        for x in row:
            x = x if type(x) is GaussianRational else GaussianRational.coerce(x)
            parts += (x.re, x.im)
    den = math.lcm(*{p.denominator for p in parts})
    nums = int_array([p.numerator * (den // p.denominator) for p in parts])
    nums = nums.reshape(len(cells), len(cells), 2)
    return ExactMatrix(nums[..., 0], nums[..., 1], den)


def _nonzero_rows(em: ExactMatrix) -> tuple[list[dict[int, int]], list[int], list[int]]:
    """Row i of em as {j: k} over its nonzero cells, with k the cell's place
    in the re and im numerator lists that come with it, once em is checked
    to be exactly Hermitian."""
    re, im = em.re, em.im
    rr, cc = np.nonzero(re | im)  # an int | int is 0 only when both are
    re_v, im_v = re[rr, cc].tolist(), im[rr, cc].tolist()
    # a_ij = conj(a_ji) on every nonzero cell: the mirror of a zero cell is
    # then zero too, and a diagonal cell is real
    if re_v != re[cc, rr].tolist() or im_v != (-im[cc, rr]).tolist():
        raise ValueError(_NOT_HERMITIAN)
    rows: list[dict[int, int]] = [{} for _ in range(len(em))]
    for k, (i, j) in enumerate(zip(rr.tolist(), cc.tolist())):
        rows[i][j] = k
    return rows, re_v, im_v


def _sub_scaled(row: dict, coeff: Fraction, other: dict) -> None:
    """row -= coeff * other on other's nonzeros, deleting entries that cancel to 0."""
    minus = -coeff
    for j, x in other.items():
        v = row.get(j)
        if v is None:
            row[j] = minus * x  # a product of nonzeros is nonzero
        else:
            v = v + minus * x
            if v:
                row[j] = v
            else:
                del row[j]


def _partner(i: int, row: dict) -> int | None:
    """j when row i's keys are {j} or {i, j} for one j != i, else None."""
    if len(row) == 1:
        j = next(iter(row))
        return None if j == i else j
    if len(row) == 2 and i in row:
        j, k = row
        return k if j == i else j
    return None


def _settle_blocks(rows, re_v, im_v) -> tuple[int, int, list[int]]:
    """(neg, pos) over the 1x1 and 2x2 blocks of _nonzero_rows' rows, and
    the other nonzero rows, left to the elimination."""
    neg = pos = 0
    left = []
    for i, row in enumerate(rows):
        if not row:
            continue
        if len(row) == 1 and i in row:
            # a 1x1 block: Hermiticity empties its column too
            if re_v[row[i]] > 0:
                pos += 1
            else:
                neg += 1
            continue
        j = _partner(i, row)
        if j is None or _partner(j, rows[j]) != i:
            left.append(i)
        elif i < j:
            # a 2x2 block [[a, b], [conj(b), c]]; Hermiticity empties its columns too
            a = re_v[row[i]] if i in row else 0
            c = re_v[rows[j][j]] if j in rows[j] else 0
            b = row[j]
            det = a * c - re_v[b] * re_v[b] - im_v[b] * im_v[b]
            if det < 0:
                neg += 1
                pos += 1
            else:
                # a c >= |b|^2 > 0, so a != 0: two of its sign, one if det = 0
                k = 2 if det else 1
                if a > 0:
                    pos += k
                else:
                    neg += k
    return neg, pos, left


def _elimination_rows(rows, left, re_v, im_v) -> dict[int, dict[int, Fraction]]:
    """Row i in `left` as {j: numerator}, a Fraction, when no entry of these
    rows has an imaginary part, else rows i and i + d (d = len(rows)) of the
    real embedding [[A, -B], [B, A]] of these rows A + iB."""
    if not any(im_v[k] for i in left for k in rows[i].values()):
        return {i: {j: Fraction(re_v[k]) for j, k in rows[i].items()} for i in left}
    d = len(rows)
    out = {}
    for i in left:
        top, bottom = {}, {}
        out[i], out[i + d] = top, bottom
        for j, k in rows[i].items():
            if re_v[k]:
                top[j] = bottom[j + d] = Fraction(re_v[k])
            if im_v[k]:
                top[j + d], bottom[j] = Fraction(-im_v[k]), Fraction(im_v[k])
    return out


def exact_inertia(mat) -> Inertia:
    """Signature of an exactly Hermitian matrix over Q(i).

    `mat` is an ExactMatrix, or nested lists or an object array of
    GaussianRational, int or Fraction entries (as_exact_matrix).  It works
    on the numerators den * A.  First the blocks: a row whose only nonzero
    is its diagonal (its column is then empty too) is a 1x1 block, counted
    by its sign.  Rows i and j whose nonzeros all lie in columns i and j are
    a 2x2 block, counted from a = a_ii, c = a_jj (0 when absent) and
    det = a c - |a_ij|^2 in Python ints: det < 0 is one negative and one
    positive, det > 0 two of the sign of a, det = 0 one zero and one of the
    sign of a.  A row that also touches a third row stays in the
    elimination, and an empty row is one zero eigenvalue.

    The rows left are eliminated over Q, through their real embedding when
    they are complex (_elimination_rows), whose counts are halved.
    Symmetric Gaussian elimination with 1x1 diagonal pivots: a nonzero
    diagonal entry d contributes its sign, d > 0.  If the whole active
    diagonal vanishes, row p (the one with the fewest nonzeros) has
    a = a_pq != 0, and e_p -> e_p + a e_q makes a_pp = 2 a^2 > 0.  Each step
    is a congruence, so Sylvester's law makes the tally exact.

    The elimination is sparse: row i is a dict {j: a_ij} of its nonzero
    entries, an update only touches entries where both of its factors are
    nonzero, and an entry that cancels to an exact zero is deleted.  A row
    that empties is done: it is one zero eigenvalue.  The pivot is the
    nonzero diagonal entry whose row has the fewest nonzeros, which limits
    fill-in; Sylvester's law makes the triple independent of that order.
    """
    em = as_exact_matrix(mat)
    cells, re_v, im_v = _nonzero_rows(em)
    neg, pos, left = _settle_blocks(cells, re_v, im_v)
    rows = _elimination_rows(cells, left, re_v, im_v)
    active = set(rows)
    signs = [0, 0]  # negative and positive pivots
    while active:
        pivot = min((p for p in active if p in rows[p]), key=lambda p: len(rows[p]),
                    default=None)
        if pivot is None:
            pivot = min(active, key=lambda i: len(rows[i]))
            prow = rows[pivot]
            q = next(iter(prow))
            a, qrow = prow[q], rows[q]
            # row p += a * row q, then column p += a * column q; with
            # a_pp = a_qq = 0 each adds a^2 to a_pp
            _sub_scaled(prow, -a, qrow)
            prow[pivot] += a * a
            # only rows i with a_qi != 0 see a_pi change; one that cancels to 0
            # held a_pi = -a a_qi != 0 before, so its p key is there to delete
            for i in qrow.keys() - {pivot}:
                if i in prow:
                    rows[i][pivot] = prow[i]
                else:
                    del rows[i][pivot]
        prow = rows[pivot]
        d = prow.pop(pivot)
        active.discard(pivot)
        signs[d > 0] += 1
        # a_ij -= a_ip a_pj / d, with a_ip = a_pi
        for i, a_pi in prow.items():
            ri = rows[i]
            del ri[pivot]
            _sub_scaled(ri, a_pi / d, prow)
            if not ri:
                active.discard(i)
    # k rows per row left: the real embedding has each eigenvalue twice
    k = len(rows) // len(left) if left else 1
    neg, pos = neg + signs[0] // k, pos + signs[1] // k
    return Inertia(neg, len(em) - neg - pos, pos)
