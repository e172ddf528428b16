"""Exact Gaussian-rational arithmetic and a certified inertia computation.

Matrices with entries in Q(i) admit an exact signature via symmetric Gaussian
elimination with 1x1 diagonal pivots: every congruence step is performed
over the rationals, so the resulting triple carries no floating
point uncertainty.  This is the certification path backing the float
eigenvalue route.  The elimination holds each row as a dict of its nonzero
entries and does arithmetic only where both factors of an update are
nonzero, so a sparse partial transpose (the chain-family witnesses have a
few percent nonzeros) costs a fraction of a dense one of the same size.
A row whose only nonzero is its diagonal is a 1x1 block, settled by its
sign before the elimination starts.  So are 2x2 blocks: rows i and j whose
nonzeros all lie in columns i and j hold [[a, b], [conj(b), c]], and by
Sylvester's law det = a c - |b|^2 < 0 gives one negative and one positive
eigenvalue, det > 0 two of the sign of a, and det = 0 one zero and one of
the sign of a (a != 0 there, as a c = |b|^2 > 0).  Every sign is read from
a numerator.
A matrix whose entries are all real (every partial transpose of a real
state, including the integer-Wishart and dyadic chain-family ones) is
eliminated over Q instead: its rows hold the entries' real parts as plain
Fractions.  Q is a subfield of Q(i) closed under the same + - * / and
conjugation (the identity there), so the congruence steps, and with them
the triple, are the ones the Q(i) elimination would take, at a fraction of
the cost of GaussianRational arithmetic.

An exact matrix (ExactMatrix) is a numpy ``dtype=object`` array of
GaussianRational, so numpy's own operations serve it: states.pt_array is its
partial transpose, ``.astype(complex)`` is its float view.  catalog.build_exact
sums its weighted projectors as Gaussian-integer numerators over one common
denominator and makes a GaussianRational only for each nonzero cell, since
every GaussianRational operation normalises its Fractions by a gcd.  No zero
band is needed here; the float one is linalg.zero_band.

GaussianRational values are immutable: arithmetic returns new objects and
nothing assigns to ``re`` or ``im`` after construction.  Cells of an exact
matrix may therefore share one object (matio.loads_matrix gives every
occurrence of a token the same value; catalog.build_exact fills every zero
cell, including the complement of the kets' supports, with one zero).
"""

from __future__ import annotations

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
        # "p/q+r/sj" from the integer parts, as matio.parse_entry reads it; most
        # cells of a sparse PT are zero, and a zero needs none of them
        if not (self.re or self.im):
            return "0+0j"
        a, b = self.re.numerator, self.re.denominator
        c, d = self.im.numerator, self.im.denominator
        re_s = f"{a}" if b == 1 else f"{a}/{b}"
        return f"{re_s}{c:+d}j" if d == 1 else f"{re_s}{c:+d}/{d}j"


# A square numpy array of dtype=object holding GaussianRational entries.
ExactMatrix = np.ndarray


def _sparse_rows(mat) -> list[dict[int, GaussianRational | Fraction]]:
    """Row i of a square Hermitian mat as {j: entry} over its nonzero entries.

    The entries are GaussianRational, or their real parts as Fractions when
    no entry of mat has a nonzero imaginary part.
    """
    if isinstance(mat, np.ndarray):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("exact_inertia requires an exactly Hermitian matrix")
        cells = mat.tolist()
    else:
        cells = mat
        if any(len(row) != len(cells) for row in cells):
            raise ValueError("exact_inertia requires an exactly Hermitian matrix")
    coerce = GaussianRational.coerce
    zero = None  # exact matrices share one zero object; skip it by identity
    rows, real_rows = [], []
    imaginary = False
    for row in cells:
        nonzeros, reals = {}, {}
        for j, x in enumerate(row):
            if x is zero:
                continue
            if x:
                x = nonzeros[j] = coerce(x)
                reals[j] = x.re
                if x.im:
                    imaginary = True
            else:
                coerce(x)  # a float zero is rejected like any float
                zero = x
        rows.append(nonzeros)
        real_rows.append(reals)
    for i, row in enumerate(rows):
        for j, x in row.items():
            y = rows[j].get(i)
            if y is x and not x.im:
                continue  # a shared real entry is its own conjugate
            if y is None or x.re != y.re or x.im != -y.im:
                raise ValueError("exact_inertia requires an exactly Hermitian matrix")
    return rows if imaginary else real_rows


def _sub_scaled(row: dict, coeff: GaussianRational | Fraction, other: dict) -> None:
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


def _positive(x: GaussianRational | Fraction) -> bool:
    """x > 0 for a real x, read off its numerator; Fraction.real would build
    a new Fraction."""
    return (x if type(x) is Fraction else x.re).numerator > 0


def _real(x: GaussianRational | Fraction | int) -> Fraction | int:
    """The real part of a diagonal entry, or of an absent one (0)."""
    return x.re if type(x) is GaussianRational else x


def _abs2(x: GaussianRational | Fraction) -> Fraction:
    return x * x if type(x) is Fraction else x.abs2()


def _partner(i: int, row: dict) -> int | None:
    """j when row i's keys are {j} or {i, j} for one j != i, else None."""
    if len(row) == 1:
        j = next(iter(row))
        return None if j == i else j
    if len(row) == 2 and i in row:
        j, k = row
        return k if j == i else j
    return None


def exact_inertia(mat) -> Inertia:
    """Signature of an exactly Hermitian matrix over Q(i).

    `mat` is an ExactMatrix or nested lists of GaussianRational, int or
    Fraction entries.  Symmetric Gaussian elimination with 1x1 diagonal
    pivots: a nonzero diagonal entry contributes its sign.  If the whole
    active diagonal vanishes, row p (the one with the fewest nonzeros) has
    a = a_pq != 0, and e_p -> e_p + conj(a) e_q makes a_pp = 2|a|^2 > 0.
    Each step is a congruence, so Sylvester's law makes the tally exact.

    The elimination is sparse: row i is a dict {j: a_ij} of its nonzero
    entries, an update only touches entries where both of its factors are
    nonzero, and an entry that cancels to an exact zero is deleted.  A row
    that empties is done: it is one zero eigenvalue.  A row whose only
    nonzero is its diagonal (its column is then empty too) is a 1x1 block:
    its sign is counted before the elimination starts and it never enters
    the pivot scan.  Rows i and j whose keys both lie in {i, j} are a 2x2
    block, counted the same way from a = a_ii, c = a_jj (0 when absent) and
    det = a c - |a_ij|^2: det < 0 is one negative and one positive, det > 0
    two of the sign of a, det = 0 one zero and one of the sign of a.  A row
    that also touches a third row stays in the elimination.  The pivot is
    the nonzero diagonal entry whose row has the fewest nonzeros, which
    limits fill-in; Sylvester's law makes the triple independent of that
    order.

    When no entry has a nonzero imaginary part the rows hold Fractions and
    the same loop runs over Q, which gives the Q(i) triple (see the module
    docstring): + - * /, conjugate() and bool() mean the same on Fraction
    and GaussianRational.  A single imaginary entry keeps the whole matrix
    on GaussianRational.  A diagonal entry is real, and its sign is read
    from the numerator of the Fraction or of its ``re``.
    """
    rows = _sparse_rows(mat)
    neg = pos = 0
    active = set()
    for i, row in enumerate(rows):
        if not row:
            continue
        if len(row) == 1 and i in row:
            # a 1x1 block: _sparse_rows checked Hermiticity, so its column is empty too
            if _positive(row[i]):
                pos += 1
            else:
                neg += 1
            continue
        j = _partner(i, row)
        if j is None or _partner(j, rows[j]) != i:
            active.add(i)
        elif i < j:
            # a 2x2 block [[a, b], [conj(b), c]]; Hermiticity empties its columns too
            a, c = _real(row.get(i, 0)), _real(rows[j].get(j, 0))
            det = a * c - _abs2(row[j])
            if det.numerator < 0:
                neg += 1
                pos += 1
            else:
                # a c >= |b|^2 > 0, so a != 0: two of its sign, one if det = 0
                k = 2 if det.numerator else 1
                if a.numerator > 0:
                    pos += k
                else:
                    neg += k
    while active:
        pivot = min((p for p in active if p in rows[p]), key=lambda p: len(rows[p]),
                    default=None)
        if pivot is None:
            pivot = min(active, key=lambda i: len(rows[i]))
            prow = rows[pivot]
            q = next(iter(prow))
            a, qrow = prow[q], rows[q]
            # row p += a * row q, then column p += conj(a) * column q; with
            # a_pp = a_qq = 0 each adds |a|^2 to a_pp
            _sub_scaled(prow, -a, qrow)
            prow[pivot] += a.conjugate() * a
            # only rows i with a_qi != 0 see a_pi change; one that cancels to 0
            # held a_pi = -a a_qi != 0 before, so its p key is there to delete
            for i in qrow.keys() - {pivot}:
                if i in prow:
                    rows[i][pivot] = prow[i].conjugate()
                else:
                    del rows[i][pivot]
        prow = rows[pivot]
        d = prow.pop(pivot)
        active.discard(pivot)
        if _positive(d):
            pos += 1
        else:
            neg += 1
        # a_ij -= a_ip a_pj / d, with a_ip = conj(a_pi)
        for i, a_pi in prow.items():
            ri = rows[i]
            del ri[pivot]
            _sub_scaled(ri, a_pi.conjugate() / d, prow)
            if not ri:
                active.discard(i)
    return Inertia(neg, len(rows) - neg - pos, pos)
