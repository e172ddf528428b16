"""Exact Gaussian-rational arithmetic and a certified inertia computation.

Matrices with entries in Q(i) admit an exact signature via symmetric Gaussian
elimination with 1x1 and 2x2 diagonal pivoting: every congruence step is
performed over the rationals, so the resulting triple carries no floating
point uncertainty.  This is the certification path backing the float
eigenvalue route.

An exact matrix (ExactMatrix) is a numpy ``dtype=object`` array of
GaussianRational, so numpy's own operations serve it: states.pt_array is its
partial transpose, np.outer/np.conj build projectors, ``.astype(complex)`` is
its float view.  No zero band is needed here; the float one is linalg.zero_band.

GaussianRational values are immutable: arithmetic returns new objects and
nothing assigns to ``re`` or ``im`` after construction.  Cells of an exact
matrix may therefore share one object (matio.loads_matrix gives every
occurrence of a token the same value; catalog.build_exact fills the
complement of each ket's support with one zero).
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
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}j"


# A square numpy array of dtype=object holding GaussianRational entries.
ExactMatrix = np.ndarray


def exact_is_hermitian(mat) -> bool:
    d = len(mat)
    return all(mat[i][j] == mat[j][i].conjugate() for i in range(d) for j in range(i, d))


def exact_inertia(mat) -> Inertia:
    """Signature of an exactly Hermitian matrix over Q(i).

    `mat` is an ExactMatrix or nested lists of GaussianRational, int or
    Fraction entries.  Symmetric Gaussian elimination with diagonal
    pivoting: a nonzero diagonal entry gives a 1x1 pivot contributing its
    sign; if the whole active diagonal vanishes but an off-diagonal entry a
    survives, the 2x2 block [[0, a], [a*, 0]] is indefinite and contributes
    one positive and one negative count.  Each step is a congruence, so
    Sylvester's law makes the tally exact.
    """
    # the elimination works on a private list-of-lists copy
    a = [[GaussianRational.coerce(x) for x in row] for row in mat]
    if any(len(row) != len(a) for row in a) or not exact_is_hermitian(a):
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
