"""Text I/O for matrices and ket literals.

Matrix file format: one header line ``dim m n`` (three ASCII integers
``[+-]?[0-9]+``, ``m, n > 0`` and ``m*n == dim``; ``m = n = 0`` marks a matrix
without bipartite structure), followed by ``dim`` rows of ``dim``
whitespace-separated entries.  An entry token is ASCII, in one of two forms:

- an exact rational ``p/q+r/sj``: ``p``, ``q``, ``r``, ``s`` are runs of
  digits, ``p`` may carry a sign and ``r`` must, each ``/q`` or ``/s`` may be
  left out, and so may the imaginary part; ``p/qj`` is a pure imaginary;
- a decimal ``re+imj``, each part digits with an optional point and signed
  exponent (``1.5``, ``.5``, ``2.5E+2``) or ``inf``, ``infinity``, ``nan``
  in any case, ``j`` or ``J`` closing the imaginary part, which may be a lone
  ``j``, and either part may be left out.

So ``1_0``, ``(1+2j)`` and non-ASCII digits are not entries.  ``nan``,
``inf``, zero-denominator entries and rationals too large for a float are
rejected.  Files whose every entry is rational also carry an exact view, an
ExactMatrix (Gaussian-integer numerators over one denominator), for the exact
inertia path.  A ket literal's coefficients are entry tokens too, read by
the same parse_entry.  Both views of a rational token come from its
integers: the float view is complex(p / q, r / s), whose correctly rounded
int quotients have the bits of the exact value's complex().  load_matrix
reads a file as bytes and decodes it as UTF-8.

loads_matrix costs time per distinct token, not per cell: one dict pass
over the cells numbers each distinct token in order of first appearance.
Each distinct token is parsed once, to its float value and, for
a rational, its integers in lowest terms.  Both views are filled by indexing
per-token arrays with one array of token numbers: the complex values, and
the numerators over the lcm of every denominator, with no Fraction or
GaussianRational per token.  Of several faults in a file the first in
reading order is reported: a row of the wrong length after every token of
the rows above it is checked, a non-finite token at the row and column where
it first appears.  dumps_matrix writes each ExactMatrix cell as its
numerators over the denominator, each part reduced by a gcd: the text
str(GaussianRational) gives for the same value.
"""

from __future__ import annotations

import cmath
import io
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .exact import ExactMatrix, GaussianRational, entry_token, int_array

# groups: numerator, then denominator or None, of each rational part
_RAT_FULL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?(?:([+-][0-9]+)(?:/([0-9]+))?j)?")
_RAT_IMAG = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?j")
# each alternative splits a run of digits one way only, so a failed match
# backtracks in time linear in the token
_DEC_PART = r"(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)"
_DECIMAL = re.compile(rf"[+-]?{_DEC_PART}(?:[+-]{_DEC_PART}?j)?|[+-]?{_DEC_PART}?j",
                      re.ASCII | re.IGNORECASE)

# a coefficient holds no + or - except the sign of an exponent (1e-3, 2.5E+2)
_KET_TERM = re.compile(
    r"([+-]?)\s*((?:[^|+-]|(?<=[0-9.][eE])[+-])*)\s*\|\s*([0-9]+)\s*,\s*([0-9]+)\s*>")
_HEADER_INT = re.compile(r"[+-]?[0-9]+")  # int() alone also reads 0_0 and non-ASCII digits


@dataclass
class MatrixFile:
    """Parsed matrix file: float view plus the exact view when available."""

    mat: np.ndarray
    m: int
    n: int
    exact: ExactMatrix | None

    @property
    def bipartite(self) -> bool:
        return self.m > 0 and self.n > 0


def _ints(num: str | None, den: str | None) -> tuple[int, int]:
    """One rational part in lowest terms; an absent part is 0/1."""
    if not num:
        return 0, 1
    num, den = int(num), int(den) if den else 1
    g = math.gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def _parse(token: str) -> tuple[complex, tuple[int, int, int, int] | None]:
    """(float value, (p, q, r, s) of a rational token p/q + (r/s) i in lowest
    terms, or None for a decimal one)."""
    if match := _RAT_FULL.fullmatch(token):
        p, q, r, s = match.groups()
    elif match := _RAT_IMAG.fullmatch(token):
        p = q = None
        r, s = match.groups()
    elif _DECIMAL.fullmatch(token):
        return complex(token), None
    else:
        raise ValueError(f"cannot parse matrix entry {token!r}")
    try:
        (p, q), (r, s) = _ints(p, q), _ints(r, s)
        return complex(p / q, r / s), (p, q, r, s)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # ValueError: int()'s digit limit; OverflowError: a rational too
        # large for its float view
        raise ValueError(f"cannot parse matrix entry {token!r}") from exc


def parse_entry(token: str) -> tuple[complex, GaussianRational | None]:
    """Parse one entry token; returns (float value, exact value or None).

    A rational token's float value is complex(p / q, r / s) of its integers:
    int true division is correctly rounded, so it has the bits of the
    exact value's complex().
    """
    value, ints = _parse(token)
    if ints is None:
        return value, None
    p, q, r, s = ints
    return value, GaussianRational(Fraction(p, q), Fraction(r, s))


def format_complex(z: complex) -> str:
    z = complex(z)
    re_s = repr(z.real)
    im_s = repr(z.imag)
    if not im_s.startswith("-"):
        im_s = "+" + im_s
    return f"{re_s}{im_s}j"


class _Numbering(dict):
    """Numbers each token in order of first appearance as it is looked up."""

    def __missing__(self, token: str) -> int:
        self[token] = number = len(self)
        return number


def loads_matrix(text: str) -> MatrixFile:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'dim m n', got {lines[0]!r}")
    try:
        # a field that is not _HEADER_INT is dropped, so unpacking fails
        dim, m, n = (int(f) for f in header if _HEADER_INT.fullmatch(f))
    except ValueError:
        raise ValueError(f"header must be 'dim m n' integers, got {lines[0]!r}") from None
    if dim <= 0:
        raise ValueError("matrix dimension must be positive")
    if (m, n) != (0, 0) and (m <= 0 or n <= 0):
        raise ValueError(f"bipartite header ({m},{n}) needs m, n > 0 (or 0 0)")
    if (m, n) != (0, 0) and m * n != dim:
        raise ValueError(f"bipartite header ({m},{n}) inconsistent with dim={dim}")
    if len(lines) - 1 != dim:
        raise ValueError(f"expected {dim} matrix rows, found {len(lines) - 1}")
    rows = [line.split() for line in lines[1:]]
    # a short or long row is reported only after the tokens of the rows above it
    bad = next((i for i, row in enumerate(rows) if len(row) != dim), None)
    # index[c] is the number of the token in cell c
    numbers = _Numbering()
    index = np.fromiter(map(numbers.__getitem__, chain.from_iterable(rows[:bad])),
                        dtype=np.intp, count=dim * (dim if bad is None else bad))
    parsed = []
    for tok in numbers:
        views = _parse(tok)
        if not cmath.isfinite(views[0]):
            i, j = divmod(int(np.argmax(index == len(parsed))), dim)
            raise ValueError(f"row {i}, column {j}: non-finite entry {tok!r}")
        parsed.append(views)
    if bad is not None:
        raise ValueError(f"row {bad} has {len(rows[bad])} entries, expected {dim}")
    index = index.reshape(dim, dim)
    values, ints = zip(*parsed)
    mat = np.array(values, dtype=complex)[index]
    exact: ExactMatrix | None = None
    if None not in ints:
        den = math.lcm(*{d for _, q, _, s in ints for d in (q, s)})
        nums = int_array([v for p, q, r, s in ints for v in (p * (den // q), r * (den // s))])
        nums = nums.reshape(-1, 2)
        exact = ExactMatrix(nums[:, 0][index], nums[:, 1][index], den)
    return MatrixFile(mat=mat, m=m, n=n, exact=exact)


def load_matrix(path) -> MatrixFile:
    with open(path, "rb") as fh:
        return loads_matrix(fh.read().decode("utf-8"))


def _exact_rows(exact: ExactMatrix):
    """Each row of exact as its cells' tokens, each part reduced by its gcd
    with den."""
    den = exact.den
    for re_row, im_row in zip(exact.re.tolist(), exact.im.tolist()):
        row = []
        for a, b in zip(re_row, im_row):
            g, h = math.gcd(a, den), math.gcd(b, den)
            row.append(entry_token(a // g, den // g, b // h, den // h))
        yield row


def dumps_matrix(mat: np.ndarray, m: int = 0, n: int = 0, exact=None) -> str:
    """Matrix-file text of mat, with the tokens of `exact` when given: an
    ExactMatrix, or nested lists of GaussianRational written by str()."""
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    if (m, n) != (0, 0) and m * n != dim:
        raise ValueError(f"bipartite dims ({m},{n}) inconsistent with dim={dim}")
    if exact is None:
        rows = (map(format_complex, row) for row in mat)
    elif isinstance(exact, ExactMatrix):
        rows = _exact_rows(exact)
    else:
        rows = (map(str, row) for row in exact)
    out = io.StringIO()
    out.write(f"{dim} {m} {n}\n")
    for row in rows:
        out.write(" ".join(row) + "\n")
    return out.getvalue()


def save_matrix(path, mat: np.ndarray, m: int = 0, n: int = 0, exact=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(mat, m, n, exact))


def parse_ket(literal: str, m: int, n: int) -> np.ndarray:
    """Parse a ket literal like ``"1|0,0> + 1|1,1> + 0.5|2,2>"``.

    A coefficient is a matrix-file entry token (parse_entry: decimal with
    an optional signed exponent ``1e-3``, rational ``p/q``, imaginary
    ``2j``, ``1/2j``), spaces ignored; an omitted coefficient means 1.  A
    ``+`` or ``-`` that does not follow an exponent marker starts a new
    term, so an ``a+bj`` coefficient is refused: ``-1-2j|0,0>`` would read
    as -(1-2j).  The indices are ASCII digits, read by their value at any
    length: leading zeros are dropped, so ``|00,0>`` is ``|0,0>``, and an
    index past its dimension raises ValueError, however many digits it
    has.  Returns the amplitude vector in the row-major (A-index, B-index)
    convention.  A term whose
    coefficient does not parse (``1/0``) or leaves its amplitude non-finite
    (``inf``, ``nan``, overflow) raises ValueError naming the term.
    """
    if m < 1 or n < 1:
        raise ValueError(f"local dimensions must be >= 1, got ({m},{n})")
    vec = np.zeros(m * n, dtype=complex)
    for match in _KET_TERM.finditer(literal):
        sign, coef_text, i_s, j_s = match.groups()
        i_s, j_s = i_s.lstrip("0") or "0", j_s.lstrip("0") or "0"
        # int() refuses more than 4300 digits, so an index with more digits
        # than its dimension is out of range unread
        i, j = (int(digits) if len(digits) <= len(str(size)) else size
                for digits, size in ((i_s, m), (j_s, n)))
        if i >= m or j >= n:
            raise ValueError(f"ket index |{i_s},{j_s}> out of range for dims ({m},{n})")
        term = match.group(0).strip(" +")
        try:
            # an entry token with its spaces dropped; an omitted coefficient is 1
            coef = parse_entry("".join(coef_text.split()) or "1")[0]
        except ValueError as exc:
            raise ValueError(f"cannot parse ket term {term!r}") from exc
        amp = complex(vec[i * n + j]) + (-coef if sign == "-" else coef)
        if not cmath.isfinite(amp):
            raise ValueError(f"non-finite amplitude at ket term {term!r}")
        vec[i * n + j] = amp
    # subn drops the same non-overlapping matches that finditer yields
    leftover, count = _KET_TERM.subn("", literal)
    if not count:
        raise ValueError(f"no ket terms found in {literal!r}")
    if leftover.strip(" +"):
        raise ValueError(f"unparsed text in ket literal: {leftover.strip()!r}")
    return vec
