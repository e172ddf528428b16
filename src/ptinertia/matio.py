"""Text I/O for matrices and ket literals.

Matrix file format: one header line ``dim m n`` (three integers, with
``m, n > 0`` and ``m*n == dim``; ``m = n = 0`` marks a matrix without
bipartite structure), followed by ``dim`` rows of ``dim`` whitespace-separated
entries.  An entry is either a decimal complex token ``re+imj`` or an exact
rational token ``p/q+r/sj``; ``nan``, ``inf``, zero-denominator entries and
rationals too large for a float are rejected.  Files whose every entry is
rational also carry an exact view, an ExactMatrix (object array of
GaussianRational), for the exact inertia path; dumps_matrix also takes nested
lists for it.  A ket literal's coefficients are entry tokens too, read by the
same parse_entry, which builds both views of a rational token from its
integers: each exact part as a Fraction, and the float view as
complex(p / q, r / s), whose correctly rounded int quotients have the bits
of the exact value's complex().  load_matrix reads a file as bytes and
decodes it as UTF-8.

loads_matrix costs time per distinct token, not per cell: one dict pass
over the cells records the first cell of each distinct token, so the tokens
come in order of first appearance and a token's number is the rank of its
first cell.  Each distinct token is parsed once, and both views are filled
by indexing the parsed values with one array of token numbers, so the cells
holding one token share one GaussianRational.  Of
several faults in a file the first in reading order is reported: a row of
the wrong length after every token of the rows above it is checked, a
non-finite token at the row and column where it first appears.
"""

from __future__ import annotations

import cmath
import io
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count

import numpy as np

from .exact import ExactMatrix, GaussianRational

# groups: numerator, then denominator or None, of each rational part
_RAT_FULL = re.compile(r"^([+-]?\d+)(?:/(\d+))?(?:([+-]\d+)(?:/(\d+))?j)?$")
_RAT_IMAG = re.compile(r"^([+-]?\d+)(?:/(\d+))?j$")

# a coefficient holds no + or - except the sign of an exponent (1e-3, 2.5E+2)
_KET_TERM = re.compile(
    r"([+-]?)\s*((?:[^|+-]|(?<=[\d.][eE])[+-])*)\s*\|\s*(\d+)\s*,\s*(\d+)\s*>")


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
    """Numerator and denominator of one rational part; an absent part is 0/1."""
    return (int(num), int(den) if den else 1) if num else (0, 1)


def _fraction(num: int, den: int) -> Fraction:
    # Fraction(n) skips the gcd of Fraction(n, d)
    return Fraction(num, den) if den != 1 else Fraction(num)


def parse_entry(token: str) -> tuple[complex, GaussianRational | None]:
    """Parse one entry token; returns (float value, exact value or None).

    A rational token's float value is complex(p / q, r / s) of its integers:
    int true division is correctly rounded, so it has the bits of the
    exact value's complex().
    """
    try:
        match = _RAT_FULL.match(token)
        if match:
            p, q, r, s = match.groups()
        else:
            match = _RAT_IMAG.match(token)
            if not match:
                return complex(token), None
            p = q = None
            r, s = match.groups()
        (p, q), (r, s) = _ints(p, q), _ints(r, s)
        return complex(p / q, r / s), GaussianRational(_fraction(p, q), _fraction(r, s))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # OverflowError: a rational too large for its float view
        raise ValueError(f"cannot parse matrix entry {token!r}") from exc


def format_complex(z: complex) -> str:
    z = complex(z)
    re_s = repr(z.real)
    im_s = repr(z.imag)
    if not im_s.startswith("-"):
        im_s = "+" + im_s
    return f"{re_s}{im_s}j"


def loads_matrix(text: str) -> MatrixFile:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'dim m n', got {lines[0]!r}")
    try:
        dim, m, n = map(int, header)
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
    # first maps each distinct token, in reading order, to the first cell that
    # holds it; first_cell[c] is that cell for the token in cell c
    first: dict[str, int] = {}
    first_cell = np.fromiter(map(first.setdefault, chain.from_iterable(rows[:bad]), count()),
                             dtype=np.intp, count=dim * (dim if bad is None else bad))
    parsed = []
    for tok, c in first.items():
        views = parse_entry(tok)
        if not cmath.isfinite(views[0]):
            i, j = divmod(c, dim)
            raise ValueError(f"row {i}, column {j}: non-finite entry {tok!r}")
        parsed.append(views)
    if bad is not None:
        raise ValueError(f"row {bad} has {len(rows[bad])} entries, expected {dim}")
    # first cells increase in reading order, so a token's number is the rank
    # of its first cell among them
    firsts = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    index = np.searchsorted(firsts, first_cell).reshape(dim, dim)
    values, exacts = zip(*parsed)
    mat = np.array(values, dtype=complex)[index]
    exact: ExactMatrix | None = None
    if all(g is not None for g in exacts):
        exact = np.array(exacts, dtype=object)[index]
    return MatrixFile(mat=mat, m=m, n=n, exact=exact)


def load_matrix(path) -> MatrixFile:
    with open(path, "rb") as fh:
        return loads_matrix(fh.read().decode("utf-8"))


def dumps_matrix(mat: np.ndarray, m: int = 0, n: int = 0, exact=None) -> str:
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    if (m, n) != (0, 0) and m * n != dim:
        raise ValueError(f"bipartite dims ({m},{n}) inconsistent with dim={dim}")
    out = io.StringIO()
    out.write(f"{dim} {m} {n}\n")
    for i in range(dim):
        if exact is not None:
            row = " ".join(str(exact[i][j]) for j in range(dim))
        else:
            row = " ".join(format_complex(mat[i, j]) for j in range(dim))
        out.write(row + "\n")
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
    as -(1-2j).  Returns the amplitude vector in the row-major
    (A-index, B-index) convention.  A term whose coefficient does not parse
    (``1/0``) or leaves its amplitude non-finite (``inf``, ``nan``, overflow)
    raises ValueError naming the term.
    """
    if m < 1 or n < 1:
        raise ValueError(f"local dimensions must be >= 1, got ({m},{n})")
    vec = np.zeros(m * n, dtype=complex)
    matched_spans = []
    for match in _KET_TERM.finditer(literal):
        sign, coef_text, i_s, j_s = match.groups()
        i, j = int(i_s), int(j_s)
        if i >= m or j >= n:
            raise ValueError(f"ket index |{i},{j}> out of range for dims ({m},{n})")
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
        matched_spans.append(match.span())
    if not matched_spans:
        raise ValueError(f"no ket terms found in {literal!r}")
    leftover = literal
    for start, end in reversed(matched_spans):
        leftover = leftover[:start] + leftover[end:]
    if leftover.strip(" +"):
        raise ValueError(f"unparsed text in ket literal: {leftover.strip()!r}")
    return vec
