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
same parse_entry, which builds each rational part from the integers of its
token.

loads_matrix costs time per distinct token, not per cell: it numbers the
distinct tokens of a file in order of first appearance, parses each once,
and fills both views by indexing the parsed values with one array of token
numbers, so the cells holding one token share one GaussianRational.  Of
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
from itertools import chain

import numpy as np

from .exact import ExactMatrix, GaussianRational

# groups: numerator, then denominator or None, of each rational part
_RAT_FULL = re.compile(r"^([+-]?\d+)(?:/(\d+))?(?:([+-]\d+)(?:/(\d+))?j)?$")
_RAT_IMAG = re.compile(r"^([+-]?\d+)(?:/(\d+))?j$")
_ZERO = Fraction(0)

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


def _fraction(num: str, den: str | None) -> Fraction:
    # Fraction(int, int) skips the string parse of Fraction("p/q")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def parse_entry(token: str) -> tuple[complex, GaussianRational | None]:
    """Parse one entry token; returns (float value, exact value or None)."""
    try:
        match = _RAT_FULL.match(token)
        if match:
            p, q, r, s = match.groups()
            g = GaussianRational(_fraction(p, q), _fraction(r, s) if r else _ZERO)
            return complex(g), g
        match = _RAT_IMAG.match(token)
        if match:
            g = GaussianRational(_ZERO, _fraction(*match.groups()))
            return complex(g), g
        return complex(token), None
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
    tokens = list(chain.from_iterable(rows[:bad]))
    number = dict.fromkeys(tokens)  # distinct tokens in reading order
    cells = []
    for k, tok in enumerate(number):
        cell = parse_entry(tok)
        if not cmath.isfinite(cell[0]):
            i, j = divmod(tokens.index(tok), dim)
            raise ValueError(f"row {i}, column {j}: non-finite entry {tok!r}")
        number[tok] = k
        cells.append(cell)
    if bad is not None:
        raise ValueError(f"row {bad} has {len(rows[bad])} entries, expected {dim}")
    index = np.fromiter(map(number.__getitem__, tokens), dtype=np.intp,
                        count=len(tokens)).reshape(dim, dim)
    values, exacts = zip(*cells)
    mat = np.array(values, dtype=complex)[index]
    exact: ExactMatrix | None = None
    if all(g is not None for g in exacts):
        exact = np.array(exacts, dtype=object)[index]
    return MatrixFile(mat=mat, m=m, n=n, exact=exact)


def load_matrix(path) -> MatrixFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_matrix(fh.read())


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
