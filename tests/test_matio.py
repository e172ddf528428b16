import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptinertia import Inertia, build_exact, matio, pt_array
from ptinertia.cli import main
from ptinertia.exact import GaussianRational, exact_inertia

from conftest import exact_cells


def test_float_round_trip(rng, tmp_path):
    mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    path = tmp_path / "m.txt"
    matio.save_matrix(path, mat)
    loaded = matio.load_matrix(path)
    assert loaded.m == 0 and loaded.n == 0 and not loaded.bipartite
    assert np.array_equal(loaded.mat, mat)  # repr round-trips floats exactly
    assert loaded.exact is None


def test_rational_round_trip(tmp_path):
    exact = [
        [GaussianRational(1), GaussianRational(Fraction(1, 2), Fraction(-1, 3))],
        [GaussianRational(Fraction(1, 2), Fraction(1, 3)), GaussianRational(-2)],
    ]
    mat = np.array([[complex(e) for e in row] for row in exact])
    path = tmp_path / "m.txt"
    matio.save_matrix(path, mat, 1, 2, exact)
    loaded = matio.load_matrix(path)
    assert loaded.exact is not None
    assert exact_cells(loaded.exact) == exact
    assert np.allclose(loaded.mat, mat)
    assert (loaded.m, loaded.n) == (1, 2)


def test_integer_tokens_count_as_rational():
    mf = matio.loads_matrix("2 0 0\n1 0\n0 -3\n")
    assert mf.exact is not None
    assert mf.exact.den == 1
    assert mf.exact.re.tolist() == [[1, 0], [0, -3]] and not mf.exact.im.any()


def test_mixed_file_loses_exactness():
    mf = matio.loads_matrix("2 0 0\n1 0.5\n0.5 1\n")
    assert mf.exact is None
    assert mf.mat[0, 1] == 0.5


@pytest.mark.parametrize("text, message", [
    ("", "empty"),
    ("2 3\n1 0\n0 1\n", "header"),
    ("2 3 3\n1 0\n0 1\n", "inconsistent"),
    ("2 0 0\n1 0\n", "rows"),
    ("2 0 0\n1 0 0\n0 1\n", "entries"),
    ("2 0 0\n1 zebra\n0 1\n", "parse"),
    ("2 0 0\n1 0\n0 nan\n", "row 1, column 1: non-finite entry 'nan'"),
    ("2 0 0\n1 -inf\n0 1\n", "row 0, column 1: non-finite"),
    ("2 0 0\n1 0\n1+nanj 1\n", "row 1, column 0: non-finite"),
    ("4 -2 -2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", r"needs m, n > 0"),
    ("2 0 0\n1 0\n0 1" + "0" * 400 + "\n", "cannot parse matrix entry"),
    ("2 x 0\n1 0\n0 1\n", r"^header must be 'dim m n' integers, got '2 x 0'$"),
    ("2 2.0 1\n1 0\n0 1\n", r"^header must be 'dim m n' integers, got '2 2.0 1'$"),
    # the first fault in reading order is the one reported
    ("2 0 0\n1 nan\n0\n", r"^row 0, column 1: non-finite entry 'nan'$"),
    ("2 0 0\n1\n0 nan\n", r"^row 0 has 1 entries, expected 2$"),
    ("2 0 0\n1/0 1\n0\n", r"^cannot parse matrix entry '1/0'$"),
    # header fields are ASCII digits, which int() alone does not require
    ("\u0662 0 0\n1 0\n0 1\n", r"^header must be 'dim m n' integers, got '\u0662 0 0'$"),
    ("2 0 0_0\n1 0\n0 1\n", r"^header must be 'dim m n' integers, got '2 0 0_0'$"),
    ("0 0 0\n", r"^matrix dimension must be positive$"),
])
def test_malformed_files_raise(text, message):
    with pytest.raises(ValueError, match=message):
        matio.loads_matrix(text)


def test_parse_entry_forms():
    assert matio.parse_entry("1.5-2j")[0] == 1.5 - 2j
    value, exact = matio.parse_entry("3/4+1/2j")
    assert exact == GaussianRational(Fraction(3, 4), Fraction(1, 2))
    assert value == 0.75 + 0.5j
    value, exact = matio.parse_entry("-2/3j")
    assert exact == GaussianRational(0, Fraction(-2, 3))


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()  # hex() tells -0.0 from 0.0


@pytest.mark.parametrize("token, exact", [
    ("1/3", GaussianRational(Fraction(1, 3))),
    ("-2/6+4/10j", GaussianRational(Fraction(-1, 3), Fraction(2, 5))),
    (f"{10 ** 400}/{10 ** 399}", GaussianRational(10)),
    ("-0", GaussianRational(0)),
    ("0/5-0j", GaussianRational(0)),
    ("7j", GaussianRational(0, 7)),
    ("1/2j", GaussianRational(0, Fraction(1, 2))),
])
def test_float_view_has_the_bits_of_the_exact_values_complex(token, exact):
    value, got = matio.parse_entry(token)
    assert got == exact
    assert _bits(value) == _bits(complex(got)) == _bits(complex(exact))


# complex() skips an underscore between digits and drops parentheses, and
# complex() and int() read Arabic-Indic and fullwidth digits
KET_OFF_GRAMMAR = ["1_0", "1e1_0", "(2j)", "\u0661/\u0662", "\u0661", "\uff11"]


@pytest.mark.parametrize("token", KET_OFF_GRAMMAR + ["1+2_0j", "(1+2j)", "1+\u0661j"])
def test_parse_entry_reads_only_the_ascii_grammar(token):
    with pytest.raises(ValueError, match=re.escape(f"cannot parse matrix entry {token!r}")):
        matio.parse_entry(token)


# 10^5 digits and one bad byte: a pattern that could split the digit run
# several ways took O(N^2) steps, minutes, to refuse such a token
LONG_DIGITS = "1" * 10 ** 5


@pytest.mark.parametrize("token", [
    LONG_DIGITS + "x", "." + LONG_DIGITS + "x", LONG_DIGITS + "e" + LONG_DIGITS + "x",
    "1+" + LONG_DIGITS + "x", "1/" + LONG_DIGITS + "x", LONG_DIGITS + "jx",
])
def test_a_long_token_outside_the_grammar_is_refused_in_linear_time(token):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^cannot parse matrix entry"):
        matio.parse_entry(token)
    with pytest.raises(ValueError, match="^cannot parse matrix entry"):
        matio.loads_matrix(f"1 0 0\n{token}\n")
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("coefficient", KET_OFF_GRAMMAR)
def test_parse_ket_reads_coefficients_only_in_the_ascii_grammar(coefficient):
    term = f"{coefficient}|0,0>"
    with pytest.raises(ValueError, match=re.escape(f"cannot parse ket term {term!r}")) as info:
        matio.parse_ket(term, 2, 2)
    assert str(info.value.__cause__) == f"cannot parse matrix entry {coefficient!r}"


@pytest.mark.parametrize("token", [
    "1.5", ".5", "5.", "-2.5E+2", "1e-3j", "j", "-J", "1+j", "2-.5j", "inf", "-Infinity",
    "NaN", "1+nanj", "infj",
])
def test_parse_entry_keeps_every_decimal_form(token):
    value, exact = matio.parse_entry(token)
    assert exact is None and _bits(value) == _bits(complex(token))


def test_float_view_of_a_huge_quotient_is_correctly_rounded():
    assert matio.parse_entry(f"{10 ** 400}/{10 ** 399}")[0] == 10.0
    with pytest.raises(ValueError, match=re.escape(f"cannot parse matrix entry '{10 ** 400}'")):
        matio.parse_entry(str(10 ** 400))


def test_a_matrix_file_byte_that_is_not_utf8_exits_2_with_the_codec_message(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 0 0\n1\xff\n")
    with pytest.raises(UnicodeDecodeError, match="can't decode byte 0xff in position 7"):
        matio.load_matrix(path)
    assert main(["inertia", "--file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: 'utf-8' codec can't decode byte 0xff in position 7: "
                   "invalid start byte\n")


def test_parse_ket_reference_literal():
    vec = matio.parse_ket("1|0,0> + 1|1,1> + 0.5|2,2>", 3, 3)
    expect = np.zeros(9, dtype=complex)
    expect[0], expect[4], expect[8] = 1, 1, 0.5
    assert np.array_equal(vec, expect)


def test_parse_ket_signs_defaults_and_rationals():
    vec = matio.parse_ket("|0,0> - 1/2|0,1> + 2j|1,0>", 2, 2)
    assert vec[0] == 1 and vec[1] == -0.5 and vec[2] == 2j


def test_parse_ket_errors():
    with pytest.raises(ValueError, match="out of range"):
        matio.parse_ket("1|5,0>", 2, 2)
    with pytest.raises(ValueError, match="no ket terms"):
        matio.parse_ket("garbage", 2, 2)
    with pytest.raises(ValueError, match="unparsed"):
        matio.parse_ket("1|0,0> leftovers", 2, 2)
    with pytest.raises(ValueError, match=r"non-finite amplitude at ket term 'inf\|0,0>'"):
        matio.parse_ket("inf|0,0> + 1|1,1>", 2, 2)
    with pytest.raises(ValueError, match=r"non-finite amplitude at ket term '- nan\|1,1>'"):
        matio.parse_ket("1|0,0> - nan|1,1>", 2, 2)
    with pytest.raises(ValueError, match=r"non-finite amplitude at ket term '1e308\|0,0>'"):
        matio.parse_ket("1e308|0,0> + 1e308|0,0>", 2, 2)  # each finite, the sum is not
    with pytest.raises(ValueError, match=r"cannot parse ket term '1/0\|0,0>'"):
        matio.parse_ket("1/0|0,0>", 2, 2)
    with pytest.raises(ValueError, match=r"cannot parse ket term 'abc\|0,0>'"):
        matio.parse_ket("abc|0,0>", 2, 2)


def _fresh_exact(text):
    """The exact view of `text` with every cell parsed on its own."""
    rows = [ln.split() for ln in text.splitlines()[1:]]
    return np.array([[matio.parse_entry(tok)[1] for tok in row] for row in rows])


def test_repeated_non_finite_token_names_its_first_cell():
    text = "3 0 0\n1 0 0\n0 1 nan\nnan 0 nan\n"
    with pytest.raises(ValueError, match="row 1, column 2: non-finite entry 'nan'"):
        matio.loads_matrix(text)


def test_zero_denominator_entry_is_rejected():
    with pytest.raises(ValueError, match="cannot parse matrix entry '1/0'"):
        matio.loads_matrix("2 0 0\n1 1/0\n0 1\n")


def test_rational_file_cells_equal_their_own_parse():
    text = "3 0 0\n1/2 -1/3+2j 0\n-1/3-2j 1/2 7/4j\n0 -7/4j 1/2\n"
    mf = matio.loads_matrix(text)
    expect = _fresh_exact(text)
    assert mf.exact.shape == (3, 3)
    # numerators over the lcm of the denominators 2, 3 and 4
    assert mf.exact.re.dtype == mf.exact.im.dtype == np.int64 and mf.exact.den == 12
    assert mf.exact.re.tolist() == [[6, -4, 0], [-4, 6, 0], [0, 0, 6]]
    assert mf.exact.im.tolist() == [[0, 24, 0], [-24, 0, 21], [0, -21, 0]]
    assert exact_cells(mf.exact) == expect.tolist()
    assert np.array_equal(mf.mat, mf.exact.float_view())


_token_parts = st.one_of(st.integers(-9, 9), st.integers(-2 ** 64, 2 ** 64))
_token_dens = st.one_of(st.integers(1, 12), st.sampled_from([2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64]))
_entry_tokens = st.one_of(
    st.builds(str, _token_parts),
    st.builds(lambda p, q: f"{p}/{q}j", _token_parts, _token_dens),
    st.builds(lambda p, q, r, s: f"{p}/{q}{r:+d}/{s}j",
              _token_parts, _token_dens, _token_parts, _token_dens),
    st.sampled_from(["1.5", "-2e-3+1j", ".5j", "-0"]),
)


@given(st.data())
def test_loader_views_equal_a_fresh_per_cell_parse(data):
    d = data.draw(st.integers(1, 5))
    pool = data.draw(st.lists(_entry_tokens, min_size=1, max_size=4))
    rows = [[data.draw(st.sampled_from(pool)) for _ in range(d)] for _ in range(d)]
    mf = matio.loads_matrix(f"{d} 0 0\n" + "".join(" ".join(row) + "\n" for row in rows))
    fresh = [[matio.parse_entry(tok) for tok in row] for row in rows]
    assert ([[_bits(z) for z in row] for row in mf.mat.tolist()]
            == [[_bits(value) for value, _ in row] for row in fresh])
    exacts = [[g for _, g in row] for row in fresh]
    if any(g is None for row in exacts for g in row):
        assert mf.exact is None
    else:
        assert exact_cells(mf.exact) == exacts
        assert mf.exact.den == math.lcm(*(part.denominator for row in exacts for g in row
                                          for part in (g.re, g.im)))


def test_decimal_token_anywhere_drops_the_exact_view():
    # "1.0" equals the rational token "1" but is decimal
    mf = matio.loads_matrix("2 0 0\n1 0\n0 1.0\n")
    assert mf.exact is None
    assert np.array_equal(mf.mat, np.eye(2))


def test_shared_entries_survive_pt_and_certification():
    # every cell of a catalog PT repeats one of a few tokens; loading, the
    # exact partial transpose and the elimination must leave them untouched
    rho = build_exact("arr13_xii")
    text = matio.dumps_matrix(rho.float_view(), 3, 3, pt_array(rho, 3, 3))
    mf = matio.loads_matrix(text)
    pt_array(mf.exact, 3, 3)
    ine = exact_inertia(mf.exact)
    assert ine == Inertia(3, 1, 5)
    fresh = _fresh_exact(text)
    assert exact_cells(mf.exact) == fresh.tolist()
    assert exact_inertia(mf.exact) == ine


def test_parse_ket_reads_coefficients_as_matrix_entries():
    vec = matio.parse_ket("1/2j|0,0> - 3/4j|1,1> + 1 / 2|0,1>", 2, 2)
    assert vec[0] == 0.5j and vec[1] == 0.5 and vec[3] == -0.75j
    for token in ["1/2j", "-2/3j", "1.5", "2j", "3/4"]:
        assert matio.parse_ket(f"{token}|1,0>", 2, 2)[2] == matio.parse_entry(token)[0]


@pytest.mark.parametrize("literal, index, value", [
    ("1|0,0> + 1e-3|1,1>", 3, 1e-3),
    ("2.5E+2|0,0> + 1|1,1>", 0, 250.0),
    ("1|0,0> - 1e-3|1,1>", 3, -1e-3),
    ("1|0,0> + 1e-3j|1,1>", 3, 1e-3j),
])
def test_a_coefficient_with_a_signed_exponent_is_one_term(literal, index, value):
    vec = matio.parse_ket(literal, 2, 2)
    assert vec[index] == value
    assert np.count_nonzero(vec) == 2


@pytest.mark.parametrize("literal, leftover", [
    ("1+2j|0,0> + 1|1,1>", "'1'"),
    ("-1-2j|0,0>", "'-1'"),  # not -(1-2j)
    ("1e-3-2j|0,0>", "'1e-3'"),
])
def test_an_a_plus_bj_coefficient_is_refused(literal, leftover):
    with pytest.raises(ValueError, match=f"unparsed text in ket literal: {leftover}$"):
        matio.parse_ket(literal, 2, 2)


def _old_str(g):
    """GaussianRational.__str__ as the f-string over Fraction parts it replaced."""
    sign = "+" if g.im >= 0 else "-"
    return f"{g.re}{sign}{abs(g.im)}j"


_big = st.integers(-10 ** 40, 10 ** 40)
_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Fraction, _big, st.integers(1, 10 ** 40)),
)


@given(_rationals, _rationals)
def test_entry_token_round_trips_through_str(re_part, im_part):
    g = GaussianRational(re_part, im_part)
    token = str(g)
    assert token == _old_str(g)
    value, exact = matio.parse_entry(token)
    assert exact == g and type(exact.re) is Fraction and type(exact.im) is Fraction
    assert value == complex(g) == complex(float(re_part), float(im_part))


_digits = st.from_regex(r"\A[0-9]{1,30}\Z")


@given(st.sampled_from(["", "+", "-"]), _digits, st.none() | _digits,
       st.none() | st.tuples(st.sampled_from("+-"), _digits, st.none() | _digits),
       st.booleans())
def test_parse_entry_matches_the_fraction_string_parse(sign, p, q, imag, pure_imag):
    """Rational tokens ``p/q+r/sj`` and ``p/qj`` against Fraction(str) of each part."""
    re_text = sign + p + (f"/{q}" if q is not None else "")
    if pure_imag:
        token, re_ref, im_ref = re_text + "j", "0", re_text
    elif imag is None:
        token, re_ref, im_ref = re_text, re_text, "0"
    else:
        im_sign, r, s = imag
        im_text = im_sign + r + (f"/{s}" if s is not None else "")
        token, re_ref, im_ref = re_text + im_text + "j", re_text, im_text
    try:
        re_part, im_part = Fraction(re_ref), Fraction(im_ref)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match=re.escape(f"cannot parse matrix entry '{token}'")):
            matio.parse_entry(token)
        return
    value, exact = matio.parse_entry(token)
    assert exact == GaussianRational(re_part, im_part)
    assert value == complex(float(re_part), float(im_part))


@given(st.sampled_from(["", "-"]), _digits, st.sampled_from(["", "j", "+1j", "-1/2j"]))
def test_zero_denominator_token_is_a_parse_error(sign, p, tail):
    token = f"{sign}{p}/0{tail}"
    with pytest.raises(ValueError, match=re.escape(f"cannot parse matrix entry '{token}'")):
        matio.parse_entry(token)
