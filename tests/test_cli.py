import hashlib
import json
import sys

import numpy as np
import pytest

from ptinertia import build, build_exact, entry_ids, matio, partial_transpose, pt_array
from ptinertia.cli import main
from ptinertia.search import load_records

from test_catalog import DUMP_SHA256


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inertia_identity(tmp_path, capsys):
    path = tmp_path / "i9.txt"
    matio.save_matrix(path, np.eye(9), 3, 3)
    code, out, _ = run(capsys, "inertia", "--file", str(path))
    assert code == 0
    assert out.strip() == "0 0 9"


def test_inertia_exact_path(tmp_path, capsys):
    state = build("arr13_vi")
    path = tmp_path / "s.txt"
    matio.save_matrix(path, partial_transpose(state), 3, 3,
                      exact=None)
    # decimal file: exact flag must be refused
    code, _, err = run(capsys, "inertia", "--file", str(path), "--exact")
    assert code == 2 and "rational" in err

    exact = pt_array(build_exact("arr13_vi"), 3, 3)
    matio.save_matrix(path, partial_transpose(state), 3, 3, exact=exact)
    code, out, _ = run(capsys, "inertia", "--file", str(path), "--exact")
    assert code == 0 and out.strip() == "1 5 3"


def test_inertia_exact_rejects_a_non_hermitian_rational_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 0 0\n1 1/2\n1/3 1\n")
    code, out, err = run(capsys, "inertia", "--file", str(path), "--exact")
    assert code == 2 and out == ""
    assert err == "error: exact_inertia requires an exactly Hermitian matrix\n"


# sha256 of the `pt --file` bytes of each `catalog dump` file; both commands
# write the tokens of the exact view
PT_OF_DUMP_SHA256 = {
    "arr13_i": "b4e88f0f8cfc5f63b75d2a0b9ace340c8df6c4ba8822aa9a7dc0318b74a9f014",
    "arr13_ii": "d4953b4773757884f0b18e0440a08d816590f07bd56ca98381cf34c90a8c1134",
    "arr13_iii": "94a09792538759e029aab6ae5cc66a3ef6e5feb6338653b06a005b7208d09ed9",
    "arr13_iv": "9934ab28ae4b48b078b5a80af34332740eb5ea6691fc7759ac0976623a1a04c0",
    "arr13_ix": "382709ec083f9616ac3a1de4691d7e0c84c0bf15dc5a30090e47ca341bd76cbd",
    "arr13_v": "c241900011ad49c2219b44c3e0a3642b49be545e01fd7501fc3a5f265b51516c",
    "arr13_vi": "2dc1f53251af1ce74eb6b7dfd4e662040e4911e82d577f76bef6d76e4ac0db92",
    "arr13_vii": "56eddcc37f8f7233d5ebefe0c09aca7c147121dd5906d9cf24d51cbe72d552e6",
    "arr13_viii": "abf4d6a4131ed778828fac5b5f04823ba661a691aa97ab76b384ae1ad9f2bb7a",
    "arr13_x": "9f41f6b60675e21f91bd6fb9e3f456a36f611a7f15a91037c9a7020c031ace76",
    "arr13_xi": "c7d11f176a7f8fc7c0ff4f419e8d2c5bc9834851bf281cb77ceda068fea07c80",
    "arr13_xii": "a3058b3622fe27fcfad4744121a28fe7041ca3f0622cb0ddcee8c52792862954",
    "arr13_xiii": "6edcf630da505f2eae0bba68ba03f21b055443b943862c2e6aa2b46d1477a700",
    "arr23_xi": "12ccef1e32f6943c3d76f3aca036e1110f07cc36f8bcdeca899d017a3f784c4c",
    "arr23_xii": "b955473159e7dfa969ecefe9f99816e3c003f73f61aad84206459f3def3b8de2",
    "arr23_xiii": "28f6ba6cb2b5f2bd2f97b8588221add694b77901858a7a294472950184827227",
    "ex11": "5391197471a7f492de6c840ebd53a91ccbc293ad859fa37f643e93577756e036",
    "npt2_i": "c241900011ad49c2219b44c3e0a3642b49be545e01fd7501fc3a5f265b51516c",
    "npt2_iia": "382709ec083f9616ac3a1de4691d7e0c84c0bf15dc5a30090e47ca341bd76cbd",
    "npt2_iib": "fb0306ed993eefe23fd37515b8e61b9530e974deb3406ed678341d647557f5f0",
    "npt2_iii": "5391197471a7f492de6c840ebd53a91ccbc293ad859fa37f643e93577756e036",
    "npt2_iva": "71b317cb3afa374c671a8251f6b6b470ea56fc2ba3abbc8374ccd24e1e182708",
    "npt2_ivb": "d72d71ae21487dbdcbb821af10694a8b3f29144e0bb0d7c3dabd91b706dda58b",
    "npt2_ivc": "4bf5bba163d789e662650a230fbfc8831703687ebcd7094fc48f31515ee22f28",
    "npt2_ivd": "bdee58b7b1452d122421a6e97c13328a6d7cfbd4c8fa83c9a63d5890a6f15375",
    "pure22_r2": "0d7c0ccea1845cf65d482e3c47591b204d6e903f3179bcab1869b29d2622939a",
    "pure23_r2": "ec765e02caa1ea3a31a6d23b261571ad2b16a12f7d68b60d8ca41d97c267c3e4",
}


@pytest.mark.parametrize("entry_id", entry_ids())
def test_catalog_dump_and_its_pt_bytes_are_pinned(tmp_path, capsys, entry_id):
    path = tmp_path / "dump.txt"
    assert main(["catalog", "dump", entry_id, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DUMP_SHA256[entry_id]
    code, out, err = run(capsys, "pt", "--file", str(path))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PT_OF_DUMP_SHA256[entry_id]


# tokens outside the documented entry grammar that complex() or int() read
OFF_GRAMMAR = ["1_0", "1e1_0", "(1+2j)", "\u0661/\u0662", "\u0661"]


@pytest.mark.parametrize("token", OFF_GRAMMAR)
@pytest.mark.parametrize("command", ["inertia", "pt"])
def test_an_entry_outside_the_grammar_exits_2(tmp_path, capsys, command, token):
    path = tmp_path / "m.txt"
    path.write_text(f"4 2 2\n1 0 0 0\n0 {token} 0 0\n0 0 1 0\n0 0 0 1\n", encoding="utf-8")
    code, out, err = run(capsys, command, "--file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse matrix entry {token!r}\n"


@pytest.mark.parametrize("coefficient", ["1_0", "1e1_0", "(2j)", "\u0661/\u0662", "\u0661"])
def test_a_ket_coefficient_outside_the_grammar_exits_2(capsys, coefficient):
    code, out, err = run(capsys, "schmidt", "--ket", f"{coefficient}|0,0> + 1|1,1>",
                         "--dims", "2", "2")
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse ket term {coefficient + '|0,0>'!r}\n"


@pytest.mark.parametrize("header", ["\u0662 0 0", "2 0 0_0", "\uff12 0 0", "2 +1_0 0"])
def test_a_header_outside_ascii_digits_exits_2(tmp_path, capsys, header):
    path = tmp_path / "m.txt"
    path.write_text(f"{header}\n1 0\n0 1\n", encoding="utf-8")
    code, out, err = run(capsys, "inertia", "--file", str(path), "--exact")
    assert (code, out) == (2, "")
    assert err == f"error: header must be 'dim m n' integers, got {header!r}\n"


@pytest.mark.parametrize("index", ["\u0661,\u0660", "1,\u0660", "\uff11,0"])
def test_a_ket_index_outside_ascii_digits_exits_2(capsys, index):
    code, out, err = run(capsys, "schmidt", "--ket", f"1|{index}> + 1|0,1>", "--dims", "2", "2")
    assert (code, out) == (2, "")
    assert err == f"error: unparsed text in ket literal: {'1|' + index + '>'!r}\n"


def test_inertia_tol_flag(tmp_path, capsys):
    path = tmp_path / "m.txt"
    matio.save_matrix(path, np.diag([1.0, 1e-6, -1.0]), 0, 0)
    code, out, _ = run(capsys, "inertia", "--file", str(path), "--tol", "1e-3")
    assert code == 0 and out.strip() == "1 1 1"
    code, out, _ = run(capsys, "inertia", "--file", str(path), "--tol", "1e-9")
    assert code == 0 and out.strip() == "1 0 2"


def test_env_var_tolerance(tmp_path, capsys, monkeypatch):
    path = tmp_path / "m.txt"
    matio.save_matrix(path, np.diag([1.0, 1e-6, -1.0]), 0, 0)
    monkeypatch.setenv("PTINERTIA_TOL_ZERO", "1e-3")
    code, out, _ = run(capsys, "inertia", "--file", str(path))
    assert code == 0 and out.strip() == "1 1 1"


def test_pt_round_trip(tmp_path, capsys):
    src = tmp_path / "state.txt"
    out1 = tmp_path / "pt.txt"
    out2 = tmp_path / "ptpt.txt"
    code, _, _ = run(capsys, "catalog", "dump", "arr13_ix", "--out", str(src))
    assert code == 0
    assert run(capsys, "pt", "--file", str(src), "--out", str(out1))[0] == 0
    assert run(capsys, "pt", "--file", str(out1), "--out", str(out2))[0] == 0
    original = matio.load_matrix(src)
    doubled = matio.load_matrix(out2)
    assert np.allclose(original.mat, doubled.mat)  # PT is an involution
    gamma = matio.load_matrix(out1)
    assert np.allclose(gamma.mat, partial_transpose(build("arr13_ix")))


def test_schmidt_command(capsys):
    code, out, _ = run(capsys, "schmidt", "--ket", "1|0,0> + 1|1,1>",
                       "--dims", "2", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank 2"
    assert lines[1].startswith("coefficients 1 1")


@pytest.mark.parametrize("ket, coefficients", [
    ("1|0,0> + 1e-3|1,1>", "coefficients 1 0.001"),
    ("2.5E+2|0,0> + 1|1,1>", "coefficients 250 1"),
    ("1|0,0> - 1e-3|1,1>", "coefficients 1 0.001"),
    ("1|0,0> + 1e-3j|1,1>", "coefficients 1 0.001"),
    # numpy's norm of this ket overflows; it must not warn on stderr
    ("1e308|0,0>+1e308|1,1>", "coefficients 1e+308 1e+308"),
])
def test_schmidt_reads_a_coefficient_with_a_signed_exponent(capsys, ket, coefficients):
    code, out, err = run(capsys, "schmidt", "--ket", ket, "--dims", "2", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["rank 2", coefficients]


@pytest.mark.parametrize("dims", [("2", "-1"), ("0", "2"), ("-1", "-1")])
def test_schmidt_refuses_a_dimension_below_one(capsys, dims):
    code, out, err = run(capsys, "schmidt", "--ket", "1|0,0>", "--dims", *dims)
    assert (code, out) == (2, "")
    assert err == f"error: local dimensions must be >= 1, got ({dims[0]},{dims[1]})\n"


# the Bell projector (|00>+|11>)(<00|+<11|) times 10^-12, written exactly
BELL_E12 = "4 2 2\n" + "".join(
    " ".join("1/1000000000000" if i in (0, 3) and j in (0, 3) else "0" for j in range(4)) + "\n"
    for i in range(4))


@pytest.mark.parametrize("text, argv, code, out, err", [
    (None, ["search", "--dims", "3", "3", "--alarm", "(1,2)"], 2, "",
     "error: alarm triple must have three entries: '1,2'\n"),
    (None, ["search", "--dims", "0", "3"], 2, "",
     "error: local dimensions must be >= 1, got (0,3)\n"),
    ("3 0 0\n1 0 0\n0 1e-9 0\n0 0 -1\n", ["inertia", "--file", "{file}"], 0, "1 1 1\n",
     "# marginal spectrum: an eigenvalue sits near the zero threshold\n"),
    ("4 2 2\n" + "0 0 0 0\n" * 4, ["verify-ew", "--file", "{file}"], 2, "",
     "error: state has non-positive trace\n"),
    # the verdict is the trace-normalized state's, whatever the file's scale
    (BELL_E12, ["verify-ew", "--file", "{file}"], 0,
     "inertia 1 0 3\ncertified exact\nPASS\n", ""),
    # finite entries whose trace is inf: 1/inf would zero the state
    ("2 1 2\n1e308 0\n0 1e308\n", ["verify-ew", "--file", "{file}"], 2, "",
     "error: state trace overflows the float range\n"),
], ids=["alarm-pair", "search-dims-0", "marginal", "zero-state", "bell-1e-12",
        "trace-overflow"])
def test_a_command_prints_its_pinned_text(tmp_path, capsys, monkeypatch, text, argv, code,
                                          out, err):
    monkeypatch.delenv("PTINERTIA_TOL_ZERO", raising=False)
    path = tmp_path / "m.txt"
    if text is not None:
        path.write_text(text)
    assert run(capsys, *(a.format(file=path) for a in argv)) == (code, out, err)


def test_a_ket_index_is_read_by_its_value_at_any_length(capsys):
    # int() refuses more than 4300 digits; leading zeros keep their meaning
    zeros = "0" * 5000
    code, out, err = run(capsys, "schmidt", "--ket", f"1|{zeros},0> + 1|1,1>",
                         "--dims", "2", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["rank 2", "coefficients 1 1"]
    code, out, err = run(capsys, "schmidt", "--ket", f"1|1{zeros},0> + 1|1,1>",
                         "--dims", "2", "2")
    assert (code, out) == (2, "")
    assert err == f"error: ket index |1{zeros},0> out of range for dims (2,2)\n"


def test_catalog_verify_all_passes(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "--all")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == len(out.strip().splitlines())


def test_catalog_verify_single(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "arr13_xii")
    assert code == 0
    assert "expected=3 1 5" in out


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "arr13_i " in out or "arr13_i dims" in out
    assert "ex11" in out


def test_catalog_unknown_id(capsys):
    code, _, err = run(capsys, "catalog", "verify", "missing_entry")
    assert code == 2
    assert "unknown catalog id" in err


def test_table_3x3(capsys):
    code, out, _ = run(capsys, "table", "--dims", "3", "3")
    assert code == 0
    assert "realized 13" in out
    assert "forbidden 3" in out
    assert "open 2" in out
    assert "3 2 4" in out and "4 1 4" in out


def test_verify_ew_pass_and_fail(tmp_path, capsys):
    npt = tmp_path / "npt.txt"
    run(capsys, "catalog", "dump", "arr13_vi", "--out", str(npt))
    code, out, _ = run(capsys, "verify-ew", "--file", str(npt),
                       "--restarts", "10")
    assert code == 0
    assert "PASS" in out and "inertia 1 5 3" in out

    sep = tmp_path / "sep.txt"
    matio.save_matrix(sep, np.eye(4) / 4.0, 2, 2)
    code, out, _ = run(capsys, "verify-ew", "--file", str(sep),
                       "--restarts", "5")
    assert code == 1
    assert "FAIL" in out


def test_search_and_replay(tmp_path, capsys):
    log = tmp_path / "runs.log"
    args = ["search", "--dims", "3", "3", "--ranks", "3", "--samples", "800",
            "--seed", "17", "--alarm", "(3,0,6)", "--log", str(log)]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert "alarms" in out1
    code, out2, _ = run(capsys, *args)
    stable1 = [l for l in out1.splitlines() if not l.startswith("#")]
    stable2 = [l for l in out2.splitlines() if not l.startswith("#")]
    assert stable1 == stable2  # stable output modulo the timing diagnostic

    code, out, _ = run(capsys, "replay", "--log", str(log), "--alarm", "0")
    assert code == 0
    assert "replayed 3 0 6 recorded 3 0 6" in out


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "inertia")[0] == 2  # missing --file
    assert run(capsys, "inertia", "--file", "/nonexistent/m.txt")[0] == 2


@pytest.fixture
def search_logs(tmp_path, capsys):
    """A log with one alarming record, a tampered copy and a malformed one."""
    log = tmp_path / "runs.log"
    code, out, _ = run(capsys, "search", "--dims", "3", "3", "--ranks", "3",
                       "--samples", "200", "--seed", "17", "--alarm",
                       "(3,0,6);(2,0,7)", "--log", str(log))
    assert code == 0 and "alarms 0" not in out
    data = json.loads(log.read_text())
    # a tallied triple that is not the sample's: replay can only tell by drawing it
    recorded = data["alarms"][0]["inertia"]
    data["alarms"][0]["inertia"] = next(k for k, _ in data["counts"] if k != recorded)
    (tmp_path / "tampered.log").write_text(json.dumps(data) + "\n")
    data["counts"] = 5
    (tmp_path / "malformed.log").write_text(json.dumps(data) + "\n")
    (tmp_path / "empty.log").write_text("")
    return tmp_path


SEARCH = ["search", "--dims", "3", "3", "--ranks", "2,3", "--samples", "50"]


@pytest.mark.parametrize("argv, expected", [
    (SEARCH, 0),
    (SEARCH + ["--tol", "-1"], 2),
    (SEARCH + ["--tol", "nan"], 2),
    (SEARCH + ["--workers", "0"], 2),
    (SEARCH + ["--ensemble", "gaussian"], 2),
    (["search", "--dims", "1", "3", "--ranks", "2", "--ensemble", "structured"], 2),
    (["replay", "--log", "{dir}/runs.log"], 0),
    (["replay", "--log", "{dir}/runs.log", "--record", "0", "--alarm", "0"], 0),
    (["replay", "--log", "{dir}/tampered.log"], 1),
    (["replay", "--log", "{dir}/runs.log", "--alarm", "999"], 2),
    (["replay", "--log", "{dir}/runs.log", "--alarm", "-1"], 2),
    (["replay", "--log", "{dir}/runs.log", "--record", "1"], 2),
    (["replay", "--log", "{dir}/runs.log", "--record", "-2"], 2),
    (["replay", "--log", "{dir}/malformed.log"], 2),
    (["replay", "--log", "{dir}/empty.log"], 2),
    (["replay", "--log", "{dir}/missing.log"], 2),
    (["search", "--dims", "3", "3", "--alarm", "(-1,5,5);(9,9,9)"], 2),
    (SEARCH + ["--alarm", "(-1,5,5)"], 2),
    (SEARCH + ["--alarm", "(3,0,6);(9,9,9)"], 2),
    (SEARCH + ["--alarm", "(3,0,5)"], 2),
    (SEARCH + ["--alarm", "(3,0,6);(0,0,9)"], 0),
    (SEARCH + ["--seed", "-1"], 2),
])
def test_search_and_replay_exit_codes(search_logs, capsys, argv, expected):
    code, _, err = run(capsys, *(a.format(dir=search_logs) for a in argv))
    assert code == expected
    if expected == 2:
        # one line of diagnosis, never a traceback
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("env, argv", [
    ("nan", ["catalog", "verify", "arr13_vi"]),
    ("inf", ["catalog", "verify", "arr13_vi"]),
    ("-1e-9", ["table", "--dims", "2", "3"]),
    ("zero", ["inertia", "--file", "{dir}/eye.txt"]),
    (None, ["inertia", "--file", "{dir}/eye.txt", "--tol", "nan"]),
    (None, ["inertia", "--file", "{dir}/eye.txt", "--tol", "inf"]),
    (None, ["catalog", "verify", "arr13_vi", "--tol", "0"]),
    (None, ["inertia", "--file", "{dir}/nan.txt"]),
    (None, ["inertia", "--file", "{dir}/inf.txt"]),
    (None, ["pt", "--file", "{dir}/nan.txt"]),
    (None, ["replay", "--log", "{dir}/string_index.log"]),
    (None, ["schmidt", "--ket", "inf|0,0> + 1|1,1>", "--dims", "2", "2"]),
    (None, ["schmidt", "--ket", "nan|0,0> + 1|1,1>", "--dims", "2", "2"]),
    (None, ["schmidt", "--ket", "1/0|0,0> + 1|1,1>", "--dims", "2", "2"]),
    (None, ["schmidt", "--ket", "1+2j|0,0> + 1|1,1>", "--dims", "2", "2"]),
    (None, ["inertia", "--file", "{dir}/zero_denominator.txt"]),
    (None, ["inertia", "--file", "{dir}/negative_dims.txt"]),
    (None, ["verify-ew", "--file", "{dir}/eye.txt", "--restarts", "-1"]),
    (None, ["verify-ew", "--file", "{dir}/eye.txt", "--restarts", "2", "--seed", "-1"]),
    # an argument the catalog action would not read
    (None, ["catalog", "verify", "arr13_i", "--all"]),
    (None, ["catalog", "list", "arr13_i"]),
    (None, ["catalog", "list", "--all"]),
    (None, ["catalog", "dump", "arr13_i", "--all"]),
    (None, ["catalog", "list", "--out", "{dir}/list.txt"]),
    (None, ["catalog", "verify", "--out", "{dir}/verify.txt"]),
    (None, ["catalog", "list", "--tol", "1e-3"]),
    (None, ["catalog", "dump", "arr13_i", "--tol", "0.5"]),
    (None, ["catalog", "dump"]),
    (None, ["catalog"]),
    (None, ["search", "--dims", "3", "3", "--ranks", "2,x"]),
])
def test_invalid_tolerances_and_entries_exit_2(tmp_path, capsys, monkeypatch, env, argv):
    matio.save_matrix(tmp_path / "eye.txt", np.eye(4), 2, 2)
    (tmp_path / "nan.txt").write_text("4 2 2\n" + "1 0 0 0\n0 nan 0 0\n0 0 1 0\n0 0 0 1\n")
    (tmp_path / "inf.txt").write_text("4 2 2\n" + "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 inf\n")
    (tmp_path / "zero_denominator.txt").write_text("2 0 0\n1 0\n0 1/0\n")
    (tmp_path / "negative_dims.txt").write_text("4 -2 -2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    log = tmp_path / "runs.log"
    assert run(capsys, "search", "--dims", "3", "3", "--ranks", "3", "--samples", "200",
               "--seed", "17", "--alarm", "(3,0,6)", "--log", str(log))[0] == 0
    data = json.loads(log.read_text())
    data["alarms"][0]["index"] = str(data["alarms"][0]["index"])
    (tmp_path / "string_index.log").write_text(json.dumps(data) + "\n")
    if env is not None:
        monkeypatch.setenv("PTINERTIA_TOL_ZERO", env)
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and out == ""
    # one line of diagnosis, never a traceback
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_ew_reports_certificate_and_optional_minimum(tmp_path, capsys):
    npt = tmp_path / "npt.txt"
    run(capsys, "catalog", "dump", "arr13_vi", "--out", str(npt))
    code, out, _ = run(capsys, "verify-ew", "--file", str(npt))
    assert code == 0
    assert out.splitlines() == ["inertia 1 5 3", "certified exact", "PASS"]

    floats = tmp_path / "floats.txt"
    matio.save_matrix(floats, build("arr13_vi").mat, 3, 3)
    code, out, _ = run(capsys, "verify-ew", "--file", str(floats), "--restarts", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["inertia 1 5 3", "certified float"]
    assert lines[2].startswith("product_min ") and lines[3:] == ["PASS"]


def test_verify_ew_rejects_non_psd_file(tmp_path, capsys):
    # F + |Phi+><Phi+| on 2x2: NPT PT, but the matrix has eigenvalue -1
    path = tmp_path / "non_state.txt"
    path.write_text("4 2 2\n3/2 0 0 1/2\n0 0 1 0\n0 1 0 0\n1/2 0 0 3/2\n")
    # the minimiser that --restarts runs is a diagnostic: it cannot pass this file
    for restarts in ([], ["--restarts", "3"]):
        code, out, err = run(capsys, "verify-ew", "--file", str(path), *restarts)
        assert code == 1
        assert out.splitlines() == ["inertia 1 0 3", "FAIL"]
        assert "not PSD" in err


@pytest.mark.parametrize("flag", ["--restarts", "--seed"])
def test_verify_ew_checks_restarts_and_seed_before_reading_the_file(tmp_path, capsys, flag):
    code, out, err = run(capsys, "verify-ew", "--file", str(tmp_path / "missing.txt"),
                         flag, "-1")
    assert (code, out) == (2, "")
    assert err == f"error: {flag[2:]} must be >= 0, got -1\n"


@pytest.mark.parametrize("scheme", [None, 1])
def test_replay_refuses_a_line_from_before_seed_scheme_2(tmp_path, capsys, scheme):
    log = tmp_path / "runs.log"
    assert run(capsys, *SEARCH, "--alarm", "(3,0,6)", "--log", str(log))[0] == 0
    data = json.loads(log.read_text())
    del data["seed_scheme"]
    if scheme is not None:
        data["seed_scheme"] = scheme
    log.write_text(json.dumps(data) + "\n")
    code, out, err = run(capsys, "replay", "--log", str(log))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {log}, line 1: ") and err.count("\n") == 1


def test_unknown_catalog_id_prints_the_message_without_quotes(capsys):
    code, out, err = run(capsys, "catalog", "verify", "nope")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown catalog id 'nope';")


@pytest.mark.parametrize("log", ["missing/runs.log", "."])
def test_search_with_an_unwritable_log_exits_2_before_searching(tmp_path, capsys, log):
    # a missing directory, or a path that is a directory: one error line, no tally
    code, out, err = run(capsys, *SEARCH, "--log", str(tmp_path / log))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1


def test_search_seed_error_names_the_field(capsys):
    code, _, err = run(capsys, *SEARCH, "--seed", "-1")
    assert code == 2
    assert err == "error: seed must be >= 0, got -1\n"


def _replay_with_config_field(tmp_path, capsys, field, value):
    """Replay a one-alarm 2x2 record whose config field is set to value and whose
    config_hash is recomputed to match, so only the config's own checks stop it."""
    log = tmp_path / "runs.log"
    assert run(capsys, "search", "--dims", "2", "2", "--ranks", "2", "--samples", "20",
               "--seed", "1", "--alarm", "(1,0,3)", "--log", str(log))[0] == 0
    data = json.loads(log.read_text())
    assert data["alarms"]
    data["config"][field] = value
    blob = json.dumps(data["config"], sort_keys=True).encode()
    data["config_hash"] = hashlib.sha256(blob).hexdigest()[:16]
    log.write_text(json.dumps(data) + "\n")
    return run(capsys, "replay", "--log", str(log))


def test_replay_of_a_float_dims_record_exits_2(tmp_path, capsys):
    # a config with "m": 2.0 hashes to its own config_hash, so only the type check stops it
    code, out, err = _replay_with_config_field(tmp_path, capsys, "m", 2.0)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "m must be an integer, got 2.0" in err


def test_replay_of_a_bool_tol_zero_record_exits_2(tmp_path, capsys):
    # "tol_zero": true once loaded as a zero band of 1.0 and replayed to exit 1
    code, out, err = _replay_with_config_field(tmp_path, capsys, "tol_zero", True)
    assert code == 2 and out == ""
    assert err == f"error: {tmp_path / 'runs.log'}, line 1: tol_zero must be a real number, got True\n"


@pytest.mark.parametrize("edit, message", [
    (lambda data: data.update(marginal="seven"), "marginal must be a non-negative int"),
    (lambda data: data["counts"][0].__setitem__(1, 1.5), "counts need each count to be"),
    (lambda data: data["counts"][0].__setitem__(1, -100), "counts need each count to be"),
    (lambda data: data["counts"][0].__setitem__(0, ["a", "b", "c"]), "counts need each inertia to be"),
    (lambda data: data.update(marginal=data["marginal"] + 1), "counts plus marginal make"),
    (lambda data: data["counts"].append(list(data["counts"][0])),
     "counts list inertia (1,0,8) more than once"),
], ids=["marginal-string", "count-float", "count-negative", "triple-strings", "sum",
        "triple-twice"])
def test_replay_of_a_hand_edited_tally_exits_2(tmp_path, capsys, edit, message):
    log = tmp_path / "runs.log"
    assert run(capsys, "search", "--dims", "3", "3", "--ranks", "3", "--samples", "200",
               "--seed", "17", "--alarm", "(3,0,6)", "--log", str(log))[0] == 0
    data = json.loads(log.read_text())
    edit(data)
    log.write_text(json.dumps(data) + "\n")
    code, out, err = run(capsys, "replay", "--log", str(log))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {log}, line 1: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("field, value, message", [
    ("index", 1000000, "alarm index 1000000 out of range [0, 400)"),
    ("rank", 2, "alarm rank 2 is not sample 1's rank 3"),
    ("seed_path", [1, 2, 1], "alarm seed_path [1, 2, 1] is not sample 1's seed_path [1, 2, 0]"),
    ("inertia", [9, 9, 9], "alarm inertia (9,9,9) is not a tallied triple of the record"),
    ("inertia", [0, 0, 6], "alarm inertia (0,0,6) is not a tallied triple of the record"),
])
def test_replay_of_an_alarm_run_search_could_not_have_written_exits_2(
        tmp_path, capsys, field, value, message):
    log = tmp_path / "runs.log"
    assert run(capsys, "search", "--dims", "2", "3", "--ranks", "2,3", "--ensemble", "complex",
               "--samples", "400", "--seed", "1", "--alarm", "(1,0,5)", "--log", str(log))[0] == 0
    data = json.loads(log.read_text())
    alarm = data["alarms"][0]
    assert (alarm["index"], alarm["rank"], alarm["seed_path"]) == (1, 3, [1, 2, 0])
    assert [0, 0, 6] not in [k for k, _ in data["counts"]]
    alarm[field] = value
    if field == "index":
        alarm["seed_path"] = [1, 2, value // 16]  # the seed_path of that index
    log.write_text(json.dumps(data) + "\n")
    code, out, err = run(capsys, "replay", "--log", str(log))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_search_with_an_impossible_alarm_leaves_no_log(tmp_path, capsys):
    log = tmp_path / "new.log"
    code, out, err = run(capsys, "search", "--dims", "3", "3", "--alarm", "(1,1,1)",
                         "--log", str(log))
    assert (code, out) == (2, "")
    assert err == "error: alarm triple (1,1,1) must be >= 0 and sum to 9\n"
    assert not log.exists()


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_search_writes_its_record_before_a_closed_stdout_stops_it(tmp_path, capsys, monkeypatch):
    log = tmp_path / "runs.log"
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(["search", "--dims", "2", "3", "--ranks", "2,3", "--ensemble", "complex",
                 "--samples", "400", "--seed", "1", "--alarm", "(1,0,5)", "--log", str(log)])
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    (record,) = load_records(log)
    assert sum(record.counts.values()) + record.marginal == 400 and record.alarms


# sha256 of stdout at the commit that pinned them; 3xN tables are left out
REPORT_SHA256 = {
    ("table", "--dims", "2", "3"): "cde13d2e7b85ad3e750f43a7d7c2b4b5dcc6d8e126ec0415c6c150a1965d89d4",
    ("table", "--dims", "2", "8"): "d38da14cec481737b0b47ae4b55d27a2616a2f802a4786653bc7220a77d52be7",
    ("table", "--dims", "3", "3"): "82062fe45d98c75580b726e93d8c9505f31864b1308c9bdb3df816586613ece1",
    ("catalog", "verify", "--all"): "4bdb8471d46123aa73283e3b9e380dcb201ebc8c325b6a012eb15bd39fea7421",
    ("catalog", "list"): "536b9b99f3e025ba274c41d9c31ac7701d751be9431917bf5b94e2550146ec2e",
}


@pytest.mark.parametrize("argv", sorted(REPORT_SHA256), ids=" ".join)
def test_report_bytes_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.delenv("PTINERTIA_TOL_ZERO", raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[argv]


@pytest.mark.parametrize("alarm, triple", [
    ("(1.5,2,3)", "(1.5,2,3)"),
    ("(3,2,4); (a,1,4)", "(a,1,4)"),
    ("(3,2,4);3,2,4.0", "3,2,4.0"),
])
def test_alarm_parse_error_names_the_option_and_the_triple(capsys, alarm, triple):
    code, out, err = run(capsys, *SEARCH, "--alarm", alarm)
    assert (code, out) == (2, "")
    assert err == f"error: --alarm: cannot parse triple {triple!r}\n"


def test_replay_dump_writes_the_replayed_state(tmp_path, capsys):
    log, dump = tmp_path / "runs.log", tmp_path / "alarm.txt"
    assert run(capsys, "search", "--dims", "3", "3", "--ranks", "3", "--samples", "200",
               "--seed", "17", "--alarm", "(3,0,6)", "--log", str(log))[0] == 0
    code, out, _ = run(capsys, "replay", "--log", str(log), "--dump", str(dump))
    assert code == 0 and out == "replayed 3 0 6 recorded 3 0 6\n"
    # the dump is the state itself: its partial transpose has the replayed triple
    pt = tmp_path / "alarm_pt.txt"
    assert run(capsys, "pt", "--file", str(dump), "--out", str(pt))[0] == 0
    assert run(capsys, "inertia", "--file", str(pt))[:2] == (0, "3 0 6\n")


def test_replay_dump_to_an_unwritable_path_exits_2_before_the_verdict(tmp_path, capsys):
    log = tmp_path / "runs.log"
    assert run(capsys, "search", "--dims", "3", "3", "--ranks", "3", "--samples", "200",
               "--seed", "17", "--alarm", "(3,0,6)", "--log", str(log))[0] == 0
    code, out, err = run(capsys, "replay", "--log", str(log),
                         "--dump", str(tmp_path / "missing" / "x.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1


def test_catalog_dump_without_out_writes_the_file_bytes_to_stdout(tmp_path, capsys):
    path = tmp_path / "arr13_ix.txt"
    assert run(capsys, "catalog", "dump", "arr13_ix", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "catalog", "dump", "arr13_ix")
    assert (code, err) == (0, "")
    assert out.encode() == path.read_bytes()


@pytest.mark.parametrize("command", ["pt", "verify-ew"])
def test_pt_and_verify_ew_refuse_a_non_bipartite_header(tmp_path, capsys, command):
    path = tmp_path / "plain.txt"
    matio.save_matrix(path, np.eye(4))
    assert matio.load_matrix(path).m == 0
    code, out, err = run(capsys, command, "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_ew_on_a_rational_file_that_is_not_exactly_hermitian_exits_2(tmp_path, capsys):
    # an asymmetry of 1e-15 passes the float Hermiticity check, so only the
    # exact PSD certificate meets it: an input error, not a witness verdict
    path = tmp_path / "skew.txt"
    path.write_text("4 2 2\n1 0 0 1/2\n0 0 0 0\n0 0 0 0\n"
                    "500000000000001/1000000000000000 0 0 1\n")
    code, out, err = run(capsys, "verify-ew", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: exact_inertia requires an exactly Hermitian matrix\n"


def test_inertia_on_a_non_integer_header_quotes_the_header(tmp_path, capsys):
    path = tmp_path / "header.txt"
    path.write_text("2 x 0\n1 0\n0 1\n")
    code, out, err = run(capsys, "inertia", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: header must be 'dim m n' integers, got '2 x 0'\n"


@pytest.mark.parametrize("text, code, out, err", [
    ("2 0 0\n0 1e-13\n0 0\n", 2, "",
     "error: matrix is not Hermitian: max asymmetry 1.000e-13 exceeds 1.000e-25\n"),
    ("2 0 0\n0 0\n0 0\n", 0, "0 2 0\n", ""),
], ids=["tiny-asymmetry", "all-zero"])
def test_inertia_holds_a_tiny_matrix_to_the_relative_hermitian_bound(tmp_path, capsys,
                                                                      monkeypatch, text,
                                                                      code, out, err):
    monkeypatch.delenv("PTINERTIA_TOL_ZERO", raising=False)
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert run(capsys, "inertia", "--file", str(path)) == (code, out, err)


EYE_2X2 = "4 2 2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"


@pytest.mark.parametrize("text, code, out", [
    (None, 0, "inertia 1 5 3\ncertified exact\nPASS\n"),
    (EYE_2X2, 1, "inertia 0 0 4\nFAIL\n"),
], ids=["arr13_vi", "identity"])
def test_verify_ew_makes_one_eigendecomposition(tmp_path, capsys, monkeypatch, text, code,
                                                out):
    # the inertia line is the triple is_witness decided on, not a second solve
    monkeypatch.delenv("PTINERTIA_TOL_ZERO", raising=False)
    path = tmp_path / "s.txt"
    if text is None:
        run(capsys, "catalog", "dump", "arr13_vi", "--out", str(path))
    else:
        path.write_text(text)
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert run(capsys, "verify-ew", "--file", str(path))[:2] == (code, out)
    assert len(calls) == 1


def test_an_infinite_eigenvalue_exits_2_with_one_error_line(tmp_path, capsys):
    # finite entries, eigenvalue 2e308; the defect that ends the line is LAPACK's rounding
    path = tmp_path / "m.txt"
    path.write_text("2 0 0\n1e308 1e308\n1e308 1e308\n")
    code, out, err = run(capsys, "inertia", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: eigendecomposition failed validation: residual=nan, ")
    assert err.count("\n") == 1


def test_replay_parses_only_the_record_it_replays(search_logs, capsys):
    log = search_logs / "runs.log"
    good = log.read_text()
    log.write_text("{\n\n" + good)
    assert run(capsys, "replay", "--log", str(log)) == (
        0, "replayed 3 0 6 recorded 3 0 6\n", "")
    code, out, err = run(capsys, "replay", "--log", str(log), "--record", "0")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {log}, line 1: ") and err.count("\n") == 1
    assert run(capsys, "replay", "--log", str(log), "--record", "-3") == (
        2, "", "error: record index -3 out of range for 2 record(s)\n")
