import json

import numpy as np
import pytest

from ptinertia import build, build_exact, matio, partial_transpose
from ptinertia.cli import main


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

    from ptinertia.exact import exact_partial_transpose
    exact = exact_partial_transpose(build_exact("arr13_vi"), 3, 3)
    matio.save_matrix(path, partial_transpose(state), 3, 3, exact=exact)
    code, out, _ = run(capsys, "inertia", "--file", str(path), "--exact")
    assert code == 0 and out.strip() == "1 5 3"


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
    data["alarms"][0]["inertia"] = [0, 0, 9]
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
])
def test_search_and_replay_exit_codes(search_logs, capsys, argv, expected):
    code, _, err = run(capsys, *(a.format(dir=search_logs) for a in argv))
    assert code == expected
    if expected == 2 and "gaussian" not in argv:  # argparse prints its own usage
        # one line of diagnosis, never a traceback
        assert err.startswith("error:") and err.count("\n") == 1
