import hashlib
import json
import sys

import numpy as np
import pytest

from ptinertia import build, build_exact, matio, partial_transpose, pt_array
from ptinertia.cli import main
from ptinertia.search import load_records


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
    if expected == 2 and "gaussian" not in argv:  # argparse prints its own usage
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
    (None, ["inertia", "--file", "{dir}/zero_denominator.txt"]),
    (None, ["inertia", "--file", "{dir}/negative_dims.txt"]),
    (None, ["verify-ew", "--file", "{dir}/eye.txt", "--restarts", "-1"]),
    (None, ["verify-ew", "--file", "{dir}/eye.txt", "--restarts", "2", "--seed", "-1"]),
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
    code, out, err = run(capsys, "verify-ew", "--file", str(path))
    assert code == 1
    assert out.splitlines() == ["inertia 1 0 3", "FAIL"]
    assert "not PSD" in err


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
