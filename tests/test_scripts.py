"""Each script under scripts/ runs as a subprocess: to completion, or to exit 2 on bad input."""

import subprocess
import sys
from pathlib import Path

import pytest

from ptinertia.search import load_records

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_reproduce_script_ends_all_good():
    proc = run_script("reproduce_reference_results.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("all good")


def test_hunt_script_writes_one_record_per_ensemble(tmp_path):
    log = tmp_path / "hunt.log"
    proc = run_script("hunt_open_inertias.py", "--samples", "64", "--seed", "7",
                      "--log", str(log))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = load_records(log)
    assert [r.config.ensemble for r in records] == ["real", "complex", "structured"]
    assert all(r.config.samples == 64 and r.config.seed == 7 for r in records)


@pytest.mark.parametrize("args, message", [
    (["--ranks", "2,x"], "--ranks: cannot parse rank set '2,x'"),
    (["--samples", "0"], "samples must be >= 1"),
    (["--seed", "-3"], "seed must be >= 0, got -3"),
    (["--workers", "0"], "workers must be >= 1, got 0"),
])
def test_hunt_script_rejects_bad_input_with_exit_2(tmp_path, args, message):
    # exit 1 is the script's status for "alarm(s) found", so bad input exits 2
    log = tmp_path / "hunt.log"
    proc = run_script("hunt_open_inertias.py", *args, "--log", str(log))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"
    assert not log.exists()


@pytest.mark.parametrize("log", ["missing/hunt.log", "."])
def test_hunt_script_with_an_unwritable_log_exits_2_before_any_run(tmp_path, log):
    # a missing directory, or a path that is a directory: one error line, no tally
    proc = run_script("hunt_open_inertias.py", "--samples", "64", "--log", str(tmp_path / log))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: [Errno ") and proc.stderr.count("\n") == 1


def test_hunt_script_on_a_closed_stdout_exits_2_and_keeps_its_records(tmp_path):
    # unbuffered, so the first print after the reader is gone meets the closed pipe;
    # a run takes long enough that the pipe is closed before the next run prints
    log = tmp_path / "hunt.log"
    proc = subprocess.Popen([sys.executable, "-u", str(SCRIPTS / "hunt_open_inertias.py"),
                             "--samples", "20000", "--seed", "7", "--log", str(log)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("ensemble=real ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (2, "error: [Errno 32] Broken pipe\n")
    records = load_records(log)
    assert 1 <= len(records) < 3
    assert [r.config.ensemble for r in records] == ["real", "complex"][:len(records)]
