"""Smoke tests: each script under scripts/ runs to completion as a subprocess."""

import subprocess
import sys
from pathlib import Path

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
