"""The example scripts run end to end and write their CSV files."""

import json
import os
import subprocess
import sys
from pathlib import Path

from degenwave import Trajectory

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_certify_small_data_script(tmp_path):
    proc = run_script("certify_small_data.py", ["--n", "16", "--out-dir", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "feasible: yes" in proc.stdout
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == ",".join(Trajectory.CSV_COLUMNS)
    assert len(lines) == 802   # header, t = 0 and 800 steps of dt = tau / 40


def test_kernel_gain_sweep_script(tmp_path):
    proc = run_script("certify_small_data.py", ["--n", "16", "--k0", "0.004,0.008",
                                                "--out-dir", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("feasible: yes") == 2
    lines = (tmp_path / "out" / "gain_sweep.csv").read_text().splitlines()
    assert lines[0] == "k0,feasible,rho,predicted_rate,fitted_rate,blew_up"
    assert len(lines) == 3
    assert lines[1].startswith("0.004,True,") and lines[2].startswith("0.008,True,")


def test_linear_decay_study_script_imports(tmp_path):
    proc = run_script("linear_decay_study.py", ["--help"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_steptime_script(tmp_path):
    proc = run_script("steptime.py", ["--n", "16", "--tau", "0.0125", "--steps", "20",
                                      "--repeats", "2"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["n"] == 16 and result["m"] == 5 and result["steps"] == 20
    assert result["runs"] == 1
    assert 0.0 < result["min_us"] <= result["median_us"]
    # the kept states alone: 21 records of 2 x 15 doubles
    assert result["peak_kb"] > 21 * 30 * 8 / 1024


def test_steptime_script_batch(tmp_path):
    proc = run_script("steptime.py", ["--n", "16", "--tau", "0.0125", "--steps", "20",
                                      "--repeats", "2", "--runs", "3"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["runs"] == 3 and result["m"] == 5 and result["steps"] == 20
    assert 0.0 < result["min_us"] <= result["median_us"]
    assert result["peak_kb"] > 0.0
