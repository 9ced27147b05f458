"""The example scripts run end to end and write their CSV files."""

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
    proc = run_script("kernel_gain_sweep.py", ["--gains", "0.004"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "gain_sweep.csv").read_text().splitlines()
    assert lines[0] == "k0,feasible,rho,predicted_rate,fitted_rate,blew_up"
    assert len(lines) == 2 and lines[1].startswith("0.004,True,")
