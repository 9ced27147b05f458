import configparser
import re
from pathlib import Path

import numpy as np
import pytest

from degenwave import evolution
from degenwave.cli import ConfigError, build_scenario, main

README = Path(__file__).resolve().parents[1] / "README.md"

BASE_LINEAR = """\
[coefficient]
kind = power
alpha = 0.5

[operator]
kind = beam_nondiv
n = 24
beta = 1.0
gamma = 1.0

[source]
kind = none

[initial]
preset = eigenmode
mode = 0
amplitude = 1.0
history = zero

[run]
dt = 0.01
t_end = 2.0
"""

DELAYED = """\
[coefficient]
kind = power
alpha = 0.5

[operator]
kind = beam_nondiv
n = 24
beta = 1.0
gamma = 1.0

[kernel]
kind = constant
k0 = 0.005
tau = 0.5
subdomain = 0.25, 0.75

[source]
kind = power
q = 1.0

[initial]
preset = eigenmode
mode = 0
amplitude = 0.001
history = zero

[run]
dt = 0.0125
t_end = 2.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_col(path, name):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, header.index(name)]


def test_simulate_linear_beam(tmp_path):
    cfg = write(tmp_path, "lin.ini", BASE_LINEAR)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--command", "simulate",
                 "--quiet"]) == 0
    totals = read_col(out / "trajectory.csv", "E_total")
    assert np.all(np.diff(totals) <= 1e-12 * totals[0])
    report = (out / "energy_report.txt").read_text()
    assert "fitted_rate:" in report
    assert "blew_up: no" in report


def test_simulate_deterministic(tmp_path):
    cfg = write(tmp_path, "lin.ini", BASE_LINEAR)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", cfg, "--out", str(out), "--command", "simulate",
                     "--quiet"]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_delayed_emits_margins(tmp_path):
    cfg = write(tmp_path, "delayed.ini", DELAYED)
    out = tmp_path / "m"
    assert main(["--config", cfg, "--out", str(out), "--command", "simulate",
                 "--quiet"]) == 0
    lines = (out / "margins.csv").read_text().strip().splitlines()
    assert lines[0] == "t,included,bound_ratio"
    assert len(lines) > 10
    assert "bound_max_ratio:" in (out / "energy_report.txt").read_text()


def test_certify_deterministic_and_feasible(tmp_path):
    cfg = write(tmp_path, "delayed.ini", DELAYED)
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", cfg, "--out", str(out), "--command", "certify",
                     "--quiet"]) == 0
        texts.append((out / "certificate.txt").read_text())
    assert texts[0] == texts[1]
    keys = {line.split(":")[0] for line in texts[0].strip().splitlines()}
    assert {"M", "omega", "b", "lambda_window", "alpha", "omega_prime", "rho",
            "C_rho", "predicted_rate", "feasible", "smallness"} <= keys
    assert "feasible: yes" in texts[0]


def test_out_of_range_coefficient_exits_3(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", BASE_LINEAR.replace("alpha = 0.5", "alpha = 2.5"))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 3
    assert "K" in capsys.readouterr().err


def test_infeasible_certificate_exits_2(tmp_path):
    cfg = write(tmp_path, "huge.ini", DELAYED.replace("k0 = 0.005", "k0 = 50.0")
                .replace("kind = power\nq = 1.0", "kind = none"))
    out = tmp_path / "o"
    code = main(["--config", cfg, "--out", str(out), "--command", "certify",
                 "--quiet"])
    assert code == 2
    assert "feasible: no" in (out / "certificate.txt").read_text()


def test_blow_up_exits_4(tmp_path):
    cfg = write(tmp_path, "anti.ini", DELAYED
                .replace("k0 = 0.005", "k0 = -40.0")
                .replace("amplitude = 0.001", "amplitude = 1.0")
                .replace("t_end = 2.0", "t_end = 20.0")
                .replace("dt = 0.0125", "dt = 0.05")
                .replace("kind = power\nq = 1.0", "kind = none")
                .replace("history = zero", "history = constant:1.0"))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command",
                 "simulate", "--quiet"])
    assert code == 4


def test_certify_rejects_source_off_beam(tmp_path):
    cfg = write(tmp_path, "wave.ini", DELAYED.replace("kind = beam_nondiv",
                                                      "kind = wave_nondiv"))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command",
                 "certify", "--quiet"])
    assert code == 3


def test_missing_config_exits_3(tmp_path):
    assert main(["--config", str(tmp_path / "nope.ini"), "--quiet"]) == 3


def test_sweep_summary(tmp_path):
    cfg = write(tmp_path, "sweep.ini", DELAYED + "\n[sweep]\nparameter = kernel.k0\n"
                                                 "values = 0.002, 0.005, 0.008\n")
    out = tmp_path / "sw"
    assert main(["--config", cfg, "--out", str(out), "--command", "sweep",
                 "--quiet"]) == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("value,feasible,predicted_rate,fitted_rate")
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.split(",")[6] == "no"  # no blow-up in any run


@pytest.mark.parametrize("parameter, values, expected_calls",
                         [("kernel.k0", "0.002, 0.008", 1), ("operator.beta", "1.0, 2.0", 2)])
def test_sweep_semigroup_constants_once_per_generator(tmp_path, monkeypatch, parameter,
                                                      values, expected_calls):
    text = DELAYED.replace("t_end = 2.0", "t_end = 0.5")
    cfg = write(tmp_path, "sweep.ini",
                text + f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n")
    calls = []
    semigroup_constants = evolution.semigroup_constants
    monkeypatch.setattr(evolution, "semigroup_constants",
                        lambda *a, **k: calls.append(1) or semigroup_constants(*a, **k))
    assert main(["--config", cfg, "--out", str(tmp_path / "shared"), "--command",
                 "sweep", "--quiet"]) == 0
    assert len(calls) == expected_calls
    # the same sweep with a certificate computed afresh for every value
    certify = evolution.certify_scenario
    monkeypatch.setattr(evolution, "certify_scenario",
                        lambda scenario, semigroup=None, constants=None: certify(scenario))
    assert main(["--config", cfg, "--out", str(tmp_path / "fresh"), "--command",
                 "sweep", "--quiet"]) == 0
    summary = (tmp_path / "shared" / "summary.csv").read_text()
    assert summary == (tmp_path / "fresh" / "summary.csv").read_text()
    assert all(row.split(",")[1] == "yes" for row in summary.splitlines()[1:])


@pytest.mark.parametrize("command", ["certify", "sweep"])
def test_state_dimension_above_expm_limit_exits_3(tmp_path, capsys, command):
    text = (DELAYED.replace("n = 24", "n = 600")
            .replace("preset = eigenmode", "preset = polynomial")
            .replace("t_end = 2.0", "t_end = 0.025"))
    cfg = write(tmp_path, "big.ini", text + "\n[sweep]\nparameter = kernel.k0\nvalues = 0.005\n")
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command", command,
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 3
    assert "exceeds 1024" in err and "Traceback" not in err
    # a valid config that hits a package limit is not a config error
    assert err.startswith("error: state dimension 1198")


def test_package_error_while_building_is_config_error(tmp_path, capsys):
    # a = x^2.5 has K >= 2, so classify raises KOutOfRangeError
    path = write(tmp_path, "k.ini", BASE_LINEAR.replace("alpha = 0.5", "alpha = 2.5"))
    cfg = configparser.ConfigParser()
    cfg.read(path)
    with pytest.raises(ConfigError):
        build_scenario(cfg)
    assert main(["--config", path, "--out", str(tmp_path / "o"), "--command",
                 "simulate", "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("config error: ")


def test_dump_operators_flag(tmp_path):
    cfg = write(tmp_path, "lin.ini", BASE_LINEAR)
    out = tmp_path / "dump"
    assert main(["--config", cfg, "--out", str(out), "--command", "simulate",
                 "--quiet", "--dump-operators"]) == 0
    text = (out / "system_matrix.mtx").read_text()
    assert text.startswith("%%MatrixMarket")


@pytest.mark.parametrize("mode", ["40", "-1", "2.7", "nan"])
def test_eigenmode_mode_out_of_range_or_fractional_exits_3(tmp_path, capsys, mode):
    cfg = write(tmp_path, "mode.ini", BASE_LINEAR.replace("n = 24", "n = 16")
                .replace("mode = 0", f"mode = {mode}"))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command",
                 "simulate", "--quiet"])
    assert code == 3
    assert "mode" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["64.7", "nan"])
def test_fractional_or_nan_grid_size_exits_3(tmp_path, capsys, n):
    cfg = write(tmp_path, "n.ini", BASE_LINEAR.replace("n = 24", f"n = {n}"))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command",
                 "simulate", "--quiet"])
    assert code == 3
    assert "[operator] n" in capsys.readouterr().err


def test_readme_example_config_runs(tmp_path):
    # the ```ini block of README.md, verbatim, inline comments included
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    cfg = write(tmp_path, "readme.ini", block)
    for command in ("simulate", "certify"):
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--command",
                     command, "--quiet"]) == 0
    assert "feasible: yes" in (tmp_path / "o" / "certificate.txt").read_text()


@pytest.mark.parametrize("table", ["coefficient", "kernel"])
def test_one_column_csv_row_exits_3(tmp_path, capsys, table):
    text = DELAYED.replace("t_end = 2.0", "t_end = 0.1")
    if table == "coefficient":
        csv = write(tmp_path, "a.csv", "x,a\n0.0,0.0\n0.5\n1.0,1.0\n")
        text = text.replace("kind = power\nalpha = 0.5", f"kind = tabulated\ncsv = {csv}")
    else:
        csv = write(tmp_path, "k.csv", "t,k\n0.0,0.005\n1.0\n")
        text = text.replace("kind = constant\nk0 = 0.005", f"kind = tabulated\ncsv = {csv}")
    code = main(["--config", write(tmp_path, "t.ini", text), "--out", str(tmp_path / "o"),
                 "--command", "simulate", "--quiet"])
    assert code == 3
    assert "one column" in capsys.readouterr().err


def _csv_initial_config(tmp_path, text):
    csv = write(tmp_path, "initial.csv", text)
    return write(tmp_path, "csv.ini", BASE_LINEAR.replace("preset = eigenmode\nmode = 0",
                                                          f"preset = csv:{csv}"))


@pytest.mark.parametrize("header", ["", "x,y0,y1\n"])
def test_csv_initial_data_on_the_nodes_come_back_exactly(tmp_path, header):
    x = np.linspace(0.0, 1.0, 24)
    y0, y1 = x ** 2 * np.cos(3.0 * x), -x ** 2 * np.sin(2.0 * x)
    rows = "".join(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in zip(x, y0, y1))
    cfg = configparser.ConfigParser()
    cfg.read(_csv_initial_config(tmp_path, header + rows))
    sc = build_scenario(cfg)
    assert np.array_equal(sc.y0, y0) and np.array_equal(sc.y1, y1)


def test_csv_initial_short_row_exits_3(tmp_path, capsys):
    path = _csv_initial_config(tmp_path, "x,y0,y1\n0.0,0.0,0.0\n0.5,0.1\n1.0,1.0,0.0\n")
    code = main(["--config", path, "--out", str(tmp_path / "o"), "--command", "simulate",
                 "--quiet"])
    assert code == 3
    assert "line 3 has 2 columns, need 3" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["descending", "repeated"])
def test_csv_initial_x_not_ascending_exits_3(tmp_path, capsys, order):
    x = np.linspace(0.0, 1.0, 64)
    x = x[::-1] if order == "descending" else np.concatenate((x[:32], x[31:63]))
    rows = "".join(f"{a:.17g},{a * a:.17g},0\n" for a in x)
    code = main(["--config", _csv_initial_config(tmp_path, "x,y0,y1\n" + rows), "--out",
                 str(tmp_path / "o"), "--command", "simulate", "--quiet"])
    assert code == 3
    assert "x must be strictly ascending" in capsys.readouterr().err


@pytest.mark.parametrize("lower, upper", [(0.0, 0.6), (0.1, 1.0)])
def test_csv_initial_x_not_spanning_the_interval_exits_3(tmp_path, capsys, lower, upper):
    # np.interp would hold y0 and y1 flat beyond the table
    x = np.linspace(lower, upper, 30)
    rows = "".join(f"{a:.17g},{a * a:.17g},0\n" for a in x)
    code = main(["--config", _csv_initial_config(tmp_path, "x,y0,y1\n" + rows), "--out",
                 str(tmp_path / "o"), "--command", "simulate", "--quiet"])
    assert code == 3
    assert "x must run from 0 to 1" in capsys.readouterr().err
