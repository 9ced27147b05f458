import configparser
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from degenwave import evolution, operators
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


@pytest.mark.parametrize("tau, factor", [("400", "e^(2 alpha)"), ("800", "e^(omega tau)")])
@pytest.mark.parametrize("command", ["certify", "sweep"])
def test_long_delay_overflow_is_infeasible(tmp_path, capsys, command, tau, factor):
    # e^(omega tau) and e^(2 alpha) leave the float range: no certificate, no traceback
    text = (DELAYED.replace("n = 24", "n = 16")
            .replace("kind = constant", "kind = exp_decay\nrate = 1.0")
            .replace("tau = 0.5", f"tau = {tau}")
            .replace("kind = power\nq = 1.0", "kind = none")
            .replace("dt = 0.0125", "dt = 0.5"))
    cfg = write(tmp_path, "long.ini", text + "\n[sweep]\nparameter = kernel.k0\n"
                                             "values = 0.002, 0.005\n")
    out = tmp_path / "o"
    code = main(["--config", cfg, "--out", str(out), "--command", command, "--quiet"])
    assert "Traceback" not in capsys.readouterr().err
    if command == "certify":
        assert code == 2
        report = (out / "certificate.txt").read_text()
        assert report.startswith(f"feasible: no\nreason: {factor} = e^")
        assert report.endswith(" overflows\n")
    else:
        assert code == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["0.002", "no"], ["0.005", "no"]]


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


@pytest.mark.parametrize("block", [1, None])
def test_nonlocal_blow_up_exits_4(tmp_path, monkeypatch, block):
    # the default block steps past the blow-up into states whose L2 norm
    # squared overflows in ||y||^p: that is inf, not an OverflowError
    if block is not None:
        monkeypatch.setattr(evolution, "RECORD_BLOCK", block)
    cfg = write(tmp_path, "nonlocal.ini", DELAYED
                .replace("kind = power\nq = 1.0", "kind = nonlocal\np = 4.0")
                .replace("preset = eigenmode\nmode = 0\namplitude = 0.001",
                         "preset = polynomial\namplitude = 300.0"))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command",
                 "simulate", "--quiet"])
    assert code == 4


def readme_wave_config(tmp_path):
    """The README config on a wave_nondiv operator, with its power source."""
    text = readme_config().replace("kind = beam_nondiv      ;", "kind = wave_nondiv ;")
    assert "kind = wave_nondiv" in text and "kind = power            ; none" in text
    return write(tmp_path, "wave.ini", text)


def test_certify_rejects_source_off_beam(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["--config", readme_wave_config(tmp_path), "--out", str(out), "--command",
                 "certify", "--quiet"])
    assert code == 3
    assert capsys.readouterr().err == (
        "config error: explicit source constants are derived for beam_nondiv only; "
        "use source kind 'none' for other operator kinds\n")
    assert not (out / "certificate.txt").exists()


def test_sweep_of_a_source_off_beam_is_infeasible_without_semigroup_work(tmp_path,
                                                                          monkeypatch):
    monkeypatch.setattr(evolution, "semigroup_constants", lambda *a, **k: pytest.fail(
        "semigroup constants computed for an uncertifiable scenario"))
    cfg = readme_wave_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--command", "sweep",
                 "--quiet"]) == 0
    rows = (tmp_path / "o" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [[v, "no", ""]
                                                    for v in ("0.002", "0.005", "0.008")]


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
    # and it leaves no output directory behind
    assert not (tmp_path / "o").exists()


def test_step_factor_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a generator whose step matrix M + hD + h^2 K is indefinite (K negated)
    assemble = operators.assemble

    def negated(*args):
        gen = assemble(*args)
        return dataclasses.replace(gen, stiffness_bands=-gen.stiffness_bands)

    monkeypatch.setattr(operators, "assemble", negated)
    cfg = write(tmp_path, "lin.ini",
                BASE_LINEAR.replace("preset = eigenmode", "preset = polynomial"))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command", "simulate",
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: M + hD + h^2 K is not positive definite")
    assert "leading minor of order" in err and "Traceback" not in err


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


def test_run_of_no_whole_step_exits_3(tmp_path, capsys):
    cfg = write(tmp_path, "short.ini", BASE_LINEAR.replace("t_end = 2.0", "t_end = 0.004"))
    out = tmp_path / "o"
    code = main(["--config", cfg, "--out", str(out), "--command", "simulate", "--quiet"])
    assert code == 3
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def readme_config():
    """The ```ini block of README.md, verbatim, inline comments included."""
    return re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)


def test_readme_example_config_runs(tmp_path):
    cfg = write(tmp_path, "readme.ini", readme_config())
    for command in ("simulate", "certify"):
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--command",
                     command, "--quiet"]) == 0
    assert "feasible: yes" in (tmp_path / "o" / "certificate.txt").read_text()


def test_sweep_row_whose_growth_bound_fails_reads_violated(tmp_path, monkeypatch):
    # E(0) / (C(0) E(0)) = 1, so a negative slack fails the bound at t = 0;
    # every other cell of a row reads as it does when the bound holds
    from degenwave import diagnostics

    text = readme_config().replace("n = 64", "n = 16").replace(
        "values = 0.002, 0.005, 0.008", "values = 0.002, 0.008")
    cfg = write(tmp_path, "r.ini", text)
    rows = {}
    for name, slack in (("held", diagnostics.GROWTH_TOL), ("failed", -0.01)):
        monkeypatch.setattr(diagnostics, "GROWTH_TOL", slack)
        out = tmp_path / name
        assert main(["--config", cfg, "--out", str(out), "--command", "sweep",
                     "--quiet"]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].split(",")[5] == "bound_margin"
        rows[name] = [line.split(",") for line in lines[1:]]
    assert len(rows["held"]) == len(rows["failed"]) == 2
    for held, failed in zip(rows["held"], rows["failed"]):
        assert 1.0 <= float(held[5]) <= 1.05
        assert failed[5] == "violated"
        assert failed[:5] + failed[6:] == held[:5] + held[6:]


def test_delay_of_no_finite_slot_count_exits_3(tmp_path, capsys):
    # tau/dt overflows to inf: no OverflowError traceback from round(inf)
    text = readme_config().replace("n = 64", "n = 16").replace("tau = 0.5", "tau = 1e308")
    code = main(["--config", write(tmp_path, "r.ini", text), "--out", str(tmp_path / "o"),
                 "--quiet"])
    assert code == 3
    assert capsys.readouterr().err == "config error: tau/dt = inf is not a finite slot count\n"


def test_source_exponent_whose_radius_underflows_is_infeasible(tmp_path, capsys):
    # q = 1e-12: h^{-1}(1/2) = (1/2c)^(1/q) underflows to 0, and no radius is certified
    text = readme_config().replace("n = 64", "n = 16").replace("q = 1.0", "q = 1e-12")
    out = tmp_path / "o"
    code = main(["--config", write(tmp_path, "r.ini", text), "--out", str(out),
                 "--command", "certify", "--quiet"])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "certificate.txt").read_text() == \
        "feasible: no\nreason: rho underflowed below 1e-12\n"


@pytest.mark.parametrize("source, constant", [
    ("kind = power\nq = 600", "C_q = 2^(2q - 1) at q = 600"),
    ("kind = power\nq = 1e5", "C_q = 2^(2q - 1) at q = 100000"),
    ("kind = power\nq = 1e308", "C_q = 2^(2q - 1) at q = 1e+308"),
    ("kind = power\nq = 510", "L(r) at q = 510"),     # certified with L = nan before
    ("kind = nonlocal\np = 1e308", "D_p at p = 1e+308")])
@pytest.mark.parametrize("command", ["certify", "sweep"])
def test_source_constant_overflow_is_infeasible(tmp_path, capsys, command, source, constant):
    # the delayed README scenario at n = 16: no OverflowError traceback, no nan certificate
    text = (DELAYED.replace("n = 24", "n = 16").replace("tau = 0.5", "tau = 0.05")
            .replace("t_end = 2.0", "t_end = 0.05").replace("kind = power\nq = 1.0", source))
    cfg = write(tmp_path, "huge_q.ini", text + "\n[sweep]\nparameter = kernel.k0\n"
                                               "values = 0.002, 0.005\n")
    out = tmp_path / "o"
    code = main(["--config", cfg, "--out", str(out), "--command", command, "--quiet"])
    assert "Traceback" not in capsys.readouterr().err
    if command == "certify":
        assert code == 2
        assert (out / "certificate.txt").read_text() == \
            f"feasible: no\nreason: the source constant {constant} overflows\n"
    else:
        assert code == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [["0.002", "no", ""], ["0.005", "no", ""]]


@pytest.mark.parametrize("command, section, key, raw", [
    ("simulate", "initial", "amplitude", "nan"),   # ran to a blow-up exit 4
    ("certify", "initial", "amplitude", "nan"),    # certified with exit 0
    ("simulate", "run", "t_end", "inf"),           # OverflowError traceback
    ("certify", "operator", "beta", "nan"),        # LinAlgError traceback
    ("simulate", "kernel", "k0", "-inf"),
])
def test_non_finite_config_number_exits_3(tmp_path, capsys, command, section, key, raw):
    text = readme_config().replace("n = 64", "n = 16")
    text = re.sub(rf"^{key} = \S+", f"{key} = {raw}", text, flags=re.M)
    code = main(["--config", write(tmp_path, "r.ini", text), "--out", str(tmp_path / "o"),
                 "--command", command, "--quiet"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"config error: [{section}] {key} = '{raw}' is not a finite number\n"


def test_sweep_parameter_missing_from_its_section_exits_3(tmp_path, capsys):
    # a misspelt key used to add an unread key and write identical rows
    cfg = write(tmp_path, "sweep.ini", DELAYED + "\n[sweep]\nparameter = kernel.k00\n"
                                                 "values = 0.002, 0.008\n")
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command", "sweep",
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "config error: sweep parameter key 'k00' not in [kernel]\n"
    assert not (tmp_path / "o" / "summary.csv").exists()


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


@pytest.mark.parametrize("command", ["simulate", "certify", "sweep"])
def test_commands_read_the_resolved_subdomain(tmp_path, monkeypatch, command):
    # each scenario snaps P onto the grid while it is built; nothing after does
    from degenwave import cli
    from degenwave.delay import SubdomainP

    snaps = {"building": True, "while_building": 0, "after": 0}
    node_range, build = SubdomainP.node_range, cli.build_scenario

    def counted_node_range(self, grid, **kwargs):
        snaps["while_building" if snaps["building"] else "after"] += 1
        return node_range(self, grid, **kwargs)

    def counted_build(cfg, shared=None):
        snaps["building"] = True
        scenario = build(cfg, shared)
        snaps["building"] = False
        return scenario

    monkeypatch.setattr(SubdomainP, "node_range", counted_node_range)
    monkeypatch.setattr(cli, "build_scenario", counted_build)
    text = DELAYED + "\n[sweep]\nparameter = kernel.k0\nvalues = 0.002, 0.005\n"
    code = main(["--config", write(tmp_path, "d.ini", text), "--out", str(tmp_path / "o"),
                 "--command", command, "--quiet"])
    assert code == 0
    assert snaps["while_building"] > 0 and snaps["after"] == 0


def _non_finite_input_config(tmp_path, where):
    text = readme_config().replace("n = 64", "n = 16")
    if where == "coefficient":
        csv = write(tmp_path, "a.csv", "x,a\n0.0,0.0\n0.5,nan\n1.0,1.0\n")
        return text.replace("kind = power            ; power | tabulated (csv = path to "
                            "two-column x,a)\nalpha = 0.5", f"kind = tabulated\ncsv = {csv}")
    if where == "initial":
        csv = write(tmp_path, "i.csv", "x,y0,y1\n0.0,0.0,0.0\n0.5,nan,0.0\n1.0,0.0,0.0\n")
        return re.sub(r"^preset = .*$", f"preset = csv:{csv}", text, flags=re.M)
    return re.sub(r"^history = .*$", f"history = constant:{where}", text, flags=re.M)


NON_FINITE_INPUT_ERRORS = {
    "coefficient": "coefficient table contains non-finite entries",
    "initial": "initial data has non-finite values",
    "nan": "[initial] history constant = 'nan' is not a finite number",
    "inf": "[initial] history constant = 'inf' is not a finite number",
    "1e400": "[initial] history constant = '1e400' is not a finite number",
    "abc": "[initial] history constant = 'abc' is not a number",
}


@pytest.mark.parametrize("command", ["simulate", "certify"])
@pytest.mark.parametrize("where", list(NON_FINITE_INPUT_ERRORS))
def test_non_finite_input_exits_3(tmp_path, capsys, command, where):
    # a nan table entry, data value or history constant used to run to a
    # blow-up, certify with smallness nan, or end in a traceback
    text = _non_finite_input_config(tmp_path, where)
    code = main(["--config", write(tmp_path, "r.ini", text), "--out", str(tmp_path / "o"),
                 "--command", command, "--quiet"])
    assert code == 3
    assert capsys.readouterr().err == f"config error: {NON_FINITE_INPUT_ERRORS[where]}\n"


# -- what a sweep builds once -----------------------------------------------------

SHARING = DELAYED.replace("t_end = 2.0", "t_end = 0.5")


def _sweep(tmp_path, text, parameter, values, out="o"):
    cfg = write(tmp_path, "sweep.ini",
                text + f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n")
    code = main(["--config", cfg, "--out", str(tmp_path / out), "--command", "sweep",
                 "--quiet"])
    return code, tmp_path / out / "summary.csv"


def _recorded_builds(monkeypatch):
    """The list of the scenarios that cli.build_scenario returns from now on."""
    from degenwave import cli

    scenarios, build = [], cli.build_scenario

    def recorded(cfg, shared=None):
        scenarios.append(build(cfg, shared))
        return scenarios[-1]

    monkeypatch.setattr(cli, "build_scenario", recorded)
    return scenarios


@pytest.mark.parametrize("parameter, values, eig_calls, generators", [
    ("kernel.k0", "0.002, 0.005, 0.008", 1, 1),
    ("initial.amplitude", "0.001, 0.002", 2, 1),
    ("operator.beta", "1.0, 2.0", 2, 2),
    # [run] is in neither key, so dt shares the generator and the initial data
    ("run.dt", "0.0125, 0.00625", 1, 1),
    ("coefficient.alpha", "0.5, 0.3", 2, 2),
])
def test_sweep_shares_what_its_keys_allow(tmp_path, monkeypatch, parameter, values,
                                          eig_calls, generators):
    from degenwave import cli

    calls = []
    eigenmode_state = evolution.eigenmode_state
    monkeypatch.setattr(evolution, "eigenmode_state",
                        lambda *a, **k: calls.append(1) or eigenmode_state(*a, **k))
    scenarios = _recorded_builds(monkeypatch)
    code, shared = _sweep(tmp_path, SHARING, parameter, values, "shared")
    assert code == 0
    assert len(calls) == eig_calls
    assert len({id(sc.generator) for sc in scenarios}) == generators
    # the same sweep with every value built afresh
    build = cli.build_scenario
    monkeypatch.setattr(cli, "build_scenario", lambda cfg, shared=None: build(cfg))
    code, fresh = _sweep(tmp_path, SHARING, parameter, values, "fresh")
    assert code == 0
    assert shared.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("parameter, values, sizes", [
    ("kernel.k0", "0.002, 0.005, 0.008", [3]),
    # m = tau/dt differs, so every value is a batch of its own
    ("kernel.tau", "0.25, 0.5, 0.125", [1, 1, 1]),
    ("initial.amplitude", "0.001, 0.01, 0.5", [3]),
    ("source.q", "1.0, 2.0, 0.5", [1, 1, 1]),
])
def test_sweep_batches_and_rows_match_each_value_alone(tmp_path, monkeypatch, parameter,
                                                       values, sizes):
    batches, simulate_runs = [], evolution.simulate_runs
    monkeypatch.setattr(evolution, "simulate_runs",
                        lambda runs: batches.append(len(runs)) or simulate_runs(runs))
    code, summary = _sweep(tmp_path, SHARING, parameter, values, "all")
    assert code == 0 and batches == sizes
    lines = summary.read_bytes().splitlines(keepends=True)
    assert len(lines) == 1 + sum(sizes)
    for i, value in enumerate(v.strip() for v in values.split(",")):
        code, alone = _sweep(tmp_path, SHARING, parameter, value, f"alone{i}")
        assert code == 0
        assert alone.read_bytes() == lines[0] + lines[1 + i], value


@pytest.mark.parametrize("command", ["simulate", "certify", "sweep"])
def test_history_too_large_to_hold_exits_3(tmp_path, capsys, command):
    # tau/dt = 5e11 history slots; the request fails at once, before any slot
    # is evaluated
    text = DELAYED.replace("dt = 0.0125", "dt = 1e-12")
    cfg = write(tmp_path, "tiny.ini", text + "\n[sweep]\nparameter = kernel.k0\nvalues = 0.005\n")
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command", command,
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert re.match(r"config error: the initial history slots need 500000000001 x \d+ "
                    r"doubles \([\d,.]+ GiB\)", err), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, delayed", [("simulate", False), ("sweep", False),
                                               ("sweep", True)],
                         ids=["simulate", "sweep", "delayed-sweep"])
def test_states_too_large_to_hold_exit_3(tmp_path, capsys, command, delayed):
    # a run of 2e12 steps: its states array fails at once, and a sweep, which
    # streams its states, fails at once on its record columns, before a
    # delayed stepper asks for its kernel values at every step
    text = BASE_LINEAR.replace("dt = 0.01", "dt = 1e-12")
    text += "\n[sweep]\nparameter = run.t_end\nvalues = 2.0\n"
    if delayed:         # the README beam at n = 16, m = 10
        text = readme_config().replace("n = 64", "n = 16").replace("tau = 0.5", "tau = 1e-11")
        text = text.replace("dt = 0.0125", "dt = 1e-12").replace("t_end = 10.0", "t_end = 2")
        assert "t_end = 2\n" in text and "tau = 1e-11\n" in text
    cfg = write(tmp_path, "tiny.ini", text)
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command", command,
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    want = {"simulate": "error: the states of the run need 2000000000001 x 1 x 46 doubles (",
            "sweep": "error: the records of the run need 1 x 6 x 2000000000001 doubles ("}[command]
    assert err.startswith(want), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, parameter, values, solves", [
    ("certify", "kernel.k0", "0.005", 1),
    ("sweep", "kernel.k0", "0.002, 0.005, 0.008", 1),
    ("sweep", "initial.amplitude", "0.001, 0.002", 1),
    ("sweep", "operator.beta", "1.0, 2.0", 2),
])
def test_one_eigenvalue_solve_per_generator(tmp_path, monkeypatch, command, parameter, values,
                                            solves):
    # the eigenmode data and the certificate's omega share the generator's
    # spectrum; no dense eigenvector solve is made
    calls = {"eig": 0, "eigvals": 0}

    def counted(name):
        original = getattr(np.linalg, name)
        return lambda *a, **k: calls.__setitem__(name, calls[name] + 1) or original(*a, **k)

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    cfg = write(tmp_path, "spectrum.ini",
                SHARING + f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--command", command,
                 "--quiet"]) == 0
    assert calls == {"eig": 0, "eigvals": solves}


@pytest.mark.parametrize("command", ["simulate", "certify", "sweep"])
def test_dense_form_too_large_to_hold_exits_3(tmp_path, capsys, monkeypatch, command):
    # the README config at n = 200000: the eigenmode preset's dense stiffness
    # form asks for 4e10 doubles, refused at once by a patched np.zeros
    zeros = np.zeros

    def refusing(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e9:
            raise MemoryError("refused")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing)
    text = readme_config().replace("n = 64 ", "n = 200000 ")
    assert "n = 200000" in text
    cfg = write(tmp_path, "huge.ini", text)
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--command", command,
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert err.startswith("config error: the entries of the dense stiffness form need "
                          "199999 x 199999 doubles (298.0 GiB), more than can be allocated; "
                          "lower [operator] n or use another [initial] preset"), err
    assert not (tmp_path / "o").exists()


def test_dump_too_large_to_hold_exits_3(tmp_path, capsys, monkeypatch):
    # one step of the README config at n = 20000 with the polynomial preset:
    # the run's files are written, then the dumped 2n x 2n system matrix asks
    # for 1.6e9 doubles, refused at once by a patched np.zeros
    zeros = np.zeros

    def refusing(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e9:
            raise MemoryError("refused")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing)
    text = (readme_config().replace("n = 64 ", "n = 20000 ")
            .replace("preset = eigenmode ", "preset = polynomial ")
            .replace("t_end = 10.0", "t_end = 0.0125"))
    assert "n = 20000" in text and "preset = polynomial" in text and "t_end = 0.0125" in text
    out = tmp_path / "o"
    code = main(["--config", write(tmp_path, "huge.ini", text), "--out", str(out),
                 "--command", "simulate", "--quiet", "--dump-operators"])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert err == ("error: the entries of the dense system matrix need 39998 x 39998 doubles "
                   "(11.9 GiB), more than can be allocated; lower [operator] n or drop "
                   "--dump-operators\n"), err
    assert (out / "energy_report.txt").exists() and not (out / "system_matrix.mtx").exists()


def test_pencil_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(evolution, "zgbtrf", lambda ab, kl, ku: (ab, np.arange(ab.shape[1]), 1))
    cfg = write(tmp_path, "linear.ini", BASE_LINEAR)
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert err.startswith("config error: the pencil at the eigenvalue "), err


def test_swept_scenarios_share_read_only_initial_data(tmp_path, monkeypatch):
    scenarios = _recorded_builds(monkeypatch)
    assert _sweep(tmp_path, SHARING, "kernel.k0", "0.002, 0.005")[0] == 0
    first, second = scenarios
    assert first.y0 is second.y0 and first.y1 is second.y1
    with pytest.raises(ValueError, match="read-only"):
        second.y0[3] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        second.y1 *= 2.0


def test_nothing_outlives_a_sweep(tmp_path):
    x = np.linspace(0.0, 1.0, 24)

    def rewrite(y0):
        rows = "".join(f"{a:.17g},{b:.17g},0\n" for a, b in zip(x, y0))
        write(tmp_path, "initial.csv", "x,y0,y1\n" + rows)

    text = SHARING.replace("preset = eigenmode\nmode = 0",
                           f"preset = csv:{tmp_path / 'initial.csv'}")
    rewrite(x ** 2 * np.cos(3.0 * x))
    assert _sweep(tmp_path, text, "kernel.k0", "0.002, 0.005", "first")[0] == 0
    rewrite(x ** 2 * np.sin(2.0 * x))
    code, second = _sweep(tmp_path, text, "kernel.k0", "0.002, 0.005", "second")
    assert code == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(evolution.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "degenwave.cli", "--config", str(tmp_path / "sweep.ini"),
         "--out", str(tmp_path / "fresh"), "--command", "sweep", "--quiet"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert second.read_bytes() == (tmp_path / "fresh" / "summary.csv").read_bytes()
    assert (tmp_path / "first" / "summary.csv").read_bytes() != second.read_bytes()
    cfg = configparser.ConfigParser()
    cfg.read(tmp_path / "sweep.ini")
    assert build_scenario(cfg).generator is not build_scenario(cfg).generator


@pytest.mark.parametrize("text, values, message", [
    # the invalid second value fails although its generator and data are shared
    (SHARING, "0.002, abc", "[kernel] k0 = 'abc' is not a number"),
    (SHARING[SHARING.index("[operator]"):], "0.002", "missing [coefficient] kind"),
    # '%%' in the list is a literal '%', which the swept key then holds
    (SHARING, "0.002, 5%%", "[kernel] k0 = '5%' is not a number"),
])
def test_sweep_errors_exit_3(tmp_path, capsys, text, values, message):
    code, summary = _sweep(tmp_path, text, "kernel.k0", values)
    assert code == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not summary.exists()


def test_interpolation_error_in_a_value_exits_3(tmp_path, capsys):
    cfg = write(tmp_path, "pct.ini", BASE_LINEAR.replace("dt = 0.01", "dt = 0.01%"))
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: '%' must be followed by") and "Traceback" not in err


def test_swept_value_with_a_percent_sign_is_taken_literally(tmp_path):
    x = np.linspace(0.0, 1.0, 24)
    rows = "".join(f"{a:.17g},{a * a * (1.0 - a):.17g},0\n" for a in x)
    write(tmp_path, "y%0.csv", "x,y0,y1\n" + rows)
    preset = f"csv:{tmp_path / 'y%%0.csv'}"
    fixed = SHARING.replace("preset = eigenmode\nmode = 0", f"preset = {preset}")
    fixed_code, fixed_summary = _sweep(tmp_path, fixed, "kernel.k0", "0.005", "fixed")
    swept_code, swept_summary = _sweep(tmp_path, SHARING, "initial.preset", preset, "swept")
    assert fixed_code == swept_code == 0
    fixed_row, swept_row = (path.read_text().splitlines()[1]
                            for path in (fixed_summary, swept_summary))
    assert swept_row.split(",")[1:] == fixed_row.split(",")[1:]
