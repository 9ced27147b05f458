"""Each benchmark check passes on correct output and fails on corrupted output.

    python3 -m pytest bench/test_checks.py

The outputs come from small runs of the CLI (n = 16), captured the way the
benchmark captures them.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from degenwave import cli  # noqa: E402

DELAY = dict(k0=0.05, tau=0.5, lower=0.25, upper=0.75)
DT, T_END, TOL = 0.0125, 2.0, 1e-8


def _config(body: str, path: Path) -> Path:
    path.write_text(workloads.README_SECTIONS.replace("n = 64", "n = 16")
                    .format(k0=DELAY["k0"]) + body)
    return path


@pytest.fixture(scope="module")
def delayed(tmp_path_factory):
    """A delayed, forced simulate at n = 16: report, table and trajectory."""
    work = tmp_path_factory.mktemp("delayed")
    workloads._write_initial_csv(np.random.default_rng(7), 16, work / "init.csv")
    ini = _config(f"""
[initial]
preset = csv:{work / 'init.csv'}
amplitude = 0.001

[run]
dt = {DT}
t_end = {T_END}
""", work / "scenario.ini")
    probe = tracing.Probe(capture_trajectories=True)
    with probe.installed():
        assert cli.main(["--config", str(ini), "--out", str(work), "--quiet"]) == 0
    (trajectory,) = probe.trajectories
    return (checks.read_report(work / "energy_report.txt"),
            checks.read_table(work / "trajectory.csv"), trajectory)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """certify and sweep of two gains at n = 16: certificate, rows, generator."""
    work = tmp_path_factory.mktemp("sweep")
    body = f"""
[initial]
preset = eigenmode
amplitude = 0.001

[run]
dt = {DT}
t_end = 10.0
"""
    probe = tracing.Probe(capture_trajectories=False)
    with probe.installed():
        for command, ini in (("certify", _config(body, work / "certify.ini")),
                             ("sweep", _config(body + "\n[sweep]\nparameter = kernel.k0\n"
                                                      "values = 0.05, 0.02\n",
                                               work / "sweep.ini"))):
            assert cli.main(["--config", str(ini), "--out", str(work),
                             "--command", command, "--quiet"]) == 0
    return (checks.read_report(work / "certificate.txt"),
            checks.read_rows(work / "summary.csv"), probe.scenarios[0].generator)


def _ledger(table, trajectory):
    delay = tuple(DELAY[key] for key in ("k0", "tau", "lower", "upper"))
    return checks.energy_ledger(trajectory, checks.quadratic_energy(table), delay, q=1.0)


def _balance(table, trajectory):
    e_quad = checks.quadratic_energy(table)
    return checks.check_energy_balance(_ledger(table, trajectory), e_quad[0], TOL,
                                       checks.STARTUP_STEPS)


def _b2():
    return checks.subdomain_gain_sq(16, DELAY["lower"], DELAY["upper"], 0.5)


def test_run_length(delayed):
    report, table, trajectory = delayed
    assert checks.check_run_length(report, table, trajectory, DT, T_END) == []
    short = {key: col[:-1] for key, col in table.items()}
    assert checks.check_run_length(report, short, trajectory, DT, T_END)
    assert checks.check_run_length(dict(report, blew_up="yes"), table, trajectory, DT, T_END)


def test_energy_columns(delayed):
    _, table, trajectory = delayed
    assert checks.check_energy_columns(table, trajectory) == []
    scaled = dict(table, E_kinetic=1.01 * table["E_kinetic"])
    assert checks.check_energy_columns(scaled, trajectory)
    states = np.array(trajectory.states)
    states[len(states) // 2] *= 1.001
    assert checks.check_energy_columns(table, _with_states(trajectory, states))


def _with_states(trajectory, states):
    clone = copy.copy(trajectory)
    clone.states = states
    return clone


def test_energy_balance(delayed):
    _, table, trajectory = delayed
    assert _balance(table, trajectory) == []
    # an energy column scaled up
    scaled = dict(table, E_elastic=1.01 * table["E_elastic"])
    assert _balance(scaled, trajectory)
    # a state perturbed mid-run, with energy columns that match it
    states = np.array(trajectory.states)
    mid = len(states) // 2
    states[mid] *= 1.001
    gen = trajectory.scenario.generator
    kinetic, elastic, boundary = gen.energy_parts(states[mid])
    jumped = {key: col.copy() for key, col in table.items()}
    jumped["E_total"][mid] += kinetic + elastic + boundary - checks.quadratic_energy(table)[mid]
    jumped["E_kinetic"][mid], jumped["E_elastic"][mid], jumped["E_boundary"][mid] = (
        kinetic, elastic, boundary)
    perturbed = _with_states(trajectory, states)
    assert checks.check_energy_columns(jumped, perturbed) == []
    assert _balance(jumped, perturbed)


def test_startup_steps_only_dissipate(delayed):
    _, table, trajectory = delayed
    ledger = _ledger(table, trajectory)
    start = slice(None, checks.STARTUP_STEPS)
    assert np.all(ledger["change"][start] < ledger["work"][start])
    # an energy gain of 1% of E0 in the first step is caught there
    e_quad = checks.quadratic_energy(table)
    gained = {key: col.copy() for key, col in table.items()}
    gained["E_kinetic"][1:] += e_quad[0] - e_quad[1] + 0.01 * e_quad[0]
    assert _balance(gained, trajectory)[0].startswith("start-up step 0")


def test_growth_bound(delayed):
    report, table, _ = delayed
    ratios = checks.growth_ratios(table, _b2(), DELAY["k0"])
    assert checks.check_growth_bound(ratios, float(report["bound_max_ratio"])) == []
    grown = table["E_total"].copy()
    grown[1:] *= 3.0
    bad = checks.growth_ratios(dict(table, E_total=grown), _b2(), DELAY["k0"])
    assert checks.check_growth_bound(bad)
    assert checks.check_growth_bound(ratios, 1.01 * float(report["bound_max_ratio"]))


def test_sweep_rows(swept):
    cert, rows, _ = swept
    for row in rows:
        assert checks.check_sweep_row(row, cert, DELAY["tau"]) == []
    lowered = dict(cert, M=repr(0.95 * float(cert["M"])))
    assert all(checks.check_sweep_row(row, lowered, DELAY["tau"]) for row in rows)
    slow = dict(rows[0], fitted_rate=repr(0.8 * float(rows[0]["predicted_rate"])))
    assert checks.check_sweep_row(slow, cert, DELAY["tau"])
    assert checks.check_sweep_row(dict(rows[0], bound_margin="1.2"), cert, DELAY["tau"])


def test_semigroup_bound(swept):
    cert, _, gen = swept
    times = checks.stratified_times(3, 100, 5.0)
    a_tilde = checks.weighted_generator(gen)
    profile = checks.semigroup_profile(a_tilde, float(cert["omega"]), times)
    assert checks.semigroup_profile(a_tilde, 0.0, [0.0])[0] == pytest.approx(1.0, rel=1e-9)
    true_m = float(profile.max())
    assert checks.check_semigroup_bound(profile, times, true_m) == []
    assert checks.check_semigroup_bound(profile, times, 0.95 * true_m)


def test_stratified_times_cover_every_cell():
    times = checks.stratified_times(0, 250, 5.0)
    cells = np.floor(times / 0.02).astype(int)
    assert np.array_equal(cells, np.arange(250))
