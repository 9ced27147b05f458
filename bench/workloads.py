"""Seeded inputs of the benchmark workloads and the CLI calls that run them.

Each workload writes INI (and CSV) files drawn from its seed and returns the
argument lists for ``degenwave.cli.main``.  The program sees nothing but
those files.  The parameters the checks need travel alongside in ``params``.
"""

from __future__ import annotations

import configparser
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: README scenario: weighted beam, a = x^0.5, constant kernel on P, power source
README_SECTIONS = """\
[coefficient]
kind = power
alpha = 0.5

[operator]
kind = beam_nondiv
n = 64
beta = 1.0
gamma = 1.0

[kernel]
kind = constant
k0 = {k0}
tau = 0.5
subdomain = 0.25, 0.75

[source]
kind = power
q = 1.0
"""


@dataclass
class Inputs:
    """Generated files of one workload and the calls that consume them."""

    calls: list                 # argv lists for degenwave.cli.main, in order
    scenarios: list             # one ConfigParser per scenario the calls build
    params: dict                # what the checks need to know about the inputs


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _smooth_profile(rng: np.random.Generator, x: np.ndarray, modes: int = 4) -> np.ndarray:
    """x^2 times a random low-frequency cosine series, scaled to max |.| = 1.

    The x^2 factor keeps y(0) = y'(0) = 0, which every beam kind requires.
    """
    coeffs = rng.standard_normal(modes) / (1.0 + np.arange(modes)) ** 2
    shape = x ** 2 * (np.cos(np.pi * np.outer(x, np.arange(modes))) @ coeffs)
    return shape / np.max(np.abs(shape))


def _write_initial_csv(rng: np.random.Generator, n: int, path: Path) -> None:
    """Columns x, y0, y1 on the grid nodes, so the CLI's interpolation is exact."""
    x = np.linspace(0.0, 1.0, n)
    data = np.column_stack([x, _smooth_profile(rng, x), 2.0 * _smooth_profile(rng, x)])
    np.savetxt(path, data, delimiter=",", fmt="%.17g")


def _read(path: Path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg.read(path)
    return cfg


def _simulate_inputs(ini: Path, out: Path, params: dict) -> Inputs:
    argv = ["--config", str(ini), "--out", str(out), "--command", "simulate", "--quiet"]
    return Inputs(calls=[argv], scenarios=[_read(ini)], params=params)


def delayed_beam_n64(seed: int, work: Path, out: Path) -> Inputs:
    """README scenario from seeded smooth data; 200 history slots, 4000 steps."""
    rng = _rng(seed, "delayed_beam_n64")
    csv = work / "initial.csv"
    _write_initial_csv(rng, 64, csv)
    params = dict(n=64, dt=0.0025, t_end=10.0, k0=0.005, tau=0.5, lower=0.25,
                  upper=0.75, q=1.0, alpha=0.5, balance_tol=1e-8)
    ini = work / "scenario.ini"
    ini.write_text(README_SECTIONS.format(k0=params["k0"]) + f"""
[initial]
preset = csv:{csv}
amplitude = 0.001
history = zero

[run]
dt = {params['dt']}
t_end = {params['t_end']}
""")
    return _simulate_inputs(ini, out, params)


def refine_beam_n1024(seed: int, work: Path, out: Path) -> Inputs:
    """Undelayed, unforced divergence-form beam, a = x^1.5 (SD), n = 1024."""
    rng = _rng(seed, "refine_beam_n1024")
    csv = work / "initial.csv"
    _write_initial_csv(rng, 1024, csv)
    params = dict(n=1024, dt=0.001, t_end=1.0, balance_tol=1e-7)
    ini = work / "scenario.ini"
    ini.write_text(f"""\
[coefficient]
kind = power
alpha = 1.5

[operator]
kind = beam_div
n = 1024
beta = 1.0
gamma = 1.0

[initial]
preset = csv:{csv}
amplitude = 1.0

[run]
dt = {params['dt']}
t_end = {params['t_end']}
""")
    return _simulate_inputs(ini, out, params)


def sweep_k0_certify(seed: int, work: Path, out: Path) -> Inputs:
    """Certify the README scenario, then sweep five seeded feasible gains k0."""
    rng = _rng(seed, "sweep_k0_certify")
    values = [f"{v:.6f}" for v in np.sort(rng.uniform(0.002, 0.010, 5))]
    params = dict(values=values, tau=0.5, check_times=250, horizon=5.0,
                  time_seed=[seed, zlib.crc32(b"semigroup_times")])
    base = README_SECTIONS + """
[initial]
preset = eigenmode
mode = 0
amplitude = 0.001

[run]
dt = 0.0125
t_end = 10.0
"""
    certify_ini = work / "certify.ini"
    certify_ini.write_text(base.format(k0=values[0]))
    sweep_ini = work / "sweep.ini"
    sweep_ini.write_text(base.format(k0=values[0]) + f"""
[sweep]
parameter = kernel.k0
values = {', '.join(values)}
""")
    scenarios = []
    for value in values:
        cfg = _read(sweep_ini)
        cfg["kernel"]["k0"] = value
        scenarios.append(cfg)
    calls = [
        ["--config", str(certify_ini), "--out", str(out), "--command", "certify", "--quiet"],
        ["--config", str(sweep_ini), "--out", str(out), "--command", "sweep", "--quiet"],
    ]
    return Inputs(calls=calls, scenarios=[_read(certify_ini)] + scenarios, params=params)


WORKLOADS = {
    "delayed_beam_n64": delayed_beam_n64,
    "refine_beam_n1024": refine_beam_n1024,
    "sweep_k0_certify": sweep_k0_certify,
}
