"""Checks of the CLI's outputs against properties the method must have.

Every check returns a list of problems; an empty list means it passed.  The
checks recompute what they compare against from the equation and the
generator's public forms, never from a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.linalg

#: steps taken as backward-Euler half-step pairs when explicit terms are on
STARTUP_STEPS = 2

#: factor on the growth envelope and on the bound margin (acceptance gate 7)
GROWTH_FACTOR = 1.05

#: certified decay must reach this share of the predicted rate (gate 8)
DECAY_SHARE = 0.85


def read_table(path) -> dict:
    """CSV with a header row -> {column: float array}."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return {name: data[:, i] for i, name in enumerate(header)}


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_report(path) -> dict:
    """`key: value` lines -> {key: value string}."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            out[key.strip()] = value.strip()
    return out


def quadratic_energy(table) -> np.ndarray:
    """E_quad = kinetic + elastic + tip terms, the energy the ledger balances."""
    return table["E_kinetic"] + table["E_elastic"] + table["E_boundary"]


def check_run_length(report, table, trajectory, dt, t_end) -> list:
    """The run reaches t_end in t_end/dt steps without blowing up."""
    steps = int(round(t_end / dt))
    problems = []
    if report.get("blew_up") != "no":
        problems.append(f"blew_up: {report.get('blew_up')}")
    if report.get("steps") != str(steps):
        problems.append(f"steps {report.get('steps')} != {steps}")
    if len(table["t"]) != steps + 1 or abs(table["t"][-1] - t_end) > 1e-9 * t_end:
        problems.append(f"trajectory.csv has {len(table['t'])} rows ending at "
                        f"t = {table['t'][-1]:.12g}")
    if np.asarray(trajectory.states).shape[0] != steps + 1:
        problems.append(f"{np.asarray(trajectory.states).shape[0]} states recorded")
    return problems


def check_energy_columns(table, trajectory) -> list:
    """The energy columns are the energies of the recorded states.

    E_quad must equal half the squared state norm of each state, and E_total
    the sum of its five parts.
    """
    gen = trajectory.scenario.generator
    e_quad = quadratic_energy(table)
    from_states = np.array([0.5 * gen.state_norm(y) ** 2 for y in trajectory.states])
    scale = float(np.max(np.abs(e_quad)))
    problems = []
    worst = int(np.argmax(np.abs(e_quad - from_states)))
    if abs(e_quad[worst] - from_states[worst]) > 1e-12 * scale:
        problems.append(f"E_quad at t = {table['t'][worst]:.6g} is {e_quad[worst]:.12g}, "
                        f"the state gives {from_states[worst]:.12g}")
    parts = e_quad + table["E_source"] + table["E_history"]
    total_scale = max(float(np.max(np.abs(table["E_total"]))), scale)
    worst = int(np.argmax(np.abs(table["E_total"] - parts)))
    if abs(table["E_total"][worst] - parts[worst]) > 1e-12 * total_scale:
        problems.append(f"E_total at t = {table['t'][worst]:.6g} is not the sum of its parts")
    return problems


def subdomain_nodes(n: int, lower: float, upper: float) -> np.ndarray:
    """Grid nodes of P = (lower, upper), endpoints snapped to the nearest node."""
    h = 1.0 / (n - 1)
    return np.arange(max(int(round(lower / h)), 1), min(int(round(upper / h)), n - 1))


def subdomain_gain_sq(n: int, lower: float, upper: float, alpha: float) -> float:
    """b^2 = max of 1/a over P for a = x^alpha and the 1/a-weighted velocity space."""
    return float(np.max((subdomain_nodes(n, lower, upper) / (n - 1)) ** -alpha))


def energy_ledger(trajectory, e_quad, delay=None, q=None) -> dict:
    """Per-step terms of the discrete energy identity

        E_quad(n+1) - E_quad(n) = dt (vb^T M g(t_n + dt/2) - vb^T D vb),

    as arrays "change", "work" and "dissipation" (the last two times dt).
    vb is the velocity at the step midpoint and g the equation's explicit
    terms there: -k0 B*y_t(t - tau) on P (the delayed velocity is the mean
    of the two history slots around t - tau; slots at s <= 0 hold the zero
    history) and the source |y|^q y at the midpoint displacement.
    `delay` is (k0, tau, lower, upper) or None; `q` is None for no source.
    """
    gen = trajectory.scenario.generator
    dt = float(trajectory.scenario.dt)
    states = np.asarray(trajectory.states)
    ndof = gen.ndof
    mid = 0.5 * (states[:-1] + states[1:])
    u_mid, v_mid = mid[:, :ndof], mid[:, ndof:]
    forcing = np.zeros_like(v_mid)
    if delay is not None:
        k0, tau, lower, upper = delay
        m = int(round(tau / dt))
        pos = np.searchsorted(gen.free, subdomain_nodes(gen.grid.n, lower, upper))
        slots = np.zeros((m + len(states), pos.size))   # slot k at row k + m
        slots[m + 1:] = states[1:, ndof:][:, pos]
        forcing[:, pos] -= k0 * 0.5 * (slots[:-m - 1] + slots[1:-m])
    if q is not None:
        forcing += np.abs(u_mid) ** q * u_mid
    return {"change": np.diff(e_quad),
            "work": dt * np.einsum("ij,j,ij->i", v_mid, np.asarray(gen.mass), forcing),
            "dissipation": dt * np.array([gen.boundary_damping_rate(y) for y in mid])}


def check_energy_balance(ledger, e0: float, tol: float, startup: int) -> list:
    """The start-up steps only dissipate; the later steps balance within tol.

    Start-up steps (backward-Euler half-step pairs) may not gain energy
    beyond the work of the explicit terms.  Every later step must match the
    identity within tol * E0.
    """
    problems = []
    limit = tol * e0
    gain = ledger["change"][:startup] - ledger["work"][:startup]
    if gain.size and gain.max() > limit:
        step = int(np.argmax(gain))
        problems.append(f"start-up step {step} gains {gain[step] / e0:.3e} E0 beyond the work")
    residual = (ledger["change"] - ledger["work"] + ledger["dissipation"])[startup:]
    if residual.size and np.abs(residual).max() > limit:
        step = int(np.argmax(np.abs(residual)))
        problems.append(f"step {startup + step} misses the balance by "
                        f"{residual[step] / e0:.3e} E0 (tolerance {tol:g})")
    return problems


def growth_ratios(table, b2: float, k0: float):
    """E(t) / (C(t) E(0)) with C(t) = exp(4 b^2 k0 t) for a constant gain.

    Steps where E < (1/4)||y_t||^2 = E_kinetic / 2 fall outside the bound's
    premise and are returned as nan.
    """
    envelope = np.exp(4.0 * b2 * abs(k0) * table["t"])
    ratios = table["E_total"] / (envelope * table["E_total"][0])
    return np.where(table["E_total"] >= 0.5 * table["E_kinetic"], ratios, np.nan)


def check_growth_bound(ratios, reported_max=None) -> list:
    """E(t) <= 1.05 C(t) E(0) where the premise holds; report agrees."""
    problems = []
    worst = float(np.nanmax(ratios))
    if worst > GROWTH_FACTOR:
        problems.append(f"growth bound ratio {worst:.6g} > {GROWTH_FACTOR}")
    if reported_max is not None and abs(reported_max - worst) > 1e-9 * worst:
        problems.append(f"energy_report bound_max_ratio {reported_max:.12g} "
                        f"!= recomputed {worst:.12g}")
    return problems


def check_sweep_row(row, cert, tau: float) -> list:
    """One swept value against the certificate's generator-level constants."""
    problems = []
    if row["feasible"] != "yes" or row["blew_up"] != "no":
        return [f"k0 = {row['value']}: feasible {row['feasible']}, blew_up {row['blew_up']}"]
    m_const, omega, b = (float(cert[key]) for key in ("M", "omega", "b"))
    omega_prime = m_const * b * b * math.exp(omega * tau) * abs(float(row["value"]))
    expected = 0.5 * (omega - omega_prime)
    predicted = float(row["predicted_rate"])
    if abs(predicted - expected) > 1e-9 * abs(expected):
        problems.append(f"k0 = {row['value']}: predicted_rate {predicted:.12g} "
                        f"!= (omega - omega')/2 = {expected:.12g}")
    if float(row["fitted_rate"]) < DECAY_SHARE * predicted:
        problems.append(f"k0 = {row['value']}: fitted_rate {row['fitted_rate']} "
                        f"< {DECAY_SHARE} x {predicted:.6g}")
    if row["bound_margin"] == "violated" or float(row["bound_margin"]) > GROWTH_FACTOR:
        problems.append(f"k0 = {row['value']}: bound_margin {row['bound_margin']}")
    return problems


def weighted_generator(gen) -> np.ndarray:
    """L^T A L^{-T} with W = L L^T the Gram matrix of the state inner product.

    Its Euclidean operator norms are the state-norm operator norms of A.
    """
    n2 = 2 * gen.ndof
    basis = np.eye(n2)
    gram = np.empty((n2, n2))
    for i in range(n2):
        for j in range(i, n2):
            gram[i, j] = gram[j, i] = gen.state_inner(basis[i], basis[j])
    chol = np.linalg.cholesky(gram)
    lt_a = chol.T @ np.asarray(gen.system_matrix)
    return scipy.linalg.solve_triangular(chol, lt_a.T, lower=True).T


def stratified_times(seed, count: int, horizon: float) -> np.ndarray:
    """One uniform draw in each of `count` equal cells of [0, horizon]."""
    draws = np.random.default_rng(seed).uniform(size=count)
    return (np.arange(count) + draws) * horizon / count


def semigroup_profile(a_tilde: np.ndarray, omega: float, times) -> np.ndarray:
    """||e^{tA}|| e^{omega t} in the state norm at each t."""
    return np.array([np.linalg.norm(scipy.linalg.expm(t * a_tilde), 2) * math.exp(omega * t)
                     for t in times])


def check_semigroup_bound(profile, times, m_const: float) -> list:
    """M must bound ||e^{tA}|| e^{omega t} at every sampled t."""
    over = profile > m_const * (1.0 + 1e-9)
    if not over.any():
        return []
    worst = int(np.argmax(profile))
    return [f"||e^(tA)|| e^(omega t) = {profile[worst]:.6g} at t = {times[worst]:.4g} "
            f"exceeds M = {m_const:.6g} at {int(over.sum())} of {len(times)} times"]
