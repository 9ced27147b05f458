"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated elsewhere.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from degenwave import (BoundaryParams, BoundViolatedError, CoefficientSpec, Grid,
                       KernelSpec, OperatorKind, Scenario, SourceKind, SubdomainP,
                       apply_Bstar, assemble, classify, constants_for, decay_fit,
                       duhamel_residual, eigenmode_state, energy_bound_check,
                       eval_F_functional, eval_f, h_eval, hardy_poincare_constant,
                       kernel_growth_check, kernel_window_bound, lipschitz_bound,
                       semigroup_constants, simulate, smallness_level,
                       subdomain_gain, threshold_certificate)
from degenwave.cli import main as cli_main
from degenwave.evolution import spectral_abscissa
from degenwave.nonlinearity import (curvature_seminorm, weighted_inner,
                                    weighted_l2_norm)
from degenwave.operators import weighted_mass_diagonal

from conftest import random_clamped, random_state


def report(num, text, ok):
    print(f"ACCEPTANCE {num}: {text}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {text}"


def make_gen(kind, alpha, n, beta=1.0, gamma=1.0):
    grid = Grid.uniform(n)
    profile = classify(CoefficientSpec.power_law(alpha), grid)
    return assemble(kind, profile, BoundaryParams(beta, gamma), grid)


# -- 1: dissipativity ------------------------------------------------------------


def test_criterion_1_dissipativity():
    rng = np.random.default_rng(1)
    ok = True
    for kind in OperatorKind:
        for alpha in (0.5, 1.5):
            gen = make_gen(kind, alpha, 48)
            for _ in range(1000):
                y = random_state(gen, rng)
                if gen.quadratic_form(y) > 1e-10 * gen.state_norm(y) ** 2:
                    ok = False
    report(1, "all kinds x {WD, SD}: <AY,Y> <= 1e-10 |Y|^2 on 1000 states", ok)


# -- 2: linear energy identity ------------------------------------------------------


def _identity_residual(kind, n, dt, t_end=2.0):
    gen = make_gen(kind, 0.5, n)
    y0, y1 = eigenmode_state(gen, 0, by="frequency")
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                  t_end=t_end, dt=dt)
    traj = simulate(sc)
    totals = traj.energies.total
    d = traj.damping_rates
    return float(np.max(np.abs(np.diff(totals) / dt + 0.5 * (d[:-1] + d[1:]))))


def test_criterion_2_energy_identity():
    ok = True
    for kind in (OperatorKind.BEAM_NONDIV, OperatorKind.WAVE_DIV):
        coarse = _identity_residual(kind, 24, 0.02)
        fine = _identity_residual(kind, 47, 0.01)
        ratio = coarse / fine
        if not (3.0 <= ratio <= 5.0):
            ok = False
    report(2, "|dE/dt + tip damping| converges at ratio 4 +- 1 under (h, dt)/2", ok)


# -- 3: linear exponential decay -----------------------------------------------------


def test_criterion_3_linear_decay_rate():
    ok = True
    for n in (32, 64):
        gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, n)
        vals = np.linalg.eigvals(gen.system_matrix)
        abscissa = float(np.max(vals.real))
        freq = abs(vals[np.argmax(vals.real)].imag)
        dt = 0.25 / freq if freq > 1.0 else 0.01
        y0, y1 = eigenmode_state(gen, 0, by="decay")
        sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                      t_end=5.0 / abs(abscissa), dt=dt)
        fit = decay_fit(simulate(sc))
        target = 0.9 * (-abscissa)
        if not (fit.rate > 0 and 0.85 <= fit.rate / target <= 1.15):
            ok = False
    report(3, "fitted decay within 15% of 0.9 x (-abscissa) at n = 32, 64", ok)


# -- 4: variation-of-constants oracle --------------------------------------------------


def test_criterion_4_duhamel_oracle():
    # beam, n = 16, constant kernel, to t = 2 tau: relative residual <= 1e-3
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    kernel = KernelSpec.constant(0.2, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = eigenmode_state(gen, 0)
    g_trace = apply_Bstar(sub, gen.grid, y1)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                  t_end=1.0, dt=0.0125, kernel=kernel, subdomain=sub,
                  history=lambda s: g_trace)
    beam_res = duhamel_residual(sc, simulate(sc))
    ok = beam_res <= 1e-3

    # undelayed reduction to the pure matrix exponential
    sc0 = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                   t_end=2.0, dt=2e-4)
    ok = ok and duhamel_residual(sc0, simulate(sc0), check_stride=100) <= 1e-6

    # dt-halving ratio ~ 4 on the kinds whose spectrum the step resolves
    for kind in (OperatorKind.WAVE_DIV, OperatorKind.WAVE_NONDIV):
        genw = make_gen(kind, 0.5, 16)
        y0w, y1w = eigenmode_state(genw, 0)
        g_w = apply_Bstar(sub, genw.grid, y1w)
        residuals = []
        for dt in (0.0125, 0.00625):
            scw = Scenario(generator=genw, source=SourceKind.none(), y0=y0w, y1=y1w,
                           t_end=1.5, dt=dt, kernel=kernel, subdomain=sub,
                           history=lambda s: g_w)
            residuals.append(duhamel_residual(scw, simulate(scw)))
        if not (residuals[0] <= 1e-3 and 3.0 <= residuals[0] / residuals[1] <= 5.0):
            ok = False
    report(4, "Duhamel oracle <= 1e-3 at n=16 and halving ratio 4 +- 1", ok)


# -- 5: explicit source constants ------------------------------------------------------


def test_criterion_5_nonlinearity_constants():
    grid = Grid.uniform(128)
    profile = classify(CoefficientSpec.power_law(0.5), grid)
    rng = np.random.default_rng(5)
    c_hp = hardy_poincare_constant(grid, profile)
    r = 1.0
    sources = [SourceKind.power(0.3), SourceKind.power(1.0), SourceKind.power(2.0),
               SourceKind.nonlocal_l2(1.0), SourceKind.nonlocal_l2(2.0)]
    violations = 0
    for source in sources:
        consts = constants_for(source, profile, c_hp=c_hp)
        l_r = lipschitz_bound(source, consts, r)
        for _ in range(1000):
            u = random_clamped(grid, rng, target_seminorm=r * rng.uniform(0.05, 1.0))
            v = random_clamped(grid, rng, target_seminorm=r * rng.uniform(0.05, 1.0))
            # (a) Lipschitz estimate on the curvature ball of radius r
            lhs = weighted_l2_norm(eval_f(source, u, grid) - eval_f(source, v, grid),
                                   profile)
            if lhs > l_r * curvature_seminorm(grid, u - v) * (1 + 1e-9) + 1e-13:
                violations += 1
            # (b) sign/growth gauge
            curv = curvature_seminorm(grid, u)
            pairing = weighted_inner(eval_f(source, u, grid), u, profile)
            if pairing > h_eval(source, consts, curv) * curv ** 2 * (1 + 1e-9) + 1e-13:
                violations += 1
            # (c) potential bound
            pot = abs(eval_F_functional(source, u, profile, True))
            if pot > 0.5 * h_eval(source, consts, curv) * curv ** 2 * (1 + 1e-9) + 1e-13:
                violations += 1
    report(5, f"L(r)/h/potential bounds, q in {{0.3,1,2}}, p in {{1,2}}: "
              f"{violations} violations", violations == 0)


# -- 6: weighted embedding constant ------------------------------------------------------


def test_criterion_6_hardy_poincare():
    vals = {}
    for n in (128, 256):
        grid = Grid.uniform(n)
        profile = classify(CoefficientSpec.power_law(1.0), grid)
        vals[n] = hardy_poincare_constant(grid, profile)
    drift = abs(vals[256] - vals[128]) / vals[256]
    ok = drift <= 0.02

    grid = Grid.uniform(256)
    profile = classify(CoefficientSpec.power_law(1.0), grid)
    c_hp = vals[256]
    mass = weighted_mass_diagonal(grid, profile)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        u = random_clamped(grid, rng)
        weighted_sq = float(mass @ (u[1:] * u[1:]))
        curv_sq = curvature_seminorm(grid, u) ** 2
        if weighted_sq + curv_sq > (4.0 * c_hp + 1.0) * curv_sq * (1 + 1e-12):
            ok = False
    report(6, f"C_HP drift 128->256 = {drift:.4f} <= 2% and embedding holds", ok)


# -- 7: conditional growth bound -----------------------------------------------------------


def test_criterion_7_growth_bound():
    grid = Grid.uniform(24)
    profile = classify(CoefficientSpec.power_law(0.5), grid)
    gen = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(1.0, 1.0), grid)
    subs = [SubdomainP(0.25, 0.75), SubdomainP(0.3, 0.6), SubdomainP(0.4, 0.8)]
    kernels = [KernelSpec.constant(0.05, 0.5), KernelSpec.exp_decay(0.1, 1.0, 0.5),
               KernelSpec.pulse(0.08, 0.7, 0.5)]
    sources = [SourceKind.power(1.0), SourceKind.power(2.0),
               SourceKind.nonlocal_l2(1.0), SourceKind.power(0.5)]
    rng = np.random.default_rng(7)
    consts_cache = {}
    ok = True
    checked_lower = 0
    for trial in range(20):
        source = sources[trial % 4]
        kernel = kernels[trial % 3]
        sub = subs[trial % 3]
        b = subdomain_gain(sub, gen)
        amp = 10.0 ** rng.uniform(-3.0, -1.3)
        y0, y1 = eigenmode_state(gen, int(rng.integers(0, 3)), by="frequency",
                                 amplitude=amp)
        g_trace = apply_Bstar(sub, grid, y1)
        sc = Scenario(generator=gen, source=source, y0=y0, y1=y1, t_end=6.0,
                      dt=0.0125, kernel=kernel, subdomain=sub,
                      history=lambda s: g_trace)
        traj = simulate(sc)
        key = (source.kind, source.exponent)
        if key not in consts_cache:
            consts_cache[key] = constants_for(source, profile)
        try:
            rep = energy_bound_check(traj, kernel, b, source=source,
                                     constants=consts_cache[key], tol=0.05)
            checked_lower += int(rep.lower_bound_checked)
        except BoundViolatedError:
            ok = False
    report(7, f"E(t) <= 1.05 C(t) E(0) on 20 scenarios "
              f"(quarter bound checked on {checked_lower})", ok and checked_lower > 0)


# -- 8: certified small-data decay -----------------------------------------------------------


def test_criterion_8_certified_decay():
    grid = Grid.uniform(32)
    profile = classify(CoefficientSpec.power_law(0.5), grid)
    gen = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(1.0, 1.0), grid)
    semi = semigroup_constants(gen, horizon=12.0, samples=60)
    sub = SubdomainP(0.25, 0.75)
    b = subdomain_gain(sub, gen)
    configs = [
        (SourceKind.power(1.0), KernelSpec.constant(0.004, 0.5)),
        (SourceKind.power(1.0), KernelSpec.pulse(0.02, 1.0, 0.5)),
        (SourceKind.power(1.0), KernelSpec.exp_decay(0.02, 1.0, 0.5)),
        (SourceKind.nonlocal_l2(1.0), KernelSpec.constant(0.004, 0.5)),
        (SourceKind.nonlocal_l2(1.0), KernelSpec.pulse(0.02, 1.0, 0.5)),
    ]
    ok = True
    n_feasible = 0
    for source, kernel in configs:
        consts = constants_for(source, profile)
        env = kernel_growth_check(kernel, semi.M, semi.omega, b)
        cert = threshold_certificate(semi, kernel, env, b, source, consts)
        n_feasible += int(cert.feasible)
        y0, y1 = eigenmode_state(gen, 0, by="frequency", amplitude=1.0)
        g_trace = apply_Bstar(sub, grid, y1)
        probe = Scenario(generator=gen, source=source, y0=y0, y1=y1, t_end=1.0,
                         dt=0.0125, kernel=kernel, subdomain=sub,
                         history=lambda s: g_trace)
        scale = 0.8 * cert.rho / math.sqrt(smallness_level(probe))
        gs = scale * g_trace
        sc = Scenario(generator=gen, source=source, y0=scale * y0, y1=scale * y1,
                      t_end=10.0, dt=0.0125, kernel=kernel, subdomain=sub,
                      history=lambda s: gs)
        assert smallness_level(sc) < cert.rho ** 2
        traj = simulate(sc)
        fit = decay_fit(traj)
        if traj.blew_up or fit.rate < 0.85 * cert.predicted_rate:
            ok = False
    report(8, f"{n_feasible} feasible certificates, fitted >= 0.85 x predicted, "
              f"no blow-up", ok and n_feasible >= 5)


# -- 9: kernel certificates vs numeric integrals ------------------------------------------------


def _numeric_window(kernel, t):
    pts = [0.0]
    if kernel.kind == "pulse":
        pts.append(kernel.support_end)
    if kernel.kind == "tabulated":
        pts += list(kernel.times)
    inner = sorted(p for p in pts if t - kernel.tau < p < t)
    val, _ = quad(lambda s: abs(float(kernel.eval(s))), t - kernel.tau, t,
                  points=inner or None, limit=300)
    return val


def test_criterion_9_kernel_certificates():
    kernels = [KernelSpec.constant(0.1, tau=1.0),
               KernelSpec.exp_decay(1.0, 1.0, tau=1.0),
               KernelSpec.pulse(0.7, 0.6, tau=1.0),
               KernelSpec.tabulated([0.0, 0.4, 1.3], [0.5, 0.1, 0.02], tau=1.0)]
    m_const, omega, b = 1.5, 1.2, 1.0
    scale = m_const * b * b * math.exp(omega * 1.0)
    ok = True
    for kernel in kernels:
        lam = kernel_window_bound(kernel)
        # numeric window integrals never exceed Lambda, and attain it
        t_probe = np.concatenate([np.linspace(0.0, 6.0, 121), [kernel.tau]])
        windows = [_numeric_window(kernel, t) for t in t_probe]
        if max(windows) > lam + 1e-8 or max(windows) < lam - 1e-6:
            ok = False
        env = kernel_growth_check(kernel, m_const, omega, b)
        # cumulative gain envelope holds against numeric integrals ...
        for t in np.linspace(0.0, 8.0, 33):
            pts = sorted(p - 1.0 for p in ([0.0, kernel.support_end]
                                           if kernel.kind == "pulse"
                                           else list(kernel.times)
                                           if kernel.kind == "tabulated" else [0.0])
                         if 0.0 < p - 1.0 < t)
            num, _ = quad(lambda s: abs(float(kernel.eval(s + 1.0))), 0.0, t,
                          points=pts or None, limit=300)
            if scale * num > env.alpha + env.omega_prime * t + 1e-8:
                ok = False
        # ... and the closed-form constants match the defining integrals
        if kernel.kind == "constant":
            if abs(env.omega_prime - scale * kernel.k0) > 1e-8:
                ok = False
        elif kernel.is_l1:
            mass, _ = quad(lambda s: abs(float(kernel.eval(s))), 0.0, 200.0,
                           points=[kernel.support_end]
                           if kernel.kind == "pulse" else None, limit=500)
            if abs(env.alpha - scale * mass) > 1e-8:
                ok = False
    report(9, "Lambda / alpha / omega' match numeric integrals to 1e-8", ok)


# -- 10: CLI determinism and exit codes -------------------------------------------------------


CLI_LINEAR = """\
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

CLI_DELAYED = """\
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
kind = none

[initial]
preset = eigenmode
mode = 0
amplitude = 0.001
history = zero

[run]
dt = 0.0125
t_end = 2.0
"""


def test_criterion_10_cli_contract(tmp_path):
    ok = True
    lin = tmp_path / "lin.ini"
    lin.write_text(CLI_LINEAR)
    delayed = tmp_path / "delayed.ini"
    delayed.write_text(CLI_DELAYED)

    # golden-file determinism for simulate and certify
    blobs = []
    for name in ("g1", "g2"):
        out = tmp_path / name
        code = cli_main(["--config", str(lin), "--out", str(out),
                         "--command", "simulate", "--quiet"])
        ok = ok and code == 0
        blobs.append((out / "trajectory.csv").read_bytes())
    ok = ok and blobs[0] == blobs[1]
    certs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        code = cli_main(["--config", str(delayed), "--out", str(out),
                         "--command", "certify", "--quiet"])
        ok = ok and code == 0
        certs.append((out / "certificate.txt").read_bytes())
    ok = ok and certs[0] == certs[1]

    # exit code 3: out-of-range degeneracy
    bad = tmp_path / "bad.ini"
    bad.write_text(CLI_LINEAR.replace("alpha = 0.5", "alpha = 2.5"))
    ok = ok and cli_main(["--config", str(bad), "--out", str(tmp_path / "b"),
                          "--quiet"]) == 3

    # exit code 2: infeasible certificate
    huge = tmp_path / "huge.ini"
    huge.write_text(CLI_DELAYED.replace("k0 = 0.005", "k0 = 50.0"))
    ok = ok and cli_main(["--config", str(huge), "--out", str(tmp_path / "h"),
                          "--command", "certify", "--quiet"]) == 2

    # exit code 4: blow-up under anti-damping
    anti = tmp_path / "anti.ini"
    anti.write_text(CLI_DELAYED.replace("k0 = 0.005", "k0 = -40.0")
                    .replace("amplitude = 0.001", "amplitude = 1.0")
                    .replace("t_end = 2.0", "t_end = 20.0")
                    .replace("dt = 0.0125", "dt = 0.05")
                    .replace("history = zero", "history = constant:1.0"))
    ok = ok and cli_main(["--config", str(anti), "--out", str(tmp_path / "a"),
                          "--command", "simulate", "--quiet"]) == 4

    # emitted CSV re-parses with the documented schema
    data = np.loadtxt(tmp_path / "g1" / "trajectory.csv", delimiter=",", skiprows=1)
    with open(tmp_path / "g1" / "trajectory.csv") as fh:
        header = tuple(fh.readline().strip().split(","))
    ok = ok and header == ("t", "E_total", "E_kinetic", "E_elastic", "E_boundary",
                           "E_source", "E_history", "state_norm", "y_at_1", "yt_at_1")
    ok = ok and data.shape[1] == 10
    report(10, "CLI determinism, schema, and exit codes 2/3/4", ok)
