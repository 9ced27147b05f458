import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from degenwave import (BoundaryParams, CoefficientSpec, DegenwaveError, Grid,
                       HistoryBuffer, InfeasibleError, KernelSpec,
                       NotExponentiallyStableError, OperatorKind,
                       QueryOutOfWindowError, Scenario,
                       SourceKind, SubdomainP, apply_Bstar, assemble, classify,
                       decay_fit, duhamel_residual, eigenmode_state,
                       polynomial_state, semigroup_constants, simulate,
                       smallness_level)
from degenwave.evolution import _Stepper, spectral_abscissa
from helpers import direct_semigroup_constants


def make_gen(kind, alpha, n, beta=1.0, gamma=1.0):
    grid = Grid.uniform(n)
    profile = classify(CoefficientSpec.power_law(alpha), grid)
    return assemble(kind, profile, BoundaryParams(beta, gamma), grid)


# -- semigroup certificates -----------------------------------------------------


def test_semigroup_constants_diagonal_matrix():
    cert = semigroup_constants(np.diag([-1.0, -2.0]), horizon=5.0, samples=50)
    assert cert.omega == pytest.approx(0.9)
    assert cert.M == pytest.approx(1.0, abs=1e-9)


def test_semigroup_rejects_rotation():
    with pytest.raises(NotExponentiallyStableError):
        semigroup_constants(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_semigroup_certificate_sound(rng):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24)
    cert = semigroup_constants(gen, horizon=10.0, samples=60)
    a_tilde = gen.state_norm_generator()
    for t in rng.uniform(0.0, 10.0, size=50):
        prop = scipy.linalg.expm(t * gen.system_matrix)
        for _ in range(20):
            y0 = rng.standard_normal(2 * gen.ndof)
            lhs = gen.state_norm(prop @ y0)
            assert lhs <= cert.M * math.exp(-cert.omega * t) * gen.state_norm(y0) \
                * (1 + 1e-8)
    assert a_tilde.shape == gen.system_matrix.shape


def check_against_direct_sampler(monkeypatch, generator, a_tilde):
    """M and omega within 1e-10 of the one-expm-per-time sampler, and
    3 exponentials besides the horizon checks."""
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda *a, **k: calls.append(1) or expm(*a, **k))
    cert = semigroup_constants(generator)
    monkeypatch.undo()
    want_m, want_omega, horizon = direct_semigroup_constants(a_tilde)
    assert abs(cert.M - want_m) <= 1e-10 * want_m
    assert abs(cert.omega - want_omega) <= 1e-10 * want_omega
    assert f"in [0, {horizon:g}]" in cert.method_note
    doublings = round(math.log2(horizon / 20.0))
    assert len(calls) == 3 + min(doublings + 1, 8)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("n", [16, 32])
def test_semigroup_powers_match_direct_sampler(monkeypatch, kind, alpha, n):
    gen = make_gen(kind, alpha, n)
    check_against_direct_sampler(monkeypatch, gen, gen.state_norm_generator())


def test_semigroup_powers_match_direct_sampler_plain_matrix(monkeypatch):
    # non-normal: transient growth (M > 5) and a horizon doubled twice
    a = -np.diag(np.linspace(0.3, 2.0, 6)) + np.eye(6, k=1)
    check_against_direct_sampler(monkeypatch, a, a)
    cert = semigroup_constants(a)
    assert cert.M > 5.0 and "in [0, 80]" in cert.method_note


def test_semigroup_rejects_large_state_dimension():
    with pytest.raises(DegenwaveError, match="state dimension 1026 exceeds 1024"):
        semigroup_constants(-np.eye(1026))


@pytest.mark.parametrize("matrix, message", [
    # the rule ||e^(HA)|| e^(omega H) <= 1 still fails after 8 doublings
    (-np.diag(np.linspace(0.01, 2.0, 6)) + 3.0 * np.eye(6, k=1),
     "> 1 at the last horizon H = 5120"),
    # e^(omega H) overflows (omega H > 709) before the rule holds
    (-np.eye(12) + np.triu(3.0 * np.random.RandomState(20240817).randn(12, 12), 1),
     "overflows at the horizon H = 1280"),
])
def test_semigroup_rejects_horizon_rule_that_never_holds(matrix, message):
    with pytest.raises(InfeasibleError, match=message):
        semigroup_constants(matrix)


def eigh_state_norm_generator(gen):
    """W^{1/2} A W^{-1/2} for the weight W = diag(K, M), with the symmetric
    square root of K from its eigendecomposition (eigenvalues floored at
    1e-13 of the largest): the reference for the closed form."""
    evals, evecs = np.linalg.eigh(gen.stiffness_form)
    evals = np.maximum(evals, max(evals[-1], 1.0) * 1e-13)
    n = gen.ndof
    whalf = np.zeros((2 * n, 2 * n))
    wihalf = np.zeros((2 * n, 2 * n))
    whalf[:n, :n] = evecs @ (np.sqrt(evals)[:, None] * evecs.T)
    wihalf[:n, :n] = evecs @ ((1.0 / np.sqrt(evals))[:, None] * evecs.T)
    whalf[n:, n:] = np.diag(np.sqrt(gen.mass))
    wihalf[n:, n:] = np.diag(1.0 / np.sqrt(gen.mass))
    return whalf @ gen.system_matrix @ wihalf


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha, n", [(0.5, 16), (1.5, 32), (0.5, 64)])
def test_state_norm_generator_matches_eigh_similarity(kind, alpha, n):
    gen = make_gen(kind, alpha, n)
    closed = gen.state_norm_generator()
    reference = eigh_state_norm_generator(gen)
    for t in (0.01, 0.1, 0.5, 2.0, 8.0):
        got = np.linalg.norm(scipy.linalg.expm(t * closed), 2)
        want = np.linalg.norm(scipy.linalg.expm(t * reference), 2)
        assert abs(got - want) <= 1e-9, t
    # the symmetric part is diag(0, -M^{-1/2} D M^{-1/2}) exactly
    ndof = gen.ndof
    sym = closed + closed.T
    assert np.all(sym[:ndof, :ndof] == 0.0)
    assert np.all(sym[:ndof, ndof:] == 0.0)
    assert np.all(sym[ndof:, :ndof] == 0.0)
    inv_sqrt_mass = 1.0 / np.sqrt(gen.mass)
    damping = gen.damping_matrix() * np.outer(inv_sqrt_mass, inv_sqrt_mass)
    assert np.allclose(closed[ndof:, ndof:], -damping, rtol=1e-14, atol=0.0)


def test_semigroup_rejects_indefinite_stiffness():
    gen = make_gen(OperatorKind.WAVE_NONDIV, 0.5, 16)
    with pytest.raises(DegenwaveError, match="positive definite"):
        semigroup_constants(dataclasses.replace(gen, stiffness_bands=-gen.stiffness_bands))


def test_eigenmode_state_rejects_bad_mode():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    vals = np.linalg.eigvals(gen.system_matrix)
    count = int(np.sum(vals.imag >= -1e-12))
    eigenmode_state(gen, count - 1)
    eigenmode_state(gen, np.int64(1))
    for mode in (count, 40, -1, 2.7, 2.0, True):
        with pytest.raises(ValueError, match="mode"):
            eigenmode_state(gen, mode)


def test_beam_stable_without_tip_gains():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 1.0, 32, beta=0.0, gamma=0.0)
    assert spectral_abscissa(gen.system_matrix) < 0.0


# -- stepping ----------------------------------------------------------------------


def simple_scenario(gen, t_end=1.0, dt=0.01, kernel=None, subdomain=None,
                    history=None, source=None, amplitude=1.0, mode_by="frequency"):
    y0, y1 = eigenmode_state(gen, 0, amplitude=amplitude, by=mode_by)
    return Scenario(generator=gen, source=source or SourceKind.none(), y0=y0, y1=y1,
                    t_end=t_end, dt=dt, kernel=kernel, subdomain=subdomain,
                    history=history)


def test_zero_data_stays_zero():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    z = np.zeros(gen.grid.n)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=z, y1=z,
                  t_end=0.5, dt=0.0125, kernel=KernelSpec.constant(0.3, 0.25),
                  subdomain=SubdomainP(0.25, 0.75), history=None)
    traj = simulate(sc)
    assert np.all(traj.states == 0.0)
    assert not traj.blew_up


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_eigenmode_run_energy_monotone(kind, alpha):
    gen = make_gen(kind, alpha, 24)
    sc = simple_scenario(gen, t_end=2.0, dt=0.01)
    traj = simulate(sc)
    totals = traj.energies.total
    assert np.all(np.diff(totals) <= 1e-12 * totals[0])


def test_simulate_with_tabulated_kernel_and_coefficient():
    # interpolated coefficient samples drive the flux-form faces; a stepwise
    # gain drives the delay term
    xs = np.linspace(0.0, 1.0, 1025)
    spec = CoefficientSpec.tabulated(xs, xs ** 0.5)
    grid = Grid.uniform(33)
    profile = classify(spec, grid)
    gen = assemble(OperatorKind.WAVE_DIV, profile, BoundaryParams(1.0, 0.0), grid)
    kernel = KernelSpec.tabulated([0.0, 0.5, 1.0], [0.05, 0.02, 0.0], tau=0.25)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = eigenmode_state(gen, 0, amplitude=0.1)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                  t_end=3.0, dt=0.0125, kernel=kernel, subdomain=sub, history=None)
    traj = simulate(sc)
    assert not traj.blew_up
    assert decay_fit(traj).rate > 0.0


def test_desk_scale_simulation():
    # dimension sanity at the largest supported desk scale
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 256)
    kernel = KernelSpec.constant(0.01, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = polynomial_state(gen, amplitude=0.01)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1,
                  t_end=0.5, dt=0.0125, kernel=kernel, subdomain=sub)
    traj = simulate(sc)
    assert not traj.blew_up
    totals = traj.energies.total
    assert totals[-1] <= totals[0] * 1.01


def test_single_step_matches_rk4_oracle():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 8)
    kernel = KernelSpec.constant(0.3, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = eigenmode_state(gen, 0)
    g_trace = apply_Bstar(sub, gen.grid, y1)
    dt = 0.002
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1,
                  t_end=1.0, dt=dt, kernel=kernel, subdomain=sub,
                  history=lambda s: g_trace)
    buffer = sc.make_buffer()
    state0 = sc.initial_state
    got = _Stepper(sc, smoothing_steps=0).step(0, state0, buffer)

    from degenwave.nonlinearity import eval_f

    idx = sub.indices(gen.grid)
    lookup = {node: i for i, node in enumerate(gen.free)}
    sub_free = np.array([lookup[i] for i in idx])

    def rhs(t, y):
        out = gen.system_matrix @ y
        u, _ = gen.split(y)
        out[gen.ndof:] += eval_f(sc.source, gen.embed(u), gen.grid)[gen.free]
        out[gen.ndof:][sub_free] -= float(kernel.eval(t)) * g_trace  # t - tau < 0
        return out

    y = state0.copy()
    n_sub = 100
    h = dt / n_sub
    t = 0.0
    for _ in range(n_sub):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    assert gen.state_norm(got - y) <= 1e-4 * gen.state_norm(y)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_block_solve_matches_dense_trapezoid(kind, alpha, n, dt):
    # the velocity-block solve and the midpoint-form step against the dense
    # 2n x 2n trapezoid (I - dt/2 A)^{-1}((I + dt/2 A) y + dt G), with a
    # delay kernel, a nonzero history and a power source in G
    gen = make_gen(kind, alpha, n)
    x = gen.grid.nodes
    y0, _ = polynomial_state(gen)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=x ** 2 * (1.0 - x),
                  t_end=1.0, dt=dt, kernel=KernelSpec.exp_decay(0.4, 1.5, tau=0.1),
                  subdomain=SubdomainP(0.25, 0.75), history=0.3)
    stepper = _Stepper(sc, smoothing_steps=0)
    buffer = sc.make_buffer()
    state = sc.initial_state
    u, _ = gen.split(state)
    g = stepper.delay_term(0, buffer, midpoint=True) + stepper.source_term(u)
    assert np.any(g != 0.0)
    explicit = gen.join(np.zeros(gen.ndof), g)
    ident = np.eye(2 * gen.ndof)
    half = 0.5 * dt * gen.system_matrix

    rhs = state + 0.5 * dt * explicit
    dense = np.linalg.solve(ident - half, rhs)
    got = gen.join(*stepper.solve(*gen.split(rhs)))
    assert gen.state_norm(got - dense) <= 1e-8 * gen.state_norm(dense)

    dense = np.linalg.solve(ident - half, (ident + half) @ state + dt * explicit)
    got = stepper.step(0, state, buffer)
    assert gen.state_norm(got - dense) <= 1e-8 * gen.state_norm(dense)


def test_system_matrix_built_on_demand():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    assert "system_matrix" not in vars(gen)
    y0, y1 = polynomial_state(gen)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1, t_end=0.5,
                  dt=0.0125, kernel=KernelSpec.constant(0.3, tau=0.25),
                  subdomain=SubdomainP(0.25, 0.75), history=0.3)
    assert not simulate(sc).blew_up
    assert "system_matrix" not in vars(gen)
    eigenmode_state(gen, 0)
    assert "system_matrix" in vars(gen)
    assert not gen.system_matrix.flags.writeable

    gen = make_gen(OperatorKind.WAVE_DIV, 1.5, 16)
    semigroup_constants(gen)
    assert "system_matrix" not in vars(gen)


def test_linear_run_decays():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24)
    traj = simulate(simple_scenario(gen, t_end=6.0, dt=0.01))
    fit = decay_fit(traj)
    assert fit.rate > 0.0
    assert fit.r_squared > 0.9


def test_blow_up_detected_and_flagged():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    kernel = KernelSpec.constant(-40.0, tau=0.25)  # anti-damping
    sub = SubdomainP(0.25, 0.75)
    with pytest.warns(UserWarning):
        sc = simple_scenario(gen, t_end=20.0, dt=0.05, kernel=kernel, subdomain=sub,
                             history=1.0)
    traj = simulate(sc)
    assert traj.blew_up
    assert traj.times[-1] < 20.0


def test_dt_tau_tolerance_shared_by_scenario_and_buffer():
    # one rule: m dt may miss tau by at most 1e-9 tau; at tau = 0.5 that is 5e-10
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen)
    sub = SubdomainP(0.25, 0.75)
    tau = 0.5
    for offset, accepted in ((0.7e-9, False), (-0.7e-9, False), (0.3e-9, True)):
        dt = (tau + offset) / 200
        make = [lambda: Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                                 t_end=1.0, dt=dt, kernel=KernelSpec.constant(0.1, tau),
                                 subdomain=sub),
                lambda: HistoryBuffer(sub, gen.grid, dt, tau)]
        for build in make:
            if accepted:
                build()
            else:
                with pytest.raises(ValueError):
                    build()


def test_delayed_trace_slot_and_half_slot_only():
    # m = tau/dt = 5: the step from t_l reads slot l + 1 - m at t_l + dt and
    # the exact mean of slots l - m and l + 1 - m at the midpoint
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    sub = SubdomainP(0.25, 0.75)
    dt, tau, k0 = 0.05, 0.25, 0.1
    sc = simple_scenario(gen, t_end=1.0, dt=dt, kernel=KernelSpec.constant(k0, tau),
                         subdomain=sub, history=lambda s: s)
    stepper = _Stepper(sc)
    buffer = sc.make_buffer()
    on_p = sc.subdomain_dofs
    off_p = np.setdiff1d(np.arange(gen.ndof), on_p)
    end = stepper.delay_term(1, buffer, midpoint=False)
    assert np.array_equal(end[on_p], -k0 * buffer.sample_step(-3))
    mid = stepper.delay_term(1, buffer, midpoint=True)
    assert np.array_equal(mid[on_p], -k0 * (0.5 * (buffer.sample_step(-4)
                                                   + buffer.sample_step(-3))))
    assert mid[on_p][0] == pytest.approx(k0 * 3.5 * dt)  # history s at s = -3.5 dt
    assert np.all(end[off_p] == 0.0) and np.all(mid[off_p] == 0.0)
    stepper.delay_term(4, buffer, midpoint=False)  # slot 0, the newest
    with pytest.raises(QueryOutOfWindowError):
        stepper.delay_term(5, buffer, midpoint=False)  # slot 1 is not filled yet



@pytest.mark.parametrize("k0", [0.005, -0.02, 0.05])
def test_delayed_energy_identity(k0):
    # after the two start-up steps every trapezoid step satisfies
    # E(l+1) - E(l) = dt (vb^T M g - vb^T D vb), vb the midpoint velocity and
    # g = -k0 (slot l - m + slot l + 1 - m) / 2 on P, slots read off the states
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 64)
    dt, tau = 0.0125, 0.5
    sc = simple_scenario(gen, t_end=3.0, dt=dt, kernel=KernelSpec.constant(k0, tau),
                         subdomain=SubdomainP(0.25, 0.75))
    traj = simulate(sc)
    e_quad = traj.energies.kinetic + traj.energies.elastic + traj.energies.boundary
    m = round(tau / dt)
    on_p = sc.subdomain_dofs
    _, v = gen.split(traj.states)
    slots = np.zeros((m + v.shape[0], on_p.size))  # slot j in row j + m; zero history
    slots[m + 1:] = v[1:, on_p]
    g = np.zeros_like(v[1:])
    g[:, on_p] = -k0 * 0.5 * (slots[:-m - 1] + slots[1:-m])
    mid = 0.5 * (traj.states[:-1] + traj.states[1:])
    _, v_mid = gen.split(mid)
    work = dt * np.einsum("ij,j,ij->i", v_mid, gen.mass, g)
    dissipation = dt * gen.boundary_damping_rate(mid)
    residual = (np.diff(e_quad) - work + dissipation)[2:]
    assert np.max(np.abs(work)) > 1e-7 * e_quad[0]  # the delay term does work
    assert np.max(np.abs(residual)) <= 1e-10 * e_quad[0]

def test_scenario_validation():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen)
    with pytest.raises(ValueError):
        Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                 t_end=1.0, dt=0.3, kernel=KernelSpec.constant(0.1, 1.0),
                 subdomain=SubdomainP(0.3, 0.7))  # dt does not divide tau
    with pytest.raises(ValueError):
        Scenario(generator=gen, source=SourceKind.none(), y0=y0 + 1.0, y1=y1,
                 t_end=1.0, dt=0.1)  # violates the x = 0 condition
    with pytest.raises(ValueError):
        Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                 t_end=1.0, dt=0.1, kernel=KernelSpec.constant(0.1, 1.0))  # no P


# -- variation-of-constants oracle ----------------------------------------------------


def test_duhamel_zero_data():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    z = np.zeros(gen.grid.n)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=z, y1=z,
                  t_end=0.5, dt=0.025, kernel=KernelSpec.constant(0.3, 0.25),
                  subdomain=SubdomainP(0.25, 0.75))
    assert duhamel_residual(sc, simulate(sc)) == 0.0


def test_duhamel_undelayed_matches_expm():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    sc = simple_scenario(gen, t_end=2.0, dt=2e-4)
    traj = simulate(sc)
    assert duhamel_residual(sc, traj, check_stride=100) <= 1e-6


def test_duhamel_delayed_beam_within_tolerance():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    kernel = KernelSpec.constant(0.2, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = eigenmode_state(gen, 0)
    g_trace = apply_Bstar(sub, gen.grid, y1)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                  t_end=1.0, dt=0.0125, kernel=kernel, subdomain=sub,
                  history=lambda s: g_trace)
    assert duhamel_residual(sc, simulate(sc)) <= 1e-3


def test_duhamel_second_order_on_wave():
    gen = make_gen(OperatorKind.WAVE_DIV, 0.5, 16, beta=1.0)
    kernel = KernelSpec.constant(0.2, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = eigenmode_state(gen, 0)
    g_trace = apply_Bstar(sub, gen.grid, y1)
    residuals = []
    for dt in (0.0125, 0.00625):
        sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                      t_end=1.5, dt=dt, kernel=kernel, subdomain=sub,
                      history=lambda s: g_trace)
        residuals.append(duhamel_residual(sc, simulate(sc)))
    assert 3.0 <= residuals[0] / residuals[1] <= 5.0


def test_duhamel_requires_disabled_source():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    sc = simple_scenario(gen, t_end=0.5, dt=0.01, source=SourceKind.power(1.0))
    with pytest.raises(ValueError):
        duhamel_residual(sc, simulate(sc))


# -- helpers --------------------------------------------------------------------------


def test_smallness_level_scales_quadratically():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    kernel = KernelSpec.constant(0.3, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = polynomial_state(gen)
    sc1 = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                   t_end=1.0, dt=0.025, kernel=kernel, subdomain=sub, history=1.0)
    sc2 = Scenario(generator=gen, source=SourceKind.none(), y0=2 * y0, y1=2 * y1,
                   t_end=1.0, dt=0.025, kernel=kernel, subdomain=sub, history=2.0)
    assert smallness_level(sc2) == pytest.approx(4.0 * smallness_level(sc1), rel=1e-12)
    z = np.zeros(gen.grid.n)
    sc0 = Scenario(generator=gen, source=SourceKind.none(), y0=z, y1=z,
                   t_end=1.0, dt=0.025)
    assert smallness_level(sc0) == 0.0


def test_trajectory_csv_round_trip(tmp_path):
    gen = make_gen(OperatorKind.WAVE_NONDIV, 0.5, 16)
    traj = simulate(simple_scenario(gen, t_end=0.5, dt=0.01))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert tuple(header) == traj.CSV_COLUMNS
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(traj.times), len(header))
    assert np.allclose(data[:, 0], traj.times)


def test_eigenmode_state_amplitude():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = eigenmode_state(gen, 0, amplitude=0.3)
    state = gen.join(gen.restrict(y0), gen.restrict(y1))
    assert gen.state_norm(state) == pytest.approx(0.3, rel=1e-9)
