import math

import numpy as np
import pytest
import scipy.linalg

from degenwave import (BoundaryParams, CoefficientSpec, Grid, HistoryBuffer,
                       KernelSpec, NotExponentiallyStableError, OperatorKind,
                       QueryOutOfWindowError, Scenario,
                       SourceKind, SubdomainP, apply_Bstar, assemble, classify,
                       decay_fit, duhamel_residual, eigenmode_state,
                       polynomial_state, semigroup_constants, simulate,
                       smallness_level)
from degenwave.evolution import _Stepper, _state_weight_sqrt, spectral_abscissa


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
    whalf, wihalf = _state_weight_sqrt(gen)
    a_tilde = whalf @ gen.system_matrix @ wihalf
    for t in rng.uniform(0.0, 10.0, size=50):
        prop = scipy.linalg.expm(t * gen.system_matrix)
        for _ in range(20):
            y0 = rng.standard_normal(2 * gen.ndof)
            lhs = gen.state_norm(prop @ y0)
            assert lhs <= cert.M * math.exp(-cert.omega * t) * gen.state_norm(y0) \
                * (1 + 1e-8)
    assert a_tilde.shape == gen.system_matrix.shape


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
    got = _Stepper(sc, smoothing_steps=0).step(0.0, state0, buffer)

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
    explicit = stepper.explicit_term(0.5 * dt, state, buffer)
    assert np.any(explicit[gen.ndof:] != 0.0)
    ident = np.eye(2 * gen.ndof)
    half = 0.5 * dt * gen.system_matrix

    rhs = state + 0.5 * dt * explicit
    dense = np.linalg.solve(ident - half, rhs)
    assert gen.state_norm(stepper.solve(rhs) - dense) <= 1e-8 * gen.state_norm(dense)

    dense = np.linalg.solve(ident - half, (ident + half) @ state + dt * explicit)
    got = stepper.step(0.0, state, buffer)
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
    assert "system_matrix" in vars(gen)


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
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    sub = SubdomainP(0.25, 0.75)
    dt, tau = 0.05, 0.25
    sc = simple_scenario(gen, t_end=1.0, dt=dt, kernel=KernelSpec.constant(0.1, tau),
                         subdomain=sub, history=lambda s: s)
    stepper = _Stepper(sc)
    buffer = sc.make_buffer()
    assert np.array_equal(stepper.delayed_trace(2 * dt, buffer), buffer.sample_step(-3))
    mid = stepper.delayed_trace(2.5 * dt, buffer)
    assert np.array_equal(mid, 0.5 * (buffer.sample_step(-3) + buffer.sample_step(-2)))
    assert mid[0] == pytest.approx(-2.5 * dt)
    with pytest.raises(QueryOutOfWindowError):
        stepper.delayed_trace(2.25 * dt, buffer)


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
