import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from degenwave import (BoundaryParams, BoundViolatedError, CoefficientSpec,
                       DegenerateFitError, Grid, InfeasibleError, KernelSpec,
                       OperatorKind, Scenario, SourceKind, SubdomainP, assemble,
                       certify_scenario, classify, constants_for, decay_fit,
                       eigenmode_state, energy_bound_check, energy_breakdown, evolution,
                       growth_envelope_C, kernel_growth_check, polynomial_state,
                       semigroup_constants, simulate, threshold_certificate)
from degenwave.delay import HistoryBuffer
from degenwave.diagnostics import EnergyBreakdown, history_energy, source_energy
from degenwave.evolution import Trajectory


def make_gen(kind, alpha, n, beta=1.0, gamma=1.0):
    grid = Grid.uniform(n)
    profile = classify(CoefficientSpec.power_law(alpha), grid)
    return assemble(kind, profile, BoundaryParams(beta, gamma), grid)


# -- energy breakdown --------------------------------------------------------------


def test_zero_state_zero_energy():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 32)
    e = energy_breakdown(gen, SourceKind.none(), np.zeros(2 * gen.ndof))
    assert e.total == 0.0
    assert (e.kinetic, e.elastic, e.boundary, e.source, e.history) == (0,) * 5


def test_total_is_component_sum(rng):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 32)
    state = rng.standard_normal(2 * gen.ndof)
    e = energy_breakdown(gen, SourceKind.power(1.0), state)
    assert e.total == e.kinetic + e.elastic + e.boundary + e.source + e.history


def test_linear_energy_against_independent_quadrature():
    # u = x^2 (1-x)^2, v = x^2, a = x^0.5: every term has a closed form
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 128)
    x = gen.grid.nodes
    u = x ** 2 * (1 - x) ** 2
    v = x ** 2
    state = gen.join(gen.restrict(u), gen.restrict(v))
    e = energy_breakdown(gen, SourceKind.none(), state)
    kin_exact = 0.5 * quad(lambda s: s ** 4 / math.sqrt(s), 0, 1)[0]
    ela_exact = 0.5 * quad(lambda s: (2 - 12 * s + 12 * s * s) ** 2, 0, 1)[0]
    bnd_exact = 0.5 * (1.0 * u[-1] ** 2 + 1.0 * 0.0 ** 2)  # u(1)=0, u'(1)=0
    assert e.kinetic == pytest.approx(kin_exact, rel=2e-3)
    assert e.elastic == pytest.approx(ela_exact, rel=2e-3)
    assert e.boundary == pytest.approx(bnd_exact, abs=1e-6)


def test_history_term_closed_form():
    # g = 1 on P of length 1/2, constant k0, tau = 1: (1/2) k0 (1/2) tau = k0/4
    grid = Grid.uniform(65)
    sub = SubdomainP(0.25, 0.75)
    k0 = 0.8
    kernel = KernelSpec.constant(k0, tau=1.0)
    buf = HistoryBuffer(sub, grid, dt=0.125, tau=1.0, init=1.0)
    assert history_energy(kernel, buf) == pytest.approx(k0 / 4.0, abs=1e-14)


def weights_trapezoid(kernel, buf, newest):
    """The history energy of the window newest - m .. newest as a weighted sum."""
    slot_times = np.arange(newest - buf.m, newest + 1) * buf.dt
    kvals = np.abs(np.atleast_1d(kernel.eval(slot_times + kernel.tau)))
    weights = np.full(buf.m + 1, buf.dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return 0.5 * float(np.sum(weights * kvals * buf.window_norms_sq()))


@pytest.mark.parametrize("kernel", [KernelSpec.constant(0.8, tau=0.5),
                                    KernelSpec.exp_decay(0.8, 1.5, tau=0.5),
                                    KernelSpec.pulse(0.8, 0.9, tau=0.5)])
def test_history_energy_matches_weights_trapezoid(kernel, rng):
    grid = Grid.uniform(65)
    sub = SubdomainP(0.25, 0.75)
    buf = HistoryBuffer(sub, grid, dt=0.05, tau=0.5, init=0.3)
    width = sub.indices(grid).size
    for newest in range(1, 25):
        buf.push(rng.standard_normal(width))
        ref = weights_trapezoid(kernel, buf, newest)
        assert history_energy(kernel, buf) == pytest.approx(ref, rel=1e-15, abs=0.0)


def reference_table(sc, traj):
    """The CSV columns of `traj` recomputed state by state, with a replayed buffer."""
    gen = sc.generator
    buf = sc.make_buffer()
    if buf is not None:
        sub_free = np.searchsorted(gen.free, sc.subdomain.indices(gen.grid))
    rows = []
    for i, state in enumerate(traj.states):
        if i > 0 and buf is not None:
            buf.push(gen.split(state)[1][sub_free])
        e = energy_breakdown(gen, sc.source, state, kernel=sc.kernel, buffer=buf)
        y1, _, yt1, _ = gen.tip_traces(state)
        rows.append((i * sc.dt, e.total, e.kinetic, e.elastic, e.boundary, e.source,
                     e.history, gen.state_norm(state), y1, yt1,
                     gen.boundary_damping_rate(state)))
    return np.array(rows)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("source", [SourceKind.power(1.0), SourceKind.nonlocal_l2(2.0)])
def test_batch_records_match_per_state_reference(kind, source, tmp_path):
    # a time-varying gain and a nonzero initial history exercise every slot
    # of the history windows, including those at s <= 0
    gen = make_gen(kind, 0.5, 24)
    y0, y1 = eigenmode_state(gen, 0, amplitude=0.5)
    sc = Scenario(generator=gen, source=source, y0=y0, y1=y1, t_end=1.0, dt=0.0125,
                  kernel=KernelSpec.exp_decay(0.4, 1.5, tau=0.25),
                  subdomain=SubdomainP(0.25, 0.75), history=0.3)
    traj = simulate(sc)
    assert not traj.blew_up
    traj.to_csv(tmp_path / "trajectory.csv")
    got = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    ref = reference_table(sc, traj)
    assert np.all(ref[:, 6] > 0.0)
    energy_scale = np.max(np.abs(ref[:, 1:7]))
    for col, name in enumerate(Trajectory.CSV_COLUMNS):
        scale = energy_scale if name.startswith("E_") else np.max(np.abs(ref[:, col]))
        assert np.max(np.abs(got[:, col] - ref[:, col])) <= 1e-12 * scale, name
    damping_scale = np.max(ref[:, 10])
    assert np.max(np.abs(traj.damping_rates - ref[:, 10])) <= 1e-12 * damping_scale


def test_batch_records_match_reference_undelayed(tmp_path):
    gen = make_gen(OperatorKind.BEAM_DIV, 1.5, 24)
    y0, y1 = eigenmode_state(gen, 1)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                  t_end=0.5, dt=0.01)
    traj = simulate(sc)
    traj.to_csv(tmp_path / "trajectory.csv")
    got = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    ref = reference_table(sc, traj)
    assert np.all(got[:, 5:7] == 0.0)
    scale = np.max(np.abs(ref[:, :10]), axis=0)
    assert np.all(np.abs(got - ref[:, :10]) <= 1e-12 * scale)



@pytest.mark.parametrize("kind, source", [
    (OperatorKind.BEAM_NONDIV, SourceKind.power(1.0)),      # 1/a-weighted
    (OperatorKind.WAVE_DIV, SourceKind.power(1.5)),         # plain L2
    (OperatorKind.BEAM_NONDIV, SourceKind.nonlocal_l2(2.0)),
    (OperatorKind.BEAM_DIV, SourceKind.nonlocal_l2(1.0)),
])
def test_source_column_matches_per_state_evaluation(kind, source, monkeypatch):
    # simulate evaluates the source energy over stacks of records: 81 records
    # in batches of 20 end with a batch of one
    monkeypatch.setattr(evolution, "SOURCE_BATCH", 20)
    gen = make_gen(kind, 0.5, 24)
    y0, y1 = eigenmode_state(gen, 0, amplitude=0.5)
    sc = Scenario(generator=gen, source=source, y0=y0, y1=y1, t_end=1.0, dt=0.0125)
    traj = simulate(sc)
    per_state = np.array([source_energy(gen, source, state) for state in traj.states])
    assert np.all(per_state < 0.0)
    scale = np.max(np.abs(per_state))
    assert np.max(np.abs(traj.energies.source - per_state)) <= 1e-14 * scale
    stacked = source_energy(gen, source, traj.states.reshape(3, 27, 2 * gen.ndof))
    assert np.max(np.abs(stacked - per_state.reshape(3, 27))) <= 1e-14 * scale
    assert source_energy(gen, SourceKind.none(), traj.states[0]) == 0.0

def test_blow_up_record_is_non_finite():
    # |y|^q y overflows on the first start-up half-step, so the run stops at a
    # non-finite state; its record carries inf energies and norm, nan tips
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen, amplitude=160.0)
    sc = Scenario(generator=gen, source=SourceKind.power(150.0), y0=y0, y1=y1,
                  t_end=1.0, dt=0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = simulate(sc)
    assert traj.blew_up
    assert len(traj.times) == 2
    assert not np.all(np.isfinite(traj.states[-1]))
    e = traj.energies
    for part in (e.kinetic, e.elastic, e.boundary, e.source, e.history, e.total):
        assert math.isinf(part[-1]) and np.isfinite(part[0])
    assert math.isinf(traj.state_norms[-1]) and math.isinf(traj.damping_rates[-1])
    assert math.isnan(traj.tip_values[-1]) and math.isnan(traj.tip_velocities[-1])


def assert_energy_columns_are_energy_parts(traj, path):
    """E_kinetic, E_elastic, E_boundary and state_norm of the CSV are each
    recorded state's `energy_parts`, bit for bit (inf on a non-finite state)."""
    traj.to_csv(path)
    got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    gen = traj.scenario.generator
    assert len(got) == len(traj.states)
    for row, state in zip(got, traj.states):
        if np.all(np.isfinite(state)):
            k, e, b = gen.energy_parts(state)
            expected = (k, e, b, math.sqrt(2.0 * (k + e + b)))
        else:
            expected = (math.inf,) * 4
        assert tuple(row[[2, 3, 4, 7]]) == expected


def test_energy_columns_are_energy_parts_delayed_source(tmp_path):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24)
    y0, y1 = eigenmode_state(gen, 0, amplitude=0.5)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1, t_end=1.0,
                  dt=0.0125, kernel=KernelSpec.exp_decay(0.4, 1.5, tau=0.25),
                  subdomain=SubdomainP(0.25, 0.75), history=0.3)
    traj = simulate(sc)
    assert not traj.blew_up and np.all(traj.energies.source != 0.0)
    assert_energy_columns_are_energy_parts(traj, tmp_path / "trajectory.csv")


def test_energy_columns_are_energy_parts_on_blow_up(tmp_path):
    from degenwave.evolution import BLOWUP_NORM

    # anti-damping: the last state is finite, with a norm above BLOWUP_NORM
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen)
    with pytest.warns(UserWarning):
        sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1, t_end=20.0,
                      dt=0.05, kernel=KernelSpec.constant(-40.0, tau=0.25),
                      subdomain=SubdomainP(0.25, 0.75), history=1.0)
    traj = simulate(sc)
    assert traj.blew_up and np.all(np.isfinite(traj.states[-1]))
    assert traj.state_norms[-1] > BLOWUP_NORM >= np.max(traj.state_norms[:-1])
    assert_energy_columns_are_energy_parts(traj, tmp_path / "anti.csv")

    # overflow: the last state is non-finite
    y0, y1 = polynomial_state(gen, amplitude=160.0)
    sc = Scenario(generator=gen, source=SourceKind.power(150.0), y0=y0, y1=y1,
                  t_end=1.0, dt=0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = simulate(sc)
    assert traj.blew_up and not np.all(np.isfinite(traj.states[-1]))
    assert_energy_columns_are_energy_parts(traj, tmp_path / "overflow.csv")


def test_cross_kind_energy_consistency(rng):
    # with a == c the divergence and non-divergence quadratic forms agree up
    # to the factor c; a constant profile is built directly (classify would
    # reject it as non-degenerate)
    from degenwave.degeneracy import CoefficientProfile

    grid = Grid.uniform(32)
    c = 2.0
    spec = CoefficientSpec.tabulated(grid.nodes, np.full(grid.n, c))
    profile = CoefficientProfile(spec=spec, grid=grid,
                                 grid_values=np.full(grid.n, c), K=0.5,
                                 degeneracy_class="WD")
    gen_nd = assemble(OperatorKind.WAVE_NONDIV, profile, BoundaryParams(0.0, 0.0),
                      grid)
    gen_d = assemble(OperatorKind.WAVE_DIV, profile, BoundaryParams(1e-12, 0.0), grid)
    state = rng.standard_normal(2 * gen_nd.ndof)
    k_nd, e_nd, _ = gen_nd.energy_parts(state)
    k_d, e_d, _ = gen_d.energy_parts(state)
    assert k_d == pytest.approx(c * k_nd, rel=1e-12)
    assert e_d == pytest.approx(c * e_nd, rel=1e-12)


# -- growth envelope -----------------------------------------------------------------


def test_envelope_without_kernel():
    assert growth_envelope_C(None, 1.0, 3.0) == 1.0


def test_envelope_constant_kernel():
    kernel = KernelSpec.constant(0.3, tau=1.0)
    ts = np.linspace(0.0, 4.0, 9)
    assert np.allclose(growth_envelope_C(kernel, 1.0, ts), np.exp(4 * 0.3 * ts))


def test_envelope_exp_decay_value():
    kernel = KernelSpec.exp_decay(1.0, 1.0, tau=1.0)
    expected = math.exp(2 * ((1 - math.exp(-1)) + math.exp(-1) * (1 - math.exp(-1))))
    assert growth_envelope_C(kernel, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(choice=st.integers(0, 2), k0=st.floats(0.01, 1.0), tau=st.floats(0.2, 1.5),
       b=st.floats(0.2, 2.0))
def test_envelope_nondecreasing_from_one(choice, k0, tau, b):
    if choice == 0:
        kernel = KernelSpec.constant(k0, tau)
    elif choice == 1:
        kernel = KernelSpec.exp_decay(k0, 1.3, tau)
    else:
        kernel = KernelSpec.pulse(k0, 0.8, tau)
    ts = np.linspace(0.0, 5.0, 40)
    vals = np.atleast_1d(growth_envelope_C(kernel, b, ts))
    assert vals[0] == pytest.approx(1.0)
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("kernel", [
    KernelSpec.constant(0.4, tau=0.7),
    KernelSpec.exp_decay(0.9, 1.1, tau=0.7),
    KernelSpec.pulse(0.5, 0.4, tau=0.7),
    KernelSpec.tabulated([0.0, 0.5, 1.2], [0.3, -0.2, 0.05], tau=0.7),
])
def test_envelope_matches_numeric_quadrature(kernel):
    b = 1.3
    for t in (0.3, 0.9, 2.1):
        pts = sorted({0.0, t, *(list(kernel.times) if kernel.kind == "tabulated"
                                else [kernel.support_end]
                                if kernel.kind == "pulse" else [])})
        direct, _ = quad(lambda s: abs(float(kernel.eval(s)))
                         + abs(float(kernel.eval(s + kernel.tau))),
                         0.0, t, points=[p for p in pts if 0 < p < t] or None,
                         limit=300)
        expected = math.exp(2 * b * b * direct)
        assert growth_envelope_C(kernel, b, t) == pytest.approx(expected, rel=1e-8)


# -- conditional growth bound -----------------------------------------------------------


def test_bound_holds_on_linear_run():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24)
    y0, y1 = eigenmode_state(gen, 0)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                  t_end=2.0, dt=0.01)
    report = energy_bound_check(simulate(sc), None, 0.0)
    assert report.max_ratio <= 1.0 + 1e-9
    assert report.n_excluded == 0


def test_bound_reports_violation():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = eigenmode_state(gen, 0)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                  t_end=0.2, dt=0.01)
    traj = simulate(sc)
    # fabricate rising energies to force a violation of C(t) = 1
    e = traj.energies
    kinetic, elastic, boundary = e.kinetic.copy(), e.elastic.copy(), e.boundary.copy()
    kinetic[-1] = 10 * kinetic[0] + 1.0
    elastic[-1] = elastic[0]
    boundary[-1] = boundary[0]
    fake = EnergyBreakdown.build(kinetic, elastic, boundary, 0.0, 0.0)
    bad = Trajectory(times=traj.times, states=traj.states,
                     state_norms=traj.state_norms, energies=fake,
                     damping_rates=traj.damping_rates, tip_values=traj.tip_values,
                     tip_velocities=traj.tip_velocities, blew_up=False, scenario=sc)
    with pytest.raises(BoundViolatedError):
        energy_bound_check(bad, None, 0.0)


def test_bound_vacuous_on_zero_data():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    z = np.zeros(gen.grid.n)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=z, y1=z,
                  t_end=0.2, dt=0.01)
    report = energy_bound_check(simulate(sc), None, 0.0)
    assert report.max_ratio <= 1.0
    assert report.n_excluded == 0


def test_bound_report_csv(tmp_path):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = eigenmode_state(gen, 0)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                  t_end=0.5, dt=0.01)
    report = energy_bound_check(simulate(sc), None, 0.0)
    path = tmp_path / "margins.csv"
    report.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,included,bound_ratio"
    assert len(rows) == len(report.times) + 1


# -- threshold certificates ---------------------------------------------------------------


class _Semi:
    def __init__(self, M, omega):
        self.M = M
        self.omega = omega


def test_threshold_collapse_without_delay_or_source():
    semi = _Semi(M=2.0, omega=1.0)
    kernel = KernelSpec.zero(tau=1.0)
    env = kernel_growth_check(kernel, semi.M, semi.omega, 0.0)
    grid = Grid.uniform(16)
    profile = classify(CoefficientSpec.power_law(0.5), grid)
    consts = constants_for(SourceKind.none(), profile, c_hp=0.2)
    cert = threshold_certificate(semi, kernel, env, 0.0, SourceKind.none(), consts)
    t_min = math.log(2.0 * semi.M ** 2) / semi.omega
    assert cert.T >= t_min
    assert cert.C_T_condition <= 1.0
    assert cert.predicted_rate == pytest.approx(semi.omega / 2.0)
    assert math.isinf(cert.rho)
    assert cert.feasible


def test_threshold_infeasible_for_huge_gain():
    kernel = KernelSpec.constant(50.0, tau=0.5)
    with pytest.raises(InfeasibleError):
        kernel_growth_check(kernel, 1.5, 0.8, 1.0)


def test_end_to_end_certificate_feasible():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24)
    kernel = KernelSpec.constant(0.005, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = eigenmode_state(gen, 0, amplitude=1e-3)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1,
                  t_end=1.0, dt=0.0125, kernel=kernel, subdomain=sub)
    result = certify_scenario(sc)
    th = result.threshold
    assert th.feasible
    assert 0.0 < th.rho < math.inf
    assert th.C_rho == pytest.approx(2 * math.sqrt(th.C_of_T) * th.rho)
    assert th.L_at_C_rho < (result.omega - result.omega_prime) / (2 * result.M)
    assert th.predicted_rate == pytest.approx((result.omega - result.omega_prime) / 2)
    lines = result.report_lines()
    assert any(line.startswith("predicted_rate:") for line in lines)
    assert "feasible: yes" in lines


def test_threshold_monotone_in_gain():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24)
    semi = semigroup_constants(gen, horizon=10.0, samples=60)
    sub = SubdomainP(0.25, 0.75)
    from degenwave import subdomain_gain

    b = subdomain_gain(sub, gen)
    profile = gen.profile
    consts = constants_for(SourceKind.power(1.0), profile)
    rhos = []
    for k0 in (0.001, 0.004, 0.008):
        kernel = KernelSpec.constant(k0, tau=0.5)
        env = kernel_growth_check(kernel, semi.M, semi.omega, b)
        cert = threshold_certificate(semi, kernel, env, b, SourceKind.power(1.0),
                                     consts)
        rhos.append(cert.rho)
    assert rhos[0] >= rhos[1] >= rhos[2]


# -- decay fitting -----------------------------------------------------------------------


def test_decay_fit_synthetic_exponential():
    ts = np.linspace(0.0, 10.0, 400)
    fit = decay_fit(ts, np.exp(-0.7 * ts))
    assert fit.rate == pytest.approx(0.7, abs=1e-6)
    assert fit.r_squared > 1 - 1e-12


def test_decay_fit_degenerate():
    ts = np.linspace(0.0, 1.0, 50)
    with pytest.raises(DegenerateFitError):
        decay_fit(ts, np.full_like(ts, 1e-16))
