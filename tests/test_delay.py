import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from degenwave import (BoundaryParams, CoefficientSpec, Grid, HistoryBuffer,
                       InfeasibleError, KernelSpec, OperatorKind, Scenario, SourceKind,
                       SubdomainNotAlignedError, SubdomainP,
                       apply_Bstar, assemble, classify,
                       kernel_growth_check, kernel_window_bound, subdomain_gain)
from degenwave.delay import delay_slots, resolve_history
from degenwave.errors import NotLocallyIntegrableError

from helpers import ClosedFormGain, apply_B, inner_H, norm_H


def numeric_window(kernel, t):
    lo, hi = t - kernel.tau, t
    pts = [0.0, kernel.times[1]] if kernel.kind == "pulse" else [0.0]
    if kernel.kind == "tabulated":
        pts = [0.0] + list(kernel.times)
    pts = sorted(p for p in pts if lo < p < hi)
    val, _ = quad(lambda s: abs(float(kernel.eval(s))), lo, hi,
                  points=pts or None, limit=200)
    return val


# -- window bound -------------------------------------------------------------------


def test_window_bound_constant():
    assert kernel_window_bound(KernelSpec.constant(0.3, tau=1.0)) == pytest.approx(0.3)


def test_window_bound_zero_kernel():
    assert kernel_window_bound(KernelSpec.zero(tau=2.0)) == 0.0


def test_window_bound_exp_decay():
    lam = kernel_window_bound(KernelSpec.exp_decay(1.0, 1.0, tau=1.0))
    assert lam == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_window_bound_pulse():
    assert kernel_window_bound(KernelSpec.pulse(2.0, 0.3, tau=1.0)) == pytest.approx(0.6)
    assert kernel_window_bound(KernelSpec.pulse(2.0, 3.0, tau=1.0)) == pytest.approx(2.0)


@settings(max_examples=25, deadline=None)
@given(choice=st.integers(0, 3), k0=st.floats(0.05, 3.0), tau=st.floats(0.2, 2.0),
       seed=st.integers(0, 10 ** 6))
def test_window_bound_dominates_numeric(choice, k0, tau, seed):
    rng = np.random.default_rng(seed)
    if choice == 0:
        kernel = KernelSpec.constant(k0, tau)
    elif choice == 1:
        kernel = KernelSpec.exp_decay(k0, 0.5 + rng.uniform(0, 2), tau)
    elif choice == 2:
        kernel = KernelSpec.pulse(k0, rng.uniform(0.1, 3.0), tau)
    else:
        times = np.sort(rng.uniform(0.0, 3.0, size=4))
        kernel = KernelSpec.tabulated(times, rng.uniform(-k0, k0, size=4), tau)
    lam = kernel_window_bound(kernel)
    for t in rng.uniform(0.0, 8.0, size=20):
        assert numeric_window(kernel, t) <= lam + 1e-10


def test_window_bound_matches_numeric_supremum():
    kernel = KernelSpec.exp_decay(1.3, 0.8, tau=0.7)
    assert numeric_window(kernel, 0.7) == pytest.approx(kernel_window_bound(kernel),
                                                        abs=1e-10)


def test_tabulated_cumabs_piecewise():
    kernel = KernelSpec.tabulated([0.0, 1.0], [0.4, -0.1], tau=0.5)
    assert kernel.cumabs(0.5) == pytest.approx(0.2)
    assert kernel.cumabs(1.0) == pytest.approx(0.4)
    assert kernel.cumabs(3.0) == pytest.approx(0.4 + 0.1 * 2.0)
    assert kernel_window_bound(kernel) == pytest.approx(0.2)
    assert float(kernel.eval(2.0)) == -0.1


@pytest.mark.parametrize("k0", [0.0, 0.3, -0.2])
@pytest.mark.parametrize("support_end", [None, 0.3, 0.5, 0.75, 1.3])
def test_step_table_matches_closed_forms(k0, support_end):
    # a constant (None) or a pulse ending before, at and after tau = 0.5,
    # bit for bit against the closed forms the step table replaced
    tau = 0.5
    ref = ClosedFormGain(k0, tau, support_end)
    if support_end is None:
        kernel, end = KernelSpec.constant(k0, tau), 1.0
    else:
        kernel, end = KernelSpec.pulse(k0, support_end, tau), support_end
    ts = [-1.0, 0.0, math.nextafter(end, 0.0), end, math.nextafter(end, 2.0), 1e6]
    for t in ts:
        for got, want in ((kernel.eval(t), ref.eval(t)), (kernel.cumabs(t), ref.cumabs(t))):
            assert type(got) is float and got == want
    assert np.array_equal(kernel.eval(ts), ref.eval(ts))
    assert np.array_equal(kernel.cumabs(ts), ref.cumabs(ts))
    assert kernel.is_l1 == ref.is_l1
    assert kernel.total_mass() == ref.total_mass()
    assert kernel_window_bound(kernel) == ref.window_bound()
    for m_const, omega, b in ((1.0, 0.5, 1.0), (1.3, 2.0, 0.7), (2.5, 0.05, 1.4)):
        try:
            want = ref.growth(m_const, omega, b)
        except InfeasibleError:
            with pytest.raises(InfeasibleError, match="constant tail slope"):
                kernel_growth_check(kernel, m_const, omega, b)
            continue
        env = kernel_growth_check(kernel, m_const, omega, b)
        assert (env.alpha, env.omega_prime) == want


def test_tabulated_rejects_bad_tables():
    with pytest.raises(NotLocallyIntegrableError):
        KernelSpec.tabulated([0.0, 0.0], [1.0, 1.0], tau=1.0)
    with pytest.raises(NotLocallyIntegrableError):
        KernelSpec.tabulated([0.0, 1.0], [1.0, math.inf], tau=1.0)
    # constant and pulse gains are step tables and pass the same checks
    with pytest.raises(NotLocallyIntegrableError):
        KernelSpec.constant(math.nan, tau=1.0)
    with pytest.raises(NotLocallyIntegrableError):
        KernelSpec.pulse(1.0, math.inf, tau=1.0)


@pytest.mark.parametrize("k0, rate", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf),
                                     (1.0, math.nan)])
def test_exp_decay_rejects_non_finite_parameters(k0, rate):
    # nan > 0 is False and inf > 0 is True, so a sign check alone let both through
    with pytest.raises(ValueError):
        KernelSpec.exp_decay(k0, rate, tau=1.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0])
def test_kernel_rejects_non_finite_or_nonpositive_delay(tau):
    with pytest.raises(ValueError):
        KernelSpec.constant(0.1, tau)


def test_kernel_csv_round_trip(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("t,k\n0.0,0.4\n1.0,0.1\n")
    kernel = KernelSpec.from_csv(path, tau=0.5)
    assert kernel.kind == "tabulated"
    assert float(kernel.eval(0.5)) == 0.4


# -- growth envelope -----------------------------------------------------------------


def test_growth_check_zero_kernel():
    env = kernel_growth_check(KernelSpec.zero(1.0), M=2.0, omega=1.0, b=1.0)
    assert env.alpha == 0.0 and env.omega_prime == 0.0


def test_growth_check_constant_feasible_slope():
    kernel = KernelSpec.constant(0.05, tau=0.5)
    env = kernel_growth_check(kernel, M=1.5, omega=1.0, b=1.0)
    assert env.alpha == 0.0
    assert env.omega_prime == pytest.approx(1.5 * math.exp(0.5) * 0.05)


def test_growth_check_constant_infeasible():
    kernel = KernelSpec.constant(5.0, tau=0.5)
    with pytest.raises(InfeasibleError):
        kernel_growth_check(kernel, M=1.0, omega=0.5, b=1.0)


def test_growth_check_exp_decay_l1():
    env = kernel_growth_check(KernelSpec.exp_decay(1.0, 1.0, tau=1.0),
                              M=1.0, omega=0.5, b=1.0)
    assert env.omega_prime == 0.0
    assert env.alpha == pytest.approx(math.exp(0.5), abs=1e-12)


def test_growth_check_tabulated_envelope():
    kernel = KernelSpec.tabulated([0.0, 1.0], [0.4, 0.02], tau=0.5)
    m_const, omega, b = 1.2, 0.8, 1.0
    env = kernel_growth_check(kernel, m_const, omega, b)
    scale = m_const * b * b * math.exp(omega * kernel.tau)
    assert env.omega_prime == pytest.approx(scale * 0.02)
    for t in np.linspace(0.0, 10.0, 400):
        lhs = scale * (kernel.cumabs(t + kernel.tau) - kernel.cumabs(kernel.tau))
        assert lhs <= env.alpha + env.omega_prime * t + 1e-10


# -- subdomain pair -------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid65():
    return Grid.uniform(65)


@pytest.fixture(scope="module")
def sub(grid65):
    return SubdomainP(0.25, 0.75)


def test_extension_is_indicator(grid65, sub):
    idx = np.arange(*sub.node_range(grid65))
    ext = apply_B(sub, grid65, np.ones(idx.size))
    expected = np.zeros(grid65.n)
    expected[idx] = 1.0
    assert np.array_equal(ext, expected)
    assert idx[0] >= 1 and idx[-1] <= grid65.n - 2


def test_restrict_after_extend_is_identity(grid65, sub, rng):
    vals = rng.standard_normal(np.arange(*sub.node_range(grid65)).size)
    assert np.array_equal(apply_Bstar(sub, grid65, apply_B(sub, grid65, vals)), vals)


def test_extension_restriction_adjoint(grid65, sub, rng):
    # <B phi, w>_{L2(0,1)} = <phi, B* w>_{L2(P)} exactly with matched weights
    phi = rng.standard_normal(np.arange(*sub.node_range(grid65)).size)
    w = rng.standard_normal(grid65.n)
    lhs = grid65.trapezoid(apply_B(sub, grid65, phi) * w)
    rhs = inner_H(grid65, phi, apply_Bstar(sub, grid65, w))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_subdomain_gain_values(grid65, sub):
    profile = classify(CoefficientSpec.power_law(0.5), grid65)
    gen_div = assemble(OperatorKind.WAVE_DIV, profile, BoundaryParams(1.0, 0.0))
    nodes = np.arange(*sub.node_range(grid65))
    assert subdomain_gain(nodes, gen_div) == 1.0
    gen_beam = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(1.0, 1.0))
    expected = math.sqrt(1.0 / profile.grid_values[nodes[0]])
    assert subdomain_gain(nodes, gen_beam) == pytest.approx(expected)


def test_gain_bounds_weighted_extension(grid65, sub, rng):
    profile = classify(CoefficientSpec.power_law(0.5), grid65)
    gen = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(1.0, 1.0))
    idx = np.arange(*sub.node_range(grid65))
    b = subdomain_gain(idx, gen)
    from degenwave.operators import weighted_mass_diagonal

    mass = weighted_mass_diagonal(profile)
    for _ in range(300):
        phi = rng.standard_normal(idx.size)
        ext = apply_B(sub, grid65, phi)
        weighted = float(mass @ (ext[1:] * ext[1:]))
        assert weighted <= b * b * norm_H(grid65, phi) ** 2 * (1 + 1e-12)


def test_misaligned_data_rejected(grid65, sub):
    with pytest.raises(SubdomainNotAlignedError):
        apply_B(sub, grid65, np.ones(3))
    with pytest.raises(SubdomainNotAlignedError):
        apply_Bstar(sub, grid65, np.ones(7))


def test_snap_warns_when_coarse():
    # an endpoint below h snaps to the first interior node, farther than h/2
    grid = Grid.uniform(9)
    with pytest.warns(UserWarning):
        SubdomainP(0.01, 0.75).node_range(grid)


def test_apply_Bstar_warns_at_its_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        apply_Bstar(SubdomainP(0.01, 0.7), Grid.uniform(9), np.zeros(9))
    assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]


def test_scenario_snaps_once_and_warns_at_its_caller():
    grid = Grid.uniform(9)
    profile = classify(CoefficientSpec.power_law(0.5), grid)
    gen = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(1.0, 1.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Scenario(generator=gen, source=SourceKind.none(), y0=np.zeros(9), y1=np.zeros(9),
                 t_end=1.0, dt=0.125, kernel=KernelSpec.constant(0.005, 0.5),
                 subdomain=SubdomainP(0.01, 0.75))
    assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("n", [9, 33])
@pytest.mark.parametrize("lower, upper", [(0.25, 0.75), (0.01, 0.75), (0.3, 0.99),
                                          (0.45, 0.6), (0.1, 0.2)])
def test_subdomain_dofs_are_a_contiguous_range(kind, n, lower, upper):
    # the delay term is written and read on the slice `on_p` of the free dofs
    grid = Grid.uniform(n)
    gen = assemble(kind, classify(CoefficientSpec.power_law(0.5), grid),
                   BoundaryParams(1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # coarse snaps
        sub = SubdomainP(lower, upper)
        sc = Scenario(generator=gen, source=SourceKind.none(), y0=np.zeros(n),
                      y1=np.zeros(n), t_end=1.0, dt=0.125,
                      kernel=KernelSpec.constant(0.005, 0.5), subdomain=sub)
        nodes = np.arange(*sub.node_range(grid))
    assert nodes.size >= 1
    assert np.array_equal(gen.free[sc.on_p], nodes)


# -- delayed traces -------------------------------------------------------------------


def delayed_scenario(grid, sub, dt, tau, t_end, history=None):
    gen = assemble(OperatorKind.BEAM_NONDIV, classify(CoefficientSpec.power_law(0.5), grid),
                   BoundaryParams(1.0, 1.0))
    return Scenario(generator=gen, source=SourceKind.none(), y0=np.zeros(grid.n),
                    y1=np.zeros(grid.n), t_end=t_end, dt=dt,
                    kernel=KernelSpec.constant(0.1, tau), subdomain=sub, history=history)


@pytest.mark.parametrize("dt, tau, t_end", [(0.05, 0.25, 1.0),   # m = 5
                                            (0.25, 0.25, 1.0),   # m = 1
                                            (0.25, 2.0, 1.0)])   # tau > t_end
def test_delayed_traces_match_per_slot_reads(grid65, sub, rng, dt, tau, t_end):
    width = np.arange(*sub.node_range(grid65)).size
    sc = delayed_scenario(grid65, sub, dt, tau, t_end,
                          history=lambda s: rng.standard_normal(width))
    gen, m, nrec = sc.generator, sc.m, sc.nsteps + 1
    dofs = gen.ndof + np.searchsorted(gen.free, np.arange(*sub.node_range(grid65)))
    states = rng.standard_normal((nrec, 2 * gen.ndof))

    def slot(j):
        return sc.history_slots[j + m] if j <= 0 else states[j, dofs]

    windows = [(-m, 1), (-m, 1 - m), (1 - m, 3), (0, 2), (0, nrec),    # history, across 0
               (1, nrec), (2, 3), (nrec - 1, nrec)]                      # states only
    for lo, hi in windows:
        got = sc.delayed_traces(states, lo, hi)
        assert got.shape == (hi - lo, width)
        for j, row in zip(range(lo, hi), got):
            assert np.array_equal(row, slot(j)), (lo, hi, j)


def test_delayed_traces_zero_history(grid65, sub):
    sc = delayed_scenario(grid65, sub, dt=0.25, tau=1.0, t_end=1.0)
    states = np.ones((sc.nsteps + 1, 2 * sc.generator.ndof))
    assert np.all(sc.delayed_traces(states, -4, 1) == 0.0)


def test_delayed_traces_linear_history(grid65, sub):
    sc = delayed_scenario(grid65, sub, dt=0.25, tau=1.0, t_end=1.0, history=lambda s: s)
    states = np.ones((sc.nsteps + 1, 2 * sc.generator.ndof))
    traces = sc.delayed_traces(states, -4, 1)             # slot j at time j dt
    assert np.array_equal(traces[:, 0], [-1.0, -0.75, -0.5, -0.25, 0.0])
    assert np.all(traces == traces[:, :1])


def test_delayed_traces_read_tau_back(grid65, sub, rng):
    # the slot read tau = 5 dt before t_l is the trace written at t_l - tau
    sc = delayed_scenario(grid65, sub, dt=0.2, tau=1.0, t_end=2.2)
    gen = sc.generator
    dofs = gen.ndof + np.searchsorted(gen.free, np.arange(*sub.node_range(grid65)))
    states = np.zeros((sc.nsteps + 1, 2 * gen.ndof))
    written = rng.standard_normal((sc.nsteps + 1, dofs.size))
    states[:, dofs] = written
    for ell in range(6, sc.nsteps + 1):
        assert np.array_equal(sc.delayed_traces(states, ell - 5, ell - 4)[0], written[ell - 5])


# -- history slot-norm record ---------------------------------------------------------


def history_buffer(sub, grid, dt, tau, init=None):
    """The slot-norm record seeded with the initial history of a delayed
    scenario on `grid` with subdomain `sub`."""
    slots = resolve_history(init, delay_slots(dt, tau), dt, np.arange(*sub.node_range(grid)).size)
    return HistoryBuffer(slots, dt, grid.h)


def test_history_slot_norms_recorded_once_per_slot(grid65, sub, rng):
    dt, tau = 0.25, 1.0
    width = np.arange(*sub.node_range(grid65)).size
    initial = {j: rng.standard_normal(width) for j in range(-4, 1)}
    buf = history_buffer(sub, grid65, dt, tau, init=lambda s: initial[round(s / dt)])
    traces = [initial[j] for j in range(-4, 1)]
    for _ in range(7):
        traces.append(rng.standard_normal(width))
        buf.push(traces[-1])
    expected = np.array([grid65.h * float(tr @ tr) for tr in traces])
    assert np.array_equal(buf.slot_norms_sq, expected)
    assert np.array_equal(buf.window_norms_sq(), expected[-5:])


def test_history_bad_trace_shape(grid65, sub):
    buf = history_buffer(sub, grid65, dt=0.25, tau=1.0)
    with pytest.raises(SubdomainNotAlignedError):
        buf.push(np.ones(3))


def test_resolved_history_one_evaluation_per_slot(grid65, sub):
    times = []
    width = np.arange(*sub.node_range(grid65)).size
    slots = resolve_history(lambda s: times.append(s) or s, 4, 0.25, width)
    assert times == [-1.0, -0.75, -0.5, -0.25, 0.0]
    assert slots.shape == (5, width) and np.array_equal(slots[:, 0], times)
    assert np.array_equal(resolve_history(None, 4, 0.25, width), np.zeros((5, width)))
    with pytest.raises(SubdomainNotAlignedError):
        resolve_history(lambda s: np.ones(3), 4, 0.25, width)
