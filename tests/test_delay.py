import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from degenwave import (BoundaryParams, CoefficientSpec, Grid, HistoryBuffer,
                       InfeasibleError, KernelSpec, OperatorKind,
                       QueryOutOfWindowError, SubdomainNotAlignedError, SubdomainP,
                       apply_B, apply_Bstar, assemble, classify,
                       kernel_growth_check, kernel_window_bound, subdomain_gain)
from degenwave.delay import inner_H, norm_H
from degenwave.errors import NotLocallyIntegrableError


def numeric_window(kernel, t):
    lo, hi = t - kernel.tau, t
    pts = [0.0, kernel.support_end] if kernel.kind == "pulse" else [0.0]
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


def test_tabulated_rejects_bad_tables():
    with pytest.raises(NotLocallyIntegrableError):
        KernelSpec.tabulated([0.0, 0.0], [1.0, 1.0], tau=1.0)
    with pytest.raises(NotLocallyIntegrableError):
        KernelSpec.tabulated([0.0, 1.0], [1.0, math.inf], tau=1.0)


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
    idx = sub.indices(grid65)
    ext = apply_B(sub, grid65, np.ones(idx.size))
    expected = np.zeros(grid65.n)
    expected[idx] = 1.0
    assert np.array_equal(ext, expected)
    assert idx[0] >= 1 and idx[-1] <= grid65.n - 2


def test_restrict_after_extend_is_identity(grid65, sub, rng):
    vals = rng.standard_normal(sub.indices(grid65).size)
    assert np.array_equal(apply_Bstar(sub, grid65, apply_B(sub, grid65, vals)), vals)


def test_extension_restriction_adjoint(grid65, sub, rng):
    # <B phi, w>_{L2(0,1)} = <phi, B* w>_{L2(P)} exactly with matched weights
    phi = rng.standard_normal(sub.indices(grid65).size)
    w = rng.standard_normal(grid65.n)
    lhs = grid65.trapezoid(apply_B(sub, grid65, phi) * w)
    rhs = inner_H(grid65, phi, apply_Bstar(sub, grid65, w))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_subdomain_gain_values(grid65, sub):
    profile = classify(CoefficientSpec.power_law(0.5), grid65)
    gen_div = assemble(OperatorKind.WAVE_DIV, profile, BoundaryParams(1.0, 0.0), grid65)
    assert subdomain_gain(sub, gen_div) == 1.0
    gen_beam = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(1.0, 1.0),
                        grid65)
    i0 = sub.indices(grid65)[0]
    expected = math.sqrt(1.0 / profile.grid_values[i0])
    assert subdomain_gain(sub, gen_beam) == pytest.approx(expected)


def test_gain_bounds_weighted_extension(grid65, sub, rng):
    profile = classify(CoefficientSpec.power_law(0.5), grid65)
    gen = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(1.0, 1.0), grid65)
    b = subdomain_gain(sub, gen)
    idx = sub.indices(grid65)
    from degenwave.operators import weighted_mass_diagonal

    mass = weighted_mass_diagonal(grid65, profile)
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


# -- history buffer -------------------------------------------------------------------


def test_history_zero_until_pushed(grid65, sub):
    buf = HistoryBuffer(sub, grid65, dt=0.25, tau=1.0)
    for j in range(-4, 1):
        assert np.all(buf.sample_step(j) == 0.0)


def test_history_linear_slots(grid65, sub):
    buf = HistoryBuffer(sub, grid65, dt=0.25, tau=1.0, init=lambda s: s)
    got = [buf.sample(t)[0] for t in (-1.0, -0.75, -0.5, -0.25, 0.0)]
    assert np.allclose(got, [-1.0, -0.75, -0.5, -0.25, 0.0])


def test_history_ring_exactness(grid65, sub, rng):
    dt, tau = 0.2, 1.0
    buf = HistoryBuffer(sub, grid65, dt, tau)
    width = sub.indices(grid65).size
    pushed = {}
    for j in range(1, 12):
        trace = rng.standard_normal(width)
        buf.push(trace)
        pushed[j] = trace
    # the slot for t - tau equals the value pushed at time t - tau, exactly
    t_step = 11
    delayed = buf.sample_step(t_step - 5)  # 5 slots = tau / dt
    assert np.array_equal(delayed, pushed[6])


def test_history_window_errors(grid65, sub):
    buf = HistoryBuffer(sub, grid65, dt=0.25, tau=1.0)
    with pytest.raises(QueryOutOfWindowError):
        buf.sample(-2.0)
    with pytest.raises(QueryOutOfWindowError):
        buf.sample(0.1)  # off the slot grid
    with pytest.raises(ValueError):
        HistoryBuffer(sub, grid65, dt=0.3, tau=1.0)  # dt does not divide tau


def test_history_bad_trace_shape(grid65, sub):
    buf = HistoryBuffer(sub, grid65, dt=0.25, tau=1.0)
    with pytest.raises(SubdomainNotAlignedError):
        buf.push(np.ones(3))
