import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dgbmv

from degenwave import (BoundaryParams, CoefficientSpec, Grid, GridTooCoarseError,
                       InconsistentBCError, KernelSpec, OperatorKind, Scenario, SourceKind,
                       SubdomainP, assemble, classify, evolution, polynomial_state)
from degenwave.errors import ArrayTooLargeError, allocate
from degenwave.evolution import _Stepper
from degenwave.operators import curvature_map

from conftest import random_state
from helpers import (dense_damping, dense_elastic_reference, from_curvature, from_face_slopes,
                     make_gen, quadratic_form)

KINDS = list(OperatorKind)


# -- dissipativity -------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_generator_is_dissipative(kind, alpha, rng):
    gen = make_gen(kind, alpha, 48)
    for _ in range(300):
        y = random_state(gen, rng)
        assert quadratic_form(gen, y) <= 1e-10 * gen.state_norm(y) ** 2


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(min_value=0.1, max_value=1.9),
       kind_idx=st.integers(0, 3), seed=st.integers(0, 10 ** 6))
def test_dissipativity_over_random_exponents(alpha, kind_idx, seed):
    gen = make_gen(KINDS[kind_idx], alpha, 24)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        y = rng.standard_normal(2 * gen.ndof)
        assert quadratic_form(gen, y) <= 1e-10 * gen.state_norm(y) ** 2


def test_beam_nondiv_dissipative_without_tip_gains(rng):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 1.0, 64, beta=0.0, gamma=0.0)
    for _ in range(200):
        y = random_state(gen, rng)
        assert quadratic_form(gen, y) <= 1e-10 * gen.state_norm(y) ** 2


def test_zero_state_maps_to_zero():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 32)
    assert np.all(gen.system_matrix @ np.zeros(2 * gen.ndof) == 0.0)


def test_quadratic_form_equals_minus_damping(rng):
    # <AY, Y> = -(y_t(1)^2 + y_tx(1)^2) for beams, exactly
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 48)
    y = random_state(gen, rng)
    lhs = quadratic_form(gen, y)
    rhs = -gen.boundary_damping_rate(y)
    assert lhs == pytest.approx(rhs, abs=1e-9 * gen.state_norm(y) ** 2)


def test_wave_div_damping_is_tip_flux(rng):
    # energy drain is a(1) v(1)^2 for the divergence-form wave
    gen = make_gen(OperatorKind.WAVE_DIV, 0.5, 64, beta=1.0)
    y = random_state(gen, rng)
    _, v = gen.split(y)
    a1 = gen.profile.grid_values[-1]
    assert gen.boundary_damping_rate(y) == pytest.approx(a1 * v[-1] ** 2, rel=1e-12)
    assert quadratic_form(gen, y) == pytest.approx(-a1 * v[-1] ** 2,
                                                   abs=1e-10 * gen.state_norm(y) ** 2)


# -- norms --------------------------------------------------------------------


def test_norm_of_zero_state():
    gen = make_gen(OperatorKind.WAVE_NONDIV, 0.5, 32)
    assert gen.state_norm(np.zeros(2 * gen.ndof)) == 0.0


def test_beam_norm_on_quadratic_displacement():
    # u = x^2 has u'' = 2: elastic part integrates to exactly 4
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 64, beta=0.0, gamma=0.0)
    u = gen.grid.nodes ** 2
    state = gen.join(gen.restrict(u), np.zeros(gen.ndof))
    assert gen.state_norm(state) ** 2 == pytest.approx(4.0, abs=1e-10)


def test_weighted_velocity_norm_linear_profile():
    # v = x, a = x: int v^2/a = 1/2, trapezoid-exact on the node quadrature
    gen = make_gen(OperatorKind.WAVE_NONDIV, 1.0, 256, beta=1.0)
    v = gen.grid.nodes
    state = gen.join(np.zeros(gen.ndof), gen.restrict(v))
    assert gen.state_norm(state) ** 2 == pytest.approx(0.5, abs=1e-12)


# -- assembly validation ---------------------------------------------------------


def test_beam_div_sd_requires_positive_gains(grid48, sd_profile48):
    with pytest.raises(InconsistentBCError):
        assemble(OperatorKind.BEAM_DIV, sd_profile48, BoundaryParams(1.0, 0.0))


def test_wave_div_requires_positive_beta(grid48, wd_profile48):
    with pytest.raises(InconsistentBCError):
        assemble(OperatorKind.WAVE_DIV, wd_profile48, BoundaryParams(0.0, 0.0))


def test_beam_div_wd_allows_zero_gains(grid48, wd_profile48):
    gen = assemble(OperatorKind.BEAM_DIV, wd_profile48, BoundaryParams(0.0, 0.0))
    assert gen.ndof == grid48.n - 1


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarseError):
        Grid.uniform(4)


def test_negative_gains_rejected():
    with pytest.raises(ValueError):
        BoundaryParams(-1.0, 0.0)


@pytest.mark.parametrize("beta, gamma", [(math.nan, 0.0), (math.inf, 0.0),
                                         (0.0, math.nan), (0.0, math.inf)])
def test_non_finite_gains_rejected(beta, gamma):
    # nan < 0 is False, so a sign check alone let nan through
    with pytest.raises(ValueError):
        BoundaryParams(beta, gamma)


def test_system_matrix_block_shape():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 32)
    n = gen.ndof
    sys = gen.system_matrix
    assert np.all(sys[:n, :n] == 0.0)
    assert np.array_equal(sys[:n, n:], np.eye(n))
    # damping block touches only the tip-trace rows/columns (last 3 nodes)
    dbc = sys[n:, n:]
    assert np.all(dbc[:, :-3] == 0.0)
    assert np.all(dbc[:-3, :] == 0.0)


def test_wave_div_sd_keeps_origin_node(grid48, sd_profile48):
    gen = assemble(OperatorKind.WAVE_DIV, sd_profile48, BoundaryParams(1.0, 0.0))
    assert gen.ndof == grid48.n   # zero-flux condition at x = 0 is natural
    gen_wd = make_gen(OperatorKind.WAVE_DIV, 0.5, 48)
    assert gen_wd.ndof == 47      # Dirichlet at x = 0 for the WD class


# -- spectral abscissa ----------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [32, 64])
def test_spectral_abscissa_strictly_negative(kind, n):
    gen = make_gen(kind, 0.5, n)
    abscissa = float(np.max(np.linalg.eigvals(gen.system_matrix).real))
    assert abscissa < 0.0


# -- band storage against the dense reference ------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_band_path_matches_dense_reference(kind, alpha, n, rng, monkeypatch):
    gen = make_gen(kind, alpha, n)
    c_ref, w_ref, k_ref = dense_elastic_reference(gen)
    u = rng.standard_normal(gen.ndof)
    cu, w = gen.elastic_product(u), gen.elastic_weights
    if cu.size == w_ref.size + 1:  # beam_div SD: the mirrored row is kept at weight 0
        assert w[0] == 0.0
        cu, w = cu[1:], w[1:]
    # componentwise against |C| |u|, the scale of the rounding in a product
    assert np.all(np.abs(cu - c_ref @ u) <= 1e-13 * (np.abs(c_ref) @ np.abs(u)))
    np.testing.assert_allclose(w, w_ref, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(gen.stiffness_form, k_ref, rtol=1e-13, atol=0.0)

    # the stepper's right-hand side M r2 - h K r1, as handed to the banded solve
    y0, y1 = polynomial_state(gen)
    stepper = _Stepper([Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                                 t_end=0.01, dt=0.01)], 1)
    seen = []
    dpbtrs = evolution.dpbtrs

    def spy(ab, b, **kwargs):
        seen.append(b.copy())
        return dpbtrs(ab, b, **kwargs)

    monkeypatch.setattr(evolution, "dpbtrs", spy)
    r1, r2 = rng.standard_normal(gen.ndof), rng.standard_normal(gen.ndof)
    stepper.solve(r1[None], r2[None])            # a batch of one run
    h = stepper.half_dt
    want = gen.mass * r2 - h * (k_ref @ r1)
    scale = gen.mass * np.abs(r2) + h * (np.abs(k_ref) @ np.abs(r1))
    assert len(seen) == 1 and np.all(np.abs(seen[0] - want) <= 1e-13 * scale)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_step_bands_match_dense_block(kind, alpha, n, monkeypatch):
    # the bands handed to the step factor hold M + hD + h^2 K, D in its own bands
    gen = make_gen(kind, alpha, n)
    factored = []
    dpbtrf = evolution.dpbtrf

    def spy(ab, **kwargs):
        factored.append(ab.copy())
        return dpbtrf(ab, **kwargs)

    monkeypatch.setattr(evolution, "dpbtrf", spy)
    y0, y1 = polynomial_state(gen)
    dt = 0.01
    _Stepper([Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                       t_end=dt, dt=dt)], 1)
    h = 0.5 * dt
    want = h * h * gen.stiffness_form + h * dense_damping(gen) + np.diag(gen.mass)
    assert len(factored) == 1 and factored[0].shape == gen.stiffness_bands.shape
    expanded = dataclasses.replace(gen, stiffness_bands=factored[0]).stiffness_form
    np.testing.assert_allclose(expanded, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_stepper_holds_linear_storage(kind):
    # banded storage, the midpoint delay terms of at most one block of
    # records of `simulate` (m = 5 steps here), and the ring of the traces
    # of the last m + 1 slots that every delayed stepper holds
    gen = make_gen(kind, 0.5, 4096)
    y0, y1 = polynomial_state(gen)
    rows = evolution.RECORD_BLOCK // (2 * gen.ndof)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1, t_end=0.1,
                  dt=0.01, kernel=KernelSpec.constant(0.1, 0.05), subdomain=SubdomainP(0.25, 0.75))
    stepper = _Stepper([sc], rows)
    sizes = {name: value.size for name, value in vars(stepper).items()
             if isinstance(value, np.ndarray)}
    assert "chol" in sizes
    assert stepper.delay_rows.shape == (min(rows, 5), 1, gen.ndof)
    assert stepper.delay_rows.size <= evolution.RECORD_BLOCK // 2
    assert stepper.ring.shape == (6, 1, sc.on_p.stop - sc.on_p.start)
    del sizes["delay_rows"], sizes["delay_on_p"], sizes["ring"]
    assert max(sizes.values()) <= gen.stiffness_bands.size, sizes


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_assembly_holds_linear_storage(kind, alpha):
    n = 4096
    gen = make_gen(kind, alpha, n)
    sizes = {name: value.size for name, value in vars(gen).items()
             if isinstance(value, np.ndarray)}
    assert "stiffness_bands" in sizes and "system_matrix" not in vars(gen)
    assert max(sizes.values()) <= 5 * n, sizes


# -- energy parts of one state and of a stack ----------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_energy_parts_of_a_stack_match_each_row_bitwise(kind, rng):
    gen = make_gen(kind, 0.5, 24)
    states = rng.standard_normal((257, 2 * gen.ndof))
    rows = np.array([gen.energy_parts(state) for state in states])
    assert all(isinstance(part, float) for part in gen.energy_parts(states[0]))
    for size in (1, 3, 257):
        stacked = np.column_stack(gen.energy_parts(states[:size]))
        assert np.array_equal(stacked, rows[:size])
    # a stack that is a strided view, as simulate passes a block of its records
    assert np.array_equal(np.column_stack(gen.energy_parts(states[1::2])), rows[1::2])


@pytest.mark.parametrize("kind", KINDS)
def test_tip_traces_and_damping_rate_of_a_stack_match_each_row_bitwise(kind, rng):
    gen = make_gen(kind, 0.5, 24)
    states = rng.standard_normal((257, 2 * gen.ndof))
    u, v = gen.split(states)
    pairs = np.array([gen.tip_pairs(row[None])[0] for row in v])
    rates = np.array([gen.boundary_damping_rate(state) for state in states])
    assert isinstance(gen.boundary_damping_rate(states[0]), float)
    # e . v is the last velocity dof; g . u is the one-sided slope
    assert np.array_equal(pairs[:, 0], v[:, -1])
    slopes = u[:, -3:] @ (np.array([1.0, -4.0, 3.0]) / (2.0 * gen.grid.h))
    assert np.allclose(gen.tip_pairs(u)[:, 1], slopes, rtol=1e-13, atol=1e-13 * gen.grid.n)
    for size in (1, 3, 257):
        assert np.array_equal(gen.tip_pairs(v[:size]), pairs[:size])
        assert np.array_equal(gen.boundary_damping_rate(states[:size]), rates[:size])
    # strided stacks, as simulate passes a block of its records
    assert np.array_equal(gen.tip_pairs(v[1::2]), pairs[1::2])
    assert np.array_equal(gen.boundary_damping_rate(states[1::2]), rates[1::2])
    # v^T D v of the dense damping oracle, which embeds the same tip weights
    dense = np.einsum("ij,jk,ik->i", v, dense_damping(gen), v)
    assert np.allclose(rates, dense, rtol=1e-12, atol=0.0)


def test_energy_parts_overflow_to_inf():
    # u = 1e160 squares past the largest double in the elastic and tip terms
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    state = np.concatenate([np.full(gen.ndof, 1e160), np.zeros(gen.ndof)])
    with np.errstate(over="ignore"):
        assert gen.energy_parts(state) == (0.0, math.inf, math.inf)
        kinetic, elastic, boundary = gen.energy_parts(np.stack([state, 0.5 * state]))
    assert np.array_equal(kinetic, [0.0, 0.0])
    assert np.all(np.isinf(elastic)) and np.all(np.isinf(boundary))
    # without tip gains the tip term is 0, not 0 * inf
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16, beta=0.0, gamma=0.0)
    with np.errstate(over="ignore"):
        assert gen.energy_parts(state) == (0.0, math.inf, 0.0)


def smooth_displacement(grid, rng):
    """x^2 times a random low-frequency cosine series: smooth, clamped at x = 0."""
    x = grid.nodes
    coeffs = rng.standard_normal(4) / (1.0 + np.arange(4)) ** 2
    return x ** 2 * (np.cos(np.pi * np.outer(x, np.arange(4))) @ coeffs)


@pytest.mark.parametrize("kind", [OperatorKind.BEAM_NONDIV, OperatorKind.BEAM_DIV])
def test_elastic_energy_no_less_accurate_than_band_blas(kind, rng):
    # at n = 1024 the curvature entries (~1/h^2) cancel in C u on smooth data;
    # against an extended-precision evaluation of the same rows, energy_parts
    # must do no worse than the BLAS band product (dgbmv)
    gen = make_gen(kind, 0.5, 1024)
    kl, ku = gen.elastic_offsets
    bands = gen.elastic_bands.astype(np.longdouble)
    weights = gen.elastic_weights.astype(np.longdouble)
    rows = weights.size
    worst_new = worst_blas = 0.0
    for _ in range(10):
        u = gen.restrict(smooth_displacement(gen.grid, rng))
        wide = u.astype(np.longdouble)
        cu = np.zeros(rows, dtype=np.longdouble)
        for d in range(-kl, ku + 1):
            lo, hi = max(0, -d), min(rows, gen.ndof - d)
            cu[lo:hi] += bands[ku - d, lo + d:hi + d] * wide[lo + d:hi + d]
        exact = 0.5 * np.sum(weights * cu * cu)
        new = gen.energy_parts(np.concatenate([u, np.zeros_like(u)]))[1]
        blas = dgbmv(rows, gen.ndof, kl, ku, 1.0, gen.elastic_bands, u)
        blas = 0.5 * float(gen.elastic_weights @ (blas * blas))
        worst_new = max(worst_new, float(abs(new - exact) / exact))
        worst_blas = max(worst_blas, float(abs(blas - exact) / exact))
    assert worst_new <= worst_blas


# -- space synthesis helpers ------------------------------------------------------


def test_from_curvature_reproduces_rows(grid48, rng):
    curv = rng.standard_normal(grid48.n - 1)
    u = from_curvature(grid48, curv)
    ab, kl, ku, _ = curvature_map(grid48)
    recovered = dgbmv(grid48.n, grid48.n, kl, ku, 1.0, ab, u)
    assert np.allclose(recovered[:-1], curv, atol=1e-9)
    assert u[0] == 0.0


def test_from_face_slopes_reproduces_gradients(grid48, rng):
    slopes = rng.standard_normal(grid48.n - 1)
    u = from_face_slopes(grid48, slopes)
    back = np.diff(u) / grid48.h
    assert np.allclose(back, slopes, atol=1e-11)


# -- the one-sided tip stencils and the damping corner ------------------------------


def _stencil_tolerance(weights, values, slopes):
    """Rounding room of a stencil on linspace nodes: its weights times the
    values, plus the node errors (eps) times the slopes, at 16 eps each."""
    return 16 * np.finfo(float).eps * np.abs(weights) @ (np.abs(values) + np.abs(slopes))


@pytest.mark.parametrize("n", [8, 16, 64, 1024])
def test_curvature_tip_row_exact_on_cubics(n):
    # row n-1 of C, (-1, 4, -5, 2)/h^2 on the last four nodes, is u''(1) of a cubic
    grid = Grid.uniform(n)
    ab, kl, ku, _ = curvature_map(grid)
    row = ab[ku + np.arange(3, -1, -1), np.arange(n - 4, n)]
    x = grid.nodes[-4:]
    for c0, c1, c2, c3 in [(0, 0, 0, 1), (1, -2, 3, -4), (0.5, 7, -1, 2.5)]:
        u, du = c0 + c1 * x + c2 * x**2 + c3 * x**3, c1 + 2 * c2 * x + 3 * c3 * x**2
        want = 2 * c2 + 6 * c3
        assert abs(row @ u - want) <= _stencil_tolerance(row, u, du), (c0, c1, c2, c3)


def test_fd_weights_first_derivative_one_sided():
    # the slope trace carries the one-sided first-derivative weights (1, -4, 3)/(2h);
    # on the three nodes 0, 1/2, 1 (h = 1/2) they are exactly 1, -4, 3
    for n in (8, 16, 64):
        grid = Grid.uniform(n)
        gen = assemble(OperatorKind.BEAM_NONDIV,
                       classify(CoefficientSpec.power_law(0.5), grid), BoundaryParams(1.0, 1.0))
        assert np.allclose(gen.tip_weights[:, 1] * (2.0 * grid.h), [1.0, -4.0, 3.0])
        assert np.array_equal(gen.tip_weights[:, 0], [0.0, 0.0, 1.0])


def test_trace_slope_exact_on_quadratics():
    # g, (1, -4, 3)/(2h) on the last three dofs, is u'(1) of a quadratic
    for n in (8, 16, 64, 1024):
        grid = Grid.uniform(n)
        gen = assemble(OperatorKind.BEAM_NONDIV,
                       classify(CoefficientSpec.power_law(0.5), grid), BoundaryParams(1.0, 1.0))
        x = grid.nodes
        for c1, c2 in [(0, 1), (3, -2), (-0.5, 4)]:
            u, du = c1 * x + c2 * x**2, c1 + 2 * c2 * x
            got = float(gen.tip_pairs(gen.restrict(u)[None])[0, 1])
            tolerance = _stencil_tolerance(gen.tip_weights[:, 1], u[-3:], du[-3:])
            assert abs(got - (c1 + 2 * c2)) <= tolerance, (n, c1, c2)


@pytest.mark.parametrize("kind", KINDS)
def test_damping_corner_is_the_dense_oracle_corner(kind, rng):
    gen = make_gen(kind, 0.5, 16)
    ndof = gen.ndof
    inv_sqrt_mass = 1.0 / np.sqrt(gen.mass)
    for scale in (1.0, rng.uniform(0.5, 2.0, ndof), inv_sqrt_mass):
        dense = dense_damping(gen, scale)
        corner = gen.damping_corner(scale if np.ndim(scale) == 0 else scale[-3:])
        assert corner.tobytes() == dense[-3:, -3:].tobytes()
        assert not np.any(dense[:-3]) and not np.any(dense[:, :-3])
    # the damping blocks of A~ and A: the oracle's corner to the bit, zero elsewhere
    blocks = [(gen.state_norm_generator()[ndof:, ndof:], -dense_damping(gen, inv_sqrt_mass)),
              (gen.system_matrix[ndof:, ndof:], -dense_damping(gen) / gen.mass[:, None])]
    for block, want in blocks:
        assert block[-3:, -3:].tobytes() == want[-3:, -3:].tobytes()
        assert not np.any(block[:-3]) and not np.any(block[:, :-3])
    # the D of combined_bands, in the upper bands of K
    bands = gen.combined_bands(0.0, 1.0, 0.0)
    assert np.array_equal(dataclasses.replace(gen, stiffness_bands=bands).stiffness_form,
                          dense_damping(gen))


# -- analytic eigenvalue oracles ----------------------------------------------------


def _conservative_fundamental(gen):
    evals = scipy.linalg.eigh(gen.stiffness_form, np.diag(gen.mass),
                              eigvals_only=True)
    return float(np.sqrt(evals[0]))


def test_wave_div_fundamental_matches_bessel_root():
    # a = x: -(x u')' = w^2 u with vanishing flux at 0 solves u = J0(2 w sqrt(x));
    # the tip condition u'(1) + beta u(1) = 0 quantizes w J1(2w) = beta J0(2w)
    from scipy.optimize import brentq
    from scipy.special import j0, j1

    w_exact = brentq(lambda w: w * j1(2 * w) - j0(2 * w), 0.3, 1.2)
    errs = []
    for n in (33, 65, 129):
        gen = make_gen(OperatorKind.WAVE_DIV, 1.0, n, beta=1.0, gamma=0.0)
        errs.append(abs(_conservative_fundamental(gen) - w_exact))
    assert errs[-1] <= 3e-6
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_wave_nondiv_fundamental_matches_bessel_root():
    # a = x: -x u'' = w^2 u in the 1/x-weighted pairing solves
    # u = sqrt(x) J1(2 w sqrt(x)); the tip condition gives
    # w J0(2w) + beta J1(2w) = 0
    from scipy.optimize import brentq
    from scipy.special import j0, j1

    w_exact = brentq(lambda w: w * j0(2 * w) + j1(2 * w), 1.2, 2.2)
    errs = []
    for n in (33, 65, 129):
        gen = make_gen(OperatorKind.WAVE_NONDIV, 1.0, n, beta=1.0, gamma=0.0)
        errs.append(abs(_conservative_fundamental(gen) - w_exact))
    assert errs[-1] <= 1.5e-5
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_allocate_names_the_size_and_the_hint():
    # past numpy's size limit: the request fails at once
    with pytest.raises(ArrayTooLargeError, match=r"^the rows need 1099511627776 x 1099511627776 "
                       r"doubles \([\d,.]+ GiB\), more than can be allocated; lower n$"):
        allocate((2 ** 40, 2 ** 40), "the rows", "lower n")


def test_state_norm_generator_too_large_to_hold(monkeypatch):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    zeros = np.zeros

    def refusing(shape, *args, **kwargs):
        if shape == (30, 30):
            raise MemoryError("refused")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing)
    with pytest.raises(ArrayTooLargeError, match=r"^the entries of the dense state-norm generator "
                       r"need 30 x 30 doubles \(0\.0 GiB\), more than can be allocated; "
                       r"lower \[operator\] n or use another \[initial\] preset$"):
        gen.state_norm_generator()
