import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dgbmv

from degenwave import (BoundaryParams, CoefficientSpec, Grid, GridTooCoarseError,
                       InconsistentBCError, OperatorKind, Scenario, SourceKind, assemble,
                       classify, gauss_green_residual, polynomial_state)
from degenwave.evolution import _Stepper
from degenwave.operators import curvature_map, fd_weights, nodal_derivative

from conftest import random_state
from helpers import dense_elastic_reference, from_curvature, from_face_slopes

KINDS = list(OperatorKind)


def make_gen(kind, alpha, n, beta=1.0, gamma=1.0):
    grid = Grid.uniform(n)
    profile = classify(CoefficientSpec.power_law(alpha), grid)
    return assemble(kind, profile, BoundaryParams(beta, gamma), grid)


# -- dissipativity -------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_generator_is_dissipative(kind, alpha, rng):
    gen = make_gen(kind, alpha, 48)
    for _ in range(300):
        y = random_state(gen, rng)
        assert gen.quadratic_form(y) <= 1e-10 * gen.state_norm(y) ** 2


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
        assert gen.quadratic_form(y) <= 1e-10 * gen.state_norm(y) ** 2


def test_beam_nondiv_dissipative_without_tip_gains(rng):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 1.0, 64, beta=0.0, gamma=0.0)
    for _ in range(200):
        y = random_state(gen, rng)
        assert gen.quadratic_form(y) <= 1e-10 * gen.state_norm(y) ** 2


def test_zero_state_maps_to_zero():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 32)
    assert np.all(gen.system_matrix @ np.zeros(2 * gen.ndof) == 0.0)


def test_quadratic_form_equals_minus_damping(rng):
    # <AY, Y> = -(y_t(1)^2 + y_tx(1)^2) for beams, exactly
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 48)
    y = random_state(gen, rng)
    lhs = gen.quadratic_form(y)
    rhs = -gen.boundary_damping_rate(y)
    assert lhs == pytest.approx(rhs, abs=1e-9 * gen.state_norm(y) ** 2)


def test_wave_div_damping_is_tip_flux(rng):
    # energy drain is a(1) v(1)^2 for the divergence-form wave
    gen = make_gen(OperatorKind.WAVE_DIV, 0.5, 64, beta=1.0)
    y = random_state(gen, rng)
    _, v = gen.split(y)
    a1 = gen.profile.grid_values[-1]
    assert gen.boundary_damping_rate(y) == pytest.approx(a1 * v[-1] ** 2, rel=1e-12)
    assert gen.quadratic_form(y) == pytest.approx(-a1 * v[-1] ** 2,
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
        assemble(OperatorKind.BEAM_DIV, sd_profile48, BoundaryParams(1.0, 0.0), grid48)


def test_wave_div_requires_positive_beta(grid48, wd_profile48):
    with pytest.raises(InconsistentBCError):
        assemble(OperatorKind.WAVE_DIV, wd_profile48, BoundaryParams(0.0, 0.0), grid48)


def test_beam_div_wd_allows_zero_gains(grid48, wd_profile48):
    gen = assemble(OperatorKind.BEAM_DIV, wd_profile48, BoundaryParams(0.0, 0.0), grid48)
    assert gen.ndof == grid48.n - 1


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarseError):
        Grid.uniform(4)


def test_negative_gains_rejected():
    with pytest.raises(ValueError):
        BoundaryParams(-1.0, 0.0)


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
    gen = assemble(OperatorKind.WAVE_DIV, sd_profile48, BoundaryParams(1.0, 0.0), grid48)
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

    # the stepper's right-hand side M r2 - h K r1, as handed to the LU solve
    y0, y1 = polynomial_state(gen)
    stepper = _Stepper(Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                                t_end=0.01, dt=0.01))
    seen = []
    lu_solve = scipy.linalg.lu_solve

    def spy(lu, b, **kwargs):
        seen.append(b.copy())
        return lu_solve(lu, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_solve", spy)
    r1, r2 = rng.standard_normal(gen.ndof), rng.standard_normal(gen.ndof)
    stepper.solve(r1, r2)
    h = stepper.half_dt
    want = gen.mass * r2 - h * (k_ref @ r1)
    scale = gen.mass * np.abs(r2) + h * (np.abs(k_ref) @ np.abs(r1))
    assert len(seen) == 1 and np.all(np.abs(seen[0] - want) <= 1e-13 * scale)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_assembly_holds_linear_storage(kind, alpha):
    n = 4096
    gen = make_gen(kind, alpha, n)
    sizes = {name: value.size for name, value in vars(gen).items()
             if isinstance(value, np.ndarray)}
    assert "stiffness_bands" in sizes and "system_matrix" not in vars(gen)
    assert max(sizes.values()) <= 5 * n, sizes


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


# -- finite-difference helpers -----------------------------------------------------


def test_fd_weights_first_derivative_one_sided():
    x = np.array([0.0, 0.5, 1.0])
    w = fd_weights(x, 1.0, 1)
    assert np.allclose(w, [1.0, -4.0, 3.0])


def test_nodal_derivative_orders(grid48):
    x = grid48.nodes
    q = x ** 2 - 0.3 * x
    assert np.allclose(nodal_derivative(q, grid48, 1), 2 * x - 0.3, atol=1e-10)
    u = x ** 3 - 2 * x ** 2 + x
    # centered 3-point second difference is exact on cubics
    assert np.allclose(nodal_derivative(u, grid48, 2), 6 * x - 4, atol=1e-7)
    # first derivative is second-order accurate (constant u'''/3 at the ends)
    assert np.max(np.abs(nodal_derivative(u, grid48, 1) - (3 * x ** 2 - 4 * x + 1))) \
        <= 2.5 * grid48.h ** 2


def test_trace_slope_exact_on_quadratics(grid48, wd_profile48):
    gen = assemble(OperatorKind.BEAM_NONDIV, wd_profile48, BoundaryParams(1.0, 1.0),
                   grid48)
    u = gen.restrict(grid48.nodes ** 2)
    assert float(gen.trace_slope @ u) == pytest.approx(2.0, abs=1e-9)


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


# -- integration-by-parts diagnostic ------------------------------------------------


def test_gauss_green_zero_function(grid48, beam_gen48):
    z = np.zeros(grid48.n)
    assert gauss_green_residual(beam_gen48, z, z) == 0.0


def test_gauss_green_exact_on_quadratics():
    # roundoff in the h^-4 stencil grows with n; the identity is exact at n=16
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    u = gen.grid.nodes ** 2
    assert gauss_green_residual(gen, u, u) <= 1e-10


def test_gauss_green_beam_div_exact_on_quadratics():
    gen = make_gen(OperatorKind.BEAM_DIV, 1.0, 16)
    u = gen.grid.nodes ** 2
    assert gauss_green_residual(gen, u, u) <= 1e-10


@pytest.mark.parametrize("kind", [OperatorKind.BEAM_NONDIV, OperatorKind.WAVE_NONDIV])
def test_gauss_green_second_order(kind):
    # u = v = x^2 (1-x)^2 satisfies every x = 0 condition; Richardson ratio ~ 4
    residuals = []
    for n in (65, 129, 257):
        gen = make_gen(kind, 0.5, n)
        x = gen.grid.nodes
        u = x ** 2 * (1.0 - x) ** 2
        residuals.append(gauss_green_residual(gen, u, u))
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5


def test_gauss_green_wave_div_at_least_second_order():
    # flux-form rows superconverge on this symmetric test pair (ratio ~ 16)
    residuals = []
    for n in (65, 129, 257):
        gen = make_gen(OperatorKind.WAVE_DIV, 1.0, n)
        x = gen.grid.nodes
        u = x ** 2 * (1.0 - x) ** 2
        residuals.append(gauss_green_residual(gen, u, u))
    assert residuals[0] / residuals[1] >= 3.5
    assert residuals[1] / residuals[2] >= 3.5
