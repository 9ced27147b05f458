import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenwave import (CoefficientSpec, Grid, SourceKind, classify, constants_for,
                       eval_F_functional, eval_f, h_inverse,
                       hardy_poincare_constant, lipschitz_bound)
from degenwave.nonlinearity import cq_factor, weighted_inner
from degenwave.operators import weighted_mass_diagonal

from conftest import random_clamped
from helpers import (curvature_seminorm, elastic_seminorm, empirical_growth_constant,
                     from_face_slopes, h_gauge, sobolev_pointwise_bound_check,
                     weighted_l2_norm)


@pytest.fixture(scope="module")
def grid128():
    return Grid.uniform(128)


@pytest.fixture(scope="module")
def profile128(grid128):
    return classify(CoefficientSpec.power_law(0.5), grid128)


@pytest.fixture(scope="module")
def linear_profile128(grid128):
    return classify(CoefficientSpec.power_law(1.0), grid128)


# -- evaluation -----------------------------------------------------------------


def test_eval_f_vanishes_at_zero(grid128):
    z = np.zeros(grid128.n)
    for source in (SourceKind.power(1.0), SourceKind.nonlocal_l2(2.0),
                   SourceKind.none()):
        assert np.all(eval_f(source, z, grid128) == 0.0)


def test_eval_f_power_on_constant(grid128):
    y = np.full(grid128.n, -2.0)
    out = eval_f(SourceKind.power(1.0), y, grid128)
    assert np.allclose(out, -4.0)


def test_eval_f_nonlocal_on_unit_constant(grid128):
    y = np.ones(grid128.n)
    out = eval_f(SourceKind.nonlocal_l2(2.0), y, grid128)
    assert np.allclose(out, 1.0, atol=1e-12)  # trapezoid is exact on constants


def test_eval_f_nonlocal_overflows_to_inf(grid128):
    # ||y||^2 = 1e200 is finite, its square is not: the factor is inf (the
    # plain float power raised OverflowError) and f keeps the sign of y
    y = np.full(grid128.n, 1e100)
    y[0] = -1e100
    with pytest.warns(RuntimeWarning, match="overflow"):
        out = eval_f(SourceKind.nonlocal_l2(4.0), y, grid128)
    assert np.all(np.isinf(out)) and out[0] < 0 < out[1]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_eval_f_nonlocal_of_a_stack_matches_each_function_bitwise(p, grid128):
    # the trapezoid norm sums each function on its own, as eval_F_functional does
    source = SourceKind.nonlocal_l2(p)
    stack = np.random.default_rng(7).standard_normal((257, grid128.n))
    alone = np.array([eval_f(source, y, grid128) for y in stack])
    for size in (1, 3, 257):
        assert np.array_equal(eval_f(source, stack[:size], grid128), alone[:size])
    assert np.array_equal(eval_f(source, stack[:255].reshape(3, 85, -1), grid128),
                          alone[:255].reshape(3, 85, -1))
    assert np.array_equal(eval_f(source, stack[1::2], grid128), alone[1::2])


@settings(max_examples=30, deadline=None)
@given(q=st.floats(min_value=0.2, max_value=3.0), seed=st.integers(0, 10 ** 6))
def test_eval_f_is_odd(q, seed):
    grid = Grid.uniform(32)
    y = np.random.default_rng(seed).standard_normal(grid.n)
    for source in (SourceKind.power(q), SourceKind.nonlocal_l2(1.0 + q)):
        assert np.allclose(eval_f(source, -y, grid), -eval_f(source, y, grid))


def test_F_functional_zero(grid128, profile128):
    z = np.zeros(grid128.n)
    assert eval_F_functional(SourceKind.power(1.0), z, profile128, True) == 0.0


def test_F_functional_power_weighted(linear_profile128):
    # q = 1, a = x, y = x^2: int x^6 / (3 x) dx = 1/18
    grid = linear_profile128.grid
    y = grid.nodes ** 2
    val = eval_F_functional(SourceKind.power(1.0), y, linear_profile128, True)
    assert val == pytest.approx(1.0 / 18.0, abs=1e-3)


def test_F_functional_nonlocal_unweighted(linear_profile128):
    # p = 2, y = x: (1/(p+2)) ||y||^{p+2} = (1/4)(1/3)^2
    grid = linear_profile128.grid
    val = eval_F_functional(SourceKind.nonlocal_l2(2.0), grid.nodes,
                            linear_profile128, False)
    assert val == pytest.approx((1.0 / 4.0) * (1.0 / 3.0) ** 2, rel=1e-3)


# -- explicit constants ------------------------------------------------------------


def test_cq_factor_branches():
    assert cq_factor(1.0) == 2.0
    assert cq_factor(0.5) == 2.0 ** 0.0
    assert cq_factor(0.3) == 1.0
    assert cq_factor(2.0) == 8.0


def test_lipschitz_power_formula(profile128):
    source = SourceKind.power(1.0)
    consts = dataclasses.replace(constants_for(source, profile128), c_hp=0.2)
    c = 4.0 * 0.2 + 1.0
    expected = math.sqrt((2.0 / 3.0) * 4.0 * 2.0 * c)  # (2/3)(q+1)^2 C_1 (4c+1)
    assert lipschitz_bound(source, consts, 1.0) == pytest.approx(expected, rel=1e-12)
    assert lipschitz_bound(source, consts, 0.5) == pytest.approx(0.5 * expected,
                                                                 rel=1e-12)


def test_lipschitz_vanishes_at_zero_radius(profile128):
    for source in (SourceKind.power(0.7), SourceKind.nonlocal_l2(1.5)):
        consts = dataclasses.replace(constants_for(source, profile128), c_hp=0.2)
        vals = [lipschitz_bound(source, consts, r) for r in (1e-3, 1e-6, 1e-9)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-5


def test_h_gauge(profile128):
    source = SourceKind.power(1.0)
    consts = dataclasses.replace(constants_for(source, profile128), c_hp=0.3)
    assert h_gauge(source, consts, 0.0) == 0.0
    assert h_gauge(source, consts, 2.0) == pytest.approx((2.0 / 3.0) * 2.2 * 2.0)
    nl = SourceKind.nonlocal_l2(2.0)
    consts_nl = dataclasses.replace(constants_for(nl, profile128), c_hp=0.3)
    expected = consts_nl.a_max * 2.2 ** 2.0 * 4.0  # a_max^{p/2} (4c+1)^{p/2+1} x^p
    assert h_gauge(nl, consts_nl, 2.0) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=1e-6, max_value=50.0),
       q=st.floats(min_value=0.2, max_value=2.5))
def test_h_inverse_round_trip(x, q):
    grid = Grid.uniform(16)
    profile = classify(CoefficientSpec.power_law(0.5), grid)
    source = SourceKind.power(q)
    consts = dataclasses.replace(constants_for(source, profile), c_hp=0.4)
    assert h_inverse(source, consts, h_gauge(source, consts, x)) == pytest.approx(
        x, rel=1e-12)


def test_none_source_degenerate_gauge(profile128):
    source = SourceKind.none()
    consts = dataclasses.replace(constants_for(source, profile128), c_hp=0.4)
    assert h_gauge(source, consts, 3.0) == 0.0
    assert h_inverse(source, consts, 0.5) == math.inf
    assert lipschitz_bound(source, consts, 2.0) == 0.0


# -- embedding constant -------------------------------------------------------------


def test_hardy_poincare_refinement_stability():
    vals = []
    for n in (64, 128):
        grid = Grid.uniform(n)
        profile = classify(CoefficientSpec.power_law(1.0), grid)
        vals.append(hardy_poincare_constant(profile))
    assert abs(vals[1] - vals[0]) <= 0.04 * vals[1]


def test_embedding_inequality_on_samples(grid128, profile128, rng):
    c_hp = hardy_poincare_constant(profile128)
    mass = weighted_mass_diagonal(profile128)
    for _ in range(300):
        u = random_clamped(grid128, rng)
        weighted_sq = float(mass @ (u[1:] * u[1:]))
        curv_sq = curvature_seminorm(grid128, u) ** 2
        # ||u||_2^2 = ||u||_{1/a}^2 + ||u''||^2 <= (4 C_HP + 1) ||u''||^2
        assert weighted_sq + curv_sq <= (4.0 * c_hp + 1.0) * curv_sq * (1 + 1e-12)


def test_hardy_poincare_positive(grid128, profile128):
    assert hardy_poincare_constant(profile128) > 0.0


# -- sampled hypothesis checks --------------------------------------------------------


def test_empirical_lipschitz_bound(grid128, profile128, rng):
    source = SourceKind.power(1.0)
    consts = constants_for(source, profile128)
    r = 1.0
    l_r = lipschitz_bound(source, consts, r)
    for _ in range(300):
        u = random_clamped(grid128, rng, target_seminorm=r * rng.uniform(0.2, 1.0))
        v = random_clamped(grid128, rng, target_seminorm=r * rng.uniform(0.2, 1.0))
        lhs = weighted_l2_norm(eval_f(source, u, grid128) - eval_f(source, v, grid128),
                               profile128)
        du = curvature_seminorm(grid128, u - v)
        assert lhs <= l_r * du * (1 + 1e-9) + 1e-12


def test_sign_growth_bound(grid128, profile128, rng):
    source = SourceKind.power(0.7)
    consts = constants_for(source, profile128)
    for _ in range(300):
        u = random_clamped(grid128, rng, target_seminorm=rng.uniform(0.05, 2.0))
        pairing = weighted_inner(eval_f(source, u, grid128), u, profile128)
        curv = curvature_seminorm(grid128, u)
        assert pairing <= h_gauge(source, consts, curv) * curv ** 2 * (1 + 1e-9)


def test_potential_bound(grid128, profile128, rng):
    # |int F(y)/a| <= (1/2) h(||y''||) ||y''||^2
    for source in (SourceKind.power(1.0), SourceKind.nonlocal_l2(1.0)):
        consts = constants_for(source, profile128)
        for _ in range(200):
            y = random_clamped(grid128, rng, target_seminorm=rng.uniform(0.05, 1.5))
            val = abs(eval_F_functional(source, y, profile128, True))
            curv = curvature_seminorm(grid128, y)
            assert val <= 0.5 * h_gauge(source, consts, curv) * curv ** 2 * (1 + 1e-9)


# -- pointwise embedding ---------------------------------------------------------------


def test_growth_hypothesis_other_kinds_by_sampling(rng):
    # inequality-form check for the seminorms of the other operator kinds:
    # the sampled growth ratio is finite and stable under grid refinement,
    # and the potential bound holds with the sampled gauge constant
    from degenwave import BoundaryParams, OperatorKind, assemble

    source = SourceKind.power(1.0)
    for kind in (OperatorKind.BEAM_DIV, OperatorKind.WAVE_NONDIV,
                 OperatorKind.WAVE_DIV):
        sups = {}
        for n in (64, 128):
            grid = Grid.uniform(n)
            profile = classify(CoefficientSpec.power_law(0.5), grid)
            gen = assemble(kind, profile, BoundaryParams(1.0, 1.0))
            if kind is OperatorKind.BEAM_DIV:
                samples = [random_clamped(grid, rng) for _ in range(150)]
            else:
                samples = [from_face_slopes(grid, rng.standard_normal(n - 1))
                           for _ in range(150)]
            sups[n] = empirical_growth_constant(source, gen, samples)
            # potential bound with the sampled gauge: the ray integration
            # contributes the extra 1/(q+2) <= 1/2 factor
            for u in samples[:50]:
                pot = abs(eval_F_functional(source, u, profile,
                                            gen.kind.weighted_velocity))
                semi = elastic_seminorm(gen, gen.restrict(u))
                assert pot <= 0.5 * sups[n] * semi ** 3.0 * (1 + 1e-6) + 1e-12
        assert 0.0 < sups[128] <= 1.6 * sups[64]


def test_sobolev_bound_trivial_cases(grid128):
    assert sobolev_pointwise_bound_check(np.zeros(grid128.n), grid128)
    assert sobolev_pointwise_bound_check(grid128.nodes ** 2, grid128)


def test_sobolev_bound_random(grid128, rng):
    for _ in range(200):
        u = random_clamped(grid128, rng)
        assert sobolev_pointwise_bound_check(u, grid128)


def test_source_kind_validation():
    with pytest.raises(ValueError):
        SourceKind.power(0.0)
    with pytest.raises(ValueError):
        SourceKind.nonlocal_l2(0.5)
