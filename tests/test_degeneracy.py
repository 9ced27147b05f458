import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenwave import (CoefficientSpec, Grid, KOutOfRangeError, NonDegenerateError,
                       NotPositiveError, classify)
from degenwave.degeneracy import _grid_sup_ratio


def test_power_half_is_weakly_degenerate(grid64):
    prof = classify(CoefficientSpec.power_law(0.5), grid64)
    assert abs(prof.K - 0.5) <= 1e-12
    assert prof.degeneracy_class == "WD"


def test_power_three_halves_is_strongly_degenerate(grid64):
    prof = classify(CoefficientSpec.power_law(1.5), grid64)
    assert abs(prof.K - 1.5) <= 1e-12
    assert prof.degeneracy_class == "SD"


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.05, max_value=1.95),
       n=st.sampled_from([8, 33, 100]))
def test_power_law_k_equals_alpha_on_any_grid(alpha, n):
    prof = classify(CoefficientSpec.power_law(alpha), Grid.uniform(n))
    assert abs(prof.K - alpha) <= 1e-12


def test_parabolic_coefficient_snaps_to_sd():
    # a = x(2-x): the sup of x|a'|/a is attained only as x -> 0+
    grid = Grid.uniform(256)
    spec = CoefficientSpec.closed_form(lambda x: x * (2.0 - x),
                                       dfunc=lambda x: 2.0 - 2.0 * x)
    prof = classify(spec, grid)
    assert prof.K == 1.0
    assert prof.degeneracy_class == "SD"


def test_k_at_least_two_rejected(grid64):
    with pytest.raises(KOutOfRangeError):
        classify(CoefficientSpec.power_law(2.5), grid64)


def test_non_vanishing_coefficient_rejected(grid64):
    spec = CoefficientSpec.closed_form(lambda x: x + 1.0)
    with pytest.raises(NonDegenerateError):
        classify(spec, grid64)


def test_nonpositive_coefficient_rejected(grid64):
    xs = np.linspace(0.0, 1.0, 11)
    values = xs.copy()
    values[5] = -0.1
    with pytest.raises(NotPositiveError):
        classify(CoefficientSpec.tabulated(xs, values), grid64)


def test_tabulated_refinement_is_monotone():
    xs = np.linspace(0.0, 1.0, 1025)
    spec = CoefficientSpec.tabulated(xs, xs * (2.0 - xs))
    sups = [_grid_sup_ratio(spec, Grid.uniform(n)) for n in (17, 33, 65, 129)]
    assert all(b >= a - 1e-14 for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 1.0


def test_profile_values_positive_off_origin(grid64, wd_profile48):
    prof = classify(CoefficientSpec.power_law(0.7), grid64)
    assert prof.grid_values[0] == 0.0
    assert np.all(prof.grid_values[1:] > 0.0)
    assert prof.a_max == pytest.approx(1.0)


def test_csv_round_trip(tmp_path, grid64):
    xs = np.linspace(0.0, 1.0, 129)
    values = xs ** 0.8
    path = tmp_path / "coef.csv"
    with open(path, "w") as fh:
        fh.write("x,a\n")
        for x, v in zip(xs, values):
            fh.write(f"{x:.17g},{v:.17g}\n")
    spec = CoefficientSpec.from_csv(path)
    prof = classify(spec, grid64)
    direct = classify(CoefficientSpec.tabulated(xs, values), grid64)
    assert prof.K == pytest.approx(direct.K, rel=1e-12)
    assert prof.degeneracy_class == direct.degeneracy_class


def test_csv_one_column_row_and_short_table_rejected(tmp_path):
    path = tmp_path / "coef.csv"
    path.write_text("x,a\n0.0,0.0\n0.5\n1.0,1.0\n")
    with pytest.raises(ValueError, match="line 3"):
        CoefficientSpec.from_csv(path)
    path.write_text("x,a\n0.0,0.0\n1.0,1.0\n")
    with pytest.raises(ValueError, match="at least 3"):
        CoefficientSpec.from_csv(path)


def test_power_law_requires_positive_exponent():
    with pytest.raises(ValueError):
        CoefficientSpec.power_law(-0.5)
