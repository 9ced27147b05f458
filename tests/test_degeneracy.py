import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenwave import (CoefficientSpec, Grid, KernelSpec, KOutOfRangeError,
                       NonDegenerateError, NotPositiveError, classify)
from degenwave.degeneracy import _grid_sup_ratio, read_csv_columns


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
    x = grid.nodes
    prof = classify(CoefficientSpec.tabulated(x, x * (2.0 - x)), grid)
    assert prof.K == 1.0
    assert prof.degeneracy_class == "SD"


@pytest.mark.parametrize("alpha, cls", [(0.3, "WD"), (0.5, "WD"), (1.0 - 1e-7, "WD"),
                                        (1.0, "SD"), (1.5, "SD"), (1.9, "SD")])
def test_power_law_k_is_alpha_exactly(grid64, alpha, cls):
    # no sampling and no snap: just below 1 stays weakly degenerate
    prof = classify(CoefficientSpec.power_law(alpha), grid64)
    assert prof.K == alpha
    assert prof.degeneracy_class == cls


def test_k_at_least_two_rejected(grid64):
    with pytest.raises(KOutOfRangeError):
        classify(CoefficientSpec.power_law(2.5), grid64)


def test_non_vanishing_coefficient_rejected(grid64):
    spec = CoefficientSpec.tabulated(grid64.nodes, grid64.nodes + 1.0)
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


def _row_by_row_columns(path, count):
    """Reference reader: one csv row and one Python float per cell."""
    rows = []
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if not "".join(row).strip():
                continue
            try:
                cells = [float(cell) for cell in row[:count]]
            except ValueError:
                continue
            if len(cells) < count:
                raise ValueError(f"{path}: line {line} has {len(cells)} columns")
            rows.append(cells)
    return tuple(np.array(rows, dtype=float).reshape(-1, count).T)


def test_read_csv_columns_matches_row_by_row_reference(tmp_path, rng):
    # plain rows mixed with the rows the bulk parse rejects: headers, comments,
    # blank and whitespace rows, quoted cells, underscores, CRLF endings
    lines = [f"{x!r},{y!r},{z!r}" for x, y, z in rng.standard_normal((1000, 3)).tolist()]
    lines[0:0] = ["x,y0,y1", "# comment"]
    lines[37] = '"0.25","1e-3",7'
    lines[400] = "1_000,2,3,extra"
    lines[401] = ""
    lines[402] = "   "
    lines[777] = "nan,inf,-Infinity\r"
    lines[900] = "4,5,6 # trailing comment"
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join(lines) + "\n")
    got = read_csv_columns(path, 3)
    want = _row_by_row_columns(path, 3)
    assert len(got) == 3 and got[0].size == want[0].size == 997
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    lines[700] = "0.5,0.25"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 701 has 2 columns, need 3"):
        read_csv_columns(path, 3)


def test_power_law_requires_positive_exponent():
    with pytest.raises(ValueError):
        CoefficientSpec.power_law(-0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tabulated_coefficient_rejects_non_finite_entries(bad):
    xs, values = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5) ** 0.5
    values[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        CoefficientSpec.tabulated(xs, values)
    xs[4] = bad
    with pytest.raises(ValueError):
        CoefficientSpec.tabulated(xs, np.linspace(0.0, 1.0, 5))


def test_table_constructors_copy_the_callers_arrays():
    xs, values = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5) ** 0.5
    times, gains = np.array([0.0, 0.5]), np.array([0.3, 0.1])
    coefficient = CoefficientSpec.tabulated(xs, values)
    kernel = KernelSpec.tabulated(times, gains, tau=1.0)
    for arr in (xs, values, times, gains):
        assert arr.flags.writeable
        arr[:] = 7.0
    assert np.array_equal(coefficient.xs, np.linspace(0.0, 1.0, 5))
    assert np.array_equal(coefficient.values, np.linspace(0.0, 1.0, 5) ** 0.5)
    assert np.array_equal(kernel.times, [0.0, 0.5])
    assert np.array_equal(kernel.values, [0.3, 0.1])
    assert not coefficient.xs.flags.writeable and not kernel.values.flags.writeable
