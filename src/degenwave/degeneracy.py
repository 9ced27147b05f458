"""Degenerate stiffness coefficients a(x) on [0, 1] and their classification.

A coefficient is admissible when a(0) = 0 and a > 0 on (0, 1].  The degeneracy
measure

    K = sup_{x in (0,1]} x |a'(x)| / a(x)

splits admissible coefficients into the weakly degenerate class (WD, K < 1)
and the strongly degenerate class (SD, 1 <= K < 2).  K >= 2 is rejected.

A coefficient is a power law a = x^alpha, whose K is alpha exactly, or a
table read by linear interpolation, whose K is taken on the grid.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import KOutOfRangeError, NonDegenerateError, NotPositiveError
from .grids import Grid

WEAKLY_DEGENERATE = "WD"
STRONGLY_DEGENERATE = "SD"

#: grid-sampled positivity / vanishing tolerance
ADMISSIBILITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CoefficientSpec:
    """A power law x^alpha, or a table (xs, values) read by linear interpolation.

    The table holds its own read-only copies of the arrays it was given.
    """

    kind: str  # "power" | "tabulated"
    alpha: Optional[float] = None
    xs: Optional[np.ndarray] = field(default=None, repr=False)
    values: Optional[np.ndarray] = field(default=None, repr=False)

    @classmethod
    def power_law(cls, alpha: float) -> "CoefficientSpec":
        if not alpha > 0:
            raise ValueError("power-law exponent must be positive")
        return cls(kind="power", alpha=float(alpha))

    @classmethod
    def tabulated(cls, xs, values) -> "CoefficientSpec":
        xs = np.array(xs, dtype=float)
        values = np.array(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 3:
            raise ValueError("tabulated spec needs matching 1-d arrays, >= 3 samples")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(values))):
            raise ValueError("coefficient table contains non-finite entries")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("tabulated x must be strictly ascending")
        if abs(xs[0]) > ADMISSIBILITY_TOL:
            raise ValueError("tabulated samples must start at x = 0")
        xs.setflags(write=False)
        values.setflags(write=False)
        return cls(kind="tabulated", xs=xs, values=values)

    @classmethod
    def from_csv(cls, path) -> "CoefficientSpec":
        """Two-column CSV (x, a(x)); header row optional; x ascending from 0."""
        xs, values = read_csv_columns(path, 2)
        if xs.size < 3:
            raise ValueError(f"{path}: need at least 3 data rows")
        return cls.tabulated(xs, values)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return np.power(x, self.alpha)
        return np.interp(x, self.xs, self.values)


@dataclass(frozen=True, eq=False)
class CoefficientProfile:
    """An admissible coefficient sampled on a grid, with its degeneracy
    measure K; the class is WD for K < 1 and SD otherwise."""

    spec: CoefficientSpec
    grid: Grid
    grid_values: np.ndarray = field(repr=False)
    K: float

    @property
    def degeneracy_class(self) -> str:
        return WEAKLY_DEGENERATE if self.K < 1.0 else STRONGLY_DEGENERATE

    @property
    def is_weakly_degenerate(self) -> bool:
        return self.degeneracy_class == WEAKLY_DEGENERATE

    @property
    def a_max(self) -> float:
        """max of a over [0, 1] (grid and midpoint sampled)."""
        mids = self.spec(self.grid.midpoints)
        return float(max(np.max(self.grid_values), np.max(mids)))


def read_csv_columns(path, count: int):
    """The first `count` columns of a numeric CSV, one array each.

    Blank rows and rows whose first `count` cells are not all numbers
    (headers, comments) are skipped; a numeric row with fewer than `count`
    cells raises ValueError naming its line.  Callers set their own minimum
    row count.  The rows are parsed in one `np.loadtxt` call; a block of rows
    that call rejects is halved until each rejected row is read on its own,
    so a header or a comment costs O(log rows) further calls.
    """
    with open(path, newline="") as fh:
        lines = fh.readlines()
    return tuple(_parse_rows(path, lines, 1, count).T)


def _parse_rows(path, lines, first: int, count: int) -> np.ndarray:
    """The numeric rows of `lines`, which start at line `first`, as a
    (rows, count) array."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block of blank rows
        try:
            return np.loadtxt(lines, delimiter=",", usecols=range(count), comments=None,
                              ndmin=2)
        except ValueError:
            pass
    if len(lines) > 1:
        mid = len(lines) // 2
        return np.concatenate((_parse_rows(path, lines[:mid], first, count),
                               _parse_rows(path, lines[mid:], first + mid, count)))
    row = next(csv.reader(lines), [])
    try:
        cells = [float(cell) for cell in row[:count]]
    except ValueError:
        cells = []  # header or comment row
    if 0 < len(cells) < count:
        have = "one column" if len(cells) == 1 else f"{len(cells)} columns"
        raise ValueError(f"{path}: line {first} has {have}, need {count}")
    return np.array(cells, dtype=float).reshape(-1, count)


def _grid_sup_ratio(spec: CoefficientSpec, grid: Grid) -> float:
    """sup of x|a'|/a over the interior grid nodes, a' by centered differences."""
    nodes = grid.nodes
    a = spec(nodes)
    interior = np.arange(1, grid.n - 1)
    da = (a[interior + 1] - a[interior - 1]) / (2.0 * grid.h)
    ratios = nodes[interior] * np.abs(da) / a[interior]
    return float(np.max(ratios))


def classify(spec: CoefficientSpec, grid: Grid) -> CoefficientProfile:
    """Validate admissibility, compute K, and assign the WD/SD class.

    A power law has K = alpha.  A table's grid sup is snapped to K = 1 when it
    lies within 2h below 1, since its sup is often attained only as x -> 0+.
    Raises NonDegenerateError (a(0) != 0), NotPositiveError (a <= 0 somewhere
    on the grid in (0, 1]) or KOutOfRangeError (K >= 2, unsupported).
    """
    values = np.asarray(spec(grid.nodes), dtype=float)
    if abs(values[0]) > ADMISSIBILITY_TOL:
        raise NonDegenerateError(f"a(0) = {values[0]:.3e}, expected 0")
    if np.any(values[1:] <= ADMISSIBILITY_TOL):
        worst = grid.nodes[1:][np.argmin(values[1:])]
        raise NotPositiveError(f"a(x) <= {ADMISSIBILITY_TOL} near x = {worst:.4f}")
    values = values.copy()
    values[0] = 0.0
    values.setflags(write=False)

    if spec.kind == "power":
        k = spec.alpha
    else:
        k = _grid_sup_ratio(spec, grid)
        k = 1.0 if (1.0 - 2.0 * grid.h) <= k < 1.0 else k
    if k >= 2.0:
        raise KOutOfRangeError(f"K = {k:.4f} >= 2 is not supported")
    return CoefficientProfile(spec=spec, grid=grid, grid_values=values, K=k)
