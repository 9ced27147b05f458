"""Degenerate stiffness coefficients a(x) on [0, 1] and their classification.

A coefficient is admissible when a(0) = 0 and a > 0 on (0, 1].  The degeneracy
measure

    K = sup_{x in (0,1]} x |a'(x)| / a(x)

splits admissible coefficients into the weakly degenerate class (WD, K < 1)
and the strongly degenerate class (SD, 1 <= K < 2).  K >= 2 is rejected.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import KOutOfRangeError, NonDegenerateError, NotPositiveError
from .grids import Grid

WEAKLY_DEGENERATE = "WD"
STRONGLY_DEGENERATE = "SD"

#: grid-sampled positivity / vanishing tolerance
ADMISSIBILITY_TOL = 1e-12

#: snap-to-1 tolerance for analytic-derivative specs (sup attained as x -> 0+)
_SNAP_TOL_ANALYTIC = 1e-6


@dataclass(frozen=True, eq=False)
class CoefficientSpec:
    """One of three coefficient descriptions: power law, table, or callable."""

    kind: str  # "power" | "tabulated" | "closed_form"
    alpha: Optional[float] = None
    xs: Optional[np.ndarray] = field(default=None, repr=False)
    values: Optional[np.ndarray] = field(default=None, repr=False)
    func: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    dfunc: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)

    @classmethod
    def power_law(cls, alpha: float) -> "CoefficientSpec":
        if not alpha > 0:
            raise ValueError("power-law exponent must be positive")
        return cls(kind="power", alpha=float(alpha))

    @classmethod
    def tabulated(cls, xs, values) -> "CoefficientSpec":
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 3:
            raise ValueError("tabulated spec needs matching 1-d arrays, >= 3 samples")
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
        xs, values = read_two_column_csv(path)
        if xs.size < 3:
            raise ValueError(f"{path}: need at least 3 data rows")
        return cls.tabulated(xs, values)

    @classmethod
    def closed_form(cls, func, dfunc=None) -> "CoefficientSpec":
        return cls(kind="closed_form", func=func, dfunc=dfunc)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return np.power(x, self.alpha)
        if self.kind == "tabulated":
            return np.interp(x, self.xs, self.values)
        return np.asarray(self.func(x), dtype=float)

    def derivative(self, x) -> np.ndarray:
        """a'(x); analytic where available, else a central difference."""
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return self.alpha * np.power(x, self.alpha - 1.0)
        if self.kind == "closed_form":
            if self.dfunc is not None:
                return np.asarray(self.dfunc(x), dtype=float)
            step = np.maximum(1e-7 * np.maximum(x, 1.0), 1e-9)
            step = np.minimum(step, x / 2.0 + 1e-30)  # stay inside (0, 1]
            return (self(x + step) - self(x - step)) / (2.0 * step)
        raise ValueError("tabulated specs differentiate on a grid; use classify()")

    @property
    def has_analytic_derivative(self) -> bool:
        return self.kind in ("power", "closed_form")


@dataclass(frozen=True, eq=False)
class CoefficientProfile:
    """An admissible coefficient sampled on a grid, with its class."""

    spec: CoefficientSpec
    grid: Grid
    grid_values: np.ndarray = field(repr=False)
    K: float
    degeneracy_class: str  # WD | SD

    @property
    def is_weakly_degenerate(self) -> bool:
        return self.degeneracy_class == WEAKLY_DEGENERATE

    def value_at(self, x) -> np.ndarray:
        """a at arbitrary points (used for cell-face values)."""
        return self.spec(x)

    @property
    def a_max(self) -> float:
        """max of a over [0, 1] (grid and midpoint sampled)."""
        mids = self.spec(self.grid.midpoints)
        return float(max(np.max(self.grid_values), np.max(mids)))


def read_two_column_csv(path):
    """(first, second) column arrays of a two-column numeric CSV.

    Blank rows and rows whose first two cells are not both numbers (headers,
    comments) are skipped; a numeric row with a single column raises
    ValueError.  Callers set their own minimum row count.
    """
    first, second = [], []
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if not "".join(row).strip():
                continue
            try:
                cells = [float(cell) for cell in row[:2]]
            except ValueError:
                continue  # header or comment row
            if len(cells) < 2:
                raise ValueError(f"{path}: line {line} has one column, need two")
            first.append(cells[0])
            second.append(cells[1])
    return np.asarray(first), np.asarray(second)


def _grid_sup_ratio(spec: CoefficientSpec, grid: Grid) -> float:
    """Grid-sampled sup of x|a'|/a over interior points.

    For analytic-derivative specs the sample set is augmented with a geometric
    refinement toward x = 0, where the sup is frequently attained only in the
    limit.  Tabulated data stays on the grid (centered differences).
    """
    nodes = grid.nodes
    if spec.kind == "tabulated":
        a = spec(nodes)
        interior = np.arange(1, grid.n - 1)
        da = (a[interior + 1] - a[interior - 1]) / (2.0 * grid.h)
        ratios = nodes[interior] * np.abs(da) / a[interior]
        return float(np.max(ratios))
    pts = nodes[1:-1]
    tail = grid.h * np.power(2.0, -np.arange(1, 41, dtype=float))
    pts = np.concatenate([pts, tail, [1.0]])
    ratios = pts * np.abs(spec.derivative(pts)) / spec(pts)
    return float(np.max(ratios[np.isfinite(ratios)]))


def classify(spec: CoefficientSpec, grid: Grid) -> CoefficientProfile:
    """Validate admissibility, compute K, and assign the WD/SD class.

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

    k_raw = _grid_sup_ratio(spec, grid)
    snap_tol = _SNAP_TOL_ANALYTIC if spec.has_analytic_derivative else 2.0 * grid.h
    k = 1.0 if (1.0 - snap_tol) <= k_raw < 1.0 else k_raw
    if k >= 2.0:
        raise KOutOfRangeError(f"K = {k:.4f} >= 2 is not supported")
    cls = WEAKLY_DEGENERATE if k < 1.0 else STRONGLY_DEGENERATE
    return CoefficientProfile(spec=spec, grid=grid, grid_values=values, K=k,
                              degeneracy_class=cls)
