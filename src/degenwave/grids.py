"""Uniform grids on [0, 1] and the quadrature weights used throughout."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarseError

#: minimum node count so that every stencil in the package fits
MIN_NODES = 8

_UNIFORMITY_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform node set x_0 = 0 < x_1 < ... < x_{n-1} = 1."""

    n: int
    nodes: np.ndarray = field(repr=False)
    h: float

    def __post_init__(self):
        if self.n < MIN_NODES:
            raise GridTooCoarseError(f"need at least {MIN_NODES} nodes, got {self.n}")
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.shape != (self.n,):
            raise ValueError("nodes/n mismatch")
        if abs(nodes[0]) > _UNIFORMITY_TOL or abs(nodes[-1] - 1.0) > _UNIFORMITY_TOL:
            raise ValueError("grid must span exactly [0, 1]")
        spacings = np.diff(nodes)
        if np.max(np.abs(spacings - self.h)) > _UNIFORMITY_TOL:
            raise ValueError("grid must be uniform to 1e-14")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, n: int) -> "Grid":
        if n < MIN_NODES:
            raise GridTooCoarseError(f"need at least {MIN_NODES} nodes, got {n}")
        h = 1.0 / (n - 1)
        return cls(n=n, nodes=np.linspace(0.0, 1.0, n), h=h)

    @property
    def midpoints(self) -> np.ndarray:
        """Cell midpoints x_{j+1/2}, j = 0..n-2."""
        return self.nodes[:-1] + 0.5 * self.h

    def trapezoid_weights(self) -> np.ndarray:
        """Composite trapezoid weights (h/2, h, ..., h, h/2)."""
        w = np.full(self.n, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w

    def trapezoid(self, values: np.ndarray):
        """Composite trapezoid of nodal values over [0, 1]: a float, or an
        array over a stack of nodal functions along the last axis."""
        out = np.asarray(values, dtype=float) @ self.trapezoid_weights()
        return out if out.ndim else float(out)
