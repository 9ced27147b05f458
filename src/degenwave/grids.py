"""Uniform grids on [0, 1] and the quadrature weights used throughout."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarseError

#: minimum node count so that every stencil in the package fits
MIN_NODES = 8


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform node set x_0 = 0 < x_1 < ... < x_{n-1} = 1 of n nodes."""

    n: int
    nodes: np.ndarray = field(init=False, repr=False)
    h: float = field(init=False)

    def __post_init__(self):
        if self.n < MIN_NODES:
            raise GridTooCoarseError(f"need at least {MIN_NODES} nodes, got {self.n}")
        nodes = np.linspace(0.0, 1.0, self.n)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "h", 1.0 / (self.n - 1))

    @classmethod
    def uniform(cls, n: int) -> "Grid":
        return cls(n=n)

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
        array over a stack of nodal functions along the last axis.  Each
        function is summed on its own, so it gets the same bits in any stack."""
        out = np.sum(np.asarray(values, dtype=float) * self.trapezoid_weights(), axis=-1)
        return out if out.ndim else float(out)
