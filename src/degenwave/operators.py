"""Discrete generators for the four degenerate operators with damped tips.

Each generator realizes the first-order system

    d/dt (u, v) = (v, -M^{-1} K u - M^{-1} D v)

built from three quadratic forms on the free nodal degrees of freedom:

    M  velocity weight   (1/a-weighted for non-divergence kinds),
    K  stiffness         (elastic quadrature + beta/gamma tip traces),
    D  tip damping       (rank <= 2, boundary traces only).

These forms (with the factors C, W, e and g of K and D) are the generator's
only stored representation; the dense 2n x 2n system matrix is built from
them on first use, for the desk-scale oracles.

The construction is variational: K = C^T W C with C the curvature (beams) or
face-gradient (waves) map and W a positive diagonal quadrature, so the energy
E = (1/2)(u^T K u + v^T M v) obeys dE/dt = -v^T D v exactly along the
semi-discrete flow.  Essential conditions at x = 0 are removed by pinning the
node; the clamped-slope condition for beams enters through a mirrored
curvature row at node 0.  The dissipative tip conditions at x = 1 are
realized weakly and appear only in D and in the beta/gamma part of K.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .degeneracy import CoefficientProfile
from .errors import GridTooCoarseError, InconsistentBCError
from .grids import Grid


class OperatorKind(str, Enum):
    BEAM_NONDIV = "beam_nondiv"   # y_tt + a y_xxxx = ...
    BEAM_DIV = "beam_div"         # y_tt + (a y_xx)_xx = ...
    WAVE_NONDIV = "wave_nondiv"   # y_tt - a y_xx = ...
    WAVE_DIV = "wave_div"         # y_tt - (a y_x)_x = ...

    @property
    def is_beam(self) -> bool:
        return self in (OperatorKind.BEAM_NONDIV, OperatorKind.BEAM_DIV)

    @property
    def is_divergence_form(self) -> bool:
        return self in (OperatorKind.BEAM_DIV, OperatorKind.WAVE_DIV)

    @property
    def weighted_velocity(self) -> bool:
        """True when the velocity space carries the 1/a weight."""
        return not self.is_divergence_form


@dataclass(frozen=True)
class BoundaryParams:
    """Tip feedback gains; beta couples y(1), gamma couples y_x(1) (beams)."""

    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("boundary gains must be nonnegative")


def fd_weights(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 (Fornberg)."""
    x = np.asarray(x, dtype=float)
    npts = len(x)
    if npts <= m:
        raise ValueError("need more than m points")
    c = np.zeros((npts, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, npts):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def nodal_derivative(values: np.ndarray, grid: Grid, m: int) -> np.ndarray:
    """m-th derivative at every node, second-order accurate.

    Centered stencils in the interior, one-sided near the boundary.  Used by
    diagnostics only; generators are assembled from the variational forms.
    """
    values = np.asarray(values, dtype=float)
    n = grid.n
    width_c = m + 1 if m % 2 == 0 else m + 2
    width_b = m + 2
    half = width_c // 2
    out = np.empty(n)
    for i in range(n):
        if half <= i <= n - 1 - half:
            lo = i - half
            w = fd_weights(grid.nodes[lo:lo + width_c], grid.nodes[i], m)
            out[i] = w @ values[lo:lo + width_c]
        else:
            lo = 0 if i < half else n - width_b
            w = fd_weights(grid.nodes[lo:lo + width_b], grid.nodes[i], m)
            out[i] = w @ values[lo:lo + width_b]
    return out


def boundary_derivative(values: np.ndarray, grid: Grid, m: int) -> float:
    """m-th derivative at x = 1 by a second-order one-sided stencil."""
    npts = m + 2
    w = fd_weights(grid.nodes[-npts:], 1.0, m)
    return float(w @ np.asarray(values, dtype=float)[-npts:])


def _curvature_rows(grid: Grid, mirror_at_zero: bool):
    """Curvature map rows (full nodal columns) and their quadrature weights.

    Rows: optional mirrored row at node 0 (valid under u(0)=u'(0)=0), centered
    rows at interior nodes, one one-sided row at node n-1.  Weights are the
    trapezoid cell sizes of the row locations.
    """
    n, h = grid.n, grid.h
    rows = []
    weights = []
    locations = []
    if mirror_at_zero:
        r = np.zeros(n)
        r[0] = -2.0 / h**2
        r[1] = 2.0 / h**2
        rows.append(r)
        weights.append(0.5 * h)
        locations.append(0.0)
    for i in range(1, n - 1):
        r = np.zeros(n)
        r[i - 1] = 1.0 / h**2
        r[i] = -2.0 / h**2
        r[i + 1] = 1.0 / h**2
        rows.append(r)
        weights.append(h)
        locations.append(grid.nodes[i])
    r = np.zeros(n)
    r[n - 4:] = fd_weights(grid.nodes[-4:], 1.0, 2)
    rows.append(r)
    weights.append(0.5 * h)
    locations.append(1.0)
    return np.array(rows), np.array(weights), np.array(locations)


def _gradient_rows(grid: Grid):
    """Face-gradient map rows at x_{j+1/2} with midpoint-cell weights."""
    n, h = grid.n, grid.h
    rows = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    rows[idx, idx] = -1.0 / h
    rows[idx, idx + 1] = 1.0 / h
    weights = np.full(n - 1, h)
    return rows, weights, grid.midpoints


def curvature_quadrature(grid: Grid):
    """(rows, weights) realizing the clamped-end curvature seminorm ||u''||.

    The map acts on full nodal vectors of the space {u(0)=0, u'(0)=0}; the
    squared seminorm is sum_k w_k (rows_k . u)^2.  Shared with the module that
    computes the weighted embedding constant.
    """
    rows, weights, _ = _curvature_rows(grid, mirror_at_zero=True)
    return rows, weights


def weighted_mass_diagonal(grid: Grid, profile: CoefficientProfile) -> np.ndarray:
    """Trapezoid weights for the 1/a inner product on free nodes 1..n-1.

    The x = 0 node is excluded (pinned in every 1/a-weighted kind), so 1/a is
    never evaluated at the degeneracy point.
    """
    w = grid.trapezoid_weights()[1:]
    return w / profile.grid_values[1:]


def from_curvature(grid: Grid, curvature: np.ndarray) -> np.ndarray:
    """Nodal u with u(0)=u'(0)=0 whose discrete curvature rows equal the input.

    curvature[k] feeds row k of curvature_quadrature (mirror row, then the
    interior centered rows); the final one-sided row is not prescribed.  Used
    to synthesize elements of the clamped discrete space in tests and checks.
    """
    curvature = np.asarray(curvature, dtype=float)
    n, h = grid.n, grid.h
    if curvature.shape[0] < n - 1:
        raise ValueError("need n-1 curvature values (mirror row + interior rows)")
    slopes = np.empty(n - 1)  # u' at faces j+1/2
    slopes[0] = 0.5 * h * curvature[0]
    for j in range(1, n - 1):
        slopes[j] = slopes[j - 1] + h * curvature[j]
    u = np.zeros(n)
    u[1:] = np.cumsum(h * slopes)
    return u


def from_face_slopes(grid: Grid, slopes: np.ndarray, u0: float = 0.0) -> np.ndarray:
    """Nodal u with prescribed face gradients (u_{j+1}-u_j)/h and u(0)=u0."""
    slopes = np.asarray(slopes, dtype=float)
    if slopes.shape[0] != grid.n - 1:
        raise ValueError("need n-1 face slopes")
    u = np.empty(grid.n)
    u[0] = u0
    u[1:] = u0 + np.cumsum(grid.h * slopes)
    return u


@dataclass(frozen=True, eq=False)
class DiscreteGenerator:
    """Assembled first-order generator for one operator kind."""

    kind: OperatorKind
    profile: CoefficientProfile
    bc: BoundaryParams
    grid: Grid
    free: np.ndarray = field(repr=False)            # retained node indices
    mass: np.ndarray = field(repr=False)            # diagonal of M
    elastic_rows: np.ndarray = field(repr=False)    # C (rows x ndof)
    elastic_weights: np.ndarray = field(repr=False) # w incl. coefficient
    trace_value: np.ndarray = field(repr=False)     # e: u(1) on free dofs
    trace_slope: np.ndarray = field(repr=False)     # g: u'(1) on free dofs
    beta_eff: float                                  # beta (x a(1) for wave_div)
    gamma_eff: float
    damping_value_coeff: float                       # weight of v(1)^2 in D
    damping_slope_coeff: float                       # weight of v'(1)^2 in D
    stiffness_form: np.ndarray = field(repr=False)   # K = C^T W C + tip terms
    damping_form: np.ndarray = field(repr=False)     # D (dense, rank <= 2)

    # -- state plumbing ----------------------------------------------------

    @property
    def ndof(self) -> int:
        return self.free.size

    def embed(self, u_free: np.ndarray) -> np.ndarray:
        """Free-dof vector -> full nodal vector (pinned nodes set to 0)."""
        full = np.zeros(self.grid.n)
        full[self.free] = u_free
        return full

    def restrict(self, u_full: np.ndarray) -> np.ndarray:
        return np.asarray(u_full, dtype=float)[self.free]

    def join(self, u_free, v_free) -> np.ndarray:
        return np.concatenate([u_free, v_free])

    def split(self, state: np.ndarray):
        return state[:self.ndof], state[self.ndof:]

    @cached_property
    def system_matrix(self) -> np.ndarray:
        """A = [[0, I], [-M^{-1} K, -M^{-1} D]], dense 2n x 2n, built on first use."""
        ndof = self.ndof
        system = np.zeros((2 * ndof, 2 * ndof))
        system[:ndof, ndof:] = np.eye(ndof)
        system[ndof:, :ndof] = -(self.stiffness_form / self.mass[:, None])
        system[ndof:, ndof:] = -self.damping_form / self.mass[:, None]
        system.setflags(write=False)
        return system

    # -- quadratic forms -----------------------------------------------------

    def energy_parts(self, state: np.ndarray):
        """(kinetic, elastic, boundary) halves of the squared state norm."""
        u, v = self.split(state)
        kinetic = 0.5 * float(self.mass @ (v * v))
        cu = self.elastic_rows @ u
        elastic = 0.5 * float(self.elastic_weights @ (cu * cu))
        boundary = 0.5 * (self.beta_eff * float(self.trace_value @ u) ** 2
                          + self.gamma_eff * float(self.trace_slope @ u) ** 2)
        return kinetic, elastic, boundary

    def state_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        ua, va = self.split(a)
        ub, vb = self.split(b)
        val = float((self.elastic_rows @ ua) * self.elastic_weights
                    @ (self.elastic_rows @ ub))
        val += self.beta_eff * float(self.trace_value @ ua) * float(self.trace_value @ ub)
        val += self.gamma_eff * float(self.trace_slope @ ua) * float(self.trace_slope @ ub)
        val += float(self.mass @ (va * vb))
        return val

    def state_norm(self, state: np.ndarray) -> float:
        k, e, b = self.energy_parts(state)
        return float(np.sqrt(2.0 * (k + e + b)))

    def quadratic_form(self, state: np.ndarray) -> float:
        """<A Y, Y> in the state inner product (nonpositive for every Y)."""
        return self.state_inner(self.system_matrix @ state, state)

    def boundary_damping_rate(self, state: np.ndarray) -> float:
        """v^T D v: the exact discrete energy dissipation rate -dE/dt."""
        _, v = self.split(state)
        rate = self.damping_value_coeff * float(self.trace_value @ v) ** 2
        rate += self.damping_slope_coeff * float(self.trace_slope @ v) ** 2
        return rate

    def elastic_seminorm(self, u_free: np.ndarray) -> float:
        """Kind-appropriate seminorm: ||u''||, ||sqrt(a)u''||, ||u'||, ||sqrt(a)u'||."""
        cu = self.elastic_rows @ u_free
        return float(np.sqrt(self.elastic_weights @ (cu * cu)))

    def tip_traces(self, state: np.ndarray):
        """(y(1), y'(1), y_t(1), y_t'(1)) boundary traces of the state."""
        u, v = self.split(state)
        return (float(self.trace_value @ u), float(self.trace_slope @ u),
                float(self.trace_value @ v), float(self.trace_slope @ v))

    def dump_system(self, target) -> None:
        """Matrix-market dump of the 2n x 2n system matrix (debug aid)."""
        from scipy.io import mmwrite

        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            with open(target, "wb") as fh:
                mmwrite(fh, self.system_matrix)
        else:
            buf = io.BytesIO()
            mmwrite(buf, self.system_matrix)
            target.write(buf.getvalue().decode())


def _stability_requirements(kind: OperatorKind, profile: CoefficientProfile,
                            bc: BoundaryParams) -> None:
    sd = not profile.is_weakly_degenerate
    if kind is OperatorKind.BEAM_DIV and sd and (bc.beta <= 0 or bc.gamma <= 0):
        raise InconsistentBCError(
            "beam_div with a strongly degenerate coefficient needs beta > 0 and gamma > 0")
    if kind is OperatorKind.WAVE_DIV and bc.beta <= 0:
        raise InconsistentBCError("wave_div needs beta > 0")


def assemble(kind: OperatorKind, profile: CoefficientProfile, bc: BoundaryParams,
             grid: Grid) -> DiscreteGenerator:
    """Build the discrete generator for (kind, coefficient class, gains)."""
    kind = OperatorKind(kind)
    if not np.array_equal(grid.nodes, profile.grid.nodes):
        raise ValueError("profile was classified on a different grid")
    if grid.n < 8:
        raise GridTooCoarseError("need at least 8 nodes")
    _stability_requirements(kind, profile, bc)

    n, h = grid.n, grid.h
    a_nodes = profile.grid_values
    a_right = float(a_nodes[-1])
    wd = profile.is_weakly_degenerate

    if kind.is_beam:
        mirror = (kind is OperatorKind.BEAM_NONDIV) or wd
        rows, wts, locs = _curvature_rows(grid, mirror_at_zero=mirror)
        if kind is OperatorKind.BEAM_DIV:
            coef = profile.value_at(np.where(locs == 0.0, 0.5 * h, locs))
        else:
            coef = np.ones_like(wts)
        free = np.arange(1, n)
    else:
        rows, wts, locs = _gradient_rows(grid)
        coef = profile.value_at(locs) if kind is OperatorKind.WAVE_DIV else np.ones_like(wts)
        if kind is OperatorKind.WAVE_DIV and not wd:
            free = np.arange(0, n)  # zero-flux condition at x = 0 is natural
        else:
            free = np.arange(1, n)

    rows_free = rows[:, free]
    weights = wts * coef

    e = np.zeros(n)
    e[-1] = 1.0
    g = np.zeros(n)
    g[-3:] = fd_weights(grid.nodes[-3:], 1.0, 1)
    e_free = e[free]
    g_free = g[free]

    if kind is OperatorKind.WAVE_DIV:
        beta_eff, gamma_eff = bc.beta * a_right, 0.0
        d_value, d_slope = a_right, 0.0
    elif kind is OperatorKind.WAVE_NONDIV:
        beta_eff, gamma_eff = bc.beta, 0.0
        d_value, d_slope = 1.0, 0.0
    else:
        beta_eff, gamma_eff = bc.beta, bc.gamma
        d_value, d_slope = 1.0, 1.0

    stiffness = rows_free.T @ (weights[:, None] * rows_free)
    stiffness += beta_eff * np.outer(e_free, e_free)
    if gamma_eff:
        stiffness += gamma_eff * np.outer(g_free, g_free)
    damping = d_value * np.outer(e_free, e_free)
    if d_slope:
        damping += d_slope * np.outer(g_free, g_free)

    if kind.weighted_velocity:
        mass = weighted_mass_diagonal(grid, profile)
    else:
        mass = grid.trapezoid_weights()[free]

    for arr in (free, mass, rows_free, weights, e_free, g_free, stiffness, damping):
        arr.setflags(write=False)
    return DiscreteGenerator(
        kind=kind, profile=profile, bc=bc, grid=grid, free=free, mass=mass,
        elastic_rows=rows_free, elastic_weights=weights, trace_value=e_free,
        trace_slope=g_free, beta_eff=beta_eff, gamma_eff=gamma_eff,
        damping_value_coeff=d_value, damping_slope_coeff=d_slope,
        stiffness_form=stiffness, damping_form=damping)


def gauss_green_residual(generator: DiscreteGenerator, u_full: np.ndarray,
                         v_full: np.ndarray) -> float:
    """Mismatch of the discrete integration-by-parts identity on (u, v).

    Both arguments are full nodal vectors of functions satisfying the x = 0
    conditions of the generator's kind.  Everything here is second-order
    machinery independent of the assembled forms, so the residual measures
    stencil/quadrature consistency and must shrink like h^2 on smooth data.
    """
    grid = generator.grid
    u = np.asarray(u_full, dtype=float)
    v = np.asarray(v_full, dtype=float)
    a = generator.profile.grid_values
    kind = generator.kind

    if kind is OperatorKind.BEAM_NONDIV:
        lhs = grid.trapezoid(nodal_derivative(u, grid, 4) * v)
        d2u = nodal_derivative(u, grid, 2)
        d2v = nodal_derivative(v, grid, 2)
        rhs = (boundary_derivative(u, grid, 3) * v[-1]
               - boundary_derivative(u, grid, 2) * boundary_derivative(v, grid, 1)
               + grid.trapezoid(d2u * d2v))
        return abs(lhs - rhs)
    if kind is OperatorKind.BEAM_DIV:
        w = a * nodal_derivative(u, grid, 2)
        lhs = grid.trapezoid(nodal_derivative(w, grid, 2) * v)
        rhs = (boundary_derivative(w, grid, 1) * v[-1]
               - w[-1] * boundary_derivative(v, grid, 1)
               + grid.trapezoid(w * nodal_derivative(v, grid, 2)))
        return abs(lhs - rhs)
    if kind is OperatorKind.WAVE_NONDIV:
        lhs = grid.trapezoid(nodal_derivative(u, grid, 2) * v)
        rhs = (boundary_derivative(u, grid, 1) * v[-1]
               - grid.trapezoid(nodal_derivative(u, grid, 1)
                                * nodal_derivative(v, grid, 1)))
        return abs(lhs - rhs)
    flux = a * nodal_derivative(u, grid, 1)
    lhs = grid.trapezoid(nodal_derivative(flux, grid, 1) * v)
    rhs = (flux[-1] * v[-1]
           - grid.trapezoid(flux * nodal_derivative(v, grid, 1)))
    return abs(lhs - rhs)
