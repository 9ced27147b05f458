"""Discrete generators for the four degenerate operators with damped tips.

Each generator realizes the first-order system

    d/dt (u, v) = (v, -M^{-1} K u - M^{-1} D v)

built from three quadratic forms on the free nodal degrees of freedom:

    M  velocity weight   (1/a-weighted for non-divergence kinds),
    K  stiffness         (elastic quadrature + beta/gamma tip traces),
    D  tip damping       D = d_e e e^T + d_g g g^T, rank <= 2.

M is stored as its diagonal; C, the curvature (beams) or face-gradient
(waves) map, in LAPACK general band storage with its weights W; K only as
its upper bands (the dpbtrf layout); and D only as its tip traces e, g and
weights d_e, d_g: v^T D v = d_e (e.v)^2 + d_g (g.v)^2.  Products with C and
K are BLAS band products.  Dense K and D are expanded only for the step
factor, the closed-form state-norm generator `state_norm_generator` and the
dense 2n x 2n system matrix, built on first use for the desk-scale oracles.

The construction is variational: K = C^T W C + beta e e^T + gamma g g^T with
W a nonnegative diagonal quadrature, so the energy E = (1/2)(u^T K u +
v^T M v) obeys dE/dt = -v^T D v exactly along the semi-discrete flow.
Pinning node 0 removes the essential conditions at x = 0 and column 0 of C;
the clamped-slope condition for beams enters through a mirrored curvature
row at node 0, weighted 0 in the kinds without it.  The dissipative tip
conditions at x = 1 are realized weakly and appear only in D and in the
beta/gamma part of K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dgbmv, dsbmv

from .degeneracy import CoefficientProfile
from .errors import DegenwaveError, InconsistentBCError
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


def curvature_map(grid: Grid):
    """(ab, kl, ku, weights): the curvature map on full nodal vectors.

    One row per node, in LAPACK general band storage ab[ku + i - j, j] = C[i, j]
    (Fortran order): the mirrored row at node 0 (valid under u(0) = u'(0) = 0),
    centered rows at interior nodes and one one-sided row at node n-1.  The
    quadrature weights are the trapezoid weights of the nodes, so the squared
    clamped-end seminorm ||u''||^2 is sum_i w_i (C u)_i^2.
    """
    n, h = grid.n, grid.h
    kl, ku = 3, 1
    ab = np.zeros((kl + ku + 1, n), order="F")
    ab[ku - 1, 1:] = 1.0 / h**2  # C[i, i+1]
    ab[ku, :] = -2.0 / h**2  # C[i, i]
    ab[ku + 1, :-1] = 1.0 / h**2  # C[i+1, i]
    ab[ku - 1, 1] = 2.0 / h**2  # mirrored row 0: 2 (u_1 - u_0) / h^2
    # one-sided row n-1 on the last four nodes, C[n-1, n-4+k] at ab[ku + 3 - k, n-4+k]
    ab[ku + np.arange(3, -1, -1), np.arange(n - 4, n)] = fd_weights(grid.nodes[-4:], 1.0, 2)
    return ab, kl, ku, grid.trapezoid_weights()


def gradient_map(grid: Grid):
    """(ab, kl, ku, weights): the face-gradient map, rows at x_{j+1/2}, in
    general band storage as `curvature_map`, with midpoint-cell weights."""
    n, h = grid.n, grid.h
    ab = np.zeros((2, n), order="F")
    ab[0, 1:] = 1.0 / h  # C[j, j+1]
    ab[1, :-1] = -1.0 / h  # C[j, j]
    return ab, 0, 1, np.full(n - 1, h)


def weighted_mass_diagonal(grid: Grid, profile: CoefficientProfile) -> np.ndarray:
    """Trapezoid weights for the 1/a inner product on free nodes 1..n-1.

    The x = 0 node is excluded (pinned in every 1/a-weighted kind), so 1/a is
    never evaluated at the degeneracy point.
    """
    w = grid.trapezoid_weights()[1:]
    return w / profile.grid_values[1:]


@dataclass(frozen=True, eq=False)
class DiscreteGenerator:
    """Assembled first-order generator for one operator kind."""

    kind: OperatorKind
    profile: CoefficientProfile
    grid: Grid
    free: np.ndarray = field(repr=False)            # retained node indices
    mass: np.ndarray = field(repr=False)            # diagonal of M
    elastic_bands: np.ndarray = field(repr=False)   # C (rows x ndof), general band storage
    elastic_offsets: tuple                           # (kl, ku) of C
    elastic_weights: np.ndarray = field(repr=False) # w incl. coefficient, one per row
    trace_value: np.ndarray = field(repr=False)     # e: u(1) on free dofs
    trace_slope: np.ndarray = field(repr=False)     # g: u'(1) on free dofs
    beta_eff: float                                  # beta (x a(1) for wave_div)
    gamma_eff: float
    damping_value_coeff: float                       # d_e: weight of v(1)^2 in D
    damping_slope_coeff: float                       # d_g: weight of v'(1)^2 in D
    stiffness_bands: np.ndarray = field(repr=False)  # K = C^T W C + tip terms, upper bands

    # -- state plumbing ----------------------------------------------------

    @property
    def ndof(self) -> int:
        return self.free.size

    def embed(self, u_free: np.ndarray) -> np.ndarray:
        """Free-dof vector -> full nodal vector (pinned nodes set to 0), also
        for a stack of them along the last axis."""
        full = np.zeros(np.shape(u_free)[:-1] + (self.grid.n,))
        full[..., self.free] = u_free
        return full

    def restrict(self, u_full: np.ndarray) -> np.ndarray:
        return np.asarray(u_full, dtype=float)[self.free]

    def join(self, u_free, v_free) -> np.ndarray:
        return np.concatenate([u_free, v_free])

    def split(self, state: np.ndarray):
        """(u, v) of one state, or of a stack of states along the last axis."""
        return state[..., :self.ndof], state[..., self.ndof:]

    @property
    def stiffness_form(self) -> np.ndarray:
        """K, dense and symmetric, expanded from its bands on each access."""
        kd = self.stiffness_bands.shape[0] - 1
        dense = np.zeros((self.ndof, self.ndof))
        for d in range(kd + 1):
            i = np.arange(self.ndof - d)
            dense[i, i + d] = dense[i + d, i] = self.stiffness_bands[kd - d, d:]
        return dense

    def stiffness_product(self, u: np.ndarray) -> np.ndarray:
        """K u from the upper bands (BLAS dsbmv)."""
        return dsbmv(self.stiffness_bands.shape[0] - 1, 1.0, self.stiffness_bands, u)

    def elastic_product(self, u: np.ndarray) -> np.ndarray:
        """C u, one curvature or face gradient per quadrature row (BLAS dgbmv)."""
        kl, ku = self.elastic_offsets
        return dgbmv(self.elastic_weights.size, self.ndof, kl, ku, 1.0,
                     self.elastic_bands, u)

    @cached_property
    def system_matrix(self) -> np.ndarray:
        """A = [[0, I], [-M^{-1} K, -M^{-1} D]], dense 2n x 2n, built on first use."""
        ndof = self.ndof
        system = np.zeros((2 * ndof, 2 * ndof))
        system[:ndof, ndof:] = np.eye(ndof)
        system[ndof:, :ndof] = -(self.stiffness_form / self.mass[:, None])
        system[ndof:, ndof:] = -self.damping_matrix() / self.mass[:, None]
        system.setflags(write=False)
        return system

    def damping_matrix(self, scale=1.0) -> np.ndarray:
        """S D S = d_e (Se)(Se)^T + d_g (Sg)(Sg)^T, dense n x n, from the traces.

        `scale` is the diagonal of S (D itself by default); the result is
        exactly symmetric.
        """
        e = self.trace_value * scale
        damping = self.damping_value_coeff * np.outer(e, e)
        if self.damping_slope_coeff:
            g = self.trace_slope * scale
            damping += self.damping_slope_coeff * np.outer(g, g)
        return damping

    def state_norm_generator(self) -> np.ndarray:
        """A in the state norm: A~ = [[0, B], [-B^T, -M^{-1/2} D M^{-1/2}]].

        With K = L L^T (Cholesky) and B = L^T M^{-1/2}, the map
        (u, v) -> (L^T u, M^{1/2} v) is an isometry from the state norm onto
        the Euclidean norm that carries A to A~, so ||e^{tA}||_state =
        ||e^{t A~}||_2.  The symmetric part of A~ is diag(0, -M^{-1/2} D M^{-1/2})
        exactly.  Raises DegenwaveError when K is not numerically positive
        definite (the state norm is then not a norm).
        """
        try:
            chol = np.linalg.cholesky(self.stiffness_form)
        except np.linalg.LinAlgError as exc:
            raise DegenwaveError(f"stiffness form is not positive definite: {exc}") from exc
        inv_sqrt_mass = 1.0 / np.sqrt(self.mass)
        coupling = chol.T * inv_sqrt_mass
        ndof = self.ndof
        a_tilde = np.zeros((2 * ndof, 2 * ndof))
        a_tilde[:ndof, ndof:] = coupling
        a_tilde[ndof:, :ndof] = -coupling.T
        a_tilde[ndof:, ndof:] = -self.damping_matrix(inv_sqrt_mass)
        return a_tilde

    # -- quadratic forms -----------------------------------------------------

    def energy_parts(self, state: np.ndarray):
        """(kinetic, elastic, boundary) halves of the squared state norm."""
        u, v = self.split(state)
        kinetic = 0.5 * float(self.mass @ (v * v))
        cu = self.elastic_product(u)
        elastic = 0.5 * float(self.elastic_weights @ (cu * cu))
        boundary = 0.5 * (self.beta_eff * float(self.trace_value @ u) ** 2
                          + self.gamma_eff * float(self.trace_slope @ u) ** 2)
        return kinetic, elastic, boundary

    def state_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        ua, va = self.split(a)
        ub, vb = self.split(b)
        return float(ua @ self.stiffness_product(ub) + self.mass @ (va * vb))

    def state_norm(self, state: np.ndarray) -> float:
        k, e, b = self.energy_parts(state)
        return float(np.sqrt(2.0 * (k + e + b)))

    def quadratic_form(self, state: np.ndarray) -> float:
        """<A Y, Y> in the state inner product (nonpositive for every Y)."""
        return self.state_inner(self.system_matrix @ state, state)

    def boundary_damping_rate(self, state: np.ndarray):
        """v^T D v: the exact discrete energy dissipation rate -dE/dt.

        A float for one state, an array over a stack of states.
        """
        _, v = self.split(state)
        return (self.damping_value_coeff * (v @ self.trace_value) ** 2
                + self.damping_slope_coeff * (v @ self.trace_slope) ** 2)

    def elastic_seminorm(self, u_free: np.ndarray) -> float:
        """Kind-appropriate seminorm: ||u''||, ||sqrt(a)u''||, ||u'||, ||sqrt(a)u'||."""
        cu = self.elastic_product(u_free)
        return float(np.sqrt(self.elastic_weights @ (cu * cu)))

    def tip_traces(self, state: np.ndarray):
        """(y(1), y'(1), y_t(1), y_t'(1)) boundary traces of a state (floats)
        or of a stack of states (arrays)."""
        u, v = self.split(state)
        return (u @ self.trace_value, u @ self.trace_slope,
                v @ self.trace_value, v @ self.trace_slope)

    def dump_system(self, path) -> None:
        """Matrix-market dump of the 2n x 2n system matrix (debug aid)."""
        from scipy.io import mmwrite

        with open(path, "wb") as fh:
            mmwrite(fh, self.system_matrix)


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
    _stability_requirements(kind, profile, bc)

    n, h = grid.n, grid.h
    a_nodes = profile.grid_values
    a_right = float(a_nodes[-1])
    wd = profile.is_weakly_degenerate

    if kind.is_beam:
        ab, kl, ku, weights = curvature_map(grid)
        if kind is OperatorKind.BEAM_DIV:
            weights = weights * profile.spec(np.concatenate(([0.5 * h], grid.nodes[1:])))
            if not wd:
                weights[0] = 0.0  # no mirrored clamped-slope row
    else:
        ab, kl, ku, weights = gradient_map(grid)
        if kind is OperatorKind.WAVE_DIV:
            weights = weights * profile.spec(grid.midpoints)
    if kind is OperatorKind.WAVE_DIV and not wd:
        free = np.arange(0, n)  # zero-flux condition at x = 0 is natural
    else:
        free = np.arange(1, n)
        ab, kl, ku = ab[:, 1:], kl + 1, ku - 1  # pinning node 0 drops column 0 of C

    ndof, kd = free.size, kl + ku
    e_free = np.zeros(ndof)
    e_free[-1] = 1.0
    slope = fd_weights(grid.nodes[-3:], 1.0, 1)  # u'(1) from the last three nodes
    g_free = np.zeros(ndof)
    g_free[-3:] = slope

    if kind is OperatorKind.WAVE_DIV:
        beta_eff, gamma_eff = bc.beta * a_right, 0.0
        d_value, d_slope = a_right, 0.0
    elif kind is OperatorKind.WAVE_NONDIV:
        beta_eff, gamma_eff = bc.beta, 0.0
        d_value, d_slope = 1.0, 0.0
    else:
        beta_eff, gamma_eff = bc.beta, bc.gamma
        d_value, d_slope = 1.0, 1.0

    # K = C^T W C in upper band storage, K[j-d, j] = sum_r C[r, j-d] w_r C[r, j]:
    # the band entry of C[r, c] sits at row ku + r - c, so `weighted` holds w_r C[r, c]
    # (r is clipped where the entry lies outside C, which holds 0 there)
    row_of = np.clip(np.arange(ndof) + np.arange(-ku, kl + 1)[:, None], 0, weights.size - 1)
    weighted = ab * weights[row_of]
    stiffness = np.zeros((kd + 1, ndof), order="F")
    for d in range(kd + 1):
        stiffness[kd - d, d:] = np.sum(ab[d:, :ndof - d] * weighted[:kd + 1 - d, d:], axis=0)
    stiffness[kd, -1] += beta_eff  # e e^T
    if gamma_eff:  # g g^T on the last three nodes (beams, kd = 4)
        for d in range(3):
            stiffness[kd - d, ndof - 3 + d:] += gamma_eff * (slope[:3 - d] * slope[d:])

    if kind.weighted_velocity:
        mass = weighted_mass_diagonal(grid, profile)
    else:
        mass = grid.trapezoid_weights()[free]

    for arr in (free, mass, ab, weights, e_free, g_free, stiffness):
        arr.setflags(write=False)
    return DiscreteGenerator(
        kind=kind, profile=profile, grid=grid, free=free, mass=mass,
        elastic_bands=ab, elastic_offsets=(kl, ku), elastic_weights=weights,
        trace_value=e_free, trace_slope=g_free, beta_eff=beta_eff, gamma_eff=gamma_eff,
        damping_value_coeff=d_value, damping_slope_coeff=d_slope,
        stiffness_bands=stiffness)


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
