"""Discrete generators for the four degenerate operators with damped tips.

Each generator realizes the first-order system

    d/dt (u, v) = (v, -M^{-1} K u - M^{-1} D v)

built from three quadratic forms on the free nodal degrees of freedom:

    M  velocity weight   (1/a-weighted for non-divergence kinds),
    K  stiffness         (elastic quadrature + beta/gamma tip traces),
    D  tip damping       D = d_e e e^T + d_g g g^T, rank <= 2.

M is stored as its diagonal; C, the curvature (beams) or face-gradient
(waves) map, in LAPACK general band storage with its weights W; K only as
its upper bands (the dpbtrf layout); and D only as its weights d_e, d_g and
its tip traces e (u(1), the unit vector on the last dof) and g (u'(1), the
one-sided (1, -4, 3)/(2h)), held on the last three dofs as the 3 x 2
`tip_weights`: v^T D v = d_e (e.v)^2 + d_g (g.v)^2.  The grid is uniform, so
each stencil is a closed form; u''(1) is (-1, 4, -5, 2)/h^2 on the last four.
Products with K are BLAS band products; C u is accumulated over the band
diagonals of C, and a M + b D + c K is formed in the band storage of K
(`combined_bands`).  A dense K is expanded only for the closed-form
state-norm generator `state_norm_generator`, whose eigenvalues are the
generator's `spectrum`, the dense 2n x 2n system matrix, built on first use
for the operator dump and the desk-scale oracles, and the eigenproblem of
`nonlinearity.hardy_poincare_constant`.  D in any form is its 3 x 3 corner.

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
from scipy.linalg.blas import dsbmv

from .degeneracy import CoefficientProfile
from .errors import DegenwaveError, InconsistentBCError, allocate
from .grids import Grid

#: what to change when a dense n x n or 2n x 2n form cannot be allocated
DENSE_HINT = "lower [operator] n or use another [initial] preset"


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
        if not (0 <= self.beta < np.inf and 0 <= self.gamma < np.inf):
            raise ValueError("boundary gains must be finite and nonnegative")


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
    # one-sided row n-1, u''(1) on the last four nodes: C[n-1, n-4+k] at ab[ku + 3 - k, n-4+k]
    ab[ku + np.arange(3, -1, -1), np.arange(n - 4, n)] = np.array([-1.0, 4.0, -5.0, 2.0]) / h**2
    return ab, kl, ku, grid.trapezoid_weights()


def gradient_map(grid: Grid):
    """(ab, kl, ku, weights): the face-gradient map, rows at x_{j+1/2}, in
    general band storage as `curvature_map`, with midpoint-cell weights."""
    n, h = grid.n, grid.h
    ab = np.zeros((2, n), order="F")
    ab[0, 1:] = 1.0 / h  # C[j, j+1]
    ab[1, :-1] = -1.0 / h  # C[j, j]
    return ab, 0, 1, np.full(n - 1, h)


def weighted_mass_diagonal(profile: CoefficientProfile) -> np.ndarray:
    """Trapezoid weights for the 1/a inner product on free nodes 1..n-1 of profile.grid.

    The x = 0 node is excluded (pinned in every 1/a-weighted kind), so 1/a is
    never evaluated at the degeneracy point.
    """
    w = profile.grid.trapezoid_weights()[1:]
    return w / profile.grid_values[1:]


@dataclass(frozen=True, eq=False)
class DiscreteGenerator:
    """Assembled first-order generator for one operator kind."""

    kind: OperatorKind
    profile: CoefficientProfile
    free: np.ndarray = field(repr=False)            # retained node indices
    mass: np.ndarray = field(repr=False)            # diagonal of M
    elastic_bands: np.ndarray = field(repr=False)   # C (rows x ndof), general band storage
    elastic_offsets: tuple                           # (kl, ku) of C
    elastic_weights: np.ndarray = field(repr=False) # w incl. coefficient, one per row
    tip_weights: np.ndarray = field(repr=False)     # (3, 2): e, g on the last three dofs
    beta_eff: float                                  # beta (x a(1) for wave_div)
    gamma_eff: float
    damping_value_coeff: float                       # d_e: weight of v(1)^2 in D
    damping_slope_coeff: float                       # d_g: weight of v'(1)^2 in D
    stiffness_bands: np.ndarray = field(repr=False)  # K = C^T W C + tip terms, upper bands

    # -- state plumbing ----------------------------------------------------

    @property
    def grid(self) -> Grid:
        """The grid the coefficient profile was classified on."""
        return self.profile.grid

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
        """K, dense and symmetric, expanded from its bands on each access;
        ArrayTooLargeError naming its size when it cannot be allocated."""
        kd = self.stiffness_bands.shape[0] - 1
        dense = allocate((self.ndof, self.ndof), "the entries of the dense stiffness form",
                         DENSE_HINT, zero=True)
        for d in range(kd + 1):
            i = np.arange(self.ndof - d)
            dense[i, i + d] = dense[i + d, i] = self.stiffness_bands[kd - d, d:]
        return dense

    def stiffness_product(self, u: np.ndarray) -> np.ndarray:
        """K u from the upper bands (BLAS dsbmv)."""
        return dsbmv(self.stiffness_bands.shape[0] - 1, 1.0, self.stiffness_bands, u)

    def combined_bands(self, a, b, c) -> np.ndarray:
        """a M + b D + c K in the upper band storage of K, a new (kd + 1, ndof)
        array, complex when a scalar is.  D is its `damping_corner` on the
        last three dofs; waves have kd = 1 and d_g = 0, so their corner's one
        nonzero is its last diagonal entry."""
        bands = np.multiply(self.stiffness_bands, c, dtype=np.result_type(a, b, c, float))
        kd, ndof = bands.shape[0] - 1, self.ndof
        bands[kd] += a * self.mass
        corner = self.damping_corner()
        for d in range(min(3, kd + 1)):
            bands[kd - d, ndof - 3 + d:] += b * np.diagonal(corner, d)
        return bands

    @cached_property
    def elastic_diagonals(self) -> tuple:
        """(rows, entries, columns) of each band diagonal of C, in column order:
        C[i, i + d] for i in `rows` is `entries`, read at the `columns` of u."""
        kl, ku = self.elastic_offsets
        nrows = self.elastic_weights.size
        diagonals = []
        for d in range(-kl, ku + 1):       # C[i, i + d] = bands[ku - d, i + d]
            lo, hi = max(0, -d), min(nrows, self.ndof - d)
            diagonals.append((slice(lo, hi), self.elastic_bands[ku - d, lo + d:hi + d],
                              slice(lo + d, hi + d)))
        return tuple(diagonals)

    def elastic_product(self, u: np.ndarray) -> np.ndarray:
        """C u, one curvature or face gradient per quadrature row, for one u or
        each row of a stack, summed over the band diagonals in column order."""
        stack = np.atleast_2d(u)
        (rows, entries, columns), *rest = self.elastic_diagonals
        cu = np.zeros((stack.shape[0], self.elastic_weights.size))
        # the first term is written, not added to 0: only a zero's sign differs
        np.multiply(entries, stack[:, columns], out=cu[:, rows])
        for rows, entries, columns in rest:
            part = cu[:, rows]
            part += entries * stack[:, columns]
        return cu if np.ndim(u) > 1 else cu[0]

    @cached_property
    def system_matrix(self) -> np.ndarray:
        """A = [[0, I], [-M^{-1} K, -M^{-1} D]], dense 2n x 2n, built on first use;
        ArrayTooLargeError naming its size when it cannot be allocated."""
        ndof = self.ndof
        system = allocate((2 * ndof, 2 * ndof), "the entries of the dense system matrix",
                          "lower [operator] n or drop --dump-operators", zero=True)
        np.fill_diagonal(system[:ndof, ndof:], 1.0)
        np.divide(self.stiffness_form, -self.mass[:, None], out=system[ndof:, :ndof])
        system[-3:, -3:] = -self.damping_corner() / self.mass[-3:, None]
        system.setflags(write=False)
        return system

    def damping_corner(self, scale=1.0) -> np.ndarray:
        """S D S = d_e (Se)(Se)^T + d_g (Sg)(Sg)^T on the last three dofs, its only
        nonzeros: `scale` is the end of the diagonal of S (D itself by default),
        applied to the traces before their outer products, so the block is
        exactly symmetric."""
        e, g = self.tip_weights.T * scale
        corner = self.damping_value_coeff * np.outer(e, e)
        if self.damping_slope_coeff:
            corner += self.damping_slope_coeff * np.outer(g, g)
        return corner

    def state_norm_generator(self) -> np.ndarray:
        """A in the state norm: A~ = [[0, B], [-B^T, -M^{-1/2} D M^{-1/2}]].

        With K = L L^T (Cholesky) and B = L^T M^{-1/2}, the map
        (u, v) -> (L^T u, M^{1/2} v) is an isometry from the state norm onto
        the Euclidean norm that carries A to A~, so ||e^{tA}||_state =
        ||e^{t A~}||_2.  The symmetric part of A~ is diag(0, -M^{-1/2} D M^{-1/2})
        exactly.  Raises DegenwaveError when K is not numerically positive
        definite (the state norm is then not a norm), and ArrayTooLargeError
        naming the size of K or A~ when it cannot be allocated.
        """
        try:
            chol = np.linalg.cholesky(self.stiffness_form)
        except np.linalg.LinAlgError as exc:
            raise DegenwaveError(f"stiffness form is not positive definite: {exc}") from exc
        inv_sqrt_mass = 1.0 / np.sqrt(self.mass)
        coupling = chol.T * inv_sqrt_mass
        ndof = self.ndof
        a_tilde = allocate((2 * ndof, 2 * ndof), "the entries of the dense state-norm generator",
                           DENSE_HINT, zero=True)
        a_tilde[:ndof, ndof:] = coupling
        a_tilde[ndof:, :ndof] = -coupling.T
        a_tilde[-3:, -3:] = -self.damping_corner(inv_sqrt_mass[-3:])
        return a_tilde

    def log_norm(self) -> float:
        """mu(A~): the top eigenvalue of its symmetric part's corner, or 0."""
        return max(0.0, float(np.linalg.eigvalsh(
            -self.damping_corner(1.0 / np.sqrt(self.mass[-3:])))[-1]))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues of A, read-only, computed on first use as those of
        its state-norm form A~ (`state_norm_generator`), a similar matrix: one
        dense eigenvalue solve per generator, without eigenvectors."""
        values = np.linalg.eigvals(self.state_norm_generator())
        values.setflags(write=False)
        return values

    # -- quadratic forms -----------------------------------------------------

    def tip_pairs(self, w: np.ndarray) -> np.ndarray:
        """(e . w, g . w) for each row of a 2-d stack of dof vectors, from its
        last three entries (`tip_weights`), summed row by row."""
        terms = w[:, -3:, None] * self.tip_weights
        pairs = terms[:, 0] + terms[:, 1]
        pairs += terms[:, 2]
        return pairs

    def energy_parts(self, state: np.ndarray):
        """(kinetic, elastic, boundary) halves of the squared state norm: floats
        for one state, arrays for a stack along the first axis.  One state is a
        stack of one and no step mixes rows, so a row gets the same bits in any
        stack: the sums run row by row (`einsum`, `tip_pairs`).  Overflow
        gives inf, not an error."""
        u, v = self.split(np.atleast_2d(state))
        kinetic = 0.5 * np.einsum("ij,ij,j->i", v, v, self.mass)
        cu = self.elastic_product(u)
        elastic = 0.5 * np.einsum("ij,ij,j->i", cu, cu, self.elastic_weights)
        traces = self.tip_pairs(u)
        # a zero gain times a finite trace is 0, before the square can overflow
        squares = np.array([self.beta_eff, self.gamma_eff]) * traces
        squares *= traces
        boundary = 0.5 * (squares[:, 0] + squares[:, 1])
        if np.ndim(state) == 1:
            return float(kinetic[0]), float(elastic[0]), float(boundary[0])
        return kinetic, elastic, boundary

    def state_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        ua, va = self.split(a)
        ub, vb = self.split(b)
        return float(ua @ self.stiffness_product(ub) + self.mass @ (va * vb))

    def state_norm(self, state: np.ndarray) -> float:
        k, e, b = self.energy_parts(state)
        return float(np.sqrt(2.0 * (k + e + b)))

    def boundary_damping_rate(self, state: np.ndarray):
        """v^T D v: the exact discrete energy dissipation rate -dE/dt.

        A float for one state, an array over a stack of states, with the same
        bits for a state in any stack (`tip_pairs`).
        """
        _, v = self.split(np.atleast_2d(state))
        traces = self.tip_pairs(v)
        traces *= traces
        rate = (self.damping_value_coeff * traces[:, 0]
                + self.damping_slope_coeff * traces[:, 1])
        return float(rate[0]) if np.ndim(state) == 1 else rate

    def dump_system(self, path) -> None:
        """Matrix-market dump of the 2n x 2n system matrix, built before the file opens."""
        from scipy.io import mmwrite

        system = self.system_matrix
        with open(path, "wb") as fh:
            mmwrite(fh, system)


def _stability_requirements(kind: OperatorKind, profile: CoefficientProfile,
                            bc: BoundaryParams) -> None:
    sd = not profile.is_weakly_degenerate
    if kind is OperatorKind.BEAM_DIV and sd and (bc.beta <= 0 or bc.gamma <= 0):
        raise InconsistentBCError(
            "beam_div with a strongly degenerate coefficient needs beta > 0 and gamma > 0")
    if kind is OperatorKind.WAVE_DIV and bc.beta <= 0:
        raise InconsistentBCError("wave_div needs beta > 0")


def assemble(kind: OperatorKind, profile: CoefficientProfile,
             bc: BoundaryParams) -> DiscreteGenerator:
    """Build the discrete generator for (kind, coefficient class, gains) on
    the grid the profile was classified on."""
    kind = OperatorKind(kind)
    _stability_requirements(kind, profile, bc)

    grid = profile.grid
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
    # e and g on the last three dofs: u(1), and u'(1) = (u_{n-3} - 4 u_{n-2} + 3 u_{n-1}) / 2h
    tips = np.column_stack(([0.0, 0.0, 1.0], np.array([1.0, -4.0, 3.0]) / (2.0 * h)))
    slope = tips[:, 1]

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
        mass = weighted_mass_diagonal(profile)
    else:
        mass = grid.trapezoid_weights()[free]

    for arr in (free, mass, ab, weights, tips, stiffness):
        arr.setflags(write=False)
    return DiscreteGenerator(
        kind=kind, profile=profile, free=free, mass=mass,
        elastic_bands=ab, elastic_offsets=(kl, ku), elastic_weights=weights,
        tip_weights=tips, beta_eff=beta_eff, gamma_eff=gamma_eff,
        damping_value_coeff=d_value, damping_slope_coeff=d_slope,
        stiffness_bands=stiffness)

