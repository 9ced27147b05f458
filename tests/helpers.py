"""Test-side constructions and norms that the package itself does not need.

Synthetic elements of the clamped and pinned discrete spaces, the subdomain
extension B and the L2(P) pairing, the pointwise and sampled checks of the
source hypotheses, a semigroup-constant sampler with one matrix exponential
per sample time, and the closed forms of the constant and pulse gains.  Each
is a reference that tests compare the package's forms and constants
against.
"""

import math

import numpy as np
import scipy.linalg

from degenwave.errors import InfeasibleError, SubdomainNotAlignedError
from degenwave.nonlinearity import eval_f, weighted_inner
from degenwave.operators import curvature_quadrature


def from_curvature(grid, curvature):
    """Nodal u with u(0)=u'(0)=0 whose discrete curvature rows equal the input.

    curvature[k] feeds row k of curvature_quadrature (mirror row, then the
    interior centered rows); the final one-sided row is not prescribed.
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


def from_face_slopes(grid, slopes, u0=0.0):
    """Nodal u with prescribed face gradients (u_{j+1}-u_j)/h and u(0)=u0."""
    slopes = np.asarray(slopes, dtype=float)
    if slopes.shape[0] != grid.n - 1:
        raise ValueError("need n-1 face slopes")
    u = np.empty(grid.n)
    u[0] = u0
    u[1:] = u0 + np.cumsum(grid.h * slopes)
    return u


def apply_B(sub, grid, values_on_p):
    """Extend a function on P by zero to a full nodal function."""
    idx = sub.indices(grid)
    values_on_p = np.asarray(values_on_p, dtype=float)
    if values_on_p.shape != idx.shape:
        raise SubdomainNotAlignedError(
            f"expected {idx.size} subdomain values, got {values_on_p.shape}")
    full = np.zeros(grid.n)
    full[idx] = values_on_p
    return full


def inner_H(grid, f, g):
    """L2(P) inner product; node weight h matches the ambient quadrature."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    return float(grid.h * np.sum(f * g))


def norm_H(grid, f):
    return math.sqrt(max(inner_H(grid, f, f), 0.0))


def weighted_l2_norm(y, profile):
    """||y||_{L2_{1/a}} by the composite midpoint rule (x = 0 never touched)."""
    grid = profile.grid
    y = np.asarray(y, dtype=float)
    mid_vals = 0.5 * (y[:-1] + y[1:])
    a_mid = profile.spec(grid.midpoints)
    return float(np.sqrt(grid.h * np.sum(mid_vals * mid_vals / a_mid)))


def curvature_seminorm(grid, u_full):
    """||u''|| of a nodal function in the clamped space {u(0)=u'(0)=0}."""
    rows, wts = curvature_quadrature(grid)
    cu = rows @ np.asarray(u_full, dtype=float)
    return float(np.sqrt(wts @ (cu * cu)))


def empirical_growth_constant(source, generator, samples):
    """Sampled sup of <f(u), u> / ||u||_s^{m+2} in a generator's own pairing.

    The explicit constants are derived for the weighted clamped-beam
    seminorm; for the other operator kinds the sign/growth hypothesis is
    verified in inequality form by sampling: a finite, grid-stable supremum
    certifies a gauge h(x) = C x^m for that kind's seminorm (||sqrt(a)u''||,
    ||u'|| or ||sqrt(a)u'||).  `samples` are full nodal displacement vectors.
    """
    m = source.exponent
    grid = generator.grid
    profile = generator.profile
    sup = 0.0
    for u_full in samples:
        u_full = np.asarray(u_full, dtype=float)
        fu = eval_f(source, u_full, grid)
        if generator.kind.weighted_velocity:
            pairing = weighted_inner(fu, u_full, profile)
        else:
            pairing = grid.trapezoid(fu * u_full)
        semi = generator.elastic_seminorm(generator.restrict(u_full))
        if semi > 1e-12:
            sup = max(sup, pairing / semi ** (m + 2.0))
    return sup


def sobolev_pointwise_bound_check(u_full, grid, rtol=0.05, atol=1e-12):
    """Check |u(x_i)| <= (2/3) x_i^{3/2} ||u''|| at every node (with slack).

    The multiplicative slack absorbs the O(h^{3/2}) defect of the discrete
    double-integration chain near x = 0.
    """
    u = np.asarray(u_full, dtype=float)
    bound = (2.0 / 3.0) * grid.nodes ** 1.5 * curvature_seminorm(grid, u)
    return bool(np.all(np.abs(u) <= bound * (1.0 + rtol) + atol))


def direct_semigroup_constants(a_tilde, horizon=20.0, samples=80, recheck=50):
    """(M, omega, horizon) of `evolution.semigroup_constants`, sampled with one
    `expm` of t A per sample time t instead of powers of one exponential.

    Same horizon-doubling rule, sample grid, re-check times, omega and floor
    M >= 1; `a_tilde` is the state-norm generator (or any stable matrix).
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    omega = 0.9 * -float(np.max(np.linalg.eigvals(a_tilde).real))

    def weighted_norm(t):
        return float(scipy.linalg.norm(scipy.linalg.expm(t * a_tilde), 2)) * math.exp(omega * t)

    for _ in range(8):
        if weighted_norm(horizon) <= 1.0:
            break
        horizon *= 2.0
    times = np.concatenate((np.linspace(0.0, horizon, samples + 1),
                            (np.arange(recheck) + 0.5) * horizon / recheck))
    return max(max(weighted_norm(t) for t in times), 1.0), omega, horizon


class ClosedFormGain:
    """A constant gain k0 (support_end None) or a pulse k0 on [0, support_end),
    in the closed forms the package used before both became step tables:
    k, int_0^t |k|, L1-ness, total mass, the window bound Lambda and the
    growth envelope (alpha, omega')."""

    def __init__(self, k0, tau, support_end=None):
        self.k0, self.tau, self.support_end = float(k0), float(tau), support_end

    def _scalar(self, out):
        return out if out.ndim else float(out)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        if self.support_end is None:
            return self._scalar(np.where(t >= 0.0, self.k0, 0.0))
        return self._scalar(np.where((t >= 0.0) & (t < self.support_end), self.k0, 0.0))

    def cumabs(self, t):
        tp = np.maximum(np.asarray(t, dtype=float), 0.0)
        if self.support_end is None:
            return self._scalar(abs(self.k0) * tp)
        return self._scalar(abs(self.k0) * np.minimum(tp, self.support_end))

    @property
    def is_l1(self):
        return self.support_end is not None or self.k0 == 0.0

    def total_mass(self):
        if self.support_end is None:
            return 0.0 if self.k0 == 0.0 else math.inf
        return abs(self.k0) * self.support_end

    def window_bound(self):
        if self.support_end is None:
            return abs(self.k0) * self.tau
        return abs(self.k0) * min(self.support_end, self.tau)

    def growth(self, M, omega, b):
        """(alpha, omega'); raises InfeasibleError when no omega' < omega works."""
        scale = M * b * b * math.exp(omega * self.tau)
        if self.support_end is not None:
            return scale * self.total_mass(), 0.0
        slope = scale * abs(self.k0)
        if slope == 0.0:
            return 0.0, 0.0
        if slope >= omega:
            raise InfeasibleError(f"constant gain slope {slope:.3e} >= omega {omega:.3e}")
        return 0.0, slope
