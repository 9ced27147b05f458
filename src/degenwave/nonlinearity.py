"""Source terms, their potential functional, and the explicit constants.

Two source families act on the displacement y:

    pointwise power   f(y) = |y|^q y,                    q > 0,
    nonlocal L2       f(y) = ||y||_{L2(0,1)}^p y,        p >= 1.

Both satisfy f(0) = 0, a local Lipschitz estimate

    ||f(u) - f(v)||_{L2_{1/a}} <= L(r) ||u'' - v''||_{L2}

on curvature balls of radius r, and a sign/growth bound

    <f(u), u>_{L2_{1/a}} <= h(||u''||) ||u''||^2

with h(x) = c x^m strictly increasing.  The explicit constants combine the
power exponents with the best constant C_HP of the weighted embedding

    int u^2 / a dx <= C_HP ||u''||^2   on {u(0) = u'(0) = 0},

computed here as the top eigenvalue of a generalized eigenproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .degeneracy import CoefficientProfile
from .errors import EigSolveFailureError
from .grids import Grid
from .operators import BoundaryParams, OperatorKind, assemble

SOURCE_NONE = "none"
SOURCE_POWER = "power"
SOURCE_NONLOCAL = "nonlocal"


@dataclass(frozen=True)
class SourceKind:
    """Disabled source, pointwise power, or nonlocal-L2 source."""

    kind: str
    q: Optional[float] = None
    p: Optional[float] = None

    @classmethod
    def none(cls) -> "SourceKind":
        return cls(kind=SOURCE_NONE)

    @classmethod
    def power(cls, q: float) -> "SourceKind":
        if not q > 0:
            raise ValueError("power source needs q > 0")
        return cls(kind=SOURCE_POWER, q=float(q))

    @classmethod
    def nonlocal_l2(cls, p: float) -> "SourceKind":
        if not p >= 1:
            raise ValueError("nonlocal source needs p >= 1")
        return cls(kind=SOURCE_NONLOCAL, p=float(p))

    @property
    def is_none(self) -> bool:
        return self.kind == SOURCE_NONE

    @property
    def exponent(self) -> float:
        if self.kind == SOURCE_POWER:
            return self.q
        if self.kind == SOURCE_NONLOCAL:
            return self.p
        return 0.0


def cq_factor(q: float) -> float:
    """Convexity constant in (|y|+|z|)^{2q} <= C_q (|y|^{2q} + |z|^{2q})."""
    return 2.0 ** (2.0 * q - 1.0) if q >= 0.5 else 1.0


@dataclass(frozen=True)
class NonlinearityConstants:
    """C_HP, max a, and the source-specific convexity constants."""

    c_hp: float
    a_max: float
    c_q: Optional[float] = None
    d_p: Optional[float] = None


def constants_for(source: SourceKind, profile: CoefficientProfile,
                  c_hp: Optional[float] = None) -> NonlinearityConstants:
    """Assemble the constants bundle; C_HP is computed unless supplied."""
    if c_hp is None:
        c_hp = hardy_poincare_constant(profile.grid, profile)
    a_max = profile.a_max
    if source.kind == SOURCE_POWER:
        return NonlinearityConstants(c_hp=c_hp, a_max=a_max, c_q=cq_factor(source.q))
    if source.kind == SOURCE_NONLOCAL:
        c_half = cq_factor(source.p / 2.0)
        d_p = 2.0 * source.p ** 2 * c_half ** 2 * a_max ** (source.p - 1.0)
        return NonlinearityConstants(c_hp=c_hp, a_max=a_max, d_p=d_p)
    return NonlinearityConstants(c_hp=c_hp, a_max=a_max)


# -- pointwise evaluation ----------------------------------------------------

def eval_f(source: SourceKind, y: np.ndarray, grid: Grid) -> np.ndarray:
    """f(y) as a nodal function; the nonlocal norm uses the trapezoid rule."""
    y = np.asarray(y, dtype=float)
    if source.kind == SOURCE_NONE:
        return np.zeros_like(y)
    if source.kind == SOURCE_POWER:
        return np.abs(y) ** source.q * y
    norm_sq = grid.trapezoid(y * y)
    return norm_sq ** (source.p / 2.0) * y


def weighted_inner(y: np.ndarray, z: np.ndarray, profile: CoefficientProfile):
    """<y, z>_{L2_{1/a}} by the composite midpoint rule: a float, or an array
    over stacks of nodal functions along the last axis."""
    grid = profile.grid
    y, z = np.asarray(y, float), np.asarray(z, float)
    ym = 0.5 * (y[..., :-1] + y[..., 1:])
    zm = 0.5 * (z[..., :-1] + z[..., 1:])
    a_mid = profile.spec(grid.midpoints)
    out = grid.h * np.sum(ym * zm / a_mid, axis=-1)
    return out if out.ndim else float(out)


def eval_F_functional(source: SourceKind, y: np.ndarray, profile: CoefficientProfile,
                      weighted: bool):
    """The potential integral: int F(y)/a dx (weighted) or int F(y) dx.

    F(y) = int_0^y f(s) ds pointwise for the power source.  For the nonlocal
    source F is taken along the ray s -> s y, giving the closed form
    (1/(p+2)) ||y||_{L2}^p <y, y> with the pairing in the weighted or plain
    L2 product; this is the quantity the energy functional subtracts.
    A float for one nodal function y, an array for a stack of them along the
    last axis.
    """
    y = np.asarray(y, dtype=float)
    grid = profile.grid
    if source.kind == SOURCE_NONE:
        out = np.zeros(y.shape[:-1])
    elif source.kind == SOURCE_POWER:
        q = source.q
        if weighted:
            mid_vals = 0.5 * (y[..., :-1] + y[..., 1:])
            a_mid = profile.spec(grid.midpoints)
            integrand = np.abs(mid_vals) ** (q + 2.0) / (q + 2.0) / a_mid
            out = grid.h * np.sum(integrand, axis=-1)
        else:
            out = grid.trapezoid(np.abs(y) ** (q + 2.0) / (q + 2.0))
    else:
        p = source.p
        norm_sq = grid.trapezoid(y * y)
        pairing = weighted_inner(y, y, profile) if weighted else norm_sq
        out = np.sqrt(np.maximum(norm_sq, 0.0)) ** p * pairing / (p + 2.0)
    return out if np.ndim(out) else float(out)


# -- explicit constants --------------------------------------------------------

def lipschitz_bound(source: SourceKind, constants: NonlinearityConstants,
                    r: float) -> float:
    """L(r) for the weighted (non-divergence beam) setting."""
    if not r > 0:
        raise ValueError("radius must be positive")
    if source.kind == SOURCE_NONE:
        return 0.0
    c = 4.0 * constants.c_hp + 1.0
    if source.kind == SOURCE_POWER:
        q = source.q
        return math.sqrt((2.0 / 3.0) * (q + 1.0) ** 2 * constants.c_q * c) * r ** q
    p = source.p
    a_max = constants.a_max
    return math.sqrt(2.0 * a_max * c ** (p + 1.0)
                     * (a_max ** (p - 1.0) + 2.0 * constants.d_p)) * r ** p


def h_coefficients(source: SourceKind, constants: NonlinearityConstants):
    """(c, m) of the growth gauge h(x) = c x^m."""
    if source.kind == SOURCE_NONE:
        return 0.0, 1.0
    c_embed = 4.0 * constants.c_hp + 1.0
    if source.kind == SOURCE_POWER:
        return (2.0 / 3.0) ** source.q * c_embed, source.q
    p = source.p
    return constants.a_max ** (p / 2.0) * c_embed ** (p / 2.0 + 1.0), p


def h_eval(source: SourceKind, constants: NonlinearityConstants, x: float) -> float:
    if x < 0:
        raise ValueError("h is defined on x >= 0")
    c, m = h_coefficients(source, constants)
    return c * x ** m


def h_inverse(source: SourceKind, constants: NonlinearityConstants, y: float) -> float:
    if y < 0:
        raise ValueError("h_inverse is defined on y >= 0")
    c, m = h_coefficients(source, constants)
    if c == 0.0:
        return math.inf
    return (y / c) ** (1.0 / m)


def hardy_poincare_constant(grid: Grid, profile: CoefficientProfile) -> float:
    """Best discrete constant of  int u^2/a <= C_HP ||u''||^2  on the clamped space.

    Largest eigenvalue of the generalized problem  M u = lambda K u  for the
    beam_nondiv generator without tip gains: M is the 1/a-weighted mass and
    K the curvature seminorm form, both on nodes 1..n-1 of {u(0) = u'(0) = 0}.
    """
    gen = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(), grid)
    try:
        eigvals = scipy.linalg.eigh(np.diag(gen.mass), gen.stiffness_form, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:  # pragma: no cover
        raise EigSolveFailureError(str(exc)) from exc
    top = float(eigvals[-1])
    if not np.isfinite(top) or top <= 0:
        raise EigSolveFailureError(f"nonpositive or non-finite top eigenvalue {top}")
    return top
