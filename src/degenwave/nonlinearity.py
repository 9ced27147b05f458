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
from .errors import EigSolveFailureError, certificate_constant
from .grids import Grid
from .operators import BoundaryParams, OperatorKind, assemble

SOURCE_NONE = "none"
SOURCE_POWER = "power"
SOURCE_NONLOCAL = "nonlocal"


@dataclass(frozen=True)
class SourceKind:
    """Disabled source, pointwise power |y|^q y, or nonlocal-L2 source
    ||y||^p y; `exponent` is q or p (0 when disabled)."""

    kind: str
    exponent: float = 0.0

    @classmethod
    def none(cls) -> "SourceKind":
        return cls(kind=SOURCE_NONE)

    @classmethod
    def power(cls, q: float) -> "SourceKind":
        if not q > 0:
            raise ValueError("power source needs q > 0")
        return cls(kind=SOURCE_POWER, exponent=float(q))

    @classmethod
    def nonlocal_l2(cls, p: float) -> "SourceKind":
        if not p >= 1:
            raise ValueError("nonlocal source needs p >= 1")
        return cls(kind=SOURCE_NONLOCAL, exponent=float(p))

    @property
    def is_none(self) -> bool:
        return self.kind == SOURCE_NONE


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
    """Assemble the constants bundle, C_HP from `hardy_poincare_constant`
    unless the caller already has the profile's `c_hp`."""
    if c_hp is None:
        c_hp = hardy_poincare_constant(profile)
    a_max = profile.a_max
    m = source.exponent
    if source.kind == SOURCE_POWER:
        c_q = certificate_constant(f"the source constant C_q = 2^(2q - 1) at q = {m:g}",
                                   lambda: cq_factor(m))
        return NonlinearityConstants(c_hp=c_hp, a_max=a_max, c_q=c_q)
    if source.kind == SOURCE_NONLOCAL:
        d_p = certificate_constant(f"the source constant D_p at p = {m:g}", lambda: 2.0 * m ** 2
                                   * cq_factor(m / 2.0) ** 2 * a_max ** (m - 1.0))
        return NonlinearityConstants(c_hp=c_hp, a_max=a_max, d_p=d_p)
    return NonlinearityConstants(c_hp=c_hp, a_max=a_max)


# -- pointwise evaluation ----------------------------------------------------

def eval_f(source: SourceKind, y: np.ndarray, grid: Grid) -> np.ndarray:
    """f(y) as a nodal function, or for each of a stack of them along the
    last axis; the nonlocal norm uses `Grid.trapezoid`.  The nonlocal factor
    is a numpy power, so a norm that overflows gives inf (with numpy's
    overflow warning) instead of raising OverflowError."""
    y = np.asarray(y, dtype=float)
    if source.kind == SOURCE_NONE:
        return np.zeros_like(y)
    if source.kind == SOURCE_POWER:
        return np.abs(y) ** source.exponent * y
    factor = np.power(grid.trapezoid(y * y), source.exponent / 2.0)
    return factor[..., None] * y


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
    last axis.  Every quadrature sums row by row, so a function gets the same
    bits whatever stack it is in.
    """
    y = np.asarray(y, dtype=float)
    grid = profile.grid
    if source.kind == SOURCE_NONE:
        out = np.zeros(y.shape[:-1])
    elif source.kind == SOURCE_POWER:
        q = source.exponent
        if weighted:
            mid_vals = 0.5 * (y[..., :-1] + y[..., 1:])
            a_mid = profile.spec(grid.midpoints)
            integrand = np.abs(mid_vals) ** (q + 2.0) / (q + 2.0) / a_mid
            out = grid.h * np.sum(integrand, axis=-1)
        else:
            out = grid.trapezoid(np.abs(y) ** (q + 2.0) / (q + 2.0))
    else:
        p = source.exponent
        norm_sq = grid.trapezoid(y * y)
        pairing = weighted_inner(y, y, profile) if weighted else norm_sq
        out = np.sqrt(np.maximum(norm_sq, 0.0)) ** p * pairing / (p + 2.0)
    return out if np.ndim(out) else float(out)


# -- explicit constants --------------------------------------------------------

def lipschitz_bound(source: SourceKind, constants: NonlinearityConstants,
                    r: float) -> float:
    """L(r) for the weighted (non-divergence beam) setting; InfeasibleError if it overflows."""
    if not r > 0:
        raise ValueError("radius must be positive")
    if source.kind == SOURCE_NONE:
        return 0.0
    c, m, a_max = 4.0 * constants.c_hp + 1.0, source.exponent, constants.a_max
    if source.kind == SOURCE_POWER:
        return certificate_constant(f"the source constant L(r) at q = {m:g}", lambda: math.sqrt(
            (2.0 / 3.0) * (m + 1.0) ** 2 * constants.c_q * c) * r ** m)
    return certificate_constant(f"the source constant L(r) at p = {m:g}", lambda: math.sqrt(
        2.0 * a_max * c ** (m + 1.0) * (a_max ** (m - 1.0) + 2.0 * constants.d_p)) * r ** m)


def h_coefficients(source: SourceKind, constants: NonlinearityConstants):
    """(c, m) of the growth gauge h(x) = c x^m."""
    if source.kind == SOURCE_NONE:
        return 0.0, 1.0
    c_embed, m = 4.0 * constants.c_hp + 1.0, source.exponent
    if source.kind == SOURCE_POWER:
        return (2.0 / 3.0) ** m * c_embed, m
    return constants.a_max ** (m / 2.0) * c_embed ** (m / 2.0 + 1.0), m


def h_inverse(source: SourceKind, constants: NonlinearityConstants, y: float) -> float:
    if y < 0:
        raise ValueError("h_inverse is defined on y >= 0")
    c, m = h_coefficients(source, constants)
    if c == 0.0:
        return math.inf
    return (y / c) ** (1.0 / m)


def hardy_poincare_constant(profile: CoefficientProfile) -> float:
    """Best discrete constant of  int u^2/a <= C_HP ||u''||^2  on the clamped space.

    Largest eigenvalue of the generalized problem  M u = lambda K u  for the
    beam_nondiv generator without tip gains: M is the 1/a-weighted mass and
    K the curvature seminorm form, both on nodes 1..n-1 of {u(0) = u'(0) = 0}.
    """
    gen = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams())
    try:
        eigvals = scipy.linalg.eigh(np.diag(gen.mass), gen.stiffness_form, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:  # pragma: no cover
        raise EigSolveFailureError(str(exc)) from exc
    top = float(eigvals[-1])
    if not np.isfinite(top) or top <= 0:
        raise EigSolveFailureError(f"nonpositive or non-finite top eigenvalue {top}")
    return top
