"""Damping kernels, the subdomain feedback pair (B, B*), and delay history.

The feedback term k(t) B B* y_t(t - tau) acts on a subinterval P strictly
inside (0, 1): B extends functions on P by zero, B* restricts, and B B* is
multiplication by the indicator of P.  Kernels are defined for t >= 0 (zero
before) and must have uniformly bounded moving-window mass

    int_{t-tau}^{t} |k| ds <= Lambda   for all t >= 0.

The cumulative gain condition

    M b^2 e^{omega tau} int_0^t |k(s + tau)| ds <= alpha + omega' t,
    omega' in [0, omega),

is resolved in closed form per kernel kind; infeasibility raises.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import (InfeasibleError, NotLocallyIntegrableError,
                     QueryOutOfWindowError, SubdomainNotAlignedError)
from .grids import Grid

KERNEL_CONSTANT = "constant"
KERNEL_EXP_DECAY = "exp_decay"
KERNEL_PULSE = "pulse"
KERNEL_TABULATED = "tabulated"

#: a time sits on the slot grid of step dt when it is within this share of
#: tau of a whole multiple of dt; dt | tau is the case t = tau
_SLOT_TOL = 1e-9


def slot_index(t: float, dt: float, tau: float) -> Optional[int]:
    """The j with |t - j dt| <= 1e-9 tau, or None when t is off the slot grid."""
    j = round(t / dt)
    return j if abs(j * dt - t) <= _SLOT_TOL * tau else None


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Damping gain k(t) (zero for t < 0) together with the delay tau."""

    kind: str
    tau: float
    k0: float = 0.0
    rate: float = 0.0
    support_end: float = 0.0
    times: Optional[np.ndarray] = field(default=None, repr=False)
    values: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("delay tau must be positive")

    @classmethod
    def constant(cls, k0: float, tau: float) -> "KernelSpec":
        return cls(kind=KERNEL_CONSTANT, tau=float(tau), k0=float(k0))

    @classmethod
    def zero(cls, tau: float) -> "KernelSpec":
        return cls.constant(0.0, tau)

    @classmethod
    def exp_decay(cls, k0: float, rate: float, tau: float) -> "KernelSpec":
        if not rate > 0:
            raise ValueError("exp_decay needs rate > 0")
        return cls(kind=KERNEL_EXP_DECAY, tau=float(tau), k0=float(k0), rate=float(rate))

    @classmethod
    def pulse(cls, k0: float, support_end: float, tau: float) -> "KernelSpec":
        if not support_end > 0:
            raise ValueError("pulse needs support_end > 0")
        return cls(kind=KERNEL_PULSE, tau=float(tau), k0=float(k0),
                   support_end=float(support_end))

    @classmethod
    def tabulated(cls, times, values, tau: float) -> "KernelSpec":
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 1:
            raise ValueError("tabulated kernel needs matching 1-d arrays")
        if np.any(np.diff(times) <= 0):
            raise NotLocallyIntegrableError("breakpoints must be strictly ascending")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise NotLocallyIntegrableError("kernel table contains non-finite entries")
        if times[0] < 0:
            raise ValueError("tabulated kernel breakpoints must start at t >= 0")
        times.setflags(write=False)
        values.setflags(write=False)
        return cls(kind=KERNEL_TABULATED, tau=float(tau), times=times, values=values)

    @classmethod
    def from_csv(cls, path, tau: float) -> "KernelSpec":
        """Two-column CSV (t, k(t)) with step-function semantics."""
        times, values = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or not "".join(row).strip():
                    continue
                try:
                    t, v = float(row[0]), float(row[1])
                except ValueError:
                    continue
                times.append(t)
                values.append(v)
        if not times:
            raise ValueError(f"{path}: no data rows")
        return cls.tabulated(times, values, tau)

    # -- evaluation -----------------------------------------------------------

    def eval(self, t) -> np.ndarray:
        """k(t); step-function semantics for tabulated kinds; 0 for t < 0."""
        t = np.asarray(t, dtype=float)
        if self.kind == KERNEL_CONSTANT:
            out = np.where(t >= 0.0, self.k0, 0.0)
        elif self.kind == KERNEL_EXP_DECAY:
            out = np.where(t >= 0.0, self.k0 * np.exp(-self.rate * np.maximum(t, 0.0)), 0.0)
        elif self.kind == KERNEL_PULSE:
            out = np.where((t >= 0.0) & (t < self.support_end), self.k0, 0.0)
        else:
            idx = np.searchsorted(self.times, t, side="right") - 1
            out = np.where(idx >= 0, self.values[np.clip(idx, 0, None)], 0.0)
        return out if out.ndim else float(out)

    def cumabs(self, t) -> np.ndarray:
        """int_0^t |k(s)| ds in closed form (0 for t <= 0)."""
        t = np.asarray(t, dtype=float)
        tp = np.maximum(t, 0.0)
        if self.kind == KERNEL_CONSTANT:
            out = abs(self.k0) * tp
        elif self.kind == KERNEL_EXP_DECAY:
            out = abs(self.k0) / self.rate * (1.0 - np.exp(-self.rate * tp))
        elif self.kind == KERNEL_PULSE:
            out = abs(self.k0) * np.minimum(tp, self.support_end)
        else:
            knots, cum, seg_abs = self._cumulative_table()
            idx = np.clip(np.searchsorted(knots, tp, side="right") - 1,
                          0, len(knots) - 1)
            out = cum[idx] + seg_abs[idx] * (tp - knots[idx])
        return out if out.ndim else float(out)

    def _cumulative_table(self):
        """Breakpoints, cumulative |k| mass at them, and per-segment |k| slopes.

        seg_abs[i] is |k| on [knots[i], knots[i+1}) and, for the last entry,
        on [knots[-1], inf).
        """
        if self.times[0] > 0:
            knots = np.concatenate([[0.0], self.times])
            vals = np.concatenate([[0.0], self.values])
        else:
            knots, vals = self.times, self.values
        seg_abs = np.abs(vals)
        cum = np.concatenate([[0.0], np.cumsum(seg_abs[:-1] * np.diff(knots))])
        return knots, cum, seg_abs

    @property
    def is_l1(self) -> bool:
        """True when |k| has finite total mass on [0, inf)."""
        if self.kind == KERNEL_EXP_DECAY or self.kind == KERNEL_PULSE:
            return True
        if self.kind == KERNEL_CONSTANT:
            return self.k0 == 0.0
        return self.values[-1] == 0.0

    def total_mass(self) -> float:
        """||k||_{L1[0, inf)} (inf when not integrable)."""
        if self.kind == KERNEL_CONSTANT:
            return 0.0 if self.k0 == 0.0 else math.inf
        if self.kind == KERNEL_EXP_DECAY:
            return abs(self.k0) / self.rate
        if self.kind == KERNEL_PULSE:
            return abs(self.k0) * self.support_end
        if self.values[-1] != 0.0:
            return math.inf
        return float(self.cumabs(self.times[-1]))


def kernel_window_bound(kernel: KernelSpec) -> float:
    """Lambda = sup_{t >= 0} int_{t-tau}^t |k| ds, exactly per kernel kind."""
    tau = kernel.tau
    if kernel.kind == KERNEL_CONSTANT:
        return abs(kernel.k0) * tau
    if kernel.kind == KERNEL_EXP_DECAY:
        return float(kernel.cumabs(tau))  # decreasing gain: worst window is [0, tau]
    if kernel.kind == KERNEL_PULSE:
        return abs(kernel.k0) * min(kernel.support_end, tau)
    knots, _, _ = kernel._cumulative_table()
    candidates = np.unique(np.concatenate([knots, knots + tau, [knots[-1] + 2 * tau]]))
    candidates = candidates[candidates >= 0.0]
    windows = kernel.cumabs(candidates) - kernel.cumabs(candidates - tau)
    return float(np.max(windows))


@dataclass(frozen=True)
class GrowthEnvelope:
    """Feasible (alpha, omega') with scaled cumulative gain <= alpha + omega' t."""

    alpha: float
    omega_prime: float


def kernel_growth_check(kernel: KernelSpec, M: float, omega: float,
                        b: float) -> GrowthEnvelope:
    """Smallest feasible (alpha, omega') for the cumulative gain condition.

    L1 kernels give omega' = 0 and alpha = M b^2 e^{omega tau} ||k||_{L1};
    a constant gain gives a pure slope, feasible only below omega; tabulated
    kernels get a linear envelope over the breakpoints.  Raises
    InfeasibleError when no omega' < omega works.
    """
    if M < 1 or omega <= 0 or b < 0:
        raise ValueError("need M >= 1, omega > 0, b >= 0")
    scale = M * b * b * math.exp(omega * kernel.tau)
    if kernel.kind == KERNEL_CONSTANT:
        slope = scale * abs(kernel.k0)
        if slope == 0.0:
            return GrowthEnvelope(alpha=0.0, omega_prime=0.0)
        if slope >= omega:
            raise InfeasibleError(
                f"constant gain slope {slope:.3e} >= omega {omega:.3e}")
        return GrowthEnvelope(alpha=0.0, omega_prime=slope)
    if kernel.is_l1:
        return GrowthEnvelope(alpha=scale * kernel.total_mass(), omega_prime=0.0)
    # tabulated with persistent final value: asymptotic slope + breakpoint envelope
    tail_slope = scale * abs(kernel.values[-1])
    if tail_slope >= omega:
        raise InfeasibleError(
            f"tabulated tail slope {tail_slope:.3e} >= omega {omega:.3e}")
    knots, _, _seg = kernel._cumulative_table()
    t_cand = np.unique(np.concatenate([[0.0], knots - kernel.tau, [knots[-1]]]))
    t_cand = t_cand[t_cand >= 0.0]
    shifted = kernel.cumabs(t_cand + kernel.tau) - kernel.cumabs(kernel.tau)
    alpha = float(np.max(scale * shifted - tail_slope * t_cand))
    return GrowthEnvelope(alpha=max(alpha, 0.0), omega_prime=tail_slope)


# -- subdomain restriction/extension ------------------------------------------

@dataclass(frozen=True)
class SubdomainP:
    """Open interval (lower, upper) strictly contained in (0, 1)."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower < self.upper < 1.0):
            raise ValueError("subdomain must satisfy 0 < lower < upper < 1")

    def node_range(self, grid: Grid):
        """Snapped half-open node index range [i0, i1); warns on coarse snaps."""
        i0 = max(int(round(self.lower / grid.h)), 1)
        i1 = min(int(round(self.upper / grid.h)), grid.n - 1)
        if i1 <= i0:
            raise SubdomainNotAlignedError("subdomain snaps to an empty node range")
        snap = max(abs(grid.nodes[i0] - self.lower), abs(grid.nodes[i1] - self.upper))
        if snap > 0.5 * grid.h + 1e-15:
            warnings.warn(f"subdomain endpoints snapped by {snap:.3e} > h/2",
                          stacklevel=2)
        return i0, i1

    def indices(self, grid: Grid) -> np.ndarray:
        i0, i1 = self.node_range(grid)
        return np.arange(i0, i1)


def apply_B(sub: SubdomainP, grid: Grid, values_on_p: np.ndarray) -> np.ndarray:
    """Extend a function on P by zero to a full nodal function."""
    idx = sub.indices(grid)
    values_on_p = np.asarray(values_on_p, dtype=float)
    if values_on_p.shape != idx.shape:
        raise SubdomainNotAlignedError(
            f"expected {idx.size} subdomain values, got {values_on_p.shape}")
    full = np.zeros(grid.n)
    full[idx] = values_on_p
    return full


def apply_Bstar(sub: SubdomainP, grid: Grid, full: np.ndarray) -> np.ndarray:
    """Restrict a full nodal function to the snapped subdomain nodes."""
    full = np.asarray(full, dtype=float)
    if full.shape != (grid.n,):
        raise SubdomainNotAlignedError(f"expected {grid.n} nodal values")
    return full[sub.indices(grid)]


def inner_H(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    """L2(P) inner product; node weight h matches the ambient quadrature."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    return float(grid.h * np.sum(f * g))


def norm_H(grid: Grid, f: np.ndarray) -> float:
    return math.sqrt(max(inner_H(grid, f, f), 0.0))


def subdomain_gain(sub: SubdomainP, generator) -> float:
    """b = ||B|| from H = L2(P) into the generator's velocity space.

    Multiplication by an indicator has unit norm into plain L2; into the
    1/a-weighted space the norm is the largest node ratio on P.
    """
    if not generator.kind.weighted_velocity:
        return 1.0
    idx = sub.indices(generator.grid)
    a_on_p = generator.profile.grid_values[idx]
    return float(np.sqrt(np.max(1.0 / a_on_p)))


# -- delay history --------------------------------------------------------------

HistoryInit = Union[None, float, Callable[[float], Union[float, np.ndarray]]]


class HistoryBuffer:
    """Ring of B* y_t traces over one delay window, on the exact slot grid.

    Slots live at integer multiples of dt; dt must divide tau so no
    interpolation ever happens.  One extra slot of lookback is kept so
    multi-step schemes can reread the previous delayed value.
    """

    def __init__(self, sub: SubdomainP, grid: Grid, dt: float, tau: float,
                 init: HistoryInit = None):
        m = slot_index(tau, dt, tau)
        if m is None or m < 1:
            raise ValueError(f"dt = {dt} must divide tau = {tau} exactly")
        self.sub = sub
        self.grid = grid
        self.dt = float(dt)
        self.tau = float(tau)
        self.m = m
        self._width = sub.indices(grid).size
        self._slots = np.zeros((m + 2, self._width))
        self._step = 0  # slot index of the newest entry (time = _step * dt)
        for j in range(-m - 1, 1):
            self._slots[self._pos(j)] = self._init_values(j * self.dt, init)

    def _init_values(self, s: float, init: HistoryInit) -> np.ndarray:
        if init is None:
            return np.zeros(self._width)
        if callable(init):
            val = init(s)
        else:
            val = init
        val = np.asarray(val, dtype=float)
        if val.ndim == 0:
            return np.full(self._width, float(val))
        if val.shape != (self._width,):
            raise SubdomainNotAlignedError(
                f"history values must be scalar or length {self._width}")
        return val

    def _pos(self, step: int) -> int:
        return step % (self.m + 2)

    def window_steps(self) -> np.ndarray:
        """Slot step indices covering [t - tau, t], oldest first."""
        return np.arange(self._step - self.m, self._step + 1)

    def sample_step(self, step: int) -> np.ndarray:
        if step > self._step or step < self._step - self.m - 1:
            raise QueryOutOfWindowError(
                f"step {step} outside buffer window ending at {self._step}")
        return self._slots[self._pos(step)]

    def sample(self, t_query: float) -> np.ndarray:
        """Exact slot retrieval; t_query must sit on the slot grid."""
        step = slot_index(t_query, self.dt, self.tau)
        if step is None:
            raise QueryOutOfWindowError(f"t = {t_query} is off the slot grid")
        return self.sample_step(step)

    def push(self, trace: np.ndarray) -> None:
        """Append the trace for the next slot time."""
        trace = np.asarray(trace, dtype=float)
        if trace.shape != (self._width,):
            raise SubdomainNotAlignedError(
                f"trace must have length {self._width}")
        self._step += 1
        self._slots[self._pos(self._step)] = trace

    def window_norms_sq(self) -> np.ndarray:
        """||trace||_H^2 at the m+1 slots of the current window, oldest first."""
        out = np.empty(self.m + 1)
        for i, step in enumerate(self.window_steps()):
            tr = self._slots[self._pos(step)]
            out[i] = self.grid.h * float(tr @ tr)
        return out
