"""Damping kernels, the subdomain feedback pair (B, B*), and delay history.

The feedback term k(t) B B* y_t(t - tau) acts on a subinterval P strictly
inside (0, 1): B extends functions on P by zero, B* restricts, and B B* is
multiplication by the indicator of P.  Kernels are defined for t >= 0 (zero
before) and must have uniformly bounded moving-window mass

    int_{t-tau}^{t} |k| ds <= Lambda   for all t >= 0.

The cumulative gain condition

    M b^2 e^{omega tau} int_0^t |k(s + tau)| ds <= alpha + omega' t,
    omega' in [0, omega),

is resolved for the two kernel representations: the exponential gain in
closed form, and a step table (constant, pulse and tabulated gains) over its
breakpoints.  Infeasibility raises.

The delay history lives on the slot grid t = j dt, and dt must divide tau
(`delay_slots`, the one place that tolerance is decided), so a delayed value
is read by slot index j, never looked up by time.  `resolve_history` evaluates
the initial history g once per slot, and it seeds the ring of the last m + 1
slots, the one store a run reads a slot from (`evolution._Stepper.slots`).
`HistoryBuffer` is a slot-norm record kept for the benchmark's tracer;
`simulate` does not use it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .degeneracy import read_csv_columns
from .errors import (InfeasibleError, NotLocallyIntegrableError, SubdomainNotAlignedError,
                     allocate, certificate_constant)
from .grids import Grid

KERNEL_CONSTANT = "constant"
KERNEL_EXP_DECAY = "exp_decay"
KERNEL_PULSE = "pulse"
KERNEL_TABULATED = "tabulated"

#: dt divides tau when a whole multiple m dt is within this share of tau of it
_SLOT_TOL = 1e-9


def delay_slots(dt: float, tau: float) -> int:
    """m = tau/dt, the slot count of one delay window; ValueError unless a
    whole m >= 1 has |m dt - tau| <= 1e-9 tau."""
    if not math.isfinite(tau / dt):
        raise ValueError(f"tau/dt = {tau / dt:g} is not a finite slot count")
    m = round(tau / dt)
    if m < 1 or abs(m * dt - tau) > _SLOT_TOL * tau:
        raise ValueError(f"dt = {dt} must divide tau = {tau} exactly")
    return m


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Damping gain k(t) (zero for t < 0) together with the delay tau.

    Every kind but exp_decay is a step table: k = values[i] on
    [times[i], times[i+1]), the last value from times[-1] on, and 0 before
    times[0].  A constant gain is the table ([0], [k0]) and a pulse the table
    ([0, support_end], [k0, 0]); exp_decay is the one closed form.
    """

    kind: str
    tau: float
    k0: float = 0.0
    rate: float = 0.0
    times: Optional[np.ndarray] = field(default=None, repr=False)
    values: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError("delay tau must be positive and finite")

    @classmethod
    def constant(cls, k0: float, tau: float) -> "KernelSpec":
        return cls._steps(KERNEL_CONSTANT, [0.0], [k0], tau, k0=float(k0))

    @classmethod
    def zero(cls, tau: float) -> "KernelSpec":
        return cls.constant(0.0, tau)

    @classmethod
    def exp_decay(cls, k0: float, rate: float, tau: float) -> "KernelSpec":
        if not (math.isfinite(k0) and 0 < rate < math.inf):
            raise ValueError("exp_decay needs a finite k0 and a finite rate > 0")
        return cls(kind=KERNEL_EXP_DECAY, tau=float(tau), k0=float(k0), rate=float(rate))

    @classmethod
    def pulse(cls, k0: float, support_end: float, tau: float) -> "KernelSpec":
        if not support_end > 0:
            raise ValueError("pulse needs support_end > 0")
        return cls._steps(KERNEL_PULSE, [0.0, support_end], [k0, 0.0], tau, k0=float(k0))

    @classmethod
    def tabulated(cls, times, values, tau: float) -> "KernelSpec":
        return cls._steps(KERNEL_TABULATED, times, values, tau)

    @classmethod
    def _steps(cls, kind: str, times, values, tau: float, **fields) -> "KernelSpec":
        times = np.array(times, dtype=float)
        values = np.array(values, dtype=float)
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
        return cls(kind=kind, tau=float(tau), times=times, values=values, **fields)

    @classmethod
    def from_csv(cls, path, tau: float) -> "KernelSpec":
        """Two-column CSV (t, k(t)) with step-function semantics."""
        times, values = read_csv_columns(path, 2)
        if not times.size:
            raise ValueError(f"{path}: no data rows")
        return cls.tabulated(times, values, tau)

    # -- evaluation -----------------------------------------------------------

    @cached_property
    def _levels(self) -> np.ndarray:
        """k on step segment i = searchsorted(times, t, "right"): 0, then values."""
        return np.concatenate([[0.0], self.values])

    @cached_property
    def _segments(self):
        """(starts, masses, slopes) of the step segments on t >= 0.

        Segment i starts at starts[i] (0 for the segment before times[0]),
        carries int_0^{starts[i]} |k| = masses[i], and |k| = slopes[i] on it.
        """
        starts = np.concatenate([[0.0], self.times])
        slopes = np.abs(self._levels)
        masses = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(starts))])
        return starts, masses, slopes

    def eval(self, t) -> np.ndarray:
        """k(t); 0 for t < 0."""
        t = np.asarray(t, dtype=float)
        if self.kind == KERNEL_EXP_DECAY:
            out = np.where(t >= 0.0, self.k0 * np.exp(-self.rate * np.maximum(t, 0.0)), 0.0)
        else:
            out = self._levels[np.searchsorted(self.times, t, side="right")]
        return out if out.ndim else float(out)

    def cumabs(self, t) -> np.ndarray:
        """int_0^t |k(s)| ds in closed form (0 for t <= 0)."""
        t = np.asarray(t, dtype=float)
        tp = np.maximum(t, 0.0)
        if self.kind == KERNEL_EXP_DECAY:
            out = abs(self.k0) / self.rate * (1.0 - np.exp(-self.rate * tp))
        else:
            starts, masses, slopes = self._segments
            i = np.searchsorted(self.times, tp, side="right")
            out = masses[i] + slopes[i] * (tp - starts[i])
        return out if out.ndim else float(out)

    @property
    def is_l1(self) -> bool:
        """True when |k| has finite total mass on [0, inf)."""
        return self.kind == KERNEL_EXP_DECAY or self.values[-1] == 0.0

    def total_mass(self) -> float:
        """||k||_{L1[0, inf)} (inf when not integrable)."""
        if self.kind == KERNEL_EXP_DECAY:
            return abs(self.k0) / self.rate
        if self.values[-1] != 0.0:
            return math.inf
        return float(self.cumabs(self.times[-1]))


def kernel_window_bound(kernel: KernelSpec) -> float:
    """Lambda = sup_{t >= 0} int_{t-tau}^t |k| ds, exactly.

    The exponential gain decreases, so its worst window is [0, tau].  The
    window mass of a step table is piecewise linear in t, with kinks where
    either end of the window crosses a breakpoint, so its sup is taken over
    those ends.  It is capped at tau max|k|, which no window exceeds but a
    difference of rounded masses can, by a few ulps.
    """
    tau = kernel.tau
    if kernel.kind == KERNEL_EXP_DECAY:
        return float(kernel.cumabs(tau))
    starts, _, slopes = kernel._segments
    candidates = np.unique(np.concatenate([starts, starts + tau, [starts[-1] + 2 * tau]]))
    candidates = candidates[candidates >= 0.0]
    windows = kernel.cumabs(candidates) - kernel.cumabs(candidates - tau)
    return min(float(np.max(windows)), float(np.max(slopes)) * tau)


def certificate_exp(name: str, exponent: float) -> float:
    """e^exponent, a factor of a stability certificate; InfeasibleError naming
    the factor when it overflows."""
    return certificate_constant(f"{name} = e^{exponent:.6g}", lambda: math.exp(exponent))


@dataclass(frozen=True)
class GrowthEnvelope:
    """Feasible (alpha, omega') with scaled cumulative gain <= alpha + omega' t."""

    alpha: float
    omega_prime: float


def kernel_growth_check(kernel: KernelSpec, M: float, omega: float,
                        b: float) -> GrowthEnvelope:
    """Smallest feasible (alpha, omega') for the cumulative gain condition.

    L1 kernels give omega' = 0 and alpha = M b^2 e^{omega tau} ||k||_{L1};
    a step table with a nonzero final value (a constant gain among them) gets
    the slope of that value and a linear envelope over the breakpoints.
    Raises InfeasibleError when no omega' < omega works, or when e^{omega tau}
    overflows.
    """
    if M < 1 or omega <= 0 or b < 0:
        raise ValueError("need M >= 1, omega > 0, b >= 0")
    scale = M * b * b * certificate_exp("e^(omega tau)", omega * kernel.tau)
    if kernel.is_l1:
        return GrowthEnvelope(alpha=scale * kernel.total_mass(), omega_prime=0.0)
    # step table with a persistent final value: asymptotic slope + breakpoint envelope
    tail_slope = scale * abs(kernel.values[-1])
    if tail_slope >= omega:
        raise InfeasibleError(
            f"{kernel.kind} tail slope {tail_slope:.3e} >= omega {omega:.3e}")
    starts, _, _ = kernel._segments
    t_cand = np.unique(np.concatenate([[0.0], starts - kernel.tau, [starts[-1]]]))
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

    def node_range(self, grid: Grid, stacklevel: int = 2):
        """Snapped half-open node index range [i0, i1); warns on coarse snaps,
        naming the frame `stacklevel` levels up (the caller by default)."""
        i0 = max(int(round(self.lower / grid.h)), 1)
        i1 = min(int(round(self.upper / grid.h)), grid.n - 1)
        if i1 <= i0:
            raise SubdomainNotAlignedError("subdomain snaps to an empty node range")
        snap = max(abs(grid.nodes[i0] - self.lower), abs(grid.nodes[i1] - self.upper))
        if snap > 0.5 * grid.h + 1e-15:
            warnings.warn(f"subdomain endpoints snapped by {snap:.3e} > h/2",
                          stacklevel=stacklevel)
        return i0, i1


def apply_Bstar(sub: SubdomainP, grid: Grid, full: np.ndarray) -> np.ndarray:
    """Restrict a full nodal function to the snapped subdomain nodes."""
    full = np.asarray(full, dtype=float)
    if full.shape != (grid.n,):
        raise SubdomainNotAlignedError(f"expected {grid.n} nodal values")
    i0, i1 = sub.node_range(grid, stacklevel=3)  # a coarse snap names the caller
    return full[i0:i1].copy()


def subdomain_gain(nodes: np.ndarray, generator) -> float:
    """b = ||B|| from H = L2(P) into the generator's velocity space, for P
    snapped to the node indices `nodes` (`np.arange(*SubdomainP.node_range(grid))`).

    Multiplication by an indicator has unit norm into plain L2; into the
    1/a-weighted space the norm is the largest node ratio on P.
    """
    if not generator.kind.weighted_velocity:
        return 1.0
    a_on_p = generator.profile.grid_values[nodes]
    return float(np.sqrt(np.max(1.0 / a_on_p)))


# -- delay history --------------------------------------------------------------

HistoryInit = Union[None, float, Callable[[float], Union[float, np.ndarray]]]


def resolve_history(init: HistoryInit, m: int, dt: float, width: int) -> np.ndarray:
    """The (m + 1) x width initial history g at the slot times j dt, j = -m .. 0.

    `init` is None (zero history), a scalar, or a callable of the time that
    returns a scalar or `width` values; it is evaluated once per slot.  Raises
    ValueError on a non-finite value, and ArrayTooLargeError, before any
    evaluation, when the slots cannot be allocated.
    """
    slots = allocate((m + 1, width), "the initial history slots",
                     "raise dt or lower tau", zero=True)
    if init is None:
        return slots
    for row, j in enumerate(range(-m, 1)):
        val = np.asarray(init(j * dt) if callable(init) else init, dtype=float)
        if val.ndim and val.shape != (width,):
            raise SubdomainNotAlignedError(f"history values must be scalar or length {width}")
        slots[row] = val
    if not np.all(np.isfinite(slots)):
        raise ValueError("initial history has non-finite values")
    return slots


class HistoryBuffer:
    """The slot-norm record h ||trace||^2 of the delay traces, slot by slot.

    It is seeded with the m + 1 traces of the initial history (slot j at time
    j dt, j = -m .. 0), the step dt and the node spacing h of its norms, and
    each `push` records the next slot.
    """

    def __init__(self, slots: np.ndarray, dt: float, h: float):
        self.m = slots.shape[0] - 1
        self.dt = float(dt)
        self.h = float(h)
        self._width = slots.shape[1]
        self._norms_sq = []
        for trace in slots:
            self.push(trace)

    def push(self, trace: np.ndarray) -> None:
        """Append the trace for the next slot time."""
        trace = np.asarray(trace, dtype=float)
        if trace.shape != (self._width,):
            raise SubdomainNotAlignedError(
                f"trace must have length {self._width}")
        self._norms_sq.append(self.h * float(trace @ trace))

    @property
    def slot_norms_sq(self) -> np.ndarray:
        """h ||trace||^2 at every slot filled so far, from slot -m on."""
        return np.array(self._norms_sq)

    def window_norms_sq(self) -> np.ndarray:
        """h ||trace||^2 at the m+1 slots of the current window, oldest first."""
        return np.array(self._norms_sq[-(self.m + 1):])
