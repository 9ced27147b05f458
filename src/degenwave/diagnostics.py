"""Energy functionals, growth/decay bounds, and small-data certificates.

The energy of a delayed nonlinear trajectory is

    E(t) = kinetic + elastic + tip terms - int F(y) (+ 1/a weight where due)
           + (1/2) int_{t-tau}^{t} |k(s + tau)| ||B* y_t(s)||_H^2 ds.

Along any mild trajectory whose energy dominates a quarter of the squared
velocity norm, E(t) <= C(t) E(0) with the growth envelope

    C(t) = exp(2 int_0^t b^2 (|k(s)| + |k(s + tau)|) ds),

and small data below the threshold rho decay at the certified rate
(omega - omega') / 2.  This module evaluates all of those objects and fits
observed decay rates for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .delay import HistoryBuffer, KernelSpec, certificate_exp, kernel_window_bound
from .errors import BoundViolatedError, DegenerateFitError, InfeasibleError
from .nonlinearity import (NonlinearityConstants, SourceKind, eval_F_functional,
                           h_eval, h_inverse, lipschitz_bound)
from .operators import DiscreteGenerator, OperatorKind


#: table rows per `tolist` of the CSV writers; bounds the Python floats alive at once
CSV_BATCH = 256


def csv_lines(line_format: str, table: np.ndarray):
    """`line_format % row` for each row of a 2-d table, CSV_BATCH rows at a time."""
    for start in range(0, len(table), CSV_BATCH):
        for row in table[start:start + CSV_BATCH].tolist():
            yield line_format % tuple(row)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Summands of the energy; total is their exact arithmetic sum.

    The fields are floats for one state, or arrays over the records of a
    trajectory (`build` sums elementwise).
    """

    kinetic: float
    elastic: float
    boundary: float
    source: float
    history: float
    total: float

    @classmethod
    def build(cls, kinetic, elastic, boundary, source, history) -> "EnergyBreakdown":
        return cls(kinetic=kinetic, elastic=elastic, boundary=boundary,
                   source=source, history=history,
                   total=kinetic + elastic + boundary + source + history)


def slot_norms_sq(traces: np.ndarray, h: float) -> np.ndarray:
    """h ||trace||^2 for each row of a stack of delayed traces, summed row by
    row, so a row gets the same bits whatever stack it is in."""
    return h * np.square(traces).sum(axis=1)


def history_energies(kernel: KernelSpec, norms_sq: np.ndarray, m: int,
                     dt: float) -> np.ndarray:
    """(1/2) int_{t-tau}^{t} |k(s+tau)| ||B* y_t(s)||_H^2 ds by slot trapezoid,
    at every time t_i = i dt the slot-norm record reaches, oldest first.

    `norms_sq` holds h ||trace||^2 at the slots j = -m, -m + 1, ... (time
    j dt) in order, and entry i is the trapezoid over its slots i - m .. i.
    Each window is summed on its own; a running-sum difference would lose
    relative accuracy once the energy has decayed.
    """
    slot_times = np.arange(-m, len(norms_sq) - m) * dt
    a = np.abs(np.atleast_1d(kernel.eval(slot_times + kernel.tau))) * norms_sq
    sums = np.lib.stride_tricks.sliding_window_view(a, m + 1).sum(axis=1)
    return 0.5 * dt * (sums - 0.5 * (a[:-m] + a[m:]))


def history_energy(kernel: Optional[KernelSpec],
                   buffer: Optional[HistoryBuffer]) -> float:
    """The history energy at the newest slot of a slot-norm record (0
    without a delay)."""
    if kernel is None or buffer is None:
        return 0.0
    return float(history_energies(kernel, buffer.slot_norms_sq, buffer.m, buffer.dt)[-1])


def source_energy(generator: DiscreteGenerator, source: SourceKind, state: np.ndarray):
    """-int F(y) (1/a-weighted where the velocity space is) of one state (a
    float), or of each state of a stack along the last axis (an array)."""
    if source.is_none:
        return 0.0
    u, _ = generator.split(state)
    return -eval_F_functional(source, generator.embed(u), generator.profile,
                              weighted=generator.kind.weighted_velocity)


def energy_breakdown(generator: DiscreteGenerator, source: SourceKind,
                     state: np.ndarray, kernel: Optional[KernelSpec] = None,
                     buffer=None) -> EnergyBreakdown:
    """Kind-dispatched energy of one state (with its delay window)."""
    kinetic, elastic, boundary = generator.energy_parts(state)
    return EnergyBreakdown.build(kinetic, elastic, boundary,
                                 source_energy(generator, source, state),
                                 history_energy(kernel, buffer))


def growth_envelope_C(kernel: Optional[KernelSpec], b: float, t) -> np.ndarray:
    """C(t) = exp(2 b^2 (int_0^t |k| + int_tau^{t+tau} |k|)); C(0) = 1."""
    t = np.asarray(t, dtype=float)
    if kernel is None:
        out = np.ones_like(t)
        return out if out.ndim else float(out)
    shifted = kernel.cumabs(t + kernel.tau) - kernel.cumabs(kernel.tau)
    out = np.exp(2.0 * b * b * (kernel.cumabs(t) + shifted))
    return out if out.ndim else float(out)


@dataclass
class BoundReport:
    """Per-step margins of the conditional growth bound E(t) <= C(t) E(0)."""

    times: np.ndarray
    ratios: np.ndarray            # E(t) / (C(t) E(0)), nan on excluded steps
    included: np.ndarray          # premise E >= (1/4)||y_t||^2 held
    max_ratio: float
    n_excluded: int
    lower_bound_checked: bool

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,included,bound_ratio\n")
            fh.writelines(csv_lines("%.17g,%d,%.17g\n", np.column_stack(
                (self.times, self.included, self.ratios))))


def energy_bound_check(trajectory, kernel: Optional[KernelSpec], b: float,
                       source: Optional[SourceKind] = None,
                       constants: Optional[NonlinearityConstants] = None,
                       tol: float = 0.05,
                       raise_on_violation: bool = True) -> BoundReport:
    """Check E(t) <= (1 + tol) C(t) E(0) on every step where the premise holds.

    Steps with E < (1/4)||y_t||^2 are excluded (the bound is conditional) and
    counted.  When the small-data premises of the quarter lower bound hold
    (h(||y0''||) < 1/2 and h(2 sqrt(C(T) E(0))) < 1/2, checkable only with the
    source constants on the weighted beam), E(t) > (1/4)||Y(t)||^2 is verified
    too.  Raises BoundViolatedError with the worst step on failure unless
    raise_on_violation is off (then the report records the excess ratio).
    """
    gen = trajectory.scenario.generator
    total = np.asarray(trajectory.energies.total)
    e0 = float(total[0])
    times = np.asarray(trajectory.times)
    envelope = np.atleast_1d(growth_envelope_C(kernel, b, times))

    # (1/4)||y_t||^2 = kinetic / 2
    included = np.isfinite(total) & (total >= 0.5 * trajectory.energies.kinetic)
    bound = envelope * e0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, total / bound, np.where(total <= 0, 0.0, math.inf))
    ranked = np.where(included, ratios, 0.0)
    worst = int(np.argmax(ranked))
    max_ratio = max(float(ranked[worst]), 0.0)
    ratios = np.where(included, ratios, np.nan)
    if max_ratio > 1.0 + tol and raise_on_violation:
        raise BoundViolatedError(
            f"growth bound violated at t = {times[worst]:.6g}: ratio {max_ratio:.6g}",
            step=worst, time=float(times[worst]), ratio=max_ratio)

    lower_checked = False
    if (max_ratio <= 1.0 + tol and source is not None and constants is not None
            and gen.kind is OperatorKind.BEAM_NONDIV):
        u0, _ = gen.split(trajectory.scenario.initial_state)
        curv0 = gen.elastic_seminorm(u0)
        c_at_end = float(np.atleast_1d(growth_envelope_C(kernel, b, times[-1]))[0])
        if (e0 > 0 and h_eval(source, constants, curv0) < 0.5
                and h_eval(source, constants, 2.0 * math.sqrt(c_at_end * e0)) < 0.5):
            lower_checked = True
            nrm_sq = np.asarray(trajectory.state_norms) ** 2
            below = np.flatnonzero(np.isfinite(total)
                                   & (total <= 0.25 * nrm_sq * (1.0 - tol) - 1e-14))
            if below.size and raise_on_violation:
                i = int(below[0])
                raise BoundViolatedError(
                    f"quarter lower bound violated at t = {times[i]:.6g}",
                    step=i, time=float(times[i]),
                    ratio=total[i] / (0.25 * nrm_sq[i]))

    return BoundReport(times=times, ratios=ratios, included=included,
                       max_ratio=max_ratio, n_excluded=int(len(times) - included.sum()),
                       lower_bound_checked=lower_checked)


# -- small-data threshold ----------------------------------------------------------


#: candidate horizons T of the small-data certificate, ascending
HORIZON_GRID = np.geomspace(1.0, 1e3, 241)

#: the halving search for rho gives up below this radius
RHO_FLOOR = 1e-12


@dataclass(frozen=True)
class ThresholdCertificate:
    """Small-data threshold and certified decay rate."""

    T: float
    C_of_T: float
    rho: float
    C_rho: float
    L_at_C_rho: float
    predicted_rate: float
    C_T_condition: float
    feasible: bool


def threshold_certificate(semigroup, kernel: KernelSpec, envelope, b: float,
                          source: SourceKind,
                          constants: NonlinearityConstants) -> ThresholdCertificate:
    """Resolve (T, rho, C_rho) of the small-data global decay certificate.

    T is the smallest point of HORIZON_GRID with

        C_T = 2 M^2 e^{2 alpha} (1 + Lambda e^{omega tau} b^2)
              (1 + Lambda e^{2 omega tau} b^2) e^{-(omega - omega') T} <= 1,

    rho starts at h^{-1}(1/2) / (2 sqrt(C(T))) and halves until
    L(2 sqrt(C(T)) rho) < (omega - omega') / (2M).  Certified rate:
    (omega - omega') / 2.  Raises InfeasibleError when no T fits the grid or
    rho falls below RHO_FLOOR.
    """
    m_const, omega = semigroup.M, semigroup.omega
    alpha, omega_prime = envelope.alpha, envelope.omega_prime
    if omega_prime >= omega:
        raise InfeasibleError("omega' >= omega")
    lam = kernel_window_bound(kernel)
    tau = kernel.tau

    gap = omega - omega_prime
    prefactor = (2.0 * m_const ** 2 * certificate_exp("e^(2 alpha)", 2.0 * alpha)
                 * (1.0 + lam * certificate_exp("e^(omega tau)", omega * tau) * b * b)
                 * (1.0 + lam * certificate_exp("e^(2 omega tau)", 2.0 * omega * tau) * b * b))
    ct_values = prefactor * np.exp(-gap * HORIZON_GRID)
    feasible_idx = np.nonzero(ct_values <= 1.0)[0]
    if feasible_idx.size == 0:
        raise InfeasibleError("no horizon T on the search grid satisfies C_T <= 1")
    t_star = float(HORIZON_GRID[feasible_idx[0]])
    ct_value = float(ct_values[feasible_idx[0]])

    c_of_t = float(np.atleast_1d(growth_envelope_C(kernel, b, t_star))[0])
    sqrt_c = math.sqrt(c_of_t)
    rho = h_inverse(source, constants, 0.5) / (2.0 * sqrt_c)
    rate_cap = gap / (2.0 * m_const)
    while lipschitz_bound(source, constants, 2.0 * sqrt_c * rho) >= rate_cap:
        rho *= 0.5
        if rho < RHO_FLOOR:
            raise InfeasibleError(f"rho underflowed below {RHO_FLOOR:g}")
    c_rho = 2.0 * sqrt_c * rho
    l_val = lipschitz_bound(source, constants, c_rho)
    return ThresholdCertificate(
        T=t_star, C_of_T=c_of_t, rho=rho, C_rho=c_rho, L_at_C_rho=l_val,
        predicted_rate=0.5 * gap, C_T_condition=ct_value, feasible=True)


@dataclass(frozen=True)
class CertificationResult:
    """Everything the certify pipeline produces, ready for reporting."""

    M: float
    omega: float
    b: float
    lambda_window: float
    alpha: float
    omega_prime: float
    threshold: ThresholdCertificate
    semigroup_note: str = ""

    def report_lines(self):
        th = self.threshold
        return [
            f"M: {self.M:.12g}",
            f"omega: {self.omega:.12g}",
            f"b: {self.b:.12g}",
            f"lambda_window: {self.lambda_window:.12g}",
            f"alpha: {self.alpha:.12g}",
            f"omega_prime: {self.omega_prime:.12g}",
            f"T: {th.T:.12g}",
            f"C_of_T: {th.C_of_T:.12g}",
            f"C_T_condition: {th.C_T_condition:.12g}",
            f"rho: {th.rho:.12g}",
            f"C_rho: {th.C_rho:.12g}",
            f"L_at_C_rho: {th.L_at_C_rho:.12g}",
            f"predicted_rate: {th.predicted_rate:.12g}",
            f"feasible: {'yes' if th.feasible else 'no'}",
            f"semigroup: {self.semigroup_note}",
        ]


# -- decay fitting -------------------------------------------------------------------


#: share of the records, counted from the end, that `decay_fit` fits
FIT_WINDOW_FRAC = 0.6


@dataclass(frozen=True)
class DecayFit:
    rate: float
    r_squared: float


def decay_fit(trajectory) -> DecayFit:
    """Least-squares decay rate of log ||Y(t)|| over the trailing
    FIT_WINDOW_FRAC of a trajectory's records.

    Reads the trajectory's `times` and `state_norms`.  Points with norm
    below 1e-14 are dropped; if none survive anywhere, DegenerateFitError.
    """
    times = np.asarray(trajectory.times, dtype=float)
    norms = np.asarray(trajectory.state_norms, dtype=float)
    if not np.any(norms > 1e-14):
        raise DegenerateFitError("state norm below 1e-14 everywhere")
    start = int(len(times) * (1.0 - FIT_WINDOW_FRAC))
    t_fit = times[start:]
    n_fit = norms[start:]
    keep = np.isfinite(n_fit) & (n_fit > 1e-14)
    t_fit, n_fit = t_fit[keep], n_fit[keep]
    if t_fit.size < 3:
        raise DegenerateFitError("fewer than 3 usable points in the fit window")
    logs = np.log(n_fit)
    slope, intercept = np.polyfit(t_fit, logs, 1)
    pred = slope * t_fit + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(rate=float(-slope), r_squared=r2)
