"""Energy functionals, growth/decay bounds, and small-data certificates.

The energy of a delayed nonlinear trajectory is

    E(t) = kinetic + elastic + tip terms - int F(y) (+ 1/a weight where due)
           + (1/2) int_{t-tau}^{t} |k(s + tau)| ||B* y_t(s)||_H^2 ds.

Along any mild trajectory whose energy dominates a quarter of the squared
velocity norm, E(t) <= C(t) E(0) with the growth envelope

    C(t) = exp(2 int_0^t b^2 (|k(s)| + |k(s + tau)|) ds),

and small data below the threshold rho decay at the certified rate
(omega - omega') / 2.  This module evaluates all of those objects and fits
observed decay rates for comparison; the quarter lower bound
E(t) >= (1/4)||Y(t)||^2 of small data is an acceptance oracle of the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .delay import (GrowthEnvelope, HistoryBuffer, KernelSpec, certificate_exp,
                    kernel_window_bound)
from .errors import DegenerateFitError, InfeasibleError
from .nonlinearity import (NonlinearityConstants, SourceKind, eval_F_functional,
                           h_inverse, lipschitz_bound)
from .operators import DiscreteGenerator


#: table rows per `tolist` of the CSV writers; bounds the Python floats alive at once
CSV_BATCH = 256

#: relative slack of `BoundReport.holds`: E(t) <= (1 + GROWTH_TOL) C(t) E(0)
GROWTH_TOL = 0.05


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
    """h ||trace||^2 for each trace (last axis) of a stack of delayed traces,
    summed trace by trace, so a trace gets the same bits in any stack."""
    return h * np.square(traces).sum(axis=-1)


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
    """C(t) = exp(2 b^2 (int_0^t |k| + int_tau^{t+tau} |k|)); C(0) = 1; a float at scalar t."""
    t = np.asarray(t, dtype=float)
    if kernel is None:
        out = np.ones_like(t)
        return out if out.ndim else float(out)
    shifted = kernel.cumabs(t + kernel.tau) - kernel.cumabs(kernel.tau)
    with np.errstate(over="ignore"):  # C(t) = inf is the envelope's value there
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

    @property
    def holds(self) -> bool:
        """The verdict: E(t) <= (1 + GROWTH_TOL) C(t) E(0) on every included step."""
        return self.max_ratio <= 1.0 + GROWTH_TOL

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,included,bound_ratio\n")
            fh.writelines(csv_lines("%.17g,%d,%.17g\n", np.column_stack(
                (self.times, self.included, self.ratios))))


def energy_bound_check(trajectory) -> BoundReport:
    """The margins of E(t) <= C(t) E(0) on every step where the premise holds.

    The envelope C reads the kernel and the gain b of the trajectory's
    scenario.  Steps with E < (1/4)||y_t||^2 are excluded (the bound is
    conditional) and counted.  The report's `holds` is the verdict; a bound
    that fails is recorded in its ratios, not raised.
    """
    scenario = trajectory.scenario
    total = np.asarray(trajectory.energies.total)
    times = np.asarray(trajectory.times)
    bound = growth_envelope_C(scenario.kernel, scenario.b, times) * float(total[0])
    # (1/4)||y_t||^2 = kinetic / 2
    included = np.isfinite(total) & (total >= 0.5 * trajectory.energies.kinetic)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, total / bound, np.where(total <= 0, 0.0, math.inf))
    max_ratio = max(float(np.max(np.where(included, ratios, 0.0))), 0.0)
    return BoundReport(times=times, ratios=np.where(included, ratios, np.nan),
                       included=included, max_ratio=max_ratio,
                       n_excluded=int(len(times) - included.sum()))


# -- small-data threshold ----------------------------------------------------------


#: candidate horizons T of the small-data certificate, ascending
HORIZON_GRID = np.geomspace(1.0, 1e3, 241)

#: the halving search for rho gives up below this radius
RHO_FLOOR = 1e-12


@dataclass(frozen=True)
class ThresholdCertificate:
    """Small-data threshold and certified decay rate, with the window bound Lambda."""

    lambda_window: float
    T: float
    C_of_T: float
    rho: float
    C_rho: float
    L_at_C_rho: float
    predicted_rate: float
    C_T_condition: float


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

    c_of_t = growth_envelope_C(kernel, b, t_star)
    sqrt_c = math.sqrt(c_of_t)
    rho = h_inverse(source, constants, 0.5) / (2.0 * sqrt_c)
    rate_cap = gap / (2.0 * m_const)
    while rho >= RHO_FLOOR and lipschitz_bound(source, constants, 2.0 * sqrt_c * rho) >= rate_cap:
        rho *= 0.5
    if rho < RHO_FLOOR:
        raise InfeasibleError(f"rho underflowed below {RHO_FLOOR:g}")
    c_rho = 2.0 * sqrt_c * rho
    l_val = lipschitz_bound(source, constants, c_rho)
    return ThresholdCertificate(
        lambda_window=lam, T=t_star, C_of_T=c_of_t, rho=rho, C_rho=c_rho, L_at_C_rho=l_val,
        predicted_rate=0.5 * gap, C_T_condition=ct_value)


@dataclass(frozen=True)
class CertificationResult:
    """Everything the certify pipeline produces, ready for reporting: the
    semigroup certificate, the kernel's growth envelope, the gain b and the
    small-data threshold (with the window bound)."""

    semigroup: "evolution.SemigroupCertificate"
    envelope: GrowthEnvelope
    b: float
    threshold: ThresholdCertificate

    def report_lines(self):
        semi, env, th = self.semigroup, self.envelope, self.threshold
        return [
            f"M: {semi.M:.12g}",
            f"omega: {semi.omega:.12g}",
            f"b: {self.b:.12g}",
            f"lambda_window: {th.lambda_window:.12g}",
            f"alpha: {env.alpha:.12g}",
            f"omega_prime: {env.omega_prime:.12g}",
            f"T: {th.T:.12g}",
            f"C_of_T: {th.C_of_T:.12g}",
            f"C_T_condition: {th.C_T_condition:.12g}",
            f"rho: {th.rho:.12g}",
            f"C_rho: {th.C_rho:.12g}",
            f"L_at_C_rho: {th.L_at_C_rho:.12g}",
            f"predicted_rate: {th.predicted_rate:.12g}",
            "feasible: yes",
            f"semigroup: {semi.method_note}",
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
    The line y = log ||Y|| ~ slope t + intercept is the centred closed form

        slope = sum (t - t_mean)(y - y_mean) / sum (t - t_mean)^2,
        intercept = y_mean - slope t_mean

    (Chan, Golub & LeVeque 1983): a two-parameter line needs no LAPACK
    least-squares solve, so a run that fits makes no numpy.linalg call.
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
    t_mean, log_mean = np.mean(t_fit), np.mean(logs)
    t_dev, log_dev = t_fit - t_mean, logs - log_mean
    slope = np.sum(t_dev * log_dev) / np.sum(t_dev * t_dev)
    intercept = log_mean - slope * t_mean
    pred = slope * t_fit + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum(log_dev ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(rate=float(-slope), r_squared=r2)
