"""Time integration of the semi-discrete delayed system and its oracles.

The semi-discrete system is

    dY/dt = A Y - k(t) B Y(t - tau) + F(Y),     Y = (u, v),

with A the assembled generator, B Y = (0, chi_P v) the subdomain feedback and
F(Y) = (0, f(u)) the source.  Stepping is IMEX: the stiff linear part A is
advanced by the trapezoidal rule, whose implicit solve reduces exactly to
one n x n system on the velocity block (see `_Stepper`); the delay term,
whose values are known history slots on both step endpoints, is integrated
by the midpoint rule; the source is extrapolated by a two-step
Adams-Bashforth combination of current-state evaluations.  dt must divide
tau, so delayed values are exact buffer slots and no interpolation error
enters.

Also here: sampled semigroup certificates ||e^{tA}|| <= M e^{-omega t} in the
state norm, and a dense matrix-exponential evaluation of the
variation-of-constants formula used as an integration oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.linalg

from . import diagnostics
from .delay import (HistoryBuffer, HistoryInit, KernelSpec, SubdomainP,
                    kernel_growth_check, kernel_window_bound, slot_index,
                    subdomain_gain)
from .errors import (LinearSolveFailureError, NotExponentiallyStableError,
                     QueryOutOfWindowError)
from .nonlinearity import SourceKind, constants_for, eval_f
from .operators import DiscreteGenerator

#: state-norm threshold treated as blow-up
BLOWUP_NORM = 1e8


@dataclass(eq=False)
class Scenario:
    """Full problem description: operator, delay feedback, source, data, run."""

    generator: DiscreteGenerator
    source: SourceKind
    y0: np.ndarray                      # full nodal displacement
    y1: np.ndarray                      # full nodal velocity
    t_end: float
    dt: float
    kernel: Optional[KernelSpec] = None
    subdomain: Optional[SubdomainP] = None
    history: HistoryInit = None

    def __post_init__(self):
        gen = self.generator
        self.y0 = np.asarray(self.y0, dtype=float)
        self.y1 = np.asarray(self.y1, dtype=float)
        if self.y0.shape != (gen.grid.n,) or self.y1.shape != (gen.grid.n,):
            raise ValueError("initial data must be full nodal vectors")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        pinned = np.setdiff1d(np.arange(gen.grid.n), gen.free)
        scale = max(float(np.max(np.abs(self.y0))), float(np.max(np.abs(self.y1))), 1.0)
        if pinned.size and (np.max(np.abs(self.y0[pinned])) > 1e-10 * scale
                            or np.max(np.abs(self.y1[pinned])) > 1e-10 * scale):
            raise ValueError("initial data violates the essential x = 0 conditions")
        if (self.kernel is None) != (self.subdomain is None):
            raise ValueError("kernel and subdomain must be given together")
        if self.kernel is not None:
            m = slot_index(self.kernel.tau, self.dt, self.kernel.tau)
            if m is None or m < 1:
                raise ValueError("dt must divide the delay tau exactly")
            # explicit terms want dt below the inverse feedback strength;
            # deliberately violent gains are allowed to run (blow-up detection)
            gain = abs(self.kernel.k0) if self.kernel.kind != "tabulated" \
                else float(np.max(np.abs(self.kernel.values)))
            b = subdomain_gain(self.subdomain, gen)
            if gain * b * b * self.dt > 1.0:
                warnings.warn("dt exceeds the explicit delay-term bound; "
                              "expect inaccuracy or growth", stacklevel=2)

    @property
    def subdomain_dofs(self) -> Optional[np.ndarray]:
        """Free-dof positions of the subdomain nodes (all interior, hence free)."""
        if self.subdomain is None:
            return None
        return np.searchsorted(self.generator.free, self.subdomain.indices(self.generator.grid))

    @property
    def initial_state(self) -> np.ndarray:
        gen = self.generator
        return gen.join(gen.restrict(self.y0), gen.restrict(self.y1))

    def make_buffer(self) -> Optional[HistoryBuffer]:
        if self.kernel is None:
            return None
        return HistoryBuffer(self.subdomain, self.generator.grid, self.dt,
                             self.kernel.tau, init=self.history)


@dataclass(frozen=True)
class SemigroupCertificate:
    """Constants with ||e^{tA}||_state <= M e^{-omega t} at all sampled t."""

    M: float
    omega: float
    method_note: str = ""


@dataclass(eq=False)
class Trajectory:
    """The state at every step of a run, with per-record diagnostics.

    Every field is an array over the records (one per step, plus the initial
    state), computed once in batch from `states` by `simulate`; `energies`
    holds one array per energy summand.  The record of a non-finite state
    carries inf energies, norm and damping rate and nan tip values.
    """

    times: np.ndarray
    states: np.ndarray                  # (steps+1, 2 ndof)
    state_norms: np.ndarray
    energies: diagnostics.EnergyBreakdown  # fields are arrays over the records
    damping_rates: np.ndarray           # v^T D v per step
    tip_values: np.ndarray              # y(1)
    tip_velocities: np.ndarray          # y_t(1)
    blew_up: bool
    scenario: Scenario = field(repr=False)

    CSV_COLUMNS = ("t", "E_total", "E_kinetic", "E_elastic", "E_boundary",
                   "E_source", "E_history", "state_norm", "y_at_1", "yt_at_1")

    def to_csv(self, path) -> None:
        e = self.energies
        table = np.column_stack((self.times, e.total, e.kinetic, e.elastic, e.boundary,
                                 e.source, e.history, self.state_norms, self.tip_values,
                                 self.tip_velocities))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\n")
            for row in table.tolist():
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


# -- semigroup constants ---------------------------------------------------------


def spectral_abscissa(system_matrix: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(system_matrix).real))


def _state_weight_sqrt(generator: DiscreteGenerator):
    """W^{1/2} and W^{-1/2} for the block weight diag(K, M) of the state norm."""
    k = generator.stiffness_form
    evals, evecs = np.linalg.eigh(k)
    floor = max(evals[-1], 1.0) * 1e-13
    evals = np.maximum(evals, floor)
    k_half = evecs @ (np.sqrt(evals)[:, None] * evecs.T)
    k_ihalf = evecs @ ((1.0 / np.sqrt(evals))[:, None] * evecs.T)
    m_half = np.sqrt(generator.mass)
    n = generator.ndof
    whalf = np.zeros((2 * n, 2 * n))
    wihalf = np.zeros((2 * n, 2 * n))
    whalf[:n, :n] = k_half
    wihalf[:n, :n] = k_ihalf
    whalf[n:, n:] = np.diag(m_half)
    wihalf[n:, n:] = np.diag(1.0 / m_half)
    return whalf, wihalf


def semigroup_constants(generator: Union[DiscreteGenerator, np.ndarray],
                        horizon: float = 20.0, samples: int = 80,
                        recheck: int = 50) -> SemigroupCertificate:
    """Sampled (M, omega) with omega = 0.9 x (decay rate of the slowest mode).

    The operator norm is taken in the generator's state norm via a similarity
    transform by the square-root weight (Euclidean norm for a plain matrix).
    The horizon is extended until ||e^{HA}|| e^{omega H} <= 1, which makes the
    sampled bound valid for every t >= 0 by submultiplicativity; the bound is
    then re-verified on `recheck` off-grid times.
    """
    if isinstance(generator, DiscreteGenerator):
        sysm = generator.system_matrix
        whalf, wihalf = _state_weight_sqrt(generator)
        a_tilde = whalf @ sysm @ wihalf
    else:
        a_tilde = np.asarray(generator, dtype=float)
    if a_tilde.shape[0] > 1024:
        raise ValueError("state dimension too large for dense matrix exponentials")
    abscissa = spectral_abscissa(a_tilde)
    if abscissa >= -1e-12:
        raise NotExponentiallyStableError(
            f"spectral abscissa {abscissa:.3e} is not negative")
    omega = 0.9 * (-abscissa)

    def opnorm(t: float) -> float:
        return float(scipy.linalg.norm(scipy.linalg.expm(t * a_tilde), 2))

    for _ in range(8):
        if opnorm(horizon) * math.exp(omega * horizon) <= 1.0:
            break
        horizon *= 2.0
    ts = np.linspace(0.0, horizon, samples + 1)
    m_const = max(opnorm(t) * math.exp(omega * t) for t in ts)
    extra = (np.arange(recheck) + 0.5) * horizon / recheck
    m_extra = max(opnorm(t) * math.exp(omega * t) for t in extra)
    m_const = max(m_const, m_extra, 1.0)
    note = (f"sampled on {samples + 1}+{recheck} times over [0, {horizon:g}], "
            f"omega = 0.9 x {-abscissa:.6g}")
    return SemigroupCertificate(M=m_const, omega=omega, method_note=note)


# -- IMEX stepping ---------------------------------------------------------------


class _Stepper:
    """Trapezoidal linear part, midpoint delay term, AB2 source.

    Every implicit stage goes through `solve`, which solves
    (I - dt/2 A) x = r on the velocity block: with h = dt/2 and r = (r1, r2),

        (M + h D + h^2 K) v = M r2 - h K r1,    u = r1 + h v,

    so one LU factor of the n x n matrix M + h D + h^2 K serves every step
    (Golub & Van Loan, section 4.3).  The trapezoid step is taken in its
    implicit-midpoint form new = 2 solve(y + h G) - y, which is the same map
    as (I - hA)^{-1}((I + hA) y + dt G) and needs no product with A.

    When explicit terms are active, the first `smoothing_steps` steps are
    taken as pairs of backward-Euler half-steps (Rannacher smoothing): the
    switch-on of the feedback excites the heavily damped tip mode, whose
    trapezoidal ringing otherwise degrades the global order below two.
    Undelayed unforced runs are pure trapezoid, so the discrete energy
    telescopes exactly.
    """

    def __init__(self, scenario: Scenario, smoothing_steps: int = 2):
        self.sc = scenario
        gen = scenario.generator
        self.gen = gen
        self.half_dt = h = 0.5 * scenario.dt
        block = h * gen.damping_form + (h * h) * gen.stiffness_form
        block[np.diag_indices_from(block)] += gen.mass
        try:
            self.lu = scipy.linalg.lu_factor(block)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise LinearSolveFailureError(str(exc)) from exc
        self.sub_free = scenario.subdomain_dofs
        has_explicit = (scenario.kernel is not None) or (not scenario.source.is_none)
        self.smoothing_left = smoothing_steps if has_explicit else 0
        self.prev_source = None

    def delayed_trace(self, t: float, buffer: HistoryBuffer) -> np.ndarray:
        """B* y_t(t - tau) at a slot time, or between the two adjacent slots at
        a half-slot time; any other time raises.

        The half-slot weights are (1 - frac, frac) with frac = (t - tau)/dt - lo,
        which is 1/2 up to the rounding of t.  Runs are sensitive to that
        rounding: on the README scenario, weights of exactly 1/2 move the
        final state norm (t = 10) by 5e-6 relative.
        """
        tau, dt = self.sc.kernel.tau, self.sc.dt
        half_slots = slot_index(t - tau, 0.5 * dt, tau)
        if half_slots is None:
            raise QueryOutOfWindowError(f"t - tau = {t - tau} is not a slot or half-slot time")
        lo, odd = divmod(half_slots, 2)
        if not odd:
            return buffer.sample_step(lo)
        frac = (t - tau) / dt - lo
        return (1.0 - frac) * buffer.sample_step(lo) + frac * buffer.sample_step(lo + 1)

    def delay_term(self, t: float, buffer: Optional[HistoryBuffer]) -> np.ndarray:
        out = np.zeros(2 * self.gen.ndof)
        if buffer is not None:
            k_t = float(self.sc.kernel.eval(t))
            if k_t != 0.0:
                out[self.gen.ndof:][self.sub_free] -= k_t * self.delayed_trace(t, buffer)
        return out

    def source_term(self, state: np.ndarray) -> np.ndarray:
        gen = self.gen
        out = np.zeros(2 * gen.ndof)
        if not self.sc.source.is_none:
            u, _ = gen.split(state)
            f_full = eval_f(self.sc.source, gen.embed(u), gen.grid)
            out[gen.ndof:] = f_full[gen.free]
        return out

    def explicit_term(self, t: float, state: np.ndarray,
                      buffer: Optional[HistoryBuffer]) -> np.ndarray:
        return self.delay_term(t, buffer) + self.source_term(state)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """x with (I - dt/2 A) x = r, by the velocity-block reduction."""
        gen, h = self.gen, self.half_dt
        r1, r2 = gen.split(r)
        v = scipy.linalg.lu_solve(self.lu, gen.mass * r2 - h * (gen.stiffness_form @ r1),
                                  check_finite=False)
        return gen.join(r1 + h * v, v)

    def step(self, t: float, state: np.ndarray,
             buffer: Optional[HistoryBuffer]) -> np.ndarray:
        dt, h = self.sc.dt, self.half_dt
        if self.smoothing_left > 0:
            self.smoothing_left -= 1
            # two backward-Euler half-steps with the shared (I - dt/2 A) factor
            half_state = self.solve(state + h * self.explicit_term(t + h, state, buffer))
            new = self.solve(half_state + h * self.explicit_term(t + dt, half_state, buffer))
            self.prev_source = self.source_term(new)
        else:
            # delay term at the midpoint in time: the two adjacent buffer
            # slots average to the half-slot trace, which also annihilates
            # any step-frequency ringing before it can feed back; the source
            # is Adams-Bashforth extrapolated from known states
            src = self.source_term(state)
            prev = self.prev_source if self.prev_source is not None else src
            explicit = self.delay_term(t + h, buffer) + (1.5 * src - 0.5 * prev)
            new = 2.0 * self.solve(state + h * explicit) - state
            self.prev_source = src
        if buffer is not None:
            _, v = self.gen.split(new)
            buffer.push(v[self.sub_free])
        return new


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate to t_end, then record every state's diagnostics in one pass.

    The states fill one preallocated array; the run stops early at the first
    non-finite state or state norm above BLOWUP_NORM.  Energies, norms,
    damping rates and tip traces are then computed in batch over all records.
    The history energy of record i is the slot trapezoid over the window
    i - m .. i of the traces: the initial history for slots s <= 0, and the
    recorded velocities on P for s >= 1.
    """
    gen = scenario.generator
    stepper = _Stepper(scenario)
    buffer = scenario.make_buffer()
    nsteps = int(round(scenario.t_end / scenario.dt))
    initial_norms_sq = buffer.window_norms_sq() if buffer is not None else None

    states = np.empty((nsteps + 1, 2 * gen.ndof))
    states[0] = scenario.initial_state
    nrec = nsteps + 1
    blew_up = False
    for ell in range(nsteps):
        state = stepper.step(ell * scenario.dt, states[ell], buffer)
        states[ell + 1] = state
        if not np.all(np.isfinite(state)) or gen.state_norm(state) > BLOWUP_NORM:
            blew_up = True
            nrec = ell + 2
            break
    states = states[:nrec]
    times = np.arange(nrec) * scenario.dt

    u, v = states[:, :gen.ndof], states[:, gen.ndof:]
    history = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if buffer is not None:
            traces = v[1:, stepper.sub_free]
            slot_norms_sq = np.concatenate(
                [initial_norms_sq, gen.grid.h * np.einsum("ij,ij->i", traces, traces)])
            history = diagnostics.history_energies(scenario.kernel, scenario.dt,
                                                   slot_norms_sq)
        energies = diagnostics.energy_records(gen, scenario.source, states, history)
        norms = np.sqrt(2.0 * (energies.kinetic + energies.elastic + energies.boundary))
        tip_val = u @ gen.trace_value
        tip_vel = v @ gen.trace_value
        damping = (gen.damping_value_coeff * tip_vel ** 2
                   + gen.damping_slope_coeff * (v @ gen.trace_slope) ** 2)
    bad = ~np.all(np.isfinite(states), axis=1)
    damping[bad] = math.inf
    tip_val[bad] = math.nan
    tip_vel[bad] = math.nan

    return Trajectory(times=times, states=states, state_norms=norms, energies=energies,
                      damping_rates=damping, tip_values=tip_val, tip_velocities=tip_vel,
                      blew_up=blew_up, scenario=scenario)


# -- variation-of-constants oracle ------------------------------------------------


def duhamel_residual(scenario: Scenario, trajectory: Trajectory,
                     check_stride: int = 1) -> float:
    """Max relative mismatch between the trajectory and the Duhamel evaluation.

    Source must be disabled.  The homogeneous part is propagated by the dense
    matrix exponential of one step; the delay integral by the product
    trapezoid rule (piecewise-linear density integrated exactly against the
    propagator) over the same slot grid, with the delayed traces taken from
    the recorded states (from the initial history for s < tau).  Second order
    in dt uniformly in the stiffness, so it is an independent correctness
    oracle for the integrator.
    """
    if not scenario.source.is_none:
        raise ValueError("duhamel oracle requires source = none")
    gen = scenario.generator
    if gen.grid.n > 64:
        raise ValueError("duhamel oracle is a desk-scale check (n <= 64)")
    dt = scenario.dt
    sysm = gen.system_matrix
    prop = scipy.linalg.expm(dt * sysm)
    # product-trapezoid weights: integrate the propagator against a piecewise
    # linear density exactly, so stiff tip modes cost no quadrature order
    q0 = np.linalg.solve(sysm, prop - np.eye(sysm.shape[0]))
    q1 = np.linalg.solve(sysm, q0 - dt * np.eye(sysm.shape[0]))

    nrec = trajectory.states.shape[0]
    phi = np.zeros((nrec, 2 * gen.ndof))
    if scenario.kernel is not None:
        buffer = scenario.make_buffer()
        sub_free = scenario.subdomain_dofs
        tau = scenario.kernel.tau
        for j in range(nrec):
            t_j = trajectory.times[j]
            k_t = float(scenario.kernel.eval(t_j))
            delayed_step = round((t_j - tau) / dt)
            if delayed_step <= 0:
                trace = buffer.sample_step(delayed_step)
            else:
                _, v = gen.split(trajectory.states[delayed_step])
                trace = v[sub_free]
            phi[j, gen.ndof:][sub_free] = -k_t * trace

    y_hom = trajectory.states[0].copy()
    integral = np.zeros(2 * gen.ndof)
    worst = 0.0
    ref_scale = max(gen.state_norm(trajectory.states[0]), 1e-300)
    for j in range(1, nrec):
        y_hom = prop @ y_hom
        integral = (prop @ integral + q0 @ phi[j - 1]
                    + (q1 @ (phi[j] - phi[j - 1])) / dt)
        if j % check_stride:
            continue
        y_ref = y_hom + integral
        mism = gen.state_norm(trajectory.states[j] - y_ref)
        denom = max(gen.state_norm(y_ref), ref_scale * 1e-8)
        worst = max(worst, mism / denom)
    return worst


# -- initial-data helpers -----------------------------------------------------------


def eigenmode_state(generator: DiscreteGenerator, mode: int = 0,
                    amplitude: float = 1.0, by: str = "frequency"):
    """(y0, y1) from the mode-th eigenpair of the system matrix.

    Eigenvalues are deduplicated by conjugacy and ordered by ascending
    frequency |Im| (by="frequency", the physical mode count) or by decreasing
    real part (by="decay", slowest-decaying first).  The returned nodal data
    is the real part of the eigenvector, scaled to the requested state-norm
    amplitude.
    """
    vals, vecs = np.linalg.eig(generator.system_matrix)
    keep = vals.imag >= -1e-12
    vals, vecs = vals[keep], vecs[:, keep]
    if by == "frequency":
        order = np.lexsort((-vals.real, np.abs(vals.imag)))
    elif by == "decay":
        order = np.lexsort((np.abs(vals.imag), -vals.real))
    else:
        raise ValueError("by must be 'frequency' or 'decay'")
    vec = vecs[:, order[mode]]
    state = vec.real
    nrm = generator.state_norm(state)
    if nrm < 1e-14:
        state = vec.imag
        nrm = generator.state_norm(state)
    state = state * (amplitude / nrm)
    u, v = generator.split(state)
    return generator.embed(u), generator.embed(v)


def polynomial_state(generator: DiscreteGenerator, amplitude: float = 1.0):
    """Smooth bump y0 = amplitude x^2 (1-x)^2, y1 = 0 (admissible for all kinds)."""
    x = generator.grid.nodes
    return amplitude * x ** 2 * (1.0 - x) ** 2, np.zeros_like(x)


def smallness_level(scenario: Scenario) -> float:
    """Left side of the small-data threshold:
    ||Y0||^2 + int_{-tau}^{0} |k(s + tau)| ||g(s)||_H^2 ds (slot trapezoid)."""
    level = scenario.generator.state_norm(scenario.initial_state) ** 2
    return level + 2.0 * diagnostics.history_energy(scenario.kernel, scenario.make_buffer())


def certify_scenario(scenario: Scenario, horizon: float = 20.0, samples: int = 80,
                     constants=None) -> "diagnostics.CertificationResult":
    """End-to-end certificate pipeline for one scenario.

    Computes the semigroup constants of the scenario's generator, the kernel
    window/growth certificates, and the small-data threshold.  Raises
    NotExponentiallyStableError or InfeasibleError when no certificate exists.
    """
    gen = scenario.generator
    semi = semigroup_constants(gen, horizon=horizon, samples=samples)
    kernel = scenario.kernel if scenario.kernel is not None \
        else KernelSpec.zero(tau=1.0)
    if scenario.subdomain is not None:
        b = subdomain_gain(scenario.subdomain, gen)
    else:
        b = 0.0
    lam = kernel_window_bound(kernel)
    envelope = kernel_growth_check(kernel, semi.M, semi.omega, b)
    if constants is None:
        constants = constants_for(scenario.source, gen.profile)
    threshold = diagnostics.threshold_certificate(
        semi, kernel, envelope, b, scenario.source, constants)
    return diagnostics.CertificationResult(
        M=semi.M, omega=semi.omega, b=b, lambda_window=lam,
        alpha=envelope.alpha, omega_prime=envelope.omega_prime,
        threshold=threshold, semigroup_note=semi.method_note)
