"""Time integration of the semi-discrete delayed system and its oracles.

The semi-discrete system is

    dY/dt = A Y - k(t) B Y(t - tau) + F(Y),     Y = (u, v),

with A the assembled generator, B Y = (0, chi_P v) the subdomain feedback and
F(Y) = (0, f(u)) the source.  Stepping is IMEX: the stiff linear part A is
advanced by the trapezoidal rule, whose implicit solve reduces exactly to
one n x n system on the velocity block (see `_Stepper`); the delay term,
whose values are known history slots on both step endpoints, is integrated
by the midpoint rule; the source is extrapolated by a two-step
Adams-Bashforth combination of current-state evaluations; both act on the
velocity block only.  dt divides tau, m = tau/dt, so the step from t_l = l dt
reads the delayed trace by slot index: slot l + 1 - m at t_l + dt, the mean
of slots l - m and l + 1 - m at t_l + dt/2 (Bellen & Zennaro 2003, ch. 3).

Also here: sampled semigroup certificates ||e^{tA}|| <= M e^{-omega t} in the
state norm, whose samples are powers of one matrix exponential per sample
grid, and a dense matrix-exponential evaluation of the variation-of-constants
formula used as an integration oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.linalg

from . import diagnostics
from .delay import (HistoryBuffer, HistoryInit, KernelSpec, SubdomainP, delay_slots,
                    kernel_growth_check, kernel_window_bound, subdomain_gain)
from .errors import (DegenwaveError, InfeasibleError, LinearSolveFailureError,
                     NotExponentiallyStableError)
from .nonlinearity import SourceKind, constants_for, eval_f
from .operators import DiscreteGenerator

#: state-norm threshold treated as blow-up
BLOWUP_NORM = 1e8

#: off-grid times on which `semigroup_constants` re-checks its sampled M
RECHECK_SAMPLES = 50

#: times `semigroup_constants` may double its horizon before it gives up
HORIZON_DOUBLINGS = 8

#: largest state dimension whose dense matrix exponentials are computed
MAX_EXPM_DIM = 1024

#: records per call of the batched source-energy pass; bounds its temporaries
SOURCE_BATCH = 256


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
            delay_slots(self.dt, self.kernel.tau)
            # explicit terms want dt below the inverse feedback strength;
            # deliberately violent gains are allowed to run (blow-up detection)
            gain = abs(self.kernel.k0) if self.kernel.values is None \
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
    state); `energies` holds one array per energy summand.  The kinetic,
    elastic and boundary energies are each state's `energy_parts`, computed
    once during the run, and `state_norms` is sqrt(2 (kinetic + elastic +
    boundary)); the other fields are computed in batch from `states` by
    `simulate`.  The record of a non-finite state carries inf energies, norm
    and damping rate and nan tip values.
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


def semigroup_constants(generator: Union[DiscreteGenerator, np.ndarray],
                        horizon: float = 20.0, samples: int = 80) -> SemigroupCertificate:
    """Sampled (M, omega) with omega = 0.9 x (decay rate of the slowest mode).

    The operator norm is taken in the generator's state norm, as the
    Euclidean norm of the closed-form `DiscreteGenerator.state_norm_generator`
    (a plain matrix is taken as it is).  The horizon H is doubled, at most
    HORIZON_DOUBLINGS times, until ||e^{HA}|| e^{omega H} <= 1, which makes
    the sampled bound valid for every t >= 0 by submultiplicativity; the
    bound is then re-verified on RECHECK_SAMPLES off-grid times.  M is the
    maximum over these samples, not a bound between them.  InfeasibleError
    is raised when the rule has not held at the last horizon, or when
    e^{omega H} overflows first.

    The samples are products of three exponentials: e^{kHA/samples} is the
    k-th power of E = e^{(H/samples)A}, and the re-check time (j + 1/2)H/R,
    R = RECHECK_SAMPLES, is e^{(H/2R)A} times the j-th power of e^{(H/R)A}
    (Higham 2008, Functions of Matrices, ch. 10).  The symmetric part of a
    state-norm generator is negative semidefinite, so every factor is a
    contraction and the rounding of the k-th power grows at most linearly
    in k.  State dimensions above MAX_EXPM_DIM raise DegenwaveError before
    any factorisation.
    """
    is_generator = isinstance(generator, DiscreteGenerator)
    dim = 2 * generator.ndof if is_generator else np.shape(generator)[0]
    if dim > MAX_EXPM_DIM:
        raise DegenwaveError(f"state dimension {dim} exceeds {MAX_EXPM_DIM}, the limit "
                             "for the dense matrix exponentials of the semigroup constants")
    a_tilde = (generator.state_norm_generator() if is_generator
               else np.asarray(generator, dtype=float))
    abscissa = spectral_abscissa(a_tilde)
    if abscissa >= -1e-12:
        raise NotExponentiallyStableError(
            f"spectral abscissa {abscissa:.3e} is not negative")
    omega = 0.9 * (-abscissa)

    def weighted_norm(propagator: np.ndarray, t: float) -> float:
        return float(scipy.linalg.norm(propagator, 2)) * math.exp(omega * t)

    def sampled_max(power: np.ndarray, step: np.ndarray, times: np.ndarray) -> float:
        """max over i of ||power step^i|| e^{omega times[i]}."""
        best = weighted_norm(power, times[0])
        for t in times[1:]:
            power = step @ power
            best = max(best, weighted_norm(power, t))
        return best

    for horizon in [horizon * 2.0 ** k for k in range(HORIZON_DOUBLINGS + 1)]:
        try:
            tail = weighted_norm(scipy.linalg.expm(horizon * a_tilde), horizon)
        except OverflowError:
            raise InfeasibleError(f"e^(omega H) overflows at the horizon H = {horizon:g} "
                                  "before ||e^(HA)|| e^(omega H) <= 1 held") from None
        if tail <= 1.0:
            break
    else:
        raise InfeasibleError(f"||e^(HA)|| e^(omega H) = {tail:.6g} > 1 at the last horizon "
                              f"H = {horizon:g}, after {HORIZON_DOUBLINGS} doublings")
    ts = np.linspace(0.0, horizon, samples + 1)
    m_const = sampled_max(np.eye(dim), scipy.linalg.expm((horizon / samples) * a_tilde), ts)
    extra = (np.arange(RECHECK_SAMPLES) + 0.5) * horizon / RECHECK_SAMPLES
    m_extra = sampled_max(scipy.linalg.expm((0.5 * horizon / RECHECK_SAMPLES) * a_tilde),
                          scipy.linalg.expm((horizon / RECHECK_SAMPLES) * a_tilde), extra)
    m_const = max(m_const, m_extra, 1.0)
    note = (f"M = max of ||e^(tA)|| e^(omega t) sampled at {samples + 1}+{RECHECK_SAMPLES} "
            f"times in [0, {horizon:g}], omega = 0.9 x {-abscissa:.6g}")
    return SemigroupCertificate(M=m_const, omega=omega, method_note=note)


# -- IMEX stepping ---------------------------------------------------------------


class _Stepper:
    """Trapezoidal linear part, midpoint delay term, AB2 source.

    Every implicit stage goes through `solve`, which solves
    (I - dt/2 A)(x1, x2) = (r1, r2) on the velocity block: with h = dt/2,

        (M + h D + h^2 K) x2 = M r2 - h K r1,    x1 = r1 + h x2,

    so one LU factor of the n x n matrix M + h D + h^2 K serves every step
    (Golub & Van Loan, section 4.3).  The explicit terms G = (0, g) have a
    zero displacement half, so `delay_term` and `source_term` return g alone,
    and 0.0 when the term is off.  The trapezoid step is taken in its
    implicit-midpoint form new = 2 solve(u, v + h g) - (u, v), which is the
    same map as (I - hA)^{-1}((I + hA) y + dt G) and needs no product with A.

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
        block = gen.stiffness_form
        block *= h * h
        block += h * gen.damping_matrix()
        block[np.diag_indices_from(block)] += gen.mass
        try:
            self.lu = scipy.linalg.lu_factor(block)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise LinearSolveFailureError(str(exc)) from exc
        self.sub_free = scenario.subdomain_dofs
        has_explicit = (scenario.kernel is not None) or (not scenario.source.is_none)
        self.smoothing_left = smoothing_steps if has_explicit else 0
        self.prev_source = None

    def delay_term(self, ell: int, buffer: Optional[HistoryBuffer], midpoint: bool):
        """g = -k(t) B B* y_t(t - tau) at t = t_ell + dt (slot ell + 1 - m), or at
        the midpoint t_ell + dt/2 (the mean of slots ell - m and ell + 1 - m)."""
        if buffer is None:
            return 0.0
        k_t = float(self.sc.kernel.eval(ell * self.sc.dt
                                        + (self.half_dt if midpoint else self.sc.dt)))
        slot = ell + 1 - buffer.m
        delayed = buffer.sample_step(slot)
        if midpoint:
            delayed = 0.5 * (buffer.sample_step(slot - 1) + delayed)
        g = np.zeros(self.gen.ndof)
        g[self.sub_free] -= k_t * delayed
        return g

    def source_term(self, u: np.ndarray):
        """g = f(u) on the free dofs."""
        if self.sc.source.is_none:
            return 0.0
        gen = self.gen
        return eval_f(self.sc.source, gen.embed(u), gen.grid)[gen.free]

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        """(x1, x2) with (I - dt/2 A)(x1, x2) = (r1, r2), by the velocity-block reduction."""
        gen, h = self.gen, self.half_dt
        x2 = scipy.linalg.lu_solve(self.lu, gen.mass * r2 - h * gen.stiffness_product(r1),
                                   check_finite=False)
        return r1 + h * x2, x2

    def step(self, ell: int, state: np.ndarray,
             buffer: Optional[HistoryBuffer]) -> np.ndarray:
        """The state at t_{ell + 1} from the state at t_ell = ell dt."""
        h = self.half_dt
        u, v = self.gen.split(state)
        if self.smoothing_left > 0:
            self.smoothing_left -= 1
            # two backward-Euler half-steps with the shared (I - dt/2 A) factor
            u, v = self.solve(u, v + h * (self.delay_term(ell, buffer, midpoint=True)
                                          + self.source_term(u)))
            u, v = self.solve(u, v + h * (self.delay_term(ell, buffer, midpoint=False)
                                          + self.source_term(u)))
            self.prev_source = self.source_term(u)
        else:
            # delay term at the midpoint in time: the two adjacent buffer
            # slots average to the half-slot trace, which also annihilates
            # any step-frequency ringing before it can feed back; the source
            # is Adams-Bashforth extrapolated from known states
            src = self.source_term(u)
            prev = self.prev_source if self.prev_source is not None else src
            g = self.delay_term(ell, buffer, midpoint=True) + (1.5 * src - 0.5 * prev)
            u_mid, v_mid = self.solve(u, v + h * g)
            u, v = 2.0 * u_mid - u, 2.0 * v_mid - v
            self.prev_source = src
        if buffer is not None:
            buffer.push(v[self.sub_free])
        return self.gen.join(u, v)


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate to t_end, recording each state and its energy once.

    The states fill one preallocated array, and each state's (kinetic,
    elastic, boundary) `energy_parts` triple, computed once for the blow-up
    check, fills a second one that gives the state norms and those energy
    columns.  The run stops early at the first non-finite state or state
    norm above BLOWUP_NORM.  Damping rates and tip traces are then computed
    in batch over all records, source energies in batches of SOURCE_BATCH
    records, and the history energies from the slot norms the history buffer
    recorded as it was filled.
    """
    gen = scenario.generator
    stepper = _Stepper(scenario)
    buffer = scenario.make_buffer()
    nsteps = int(round(scenario.t_end / scenario.dt))

    states = np.empty((nsteps + 1, 2 * gen.ndof))
    parts = np.full((nsteps + 1, 3), math.inf)   # energy_parts; inf on non-finite states
    states[0] = scenario.initial_state
    if np.all(np.isfinite(states[0])):
        parts[0] = gen.energy_parts(states[0])
    nrec = nsteps + 1
    blew_up = False
    for ell in range(nsteps):
        state = stepper.step(ell, states[ell], buffer)
        states[ell + 1] = state
        if np.all(np.isfinite(state)):
            kinetic, elastic, boundary = gen.energy_parts(state)
            parts[ell + 1] = kinetic, elastic, boundary
            blew_up = math.sqrt(2.0 * (kinetic + elastic + boundary)) > BLOWUP_NORM
        else:
            blew_up = True
        if blew_up:
            nrec = ell + 2
            break
    states, parts = states[:nrec], parts[:nrec]
    times = np.arange(nrec) * scenario.dt
    bad = ~np.all(np.isfinite(states), axis=1)

    source = np.zeros(nrec)
    history = np.zeros(nrec)
    with np.errstate(over="ignore", invalid="ignore"):
        if not scenario.source.is_none:
            for start in range(0, nrec, SOURCE_BATCH):
                batch = slice(start, start + SOURCE_BATCH)
                source[batch] = diagnostics.source_energy(gen, scenario.source, states[batch])
        if buffer is not None:
            history = diagnostics.history_energies(scenario.kernel, buffer)
        kinetic, elastic, boundary = parts.T
        norms = np.sqrt(2.0 * (kinetic + elastic + boundary))
        damping = gen.boundary_damping_rate(states)
        tip_val, _, tip_vel, _ = gen.tip_traces(states)
    for column in (source, history, damping):
        column[bad] = math.inf
    tip_val[bad] = math.nan
    tip_vel[bad] = math.nan
    energies = diagnostics.EnergyBreakdown.build(kinetic, elastic, boundary, source, history)

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
        on_p = gen.ndof + scenario.subdomain_dofs
        # t_j - tau is slot j - m: the initial history up to slot 0, then the states
        history = [buffer.sample_step(j) for j in range(-buffer.m, 1)]
        traces = np.concatenate([history, trajectory.states[1:, on_p]])[:nrec]
        k = np.atleast_1d(scenario.kernel.eval(trajectory.times))
        phi[:, on_p] = -k[:, None] * traces

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
    real part (by="decay", slowest-decaying first).  `mode` must be an
    integer in [0, number of modes).  The returned nodal data is the real
    part of the eigenvector, scaled to the requested state-norm amplitude.
    """
    if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)):
        raise ValueError(f"mode must be an integer, got {mode!r}")
    vals, vecs = np.linalg.eig(generator.system_matrix)
    keep = vals.imag >= -1e-12
    vals, vecs = vals[keep], vecs[:, keep]
    if by == "frequency":
        order = np.lexsort((-vals.real, np.abs(vals.imag)))
    elif by == "decay":
        order = np.lexsort((np.abs(vals.imag), -vals.real))
    else:
        raise ValueError("by must be 'frequency' or 'decay'")
    if not 0 <= mode < order.size:
        raise ValueError(f"mode {mode} is outside [0, {order.size})")
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


def certify_scenario(scenario: Scenario, semigroup: Optional[SemigroupCertificate] = None
                     ) -> "diagnostics.CertificationResult":
    """End-to-end certificate pipeline for one scenario.

    Takes the semigroup constants of the scenario's generator from
    `semigroup`, or computes them with `semigroup_constants` when it is None,
    then the kernel window/growth certificates and the small-data threshold.
    A caller that certifies several scenarios on one generator (a sweep over
    the kernel, source or data) computes the constants once and passes them.
    Raises NotExponentiallyStableError or InfeasibleError when no certificate
    exists.
    """
    gen = scenario.generator
    semi = semigroup if semigroup is not None else semigroup_constants(gen)
    kernel = scenario.kernel if scenario.kernel is not None \
        else KernelSpec.zero(tau=1.0)
    if scenario.subdomain is not None:
        b = subdomain_gain(scenario.subdomain, gen)
    else:
        b = 0.0
    lam = kernel_window_bound(kernel)
    envelope = kernel_growth_check(kernel, semi.M, semi.omega, b)
    threshold = diagnostics.threshold_certificate(
        semi, kernel, envelope, b, scenario.source,
        constants_for(scenario.source, gen.profile))
    return diagnostics.CertificationResult(
        M=semi.M, omega=semi.omega, b=b, lambda_window=lam,
        alpha=envelope.alpha, omega_prime=envelope.omega_prime,
        threshold=threshold, semigroup_note=semi.method_note)
