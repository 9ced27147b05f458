"""Time integration of the semi-discrete delayed system and its oracles.

The semi-discrete system is

    dY/dt = A Y - k(t) B Y(t - tau) + F(Y),     Y = (u, v),

with A the assembled generator, B Y = (0, chi_P v) the subdomain feedback and
F(Y) = (0, f(u)) the source.  Stepping is IMEX: the stiff linear part A is
advanced by the trapezoidal rule, whose implicit solve reduces exactly to
one banded n x n system on the velocity block (see `_Stepper`); the delay term,
whose values are known history slots on both step endpoints, is integrated
by the midpoint rule; the source is extrapolated by a two-step
Adams-Bashforth combination of current-state evaluations; both act on the
velocity block only.  dt divides tau, m = tau/dt, so the step from t_l = l dt
reads the delayed trace by slot index: slot l + 1 - m at t_l + dt, the mean
of slots l - m and l + 1 - m at t_l + dt/2 (Bellen & Zennaro 2003, ch. 3).

Also here: semigroup certificates ||e^{tA}|| <= M e^{-omega t} in the state
norm, whose M bounds the sampled profile between its samples through the
logarithmic norm of A, and a dense matrix-exponential evaluation of the
variation-of-constants formula used as an integration oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs

from . import diagnostics
from .delay import (HistoryInit, KernelSpec, SubdomainP, delay_slots, kernel_growth_check,
                    kernel_window_bound, resolve_history, subdomain_gain)
from .errors import (DegenwaveError, InfeasibleError, LinearSolveFailureError,
                     NotExponentiallyStableError)
from .nonlinearity import SOURCE_POWER, SourceKind, constants_for, eval_f
from .operators import DiscreteGenerator

#: state-norm threshold treated as blow-up
BLOWUP_NORM = 1e8

#: `semigroup_constants` halves a cell while its bound exceeds the sampled
#: maximum by more than this share
REFINE_GAP = 0.005

#: times `semigroup_constants` may halve a cell of its sample grid
REFINE_LEVELS = 8

#: rounding margin of `semigroup_constants`' stop rule: its first walk ends at a
#: sample whose weighted value is at most 1 - DECAY_SLACK over one cell
DECAY_SLACK = 1e-9

#: times `semigroup_constants` may double its horizon before it gives up
HORIZON_DOUBLINGS = 8

#: largest state dimension whose dense matrix exponentials are computed
MAX_EXPM_DIM = 1024

#: doubles of the per-block temporaries of `simulate`: a block holds
#: RECORD_BLOCK // (2 ndof) records, and at least one
RECORD_BLOCK = 1 << 16

#: start-up steps taken as backward-Euler half-step pairs when explicit terms act
STARTUP_STEPS = 2


@dataclass(eq=False)
class Scenario:
    """Full problem description: operator, delay feedback, source, data, run.

    `__post_init__` resolves the run once, and every other layer reads what
    it resolved: the step count `nsteps` = round(t_end/dt), and for a delayed
    run the slot count m = tau/dt, the slice `on_p` of the free dofs on the
    snapped subdomain P, the gain b = ||B|| and `history_slots`, the
    (m + 1) x |P| initial history g at the times j dt, j = -m .. 0, the only
    evaluation of `history`.  For an undelayed run the delay fields keep their
    defaults (None, and b = 0.0).  Non-finite initial data or history values,
    and a run of no whole step, raise ValueError.
    """

    generator: DiscreteGenerator
    source: SourceKind
    y0: np.ndarray                      # full nodal displacement
    y1: np.ndarray                      # full nodal velocity
    t_end: float
    dt: float
    kernel: Optional[KernelSpec] = None
    subdomain: Optional[SubdomainP] = None
    history: HistoryInit = None
    nsteps: int = field(default=0, init=False, repr=False)
    m: Optional[int] = field(default=None, init=False, repr=False)
    on_p: Optional[slice] = field(default=None, init=False, repr=False)
    b: float = field(default=0.0, init=False, repr=False)
    history_slots: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        gen = self.generator
        self.y0 = np.asarray(self.y0, dtype=float)
        self.y1 = np.asarray(self.y1, dtype=float)
        if self.y0.shape != (gen.grid.n,) or self.y1.shape != (gen.grid.n,):
            raise ValueError("initial data must be full nodal vectors")
        if not (np.all(np.isfinite(self.y0)) and np.all(np.isfinite(self.y1))):
            raise ValueError("initial data has non-finite values")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise ValueError(f"t_end/dt = {steps:g} must round to a whole number "
                             "of steps >= 1")
        self.nsteps = round(steps)
        pinned = np.setdiff1d(np.arange(gen.grid.n), gen.free)
        scale = max(float(np.max(np.abs(self.y0))), float(np.max(np.abs(self.y1))), 1.0)
        if pinned.size and (np.max(np.abs(self.y0[pinned])) > 1e-10 * scale
                            or np.max(np.abs(self.y1[pinned])) > 1e-10 * scale):
            raise ValueError("initial data violates the essential x = 0 conditions")
        if (self.kernel is None) != (self.subdomain is None):
            raise ValueError("kernel and subdomain must be given together")
        if self.kernel is None:
            return
        self.m = delay_slots(self.dt, self.kernel.tau)
        # snapped once; a coarse snap warns at the line that built the scenario
        i0, i1 = self.subdomain.node_range(gen.grid, stacklevel=4)
        # subdomain nodes are interior, hence consecutive free dofs
        self.on_p = slice(*np.searchsorted(gen.free, (i0, i1)).tolist())
        self.b = subdomain_gain(np.arange(i0, i1), gen)
        # explicit terms want dt below the inverse feedback strength;
        # deliberately violent gains are allowed to run (blow-up detection)
        gain = abs(self.kernel.k0) if self.kernel.values is None \
            else float(np.max(np.abs(self.kernel.values)))
        if gain * self.b * self.b * self.dt > 1.0:
            warnings.warn("dt exceeds the explicit delay-term bound; "
                          "expect inaccuracy or growth", stacklevel=3)
        self.history_slots = resolve_history(self.history, self.m, self.dt, i1 - i0)
        self.history_slots.setflags(write=False)

    @property
    def initial_state(self) -> np.ndarray:
        gen = self.generator
        return gen.join(gen.restrict(self.y0), gen.restrict(self.y1))

    def delayed_traces(self, states: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The velocity on P at slots lo .. hi - 1, one row per slot: slot j <= 0
        from `history_slots`, slot j >= 1 from row j of `states`."""
        ndof, p = self.generator.ndof, self.on_p
        rows = states[max(lo, 1):hi, ndof + p.start:ndof + p.stop]
        if lo >= 1:
            return rows
        history = self.history_slots[lo + self.m:hi + self.m]
        return history if hi <= 1 else np.concatenate((history, rows))


@dataclass(frozen=True)
class SemigroupCertificate:
    """Constants with ||e^{tA}||_state <= M e^{-omega t} for every t >= 0, up to
    the rounding of the matrix exponentials and of `spectral_norm`."""

    M: float
    omega: float
    method_note: str = ""


@dataclass(eq=False)
class Trajectory:
    """The state at every step of a run, with per-record diagnostics.

    Every field is an array over the records (one per step, plus the initial
    state); `energies` holds one array per energy summand.  `state_norms` is
    sqrt(2 (kinetic + elastic + boundary)), and the tip columns are the last
    displacement and velocity dofs.  A non-finite record carries inf energies,
    norm and damping rate and nan tip values.
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
        line = ",".join(["%.17g"] * len(self.CSV_COLUMNS)) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\n")
            fh.writelines(diagnostics.csv_lines(line, table))


# -- semigroup constants ---------------------------------------------------------


def spectral_abscissa(system_matrix: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(system_matrix).real))


def spectral_norm(matrix: np.ndarray) -> float:
    """||P||_2 = sqrt(lambda_max(P^T P)) (Golub & Van Loan, Matrix Computations,
    sec. 8.6), from the top eigenvalue of the Gram matrix alone: the rounding
    class of an SVD, an error of at most about dim u ||P||^2 in lambda_max (u
    the unit roundoff), at about half the cost.  P is first divided by the
    power of two at or above its largest entry, exactly, so that the Gram
    matrix neither overflows nor underflows where P itself does not."""
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(matrix))))[1])
    unit = matrix / scale
    dim = matrix.shape[1]
    top = scipy.linalg.eigvalsh(unit.T @ unit, subset_by_index=[dim - 1, dim - 1],
                                driver="evr", overwrite_a=True)
    return math.sqrt(float(top[0])) * scale


def semigroup_constants(generator: DiscreteGenerator, horizon: float = 20.0,
                        samples: int = 80) -> SemigroupCertificate:
    """(M, omega) with omega = 0.9 x (decay rate of the slowest mode) and M a
    bound on ||e^{tA}|| e^{omega t} for every t >= 0.

    The operator norm is taken in the generator's state norm, as the
    `spectral_norm` of the closed-form `DiscreteGenerator.state_norm_generator`
    A~.  The horizon H is doubled, at most HORIZON_DOUBLINGS times, until
    ||e^{HA}|| e^{omega H} <= 1, so that a bound on [0, H] holds for every
    t >= 0 by submultiplicativity.  InfeasibleError is raised when the rule
    has not held at the last horizon, or when e^{omega H} overflows first.

    On [0, H] the profile is sampled at the `samples` + 1 powers of
    E = e^{(H/samples)A~} (Higham 2008, Functions of Matrices, ch. 10).  With
    mu the logarithmic norm of A~, the top eigenvalue of its symmetric part,
    ||e^{rA~}|| <= e^{mu r} (Soederlind 2006, BIT 46), so on a cell
    [t, t + w] the profile is at most s e^{max(omega + mu, 0) w}, s its value
    at t.  A cell whose bound exceeds (1 + REFINE_GAP) times the sampled
    maximum is halved, its midpoint sampled as its start propagator times
    e^{(w/2)A~}: one exponential per level, at most REFINE_LEVELS levels.
    M is the largest cell bound, and at least 1.

    The first walk stops at the first sample K whose weighted value v_K, with
    v_k = ||E^k|| e^{omega k w} and w = H/`samples`, has v_K e^{gw} <=
    1 - DECAY_SLACK, g = max(omega + mu, 0).  Submultiplicativity gives
    v_k <= v_K v_{k-K}, so by induction every later sample is at most v_K
    times the largest of v_0 .. v_K: each later cell closes at level 0 with a
    bound below the sampled maximum, hence below M, and is counted without a
    product or a norm.  The slack covers rounding, so M, the cells, the
    halvings and the sampled maximum are those of the full walk, which runs
    when no sample meets the rule.

    A second walk refines cell by cell, so that only O(REFINE_LEVELS)
    propagators are alive at a time; as the sampled maximum only grows, no
    cell after the last one whose first-walk bound exceeds the gap is
    refined, and the second walk multiplies powers only up to that cell.  M
    is a bound up to the rounding of the exponentials and of `spectral_norm`;
    no interval arithmetic is used.  State dimensions above MAX_EXPM_DIM raise
    DegenwaveError before any factorisation.
    """
    dim = 2 * generator.ndof
    if dim > MAX_EXPM_DIM:
        raise DegenwaveError(f"state dimension {dim} exceeds {MAX_EXPM_DIM}, the limit "
                             "for the dense matrix exponentials of the semigroup constants")
    a_tilde = generator.state_norm_generator()
    abscissa = spectral_abscissa(a_tilde)
    if abscissa >= -1e-12:
        raise NotExponentiallyStableError(
            f"spectral abscissa {abscissa:.3e} is not negative")
    omega = 0.9 * (-abscissa)
    log_norm = float(np.linalg.eigvalsh(0.5 * (a_tilde + a_tilde.T))[-1])
    growth = max(omega + log_norm, 0.0)

    def weighted_norm(propagator: np.ndarray, t: float) -> float:
        return spectral_norm(propagator) * math.exp(omega * t)

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

    width = horizon / samples
    cell_growth = math.exp(growth * width)      # a level-0 cell's bound over its start
    step = scipy.linalg.expm(width * a_tilde)
    power = np.eye(dim)
    values = [weighted_norm(power, 0.0)]
    for k in range(1, samples + 1):
        power = step @ power
        values.append(weighted_norm(power, k * width))
        if values[k] * cell_growth <= 1.0 - DECAY_SLACK:
            break               # the later samples cannot move M
    sampled = max(values)
    walked = min(len(values), samples)
    last = max((k for k in range(walked)
                if values[k] * cell_growth > (1.0 + REFINE_GAP) * sampled), default=-1)

    halves = []                 # halves[level] = e^{(width / 2^(level + 1)) A~}
    m_const, cells = 1.0, samples - walked
    power = np.eye(dim)
    for k in range(walked):
        if 0 < k <= last:       # cells past `last` close at level 0 unread
            power = step @ power
        cell_stack = [(power, k * width, values[k], 0)]
        while cell_stack:
            start, t, value, level = cell_stack.pop()
            w = width / 2.0 ** level
            bound = value * math.exp(growth * w)
            if bound <= (1.0 + REFINE_GAP) * sampled or level == REFINE_LEVELS:
                m_const = max(m_const, bound)
                cells += 1
                continue
            if len(halves) == level:
                halves.append(scipy.linalg.expm(0.5 * w * a_tilde))
            mid = halves[level] @ start
            mid_value = weighted_norm(mid, t + 0.5 * w)
            sampled = max(sampled, mid_value)
            cell_stack += [(mid, t + 0.5 * w, mid_value, level + 1),
                           (start, t, value, level + 1)]
    note = (f"M = {m_const:.6g} bounds ||e^(tA)|| e^(omega t) on {cells} cells in "
            f"[0, {horizon:g}] after {len(halves)} halvings of {samples}, sampled max "
            f"{sampled:.6g}, omega = 0.9 x {-abscissa:.6g}")
    return SemigroupCertificate(M=m_const, omega=omega, method_note=note)


# -- IMEX stepping ---------------------------------------------------------------


class _Stepper:
    """Trapezoidal linear part, midpoint delay term, AB2 source.

    Every implicit stage goes through `solve`, which solves
    (I - dt/2 A)(x1, x2) = (r1, r2) on the velocity block: with h = dt/2,

        (M + h D + h^2 K) x2 = M r2 - h K r1,    x1 = r1 + h x2,

    so one banded Cholesky factor of the n x n matrix M + h D + h^2 K serves
    every step: the matrix is symmetric positive definite (M > 0, K and D >= 0)
    with the bandwidth kd of K, factored once by LAPACK dpbtrf and solved per
    stage by dpbtrs, O(kd^2 n) and O(kd n) work (Golub & Van Loan, section
    4.3).  No dense n x n array is formed.  The explicit terms G = (0, g) have a
    zero displacement half, so the delay and source terms give g alone.
    The trapezoid step is taken in its implicit-midpoint form
    new = 2 solve(u, v + h g) - (u, v), which is the same map as
    (I - hA)^{-1}((I + hA) y + dt G) and needs no product with A.

    When explicit terms are active, the first STARTUP_STEPS steps are
    taken as pairs of backward-Euler half-steps (Rannacher smoothing): the
    switch-on of the feedback excites the heavily damped tip mode, whose
    trapezoidal ringing otherwise degrades the global order below two.
    Undelayed unforced runs are pure trapezoid, so the discrete energy
    telescopes exactly.

    `advance` steps row `first` of the run's preallocated states array on to
    row `last`, each step reading row ell and writing row ell + 1 through
    views.  The delayed traces are read, not stored, through
    `Scenario.delayed_traces`.  The midpoint delay terms of m = tau/dt
    consecutive steps read no slot past the first step's row, so
    `midpoint_delays` forms them a sub-block of at most min(rows, m) steps at
    a time (`rows`, the steps of one record block of `simulate`) in one
    vectorised pass, into `delay_rows`, allocated once per run and zero off P
    (undelayed, a zero vector seen as every row).
    Elementwise operations round each element alone, so every row is bit for
    bit the term the step would form on its own.  The stage solution is the
    2n work vector `mid`, and the new state is 2 mid - y over the whole row.
    k(t_ell + dt/2) is evaluated once per run over all steps, and
    k(t_ell + dt) only at the start-up steps that read it.
    """

    def __init__(self, scenario: Scenario, rows: int):
        self.sc = scenario
        gen = scenario.generator
        self.gen = gen
        self.half_dt = h = 0.5 * scenario.dt
        # M + h D + h^2 K in the upper band storage of K.  D = d_e e e^T + d_g g g^T
        # touches only the last three dofs (e the last one, g the last three);
        # waves have kd = 1 and d_g = 0, so their D is the last diagonal entry
        bands = gen.stiffness_bands * (h * h)
        kd, ndof = bands.shape[0] - 1, gen.ndof
        bands[kd] += gen.mass
        e, g = gen.tip_weights.T
        for d in range(min(3, kd + 1)):
            bands[kd - d, ndof - 3 + d:] += h * (gen.damping_value_coeff * e[:3 - d] * e[d:]
                                                 + gen.damping_slope_coeff * g[:3 - d] * g[d:])
        if not np.all(np.isfinite(bands)):
            raise LinearSolveFailureError("the step matrix M + hD + h^2 K has non-finite entries")
        self.chol, info = dpbtrf(bands, lower=0, overwrite_ab=1)
        if info > 0:
            raise LinearSolveFailureError(
                f"M + hD + h^2 K is not positive definite: banded Cholesky (dpbtrf) "
                f"failed at its leading minor of order {info}")
        # work vectors: the end-point delay term (zero off P, and everywhere
        # when undelayed), the explicit term, the stage right-hand side and
        # the stage solution (x1, x2)
        self.delay = np.zeros(ndof)
        self.g, self.r2 = np.empty(ndof), np.empty(ndof)
        self.mid = np.empty(2 * ndof)
        self.x1, self.x2 = self.mid[:ndof], self.mid[ndof:]
        if scenario.kernel is None:
            self.delay_rows = np.broadcast_to(self.delay, (rows, ndof))     # no storage
        else:
            times = np.arange(scenario.nsteps) * scenario.dt
            self.k_mid = scenario.kernel.eval(times + h)
            self.k_end = scenario.kernel.eval(times[:STARTUP_STEPS] + scenario.dt)
            self.delay_rows = np.zeros((min(rows, scenario.m), ndof))
            self.delay_on_p = self.delay_rows[:, scenario.on_p]
        has_explicit = (scenario.kernel is not None) or (not scenario.source.is_none)
        self.smoothing_left = STARTUP_STEPS if has_explicit else 0
        self.prev_source = None

    def midpoint_delays(self, first: int, last: int, states: np.ndarray) -> np.ndarray:
        """g = -k(t) B B* y_t(t - tau) at the midpoints t_ell + dt/2 of the steps
        ell = first .. last - 1, at most m of them, in the leading rows of
        `delay_rows`.  The midpoint trace is the mean of slots ell - m and
        ell + 1 - m, so the pass reads slots first - m .. last - m <= first."""
        m = self.sc.m
        if m is None:
            return self.delay_rows
        traces = self.sc.delayed_traces(states, first - m, last - m + 1)
        # 0 - k slot on P, as zeros -= k slot gives (never a negative zero)
        np.subtract(0.0, self.k_mid[first:last, None] * (0.5 * (traces[:-1] + traces[1:])),
                    out=self.delay_on_p[:last - first])
        return self.delay_rows[:last - first]

    def end_delay(self, ell: int, states: np.ndarray) -> np.ndarray:
        """g at t_ell + dt (slot ell + 1 - m) of a start-up step, in the work
        vector `delay`; zero when undelayed."""
        m = self.sc.m
        if m is None:
            return self.delay
        trace = self.sc.delayed_traces(states, ell + 1 - m, ell + 2 - m)[0]
        np.subtract(0.0, self.k_end[ell] * trace, out=self.delay[self.sc.on_p])
        return self.delay

    def source_term(self, u: np.ndarray) -> Optional[np.ndarray]:
        """g = f(u) on the free dofs, None without a source.  A pointwise source
        reads u alone; the nonlocal norm integrates over the full grid."""
        source, gen = self.sc.source, self.gen
        if source.is_none:
            return None
        if source.kind == SOURCE_POWER:
            return eval_f(source, u, gen.grid)
        return eval_f(source, gen.embed(u), gen.grid)[gen.free]

    def velocity_rhs(self, v: np.ndarray, delay: np.ndarray,
                     source: Optional[np.ndarray]) -> np.ndarray:
        """v + h g in the work vector `r2`, g the delay term plus `source`."""
        g = delay
        if source is not None:
            g = np.add(delay, source, out=self.g)
        r2 = np.multiply(g, self.half_dt, out=self.r2)
        return np.add(v, r2, out=r2)

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        """(x1, x2) with (I - dt/2 A)(x1, x2) = (r1, r2), by the velocity-block
        reduction, in the halves of the work vector `mid`; r1 may be x1 itself."""
        gen, h, x1, x2 = self.gen, self.half_dt, self.x1, self.x2
        np.multiply(gen.mass, r2, out=x2)
        x2 -= h * gen.stiffness_product(r1)
        # in place on the contiguous x2; dpbtrs has no numerical failure mode:
        # its info flags illegal arguments only
        dpbtrs(self.chol, x2, lower=0, overwrite_b=1)
        np.add(r1, h * x2, out=x1)
        return x1, x2

    def step(self, ell: int, states: np.ndarray, delay: np.ndarray) -> None:
        """Write states[ell + 1], the state at t_{ell + 1}, from states[ell],
        the state at t_ell = ell dt; `delay` is the step's midpoint delay term."""
        n = self.x1.size
        y, new = states[ell], states[ell + 1]
        u, v = y[:n], y[n:]
        if self.smoothing_left > 0:
            self.smoothing_left -= 1
            # two backward-Euler half-steps with the shared (I - dt/2 A) factor
            u1, v1 = self.solve(u, self.velocity_rhs(v, delay, self.source_term(u)))
            self.solve(u1, self.velocity_rhs(v1, self.end_delay(ell, states),
                                             self.source_term(u1)))
            new[:] = self.mid
            self.prev_source = self.source_term(new[:n])
        else:
            # delay term at the midpoint in time (`midpoint_delays`): the two
            # adjacent history slots average to the half-slot trace, which also annihilates
            # any step-frequency ringing before it can feed back; the source
            # is Adams-Bashforth extrapolated from known states
            src = self.source_term(u)
            extrapolated = None
            if src is not None:
                prev = self.prev_source if self.prev_source is not None else src
                extrapolated = np.multiply(src, 1.5, out=self.g)
                extrapolated -= 0.5 * prev
                self.prev_source = src
            self.solve(u, self.velocity_rhs(v, delay, extrapolated))
            np.multiply(self.mid, 2.0, out=new)
            np.subtract(new, y, out=new)

    def advance(self, first: int, last: int, states: np.ndarray) -> None:
        """Step row `first` of `states` on to row `last`, one sub-block of at
        most len(`delay_rows`) steps per `midpoint_delays` pass."""
        span = len(self.delay_rows)
        for lo in range(first, last, span):
            hi = min(lo + span, last)
            for ell, delay in zip(range(lo, hi), self.midpoint_delays(lo, hi, states)):
                self.step(ell, states, delay)


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate to t_end, recording each state and its diagnostics once.

    The states fill one preallocated array, a block of RECORD_BLOCK // (2 ndof)
    records at a time; each block is stepped by `_Stepper.advance`, then every
    record column of its rows is filled, row by row, so no record depends on
    the block size.  The first record whose energy sum is not finite or whose
    sqrt(2 E) exceeds BLOWUP_NORM ends the run; rows stepped past it are
    dropped, and may overflow (numpy's warnings are off).  Only that last
    record can be non-finite.
    """
    gen = scenario.generator
    nsteps, dt, ndof = scenario.nsteps, scenario.dt, gen.ndof
    rows = max(1, RECORD_BLOCK // (2 * ndof))
    stepper = _Stepper(scenario, rows)
    delayed = scenario.kernel is not None

    states = np.empty((nsteps + 1, 2 * ndof))
    states[0] = scenario.initial_state
    columns = np.empty((7, nsteps + 1))
    kinetic, elastic, boundary, source, damping, tip_val, tip_vel = columns
    if delayed:
        m, h = scenario.m, gen.grid.h
        norms_sq = np.empty(m + 1 + nsteps)      # slot j at entry j + m
        norms_sq[:m + 1] = diagnostics.slot_norms_sq(scenario.history_slots, h)
    nrec, blew_up = nsteps + 1, False
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, nsteps + 1, rows):
            hi = min(lo + rows, nsteps + 1)
            first = max(lo, 1)                   # the first stepped row
            stepper.advance(first - 1, hi - 1, states)
            block = states[lo:hi]
            kinetic[lo:hi], elastic[lo:hi], boundary[lo:hi] = gen.energy_parts(block)
            source[lo:hi] = diagnostics.source_energy(gen, scenario.source, block)
            damping[lo:hi] = gen.boundary_damping_rate(block)
            tip_val[lo:hi], tip_vel[lo:hi] = block[:, ndof - 1], block[:, -1]
            if delayed:
                norms_sq[m + first:m + hi] = diagnostics.slot_norms_sq(
                    scenario.delayed_traces(states, first, hi), h)
            total = kinetic[first:hi] + elastic[first:hi] + boundary[first:hi]
            over = np.flatnonzero(~(np.sqrt(2.0 * total) <= BLOWUP_NORM))   # nan too
            if over.size:
                nrec, blew_up = first + int(over[0]) + 1, True
                break
        states = states[:nrec]
        kinetic, elastic, boundary, source, damping, tip_val, tip_vel = columns[:, :nrec]
        history = diagnostics.history_energies(scenario.kernel, norms_sq[:m + nrec], m, dt) \
            if delayed else np.zeros(nrec)
        if not np.all(np.isfinite(states[-1])):
            kinetic[-1] = elastic[-1] = boundary[-1] = math.inf
            source[-1] = history[-1] = damping[-1] = math.inf
            tip_val[-1] = tip_vel[-1] = math.nan
        norms = np.sqrt(2.0 * (kinetic + elastic + boundary))
    energies = diagnostics.EnergyBreakdown.build(kinetic, elastic, boundary, source, history)
    return Trajectory(times=np.arange(nrec) * dt, states=states, state_norms=norms,
                      energies=energies, damping_rates=damping, tip_values=tip_val,
                      tip_velocities=tip_vel, blew_up=blew_up, scenario=scenario)


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
        m = scenario.m                  # t_j - tau is slot j - m
        traces = scenario.delayed_traces(trajectory.states, -m, nrec - m)
        k = np.atleast_1d(scenario.kernel.eval(trajectory.times))
        phi[:, gen.ndof:][:, scenario.on_p] = -k[:, None] * traces

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
    gen = scenario.generator
    level = gen.state_norm(scenario.initial_state) ** 2
    if scenario.kernel is None:
        return level
    norms_sq = diagnostics.slot_norms_sq(scenario.history_slots, gen.grid.h)
    return level + 2.0 * float(diagnostics.history_energies(scenario.kernel, norms_sq,
                                                            scenario.m, scenario.dt)[0])


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
    lam = kernel_window_bound(kernel)
    envelope = kernel_growth_check(kernel, semi.M, semi.omega, scenario.b)
    threshold = diagnostics.threshold_certificate(
        semi, kernel, envelope, scenario.b, scenario.source,
        constants_for(scenario.source, gen.profile))
    return diagnostics.CertificationResult(
        M=semi.M, omega=semi.omega, b=scenario.b, lambda_window=lam,
        alpha=envelope.alpha, omega_prime=envelope.omega_prime,
        threshold=threshold, semigroup_note=semi.method_note)
