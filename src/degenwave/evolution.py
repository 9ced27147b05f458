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
logarithmic norm of A, and initial data from one mode of A, whose
eigenvalue the certificate's omega shares (`DiscreteGenerator.spectrum`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs, zgbtrf, zgbtrs

from . import diagnostics
from .delay import (HistoryInit, KernelSpec, SubdomainP, delay_slots, kernel_growth_check,
                    resolve_history, subdomain_gain)
from .errors import (DegenwaveError, EigSolveFailureError, InfeasibleError,
                     LinearSolveFailureError, NotExponentiallyStableError, allocate)
from .nonlinearity import SOURCE_POWER, SourceKind, constants_for, eval_f
from .operators import DiscreteGenerator, OperatorKind

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

#: doubles of the per-block temporaries of `simulate_runs`: a block holds
#: RECORD_BLOCK // (2 ndof B) records of each of its B runs, and at least one
RECORD_BLOCK = 1 << 16

#: records (of 8 doubles, 32 MiB) and least block steps of a batch of
#: `simulate_runs`: `batches` adds a run while both hold
BATCH_RECORDS, BLOCK_STEPS = 1 << 19, 16

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
        scale = max(float(np.max(np.abs(self.y0))), float(np.max(np.abs(self.y1))), 1.0)
        pinned = np.abs(np.concatenate((self.y0[:gen.free[0]], self.y1[:gen.free[0]])))
        if pinned.size and np.max(pinned) > 1e-10 * scale:     # only x = 0 is ever pinned
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
    def certifiable(self) -> bool:
        """Whether the certificate chain covers the scenario: explicit source
        constants exist for the weighted beam (`beam_nondiv`) only."""
        return self.source.is_none or self.generator.kind is OperatorKind.BEAM_NONDIV

    @property
    def initial_state(self) -> np.ndarray:
        gen = self.generator
        return gen.join(gen.restrict(self.y0), gen.restrict(self.y1))


@dataclass(frozen=True)
class SemigroupCertificate:
    """Constants with ||e^{tA}||_state <= M e^{-omega t} for every t >= 0, up to
    the rounding of the matrix exponentials and of `spectral_norm`."""

    M: float
    omega: float
    method_note: str = ""


@dataclass(eq=False)
class Trajectory:
    """The state at every step of a run (or None), with per-record diagnostics.

    Every field is an array over the records (one per step, plus the initial
    state); `energies` holds one array per energy summand.  `state_norms` is
    sqrt(2 (kinetic + elastic + boundary)), and the tip columns are the last
    displacement and velocity dofs.  A non-finite record carries inf energies
    and norm and nan tip values.
    """

    times: np.ndarray
    states: Optional[np.ndarray]        # (steps+1, 2 ndof)
    state_norms: np.ndarray
    energies: diagnostics.EnergyBreakdown  # fields are arrays over the records
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


def spectral_norm(matrix: np.ndarray) -> float:
    """||P||_2 = sqrt(lambda_max(P^T P)) (Golub & Van Loan, Matrix Computations,
    sec. 8.6), from the top eigenvalue of the Gram matrix alone: the rounding
    class of an SVD, an error of at most about dim u ||P||^2 in lambda_max (u
    the unit roundoff), at about half the cost.  P is first divided by the
    power of two at or above its largest entry, exactly, so that the Gram
    matrix neither overflows nor underflows where P itself does not.  LAPACK's
    subset driver (syevr) can fail on the clustered Gram spectrum of a nearly
    orthogonal P; then the top of the full spectrum (np.linalg.eigvalsh) is
    taken from the same Gram matrix."""
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(matrix))))[1])
    unit = matrix / scale
    dim = matrix.shape[1]
    try:
        top = scipy.linalg.eigvalsh(unit.T @ unit, subset_by_index=[dim - 1, dim - 1],
                                    driver="evr", overwrite_a=True)[0]
    except np.linalg.LinAlgError:
        top = np.linalg.eigvalsh(unit.T @ unit)[-1]
    return math.sqrt(float(top)) * scale


def propagator_ladders(a_tilde: np.ndarray, width: float):
    """Yield the rungs e^{(w/2^(REFINE_LEVELS - j))A~}, j = 0 .. REFINE_LEVELS,
    of w = `width`, then of 2w, 4w, ...: one `expm`, then a squaring a rung."""
    rungs = [scipy.linalg.expm((width / 2.0 ** REFINE_LEVELS) * a_tilde)]
    for _ in range(REFINE_LEVELS):
        rungs.append(rungs[-1] @ rungs[-1])
    while True:
        yield rungs
        rungs = rungs[1:] + [rungs[-1] @ rungs[-1]]


def semigroup_constants(generator: DiscreteGenerator, horizon: float = 20.0,
                        samples: int = 80) -> SemigroupCertificate:
    """(M, omega) with omega = 0.9 x (decay rate of the slowest mode) and M a
    bound on ||e^{tA}|| e^{omega t} for every t >= 0.  The slowest mode is
    read off the generator's `spectrum`, shared with `eigenmode_state`.

    The operator norm is taken in the generator's state norm, as the
    `spectral_norm` of the closed-form `DiscreteGenerator.state_norm_generator`
    A~.  The horizon H is doubled, at most HORIZON_DOUBLINGS times, until
    ||e^{HA}|| e^{omega H} <= 1, so that a bound on [0, H] holds for every
    t >= 0 by submultiplicativity.  InfeasibleError is raised when the rule
    has not held at the last horizon, or when e^{omega H} overflows first.

    Every propagator is a power of one `expm`, of (w/2^L)A~, w = H/`samples`
    and L = REFINE_LEVELS (`propagator_ladders`): L squarings give the
    halving rungs and E = e^{wA~}, E^`samples` the horizon check, and a
    doubling of H one more squaring.  expm itself squares a Pade approximant
    of tA~/2^s s times (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4)), so a
    rung is expm at its width up to the rounding of the squarings, and to
    the bit where expm takes one more squaring at twice the width (beams).

    On [0, H] the profile is sampled at the `samples` + 1 powers of E
    (Higham 2008, Functions of Matrices, ch. 10).  With mu the logarithmic
    norm of A~, the top eigenvalue of its symmetric part, ||e^{rA~}|| <=
    e^{mu r} (Soederlind 2006, BIT 46), so on a cell [t, t + w] the profile
    is at most s e^{max(omega + mu, 0) w}, s its value at t.  A cell whose
    bound exceeds (1 + REFINE_GAP) times the sampled maximum is halved, its
    midpoint sampled as its start propagator times e^{(w/2)A~}, at most
    REFINE_LEVELS levels.  M is the largest cell bound, and at least 1.

    The first walk stops at the first sample K whose weighted value v_K, with
    v_k = ||E^k|| e^{omega k w}, has v_K e^{gw} <= 1 - DECAY_SLACK,
    g = max(omega + mu, 0).  Submultiplicativity gives
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
    abscissa = float(np.max(generator.spectrum.real))
    if abscissa >= -1e-12:
        raise NotExponentiallyStableError(
            f"spectral abscissa {abscissa:.3e} is not negative")
    omega = 0.9 * (-abscissa)
    growth = max(omega + generator.log_norm(), 0.0)

    def weighted_norm(propagator: np.ndarray, t: float) -> float:
        return spectral_norm(propagator) * math.exp(omega * t)

    horizons = [horizon * 2.0 ** k for k in range(HORIZON_DOUBLINGS + 1)]
    for horizon, rungs in zip(horizons, propagator_ladders(a_tilde, horizon / samples)):
        try:
            tail = weighted_norm(np.linalg.matrix_power(rungs[-1], samples), horizon)
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
    step = rungs[-1]
    power = np.eye(dim)
    values = [1.0]              # ||I|| e^0
    for k in range(1, samples + 1):
        power = step @ power
        values.append(weighted_norm(power, k * width))
        if values[k] * cell_growth <= 1.0 - DECAY_SLACK:
            break               # the later samples cannot move M
    sampled = max(values)
    walked = min(len(values), samples)
    last = max((k for k in range(walked)
                if values[k] * cell_growth > (1.0 + REFINE_GAP) * sampled), default=-1)

    halvings = 0                # deepest level halved; rungs[-2 - l] = e^{(width/2^(l+1))A~}
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
            halvings = max(halvings, level + 1)
            mid = rungs[-2 - level] @ start
            mid_value = weighted_norm(mid, t + 0.5 * w)
            sampled = max(sampled, mid_value)
            cell_stack += [(mid, t + 0.5 * w, mid_value, level + 1),
                           (start, t, value, level + 1)]
    note = (f"M = {m_const:.6g} bounds ||e^(tA)|| e^(omega t) on {cells} cells in "
            f"[0, {horizon:g}] after {halvings} halvings of {samples}, sampled max "
            f"{sampled:.6g}, omega = 0.9 x {-abscissa:.6g}")
    return SemigroupCertificate(M=m_const, omega=omega, method_note=note)


# -- IMEX stepping ---------------------------------------------------------------


def _share_a_step(a: Scenario, b: Scenario) -> bool:
    """Whether two runs can be stepped as one batch: the same generator object,
    dt, step count, slot count m, subdomain slice and source."""
    return a.generator is b.generator and \
        (a.dt, a.nsteps, a.m, a.on_p, a.source) == (b.dt, b.nsteps, b.m, b.on_p, b.source)


class _Stepper:
    """Trapezoidal linear part, midpoint delay term, AB2 source, for a batch of
    B runs that share a step (`_share_a_step`) and may differ in the kernel
    values, the initial data and the history slots.

    Every implicit stage goes through `solve`, which solves
    (I - dt/2 A)(x1, x2) = (r1, r2) on the velocity block: with h = dt/2,

        (M + h D + h^2 K) x2 = M r2 - h K r1,    x1 = r1 + h x2,

    so one banded Cholesky factor of the n x n matrix M + h D + h^2 K serves
    every step of every run: the matrix is symmetric positive definite (M > 0,
    K and D >= 0) with the bandwidth kd of K, factored once by LAPACK dpbtrf
    and solved per stage by one dpbtrs call on the B right-hand sides, O(kd^2 n)
    and O(kd n B) work (Golub & Van Loan, section 4.3).  dpbtrs solves each
    column on its own, and K r1 is one BLAS dsbmv per run, so every run gets
    the bits it gets alone.  No dense n x n array is formed.  The explicit terms
    G = (0, g) have a zero displacement half, so the delay and source terms
    give g alone.  The trapezoid step is taken in its implicit-midpoint form
    new = 2 solve(u, v + h g) - (u, v), which is the same map as
    (I - hA)^{-1}((I + hA) y + dt G) and needs no product with A.

    When explicit terms are active, the first STARTUP_STEPS steps are
    taken as pairs of backward-Euler half-steps (Rannacher smoothing): the
    switch-on of the feedback excites the heavily damped tip mode, whose
    trapezoidal ringing otherwise degrades the global order below two.
    Undelayed unforced runs are pure trapezoid, so the discrete energy
    telescopes exactly.

    `advance` writes each row from the one before, through views, and hands
    each step its slot ell, the one index of the start-up test and of the
    delayed slots.  A delayed batch holds the one store of its history, the
    `ring` of the velocity traces on P at the last m + 1 slots, (m + 1, B,
    |P|), slot j in row (j + m) mod (m + 1), seeded from `history_slots` and
    read through `slots`.  The midpoint delay terms of m = tau/dt steps read
    no slot past the first step's, so `midpoint_delays` forms those of a
    sub-block of at most min(rows, m) steps (`rows`, a record block of
    `simulate_runs`) in one vectorised pass into the (rows, B, ndof)
    `delay_rows`, zero off P (undelayed, a zero block seen as every row);
    elementwise operations round each element alone, so each row is bit for
    bit the term its step would form.  k(t_ell + dt/2) is evaluated once per
    run over all steps (`k_mid`), k(t_ell + dt) only at the start-up steps.
    """

    def __init__(self, runs: list, rows: int):
        self.sc = sc = runs[0]
        gen = sc.generator
        self.gen = gen
        self.half_dt = h = 0.5 * sc.dt
        bands = gen.combined_bands(1.0, h, h * h)     # M + h D + h^2 K
        ndof = gen.ndof
        if not np.all(np.isfinite(bands)):
            raise LinearSolveFailureError("the step matrix M + hD + h^2 K has non-finite entries")
        self.chol, info = dpbtrf(bands, lower=0, overwrite_ab=1)
        if info > 0:
            raise LinearSolveFailureError(
                f"M + hD + h^2 K is not positive definite: banded Cholesky (dpbtrf) "
                f"failed at its leading minor of order {info}")
        # work arrays, a row per run: the end-point delay term (zero off P, and
        # everywhere when undelayed), the explicit term, the stage right-hand
        # side and the stage solution (x1, x2).  dsbmv reads the rows of x2,
        # and dpbtrs solves its columns in place: x2.T is Fortran-ordered, and
        # one run's column is the vector x2[0]
        nruns = len(runs)
        self.delay = np.zeros((nruns, ndof))
        self.g, self.r2 = np.empty((nruns, ndof)), np.empty((nruns, ndof))
        self.mid = np.empty((2, nruns, ndof))
        self.x1, self.x2 = self.mid
        self.x2_runs = tuple(self.x2)
        self.x2_columns = self.x2[0] if nruns == 1 else self.x2.T
        # M as a row per run: a ufunc on operands of one shape takes numpy's
        # fast path, which a broadcast (ndof,) operand misses
        self.mass = np.broadcast_to(gen.mass, (nruns, ndof))
        self.mid_by_run = self.mid.transpose(1, 0, 2)       # (B, 2, ndof): (x1, x2) per run
        if sc.kernel is None:
            self.delay_rows = np.broadcast_to(self.delay, (rows, nruns, ndof))   # no storage
            self.ring = None
        else:
            self.k_mid = allocate((sc.nsteps, nruns), "the kernel values of the run",
                                  "raise dt or lower t_end")
            mids = np.arange(len(self.k_mid)) * sc.dt + h
            ends = np.arange(STARTUP_STEPS) * sc.dt + sc.dt
            np.stack([run.kernel.eval(mids) for run in runs], axis=1, out=self.k_mid)
            self.k_end = np.stack([run.kernel.eval(ends) for run in runs], axis=1)
            self.delay_rows = np.zeros((min(rows, sc.m), nruns, ndof))
            self.delay_on_p = self.delay_rows[..., sc.on_p]
            self.ring = np.stack([run.history_slots for run in runs], axis=1)
        has_explicit = (sc.kernel is not None) or (not sc.source.is_none)
        self.startup = STARTUP_STEPS if has_explicit else 0
        self.prev_source = None

    def slots(self, lo: int, hi: int) -> np.ndarray:
        """The velocity on P of every run at slots lo .. hi - 1, (hi - lo, B,
        |P|), from the `ring`, which holds the last m + 1: a slice of it unless
        the window wraps past its last row."""
        m = self.sc.m
        start = (lo + m) % (m + 1)
        window = self.ring[start:start + hi - lo]
        return window if len(window) == hi - lo else np.concatenate(
            (window, self.ring[:start + hi - lo - m - 1]))

    def midpoint_delays(self, first: int, last: int) -> np.ndarray:
        """g = -k(t) B B* y_t(t - tau) at the midpoints t_ell + dt/2 of the steps
        ell = first .. last - 1, at most m of them, in the leading rows of
        `delay_rows`.  The midpoint trace is the mean of slots ell - m and
        ell + 1 - m, so the pass reads slots first - m .. last - m <= first."""
        m = self.sc.m
        if m is None:
            return self.delay_rows
        traces = self.slots(first - m, last - m + 1)
        # 0 - k slot on P, as zeros -= k slot gives (never a negative zero)
        np.subtract(0.0, self.k_mid[first:last, :, None] * (0.5 * (traces[:-1] + traces[1:])),
                    out=self.delay_on_p[:last - first])
        return self.delay_rows[:last - first]

    def end_delay(self, ell: int) -> np.ndarray:
        """g at t_ell + dt (slot ell + 1 - m) of a start-up step, in the work
        array `delay`; zero when undelayed."""
        m = self.sc.m
        if m is None:
            return self.delay
        trace = self.slots(ell + 1 - m, ell + 2 - m)[0]
        np.subtract(0.0, self.k_end[ell, :, None] * trace, out=self.delay[:, self.sc.on_p])
        return self.delay

    def source_term(self, u: np.ndarray) -> Optional[np.ndarray]:
        """g = f(u) on the free dofs of each run, None without a source.  A
        pointwise source reads u alone; the nonlocal norm integrates over the
        full grid, run by run (`Grid.trapezoid`)."""
        source, gen = self.sc.source, self.gen
        if source.is_none:
            return None
        if source.kind == SOURCE_POWER:
            return eval_f(source, u, gen.grid)
        return eval_f(source, gen.embed(u), gen.grid)[:, gen.free]

    def velocity_rhs(self, v: np.ndarray, delay: np.ndarray,
                     source: Optional[np.ndarray]) -> np.ndarray:
        """v + h g in the work array `r2`, g the delay term plus `source`."""
        g = delay
        if source is not None:
            g = np.add(delay, source, out=self.g)
        r2 = np.multiply(g, self.half_dt, out=self.r2)
        return np.add(v, r2, out=r2)

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        """(x1, x2) with (I - dt/2 A)(x1, x2) = (r1, r2) for each run, by the
        velocity-block reduction, in the halves of the work array `mid`; r1 may
        be x1 itself."""
        gen, h, x1, x2 = self.gen, self.half_dt, self.x1, self.x2
        np.multiply(self.mass, r2, out=x2)
        for x2_run, r1_run in zip(self.x2_runs, r1):    # dsbmv multiplies one vector
            x2_run -= h * gen.stiffness_product(r1_run)
        # in place; dpbtrs has no numerical failure mode: its info flags
        # illegal arguments only
        dpbtrs(self.chol, self.x2_columns, lower=0, overwrite_b=1)
        np.add(r1, h * x2, out=x1)
        return x1, x2

    def step(self, i: int, ell: int, states: np.ndarray, halves: np.ndarray,
             delay: np.ndarray) -> None:
        """Write states[i + 1] from states[i], the state at slot ell; `halves`
        is `states` seen as (rows, B, 2, ndof) and `delay` the step's midpoint
        delay term."""
        y, new = states[i], states[i + 1]
        u, v = halves[i, :, 0], halves[i, :, 1]
        if ell < self.startup:
            # two backward-Euler half-steps with the shared (I - dt/2 A) factor
            u1, v1 = self.solve(u, self.velocity_rhs(v, delay, self.source_term(u)))
            self.solve(u1, self.velocity_rhs(v1, self.end_delay(ell), self.source_term(u1)))
            halves[i + 1] = self.mid_by_run
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
            np.multiply(self.mid_by_run, 2.0, out=halves[i + 1])
            np.subtract(new, y, out=new)

    def advance(self, first: int, last: int, states: np.ndarray) -> None:
        """Step slot `first`, row 0 of `states`, on to slot `last`, at most
        len(`delay_rows`) steps per `midpoint_delays` pass, each step handed
        its slot ell; after a pass its new slots go into the `ring`.
        `states` is C-contiguous, so `halves` is a view."""
        m, span = self.sc.m, len(self.delay_rows)
        halves = states.reshape(*states.shape[:2], 2, -1)
        for lo in range(first, last, span):
            hi = min(lo + span, last)
            for ell, delay in zip(range(lo, hi), self.midpoint_delays(lo, hi)):
                self.step(ell - first, ell, states, halves, delay)
            if m is not None:
                self.ring[np.arange(lo + 1 + m, hi + 1 + m) % (m + 1)] = \
                    halves[lo + 1 - first:hi + 1 - first, :, 1, self.sc.on_p]


def batches(scenarios):
    """The runs in order, as lists of consecutive runs that share a step
    (`_share_a_step`), whose records fit in BATCH_RECORDS and whose block of
    RECORD_BLOCK doubles holds BLOCK_STEPS states of each; a run beyond
    either is a batch of one."""
    batch = []
    for sc in scenarios:
        size = len(batch) + 1
        if batch and not (_share_a_step(batch[0], sc) and size * (sc.nsteps + 1) <= BATCH_RECORDS
                          and size * 2 * sc.generator.ndof * BLOCK_STEPS <= RECORD_BLOCK):
            yield batch
            batch = []
        batch.append(sc)
    if batch:
        yield batch


def simulate_runs(scenarios: list, keep_states: bool = False) -> list:
    """Integrate a batch of runs that share a step (`_share_a_step`) to t_end,
    recording each state's diagnostics once; one Trajectory per run, in
    order, each bit for bit the one its run gets alone.

    `_Stepper.advance` steps RECORD_BLOCK // (2 ndof B) records at a time
    from a block's start row: one reused block (`states` None), or with
    `keep_states` the view of one (steps + 1, B, 2 ndof) array from that
    row; one energy pass over a block fills every record column, so no
    record depends on the block, batch or `keep_states`.  The first record
    of a run whose energy sum is not finite or whose sqrt(2 E) exceeds
    BLOWUP_NORM ends that run; rows stepped past it are dropped, and may
    overflow (numpy's warnings are off), so only that record can be
    non-finite.  The batch stops once every run has ended.  An array that
    cannot be allocated raises ArrayTooLargeError before any step; runs
    that do not share a step raise ValueError.
    """
    sc = scenarios[0]
    if not all(_share_a_step(sc, other) for other in scenarios[1:]):
        raise ValueError("a batch of runs must share the generator, dt, the step count, "
                         "the delay slots, the subdomain and the source")
    gen = sc.generator
    nruns, nsteps, dt, ndof = len(scenarios), sc.nsteps, sc.dt, gen.ndof
    rows, hint = max(1, RECORD_BLOCK // (2 * ndof * nruns)), "raise dt or lower t_end"
    states = allocate((nsteps + 1 if keep_states else min(rows, nsteps) + 1, nruns, 2 * ndof),
                      "the states of the run", hint)
    columns = allocate((nruns, 6, nsteps + 1), "the records of the run", hint)
    kinetic, elastic, boundary, source, tip_val, tip_vel = columns.transpose(1, 0, 2)
    delayed = sc.kernel is not None
    if delayed:
        m, h, p = sc.m, gen.grid.h, sc.on_p
        norms_sq = allocate((nruns, m + 1 + nsteps), "the slot norms of the run", hint)
        for b, run in enumerate(scenarios):          # slot j at entry j + m
            norms_sq[b, :m + 1] = diagnostics.slot_norms_sq(run.history_slots, h)
    stepper = _Stepper(scenarios, rows)
    for b, run in enumerate(scenarios):
        states[0, b] = run.initial_state
    nrec, ended = np.full(nruns, nsteps + 1), np.zeros(nruns, dtype=bool)
    finite = np.ones(nruns, dtype=bool)          # each run's last state
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, nsteps + 1, rows):
            hi = min(lo + rows, nsteps + 1)
            first = max(lo, 1)                   # the first stepped row
            base = first - 1                     # row 0's slot
            window = states[base:] if keep_states else states
            stepper.advance(base, hi - 1, window)
            block = window[lo - base:hi - base]
            flat = block.reshape(-1, 2 * ndof)   # record by record, run by run
            # the source energy is 0.0 without a source
            parts = (*gen.energy_parts(flat), diagnostics.source_energy(gen, sc.source, flat))
            for column, part in zip((kinetic, elastic, boundary, source), parts):
                column[:, lo:hi] = np.reshape(part, (hi - lo, nruns)).T if np.ndim(part) else part
            tip_val[:, lo:hi], tip_vel[:, lo:hi] = block[:, :, ndof - 1].T, block[:, :, -1].T
            if delayed:                          # slots first .. hi - 1 are rows
                norms_sq[:, m + first:m + hi] = diagnostics.slot_norms_sq(
                    block[first - lo:, :, ndof + p.start:ndof + p.stop], h).T
            total = kinetic[:, first:hi] + elastic[:, first:hi] + boundary[:, first:hi]
            over = ~(np.sqrt(2.0 * total) <= BLOWUP_NORM)      # nan too
            for b in np.flatnonzero(~ended & over.any(axis=1)):
                nrec[b], ended[b] = first + int(np.argmax(over[b])) + 1, True
                finite[b] = np.all(np.isfinite(window[nrec[b] - 1 - base, b]))
            if ended.all():
                break
            if not keep_states:
                states[0] = states[hi - 1 - base]
        trajectories = []
        for b, run in enumerate(scenarios):
            n = int(nrec[b])
            kin, ela, bnd, src, tips, tip_vels = columns[b, :, :n]
            history = diagnostics.history_energies(run.kernel, norms_sq[b, :m + n], m, dt) \
                if delayed else np.zeros(n)
            if not finite[b]:
                kin[-1] = ela[-1] = bnd[-1] = math.inf
                src[-1] = history[-1] = math.inf
                tips[-1] = tip_vels[-1] = math.nan
            trajectories.append(Trajectory(
                times=np.arange(n) * dt, states=states[:n, b] if keep_states else None,
                state_norms=np.sqrt(2.0 * (kin + ela + bnd)),
                energies=diagnostics.EnergyBreakdown.build(kin, ela, bnd, src, history),
                tip_values=tips, tip_velocities=tip_vels, blew_up=bool(ended[b]), scenario=run))
    return trajectories


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate one run to t_end: the batch of one of `simulate_runs`."""
    return simulate_runs([scenario], keep_states=True)[0]


# -- initial-data helpers -----------------------------------------------------------


def _general_bands(upper: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose upper bands are `upper` (the dpbtrf layout)
    in the general band layout of LAPACK gbtrf with kl = ku = kd: A[i, j] at
    row 2 kd + i - j, below kd leading rows kept for the fill-in of the
    pivoting."""
    kd, n = upper.shape[0] - 1, upper.shape[1]
    ab = np.zeros((3 * kd + 1, n), dtype=upper.dtype, order="F")
    for d in range(kd + 1):
        ab[2 * kd - d, d:] = upper[kd - d, d:]       # A[j - d, j]
        ab[2 * kd + d, :n - d] = upper[kd - d, d:]   # A[j + d, j]
    return ab


def pencil_mode(generator: DiscreteGenerator, lam: complex) -> np.ndarray:
    """phi, of unit 2-norm, with (lam^2 M + lam D + K) phi = 0 for an eigenvalue
    lam of the generator: two steps of inverse iteration from a fixed start
    on the complex banded pencil (Ipsen 1997, SIAM Rev. 39; Tisseur &
    Meerbergen 2001, SIAM Rev. 43), one LAPACK zgbtrf factor and two zgbtrs
    solves, O(kd^2 n).  An exactly singular factor is taken again at lam
    shifted by |lam| eps.  EigSolveFailureError when the relative residual
    ||P(lam) phi|| / (|lam|^2 ||M|| + |lam| ||D|| + ||K||), in the 1-norm of
    the matrices (Tisseur 2000, Linear Algebra Appl. 309), exceeds 1e-12;
    D is its `damping_corner`, K phi two `stiffness_product`s."""
    kd, ndof = generator.stiffness_bands.shape[0] - 1, generator.ndof
    for shift in (lam, lam + abs(lam) * np.finfo(float).eps):
        pencil = _general_bands(generator.combined_bands(shift * shift, shift, 1.0))
        factor, pivots, info = zgbtrf(pencil, kd, kd)
        if info <= 0:
            break
    else:
        raise EigSolveFailureError(f"the pencil at the eigenvalue {lam:.6g} is singular")
    phi = np.ones((ndof, 1), dtype=complex)
    for _ in range(2):
        phi, _ = zgbtrs(factor, kd, kd, phi, pivots, overwrite_b=1)
        phi /= np.linalg.norm(phi)
    phi, corner = phi[:, 0], generator.damping_corner()
    product = lam * lam * generator.mass * phi + generator.stiffness_product(phi.real)
    product += 1j * generator.stiffness_product(phi.imag)
    product[-3:] += lam * (corner @ phi[-3:])
    residual = np.linalg.norm(product)
    scale = (abs(lam) ** 2 * float(np.max(generator.mass))      # 1-norms: largest column sums
             + abs(lam) * float(np.max(np.sum(np.abs(corner), axis=0)))
             + float(np.max(np.sum(np.abs(_general_bands(generator.stiffness_bands)), axis=0))))
    if not residual <= 1e-12 * scale:
        raise EigSolveFailureError(f"inverse iteration at the eigenvalue {lam:.6g} left a "
                                   f"relative pencil residual of {residual / scale:.3g}")
    return phi


def eigenmode_state(generator: DiscreteGenerator, mode: int = 0,
                    amplitude: float = 1.0, by: str = "frequency"):
    """(y0, y1) from the mode-th eigenpair of the generator A.

    The eigenvalues are the generator's `spectrum`, deduplicated by
    conjugacy and ordered by ascending frequency |Im| (by="frequency", the
    physical mode count) or by decreasing real part (by="decay",
    slowest-decaying first).  `mode` must be an integer in [0, number of
    modes).  With lam the chosen eigenvalue, the eigenvector is x = (phi,
    lam phi), phi the mode of the quadratic pencil (`pencil_mode`); no dense
    eigenvector solve is made.  x is rotated as LAPACK dgeev rotates an
    eigenvector, so that its largest-modulus entry is real, and made
    positive there, which fixes the sign dgeev leaves arbitrary.  The
    returned nodal data is the real part of x, scaled to the requested
    state-norm amplitude.
    """
    if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)):
        raise ValueError(f"mode must be an integer, got {mode!r}")
    vals = generator.spectrum
    vals = vals[vals.imag >= -1e-12]
    if by == "frequency":
        order = np.lexsort((-vals.real, np.abs(vals.imag)))
    elif by == "decay":
        order = np.lexsort((np.abs(vals.imag), -vals.real))
    else:
        raise ValueError("by must be 'frequency' or 'decay'")
    if not 0 <= mode < order.size:
        raise ValueError(f"mode {mode} is outside [0, {order.size})")
    lam = vals[order[mode]]
    phi = pencil_mode(generator, lam)
    vec = np.concatenate((phi, lam * phi))
    top = vec[np.argmax(np.abs(vec))]
    state = (vec * (np.conj(top) / abs(top))).real
    state *= amplitude / generator.state_norm(state)
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


def certify_scenario(scenario: Scenario, semigroup: Optional[SemigroupCertificate] = None,
                     c_hp: Optional[float] = None) -> "diagnostics.CertificationResult":
    """End-to-end certificate pipeline for one scenario.

    Takes the semigroup constants of the scenario's generator from
    `semigroup`, or computes them with `semigroup_constants` when it is None,
    then the kernel window/growth certificates and the small-data threshold,
    whose C_HP is `c_hp`, or the profile's `hardy_poincare_constant` when it
    is None.  A caller that certifies several scenarios on one generator (a
    sweep over the kernel, source or data) computes both once and passes them.
    Raises NotExponentiallyStableError or InfeasibleError when no certificate
    exists, and InfeasibleError before any work when the scenario is not
    `certifiable`.
    """
    if not scenario.certifiable:
        raise InfeasibleError("explicit source constants are derived for beam_nondiv only; "
                              "use source kind 'none' for other operator kinds")
    gen = scenario.generator
    semi = semigroup if semigroup is not None else semigroup_constants(gen)
    kernel = scenario.kernel if scenario.kernel is not None \
        else KernelSpec.zero(tau=1.0)
    envelope = kernel_growth_check(kernel, semi.M, semi.omega, scenario.b)
    threshold = diagnostics.threshold_certificate(
        semi, kernel, envelope, scenario.b, scenario.source,
        constants_for(scenario.source, gen.profile, c_hp))
    return diagnostics.CertificationResult(
        semigroup=semi, envelope=envelope, b=scenario.b, threshold=threshold)
