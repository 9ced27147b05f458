"""Test-side constructions and norms that the package itself does not need.

The generator of a power-law coefficient on a uniform grid, the acceptance
gates' oracles (the dissipativity form <AY, Y> of the dense generator, the
Duhamel evaluation of a run, the growth gauge h of a source, a generator's
elastic seminorm and the small-data quarter lower bound), the eigenmodes of
the dense eigenvector route, synthetic elements of the clamped and pinned
discrete spaces, the clamped curvature seminorm read from `curvature_map`,
the dense row-by-row elastic map and stiffness of a generator, its dense
tip damping D, the subdomain extension B and the L2(P) pairing, the
pointwise and sampled checks of the source hypotheses, a semigroup-constant
sampler with one matrix exponential per sample time, the certificate route
with two full walks of the powers (full SVD norms and one `expm` per width,
or the package's norms and ladder), a stand-in generator that serves a
given matrix as its state-norm generator, the closed forms of the constant
and pulse gains, the trajectory and margins CSV writers as one formatted
value at a time, the IMEX step taken one step at a time with each
step's own delay term, and the per-slot read of the delay history that
these oracles share, independent of the stepper's ring.
Each is a reference that tests compare the package's forms, constants and
files against.
"""

import math

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dpbtrs

from degenwave import (BoundaryParams, CoefficientSpec, Grid, assemble, classify, evolution,
                       growth_envelope_C)
from degenwave.diagnostics import GROWTH_TOL
from degenwave.errors import InfeasibleError, SubdomainNotAlignedError
from degenwave.evolution import (HORIZON_DOUBLINGS, REFINE_GAP, REFINE_LEVELS,
                                 SemigroupCertificate)
from degenwave.nonlinearity import eval_f, h_coefficients, weighted_inner
from degenwave.operators import OperatorKind, curvature_map


def make_gen(kind, alpha, n, beta=1.0, gamma=1.0):
    """The generator of `kind` for a = x^alpha on the uniform grid of n nodes."""
    grid = Grid.uniform(n)
    profile = classify(CoefficientSpec.power_law(alpha), grid)
    return assemble(kind, profile, BoundaryParams(beta, gamma))


def quadratic_form(generator, state):
    """<A Y, Y> in the state inner product, with the dense system matrix A
    (nonpositive for every Y)."""
    return generator.state_inner(generator.system_matrix @ state, state)


def slot_trace(scenario, states, j):
    """The velocity on P at slot j of a run with the (records, 2 ndof) `states`:
    row j + m of `history_slots` for j <= 0, else from row j of `states`."""
    if j <= 0:
        return scenario.history_slots[j + scenario.m]
    return states[j, scenario.generator.ndof:][scenario.on_p]


def duhamel_residual(trajectory, check_stride=1):
    """Max relative mismatch between the trajectory and the Duhamel evaluation
    of its scenario.

    Source must be disabled.  The homogeneous part is propagated by the dense
    matrix exponential of one step; the delay integral by the product
    trapezoid rule (piecewise-linear density integrated exactly against the
    propagator) over the same slot grid, with the delayed traces taken from
    the recorded states (from the initial history for s < tau).  Second order
    in dt uniformly in the stiffness, so it is an independent correctness
    oracle for the integrator.
    """
    scenario = trajectory.scenario
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
        traces = [slot_trace(scenario, trajectory.states, j) for j in range(-m, nrec - m)]
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


def h_gauge(source, constants, x):
    """The growth gauge h(x) = c x^m of a source, from `h_coefficients`."""
    c, m = h_coefficients(source, constants)
    return c * x ** m


def elastic_seminorm(generator, u_free):
    """The kind's seminorm ||u''||, ||sqrt(a)u''||, ||u'|| or ||sqrt(a)u'|| of
    free dofs, from `elastic_product` and the quadrature weights."""
    cu = generator.elastic_product(u_free)
    return float(np.sqrt(generator.elastic_weights @ (cu * cu)))


def quarter_bound_violations(trajectory, constants):
    """The steps of a weighted-beam run where the small-data quarter lower
    bound E(t) > (1/4)||Y(t)||^2 fails, or None where its premises do not hold.

    The premises are E(0) > 0, h(||y0''||) < 1/2 and h(2 sqrt(C(T) E(0))) < 1/2,
    with the source `constants` of h and the growth envelope C at the last
    time T.  A step fails when E(t) <= (1/4)||Y(t)||^2 (1 - GROWTH_TOL) - 1e-14.
    """
    scenario = trajectory.scenario
    gen, source = scenario.generator, scenario.source
    if gen.kind is not OperatorKind.BEAM_NONDIV:
        raise ValueError("the quarter bound is stated for the weighted beam")
    total = np.asarray(trajectory.energies.total)
    e0 = float(total[0])
    u0, _ = gen.split(scenario.initial_state)
    c_at_end = growth_envelope_C(scenario.kernel, scenario.b, trajectory.times[-1])
    if not (e0 > 0 and h_gauge(source, constants, elastic_seminorm(gen, u0)) < 0.5
            and h_gauge(source, constants, 2.0 * math.sqrt(c_at_end * e0)) < 0.5):
        return None
    nrm_sq = np.asarray(trajectory.state_norms) ** 2
    return np.flatnonzero(np.isfinite(total)
                          & (total <= 0.25 * nrm_sq * (1.0 - GROWTH_TOL) - 1e-14))


def dense_eigenmodes(generator, by="frequency"):
    """(eigenvalues, eigenvectors) of the generator A, deduplicated by
    conjugacy and ordered as `evolution.eigenmode_state` orders them, from one
    dense `np.linalg.eig` of A~ = T A T^{-1}: the eigenvectors are carried
    back by T^{-1} = diag(L^{-T}, M^{-1/2}), K = L L^T, and scaled to unit
    2-norm."""
    vals, vecs = np.linalg.eig(generator.state_norm_generator())
    keep = vals.imag >= -1e-12
    vals, vecs = vals[keep], vecs[:, keep]
    if by == "frequency":
        order = np.lexsort((-vals.real, np.abs(vals.imag)))
    else:
        order = np.lexsort((np.abs(vals.imag), -vals.real))
    vals, vecs = vals[order], vecs[:, order]
    ndof = generator.ndof
    chol = np.linalg.cholesky(generator.stiffness_form)
    vecs = np.concatenate((scipy.linalg.solve_triangular(chol.T, vecs[:ndof]),
                           vecs[ndof:] / np.sqrt(generator.mass)[:, None]))
    return vals, vecs / np.linalg.norm(vecs, axis=0)


def from_curvature(grid, curvature):
    """Nodal u with u(0)=u'(0)=0 whose discrete curvature rows equal the input.

    curvature[k] feeds row k of `curvature_map` (the mirrored row at node 0,
    then the interior centered rows); the final one-sided row is not
    prescribed.
    """
    curvature = np.asarray(curvature, dtype=float)
    n, h = grid.n, grid.h
    if curvature.shape[0] < n - 1:
        raise ValueError("need n-1 curvature values (mirror row + interior rows)")
    # u' at the faces j+1/2: half a cell of the mirrored row, then one cell per row
    slopes = np.cumsum(np.concatenate(([0.5 * h * curvature[0]], h * curvature[1:n - 1])))
    u = np.zeros(n)
    u[1:] = np.cumsum(h * slopes)
    return u


def from_face_slopes(grid, slopes, u0=0.0):
    """Nodal u with prescribed face gradients (u_{j+1}-u_j)/h and u(0)=u0."""
    slopes = np.asarray(slopes, dtype=float)
    if slopes.shape[0] != grid.n - 1:
        raise ValueError("need n-1 face slopes")
    u = np.empty(grid.n)
    u[0] = u0
    u[1:] = u0 + np.cumsum(grid.h * slopes)
    return u


def apply_B(sub, grid, values_on_p):
    """Extend a function on P by zero to a full nodal function."""
    idx = np.arange(*sub.node_range(grid))
    values_on_p = np.asarray(values_on_p, dtype=float)
    if values_on_p.shape != idx.shape:
        raise SubdomainNotAlignedError(
            f"expected {idx.size} subdomain values, got {values_on_p.shape}")
    full = np.zeros(grid.n)
    full[idx] = values_on_p
    return full


def inner_H(grid, f, g):
    """L2(P) inner product; node weight h matches the ambient quadrature."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    return float(grid.h * np.sum(f * g))


def norm_H(grid, f):
    return math.sqrt(max(inner_H(grid, f, f), 0.0))


def weighted_l2_norm(y, profile):
    """||y||_{L2_{1/a}} by the composite midpoint rule (x = 0 never touched)."""
    grid = profile.grid
    y = np.asarray(y, dtype=float)
    mid_vals = 0.5 * (y[:-1] + y[1:])
    a_mid = profile.spec(grid.midpoints)
    return float(np.sqrt(grid.h * np.sum(mid_vals * mid_vals / a_mid)))


def curvature_seminorm(grid, u_full):
    """||u''|| of a nodal function in the clamped space {u(0)=u'(0)=0}."""
    ab, kl, ku, wts = curvature_map(grid)
    cu = dgbmv(grid.n, grid.n, kl, ku, 1.0, ab, np.asarray(u_full, dtype=float))
    return float(np.sqrt(wts @ (cu * cu)))


def dense_elastic_reference(generator):
    """(C, w, K) of a generator, dense, from the stencil definitions row by row.

    C has the curvature rows (beams: the mirrored row at node 0 when the kind
    has one, the centered interior rows, the one-sided row at x = 1) or the
    face-gradient rows (waves), restricted to the free nodes; w holds the
    quadrature weights times the coefficient at each row's location; and
    K = C^T W C + beta e e^T + gamma g g^T with the generator's tip gains.
    """
    kind, grid, profile = generator.kind, generator.grid, generator.profile
    n, h = grid.n, grid.h
    entries = []  # (row, quadrature weight, where the coefficient is read)
    if kind.is_beam:
        if kind is OperatorKind.BEAM_NONDIV or profile.is_weakly_degenerate:
            r = np.zeros(n)
            r[0], r[1] = -2.0 / h**2, 2.0 / h**2
            entries.append((r, 0.5 * h, 0.5 * h))
        for i in range(1, n - 1):
            r = np.zeros(n)
            r[i - 1], r[i], r[i + 1] = 1.0 / h**2, -2.0 / h**2, 1.0 / h**2
            entries.append((r, h, grid.nodes[i]))
        r = np.zeros(n)
        r[n - 4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h**2
        entries.append((r, 0.5 * h, 1.0))
    else:
        for j in range(n - 1):
            r = np.zeros(n)
            r[j], r[j + 1] = -1.0 / h, 1.0 / h
            entries.append((r, h, grid.midpoints[j]))
    rows, weights, locations = (np.array(column) for column in zip(*entries))
    if kind.is_divergence_form:
        weights = weights * profile.spec(locations)
    pinned = not (kind is OperatorKind.WAVE_DIV and not profile.is_weakly_degenerate)
    c = rows[:, 1:] if pinned else rows
    e = np.zeros(c.shape[1])
    e[-1] = 1.0
    g = np.zeros(c.shape[1])
    g[-3:] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    k = c.T @ (weights[:, None] * c)
    k += generator.beta_eff * np.outer(e, e) + generator.gamma_eff * np.outer(g, g)
    return c, weights, k


def dense_damping(generator, scale=1.0):
    """S D S = d_e (Se)(Se)^T + d_g (Sg)(Sg)^T, dense ndof x ndof, from the tip
    traces embedded in ndof-long vectors; `scale` is the diagonal of S (D
    itself by default), applied to the traces before their outer products."""
    traces = np.zeros((2, generator.ndof))
    traces[:, -3:] = generator.tip_weights.T
    e, g = traces * scale
    return (generator.damping_value_coeff * np.outer(e, e)
            + generator.damping_slope_coeff * np.outer(g, g))


def empirical_growth_constant(source, generator, samples):
    """Sampled sup of <f(u), u> / ||u||_s^{m+2} in a generator's own pairing.

    The explicit constants are derived for the weighted clamped-beam
    seminorm; for the other operator kinds the sign/growth hypothesis is
    verified in inequality form by sampling: a finite, grid-stable supremum
    certifies a gauge h(x) = C x^m for that kind's seminorm (||sqrt(a)u''||,
    ||u'|| or ||sqrt(a)u'||).  `samples` are full nodal displacement vectors.
    """
    m = source.exponent
    grid = generator.grid
    profile = generator.profile
    sup = 0.0
    for u_full in samples:
        u_full = np.asarray(u_full, dtype=float)
        fu = eval_f(source, u_full, grid)
        if generator.kind.weighted_velocity:
            pairing = weighted_inner(fu, u_full, profile)
        else:
            pairing = grid.trapezoid(fu * u_full)
        semi = elastic_seminorm(generator, generator.restrict(u_full))
        if semi > 1e-12:
            sup = max(sup, pairing / semi ** (m + 2.0))
    return sup


def sobolev_pointwise_bound_check(u_full, grid, rtol=0.05, atol=1e-12):
    """Check |u(x_i)| <= (2/3) x_i^{3/2} ||u''|| at every node (with slack).

    The multiplicative slack absorbs the O(h^{3/2}) defect of the discrete
    double-integration chain near x = 0.
    """
    u = np.asarray(u_full, dtype=float)
    bound = (2.0 / 3.0) * grid.nodes ** 1.5 * curvature_seminorm(grid, u)
    return bool(np.all(np.abs(u) <= bound * (1.0 + rtol) + atol))


class MatrixGenerator:
    """The members of a `DiscreteGenerator` that `semigroup_constants` reads,
    serving a given square matrix of even order as A~, with its eigenvalues
    as the spectrum and the top eigenvalue of its dense symmetric part as
    the logarithmic norm."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        self.ndof = self.matrix.shape[0] // 2
        self.spectrum = np.linalg.eigvals(self.matrix)

    def state_norm_generator(self):
        return self.matrix

    def log_norm(self):
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))[-1])


def direct_semigroup_constants(a_tilde, horizon=20.0, samples=80, recheck=50):
    """(sampled max, omega, horizon) of ||e^{tA}|| e^{omega t}, with one `expm`
    of t A per sample time t: a lower reference for the M of
    `evolution.semigroup_constants`.

    Same horizon-doubling rule, sample grid, omega and floor >= 1, plus
    `recheck` cell-centred times off that grid; `a_tilde` is the state-norm
    generator (or any stable matrix).
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    omega = 0.9 * -float(np.max(np.linalg.eigvals(a_tilde).real))

    def weighted_norm(t):
        return float(scipy.linalg.norm(scipy.linalg.expm(t * a_tilde), 2)) * math.exp(omega * t)

    for _ in range(8):
        if weighted_norm(horizon) <= 1.0:
            break
        horizon *= 2.0
    times = np.concatenate((np.linspace(0.0, horizon, samples + 1),
                            (np.arange(recheck) + 0.5) * horizon / recheck))
    return max(max(weighted_norm(t) for t in times), 1.0), omega, horizon


def reference_semigroup_constants(generator, horizon=20.0, samples=80, package=False):
    """`evolution.semigroup_constants` with the chain of powers walked twice
    in full, once for all `samples` + 1 samples and once to refine cell by
    cell: the reference its M and note are checked against.  Each norm is a
    full SVD, and each propagator at the horizon, the sample width and each
    halving width its own `expm`.  With `package`, the norms are
    `evolution.spectral_norm` and the propagators those of
    `evolution.propagator_ladders`, the package's arithmetic, so that M,
    omega and the note agree to the bit."""
    if package:
        norm = evolution.spectral_norm
    else:
        def norm(propagator):
            return float(scipy.linalg.norm(propagator, 2))
    a_tilde = generator.state_norm_generator()
    dim = a_tilde.shape[0]
    abscissa = float(np.max(np.linalg.eigvals(a_tilde).real))
    omega = 0.9 * (-abscissa)
    log_norm = float(np.linalg.eigvalsh(0.5 * (a_tilde + a_tilde.T))[-1])
    growth = max(omega + log_norm, 0.0)

    def weighted_norm(propagator, t):
        return norm(propagator) * math.exp(omega * t)

    ladders = evolution.propagator_ladders(a_tilde, horizon / samples)
    for horizon in [horizon * 2.0 ** k for k in range(HORIZON_DOUBLINGS + 1)]:
        if package:
            rungs = next(ladders)
            tail = np.linalg.matrix_power(rungs[-1], samples)
        else:
            tail = scipy.linalg.expm(horizon * a_tilde)
        if weighted_norm(tail, horizon) <= 1.0:
            break
    else:
        raise InfeasibleError("the horizon rule never held")

    width = horizon / samples

    def propagator(level):
        """e^{(width / 2^level) A~}"""
        if package:
            return rungs[REFINE_LEVELS - level]
        return scipy.linalg.expm((width / 2.0 ** level) * a_tilde)

    step = propagator(0)
    power = np.eye(dim)
    values = [weighted_norm(power, 0.0)]
    for k in range(1, samples + 1):
        power = step @ power
        values.append(weighted_norm(power, k * width))
    sampled = max(values)

    halves = []
    m_const, cells = 1.0, 0
    power = np.eye(dim)
    for k in range(samples):
        if k:
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
                halves.append(propagator(level + 1))
            mid = halves[level] @ start
            mid_value = weighted_norm(mid, t + 0.5 * w)
            sampled = max(sampled, mid_value)
            cell_stack += [(mid, t + 0.5 * w, mid_value, level + 1),
                           (start, t, value, level + 1)]
    note = (f"M = {m_const:.6g} bounds ||e^(tA)|| e^(omega t) on {cells} cells in "
            f"[0, {horizon:g}] after {len(halves)} halvings of {samples}, sampled max "
            f"{sampled:.6g}, omega = 0.9 x {-abscissa:.6g}")
    return SemigroupCertificate(M=m_const, omega=omega, method_note=note)


def eig_semigroup_profile(a_tilde, omega, times):
    """||e^{tA}|| e^{omega t} at each t, with e^{tA} = V e^{t Lambda} V^{-1}
    from one eigendecomposition; V must be well conditioned (below 1e4).
    Each norm is the square root of the top eigenvalue of the Gram matrix
    P^T P, from the full symmetric eigensolver: the subset drivers of
    `scipy.linalg.eigvalsh` fail on the clustered spectrum of the Gram
    matrix of a nearly orthogonal propagator."""
    evals, evecs = np.linalg.eig(np.asarray(a_tilde, dtype=float))
    if np.linalg.cond(evecs) > 1e4:
        raise ValueError("eigenvector basis too ill-conditioned for the profile")
    inv = np.linalg.inv(evecs)
    times = np.asarray(times, dtype=float)
    out = np.empty(times.size)
    for start in range(0, times.size, 50):   # 50 propagators at a time
        ts = times[start:start + 50]
        props = ((evecs[None] * np.exp(np.outer(ts, evals))[:, None, :]) @ inv).real
        norms_sq = np.linalg.eigvalsh(np.swapaxes(props, 1, 2) @ props)[:, -1]
        out[start:start + 50] = np.sqrt(norms_sq) * np.exp(omega * ts)
    return out


class ClosedFormGain:
    """A constant gain k0 (support_end None) or a pulse k0 on [0, support_end),
    in the closed forms the package used before both became step tables:
    k, int_0^t |k|, L1-ness, total mass, the window bound Lambda and the
    growth envelope (alpha, omega')."""

    def __init__(self, k0, tau, support_end=None):
        self.k0, self.tau, self.support_end = float(k0), float(tau), support_end

    def _scalar(self, out):
        return out if out.ndim else float(out)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        if self.support_end is None:
            return self._scalar(np.where(t >= 0.0, self.k0, 0.0))
        return self._scalar(np.where((t >= 0.0) & (t < self.support_end), self.k0, 0.0))

    def cumabs(self, t):
        tp = np.maximum(np.asarray(t, dtype=float), 0.0)
        if self.support_end is None:
            return self._scalar(abs(self.k0) * tp)
        return self._scalar(abs(self.k0) * np.minimum(tp, self.support_end))

    @property
    def is_l1(self):
        return self.support_end is not None or self.k0 == 0.0

    def total_mass(self):
        if self.support_end is None:
            return 0.0 if self.k0 == 0.0 else math.inf
        return abs(self.k0) * self.support_end

    def window_bound(self):
        if self.support_end is None:
            return abs(self.k0) * self.tau
        return abs(self.k0) * min(self.support_end, self.tau)

    def growth(self, M, omega, b):
        """(alpha, omega'); raises InfeasibleError when no omega' < omega works."""
        scale = M * b * b * math.exp(omega * self.tau)
        if self.support_end is not None:
            return scale * self.total_mass(), 0.0
        slope = scale * abs(self.k0)
        if slope == 0.0:
            return 0.0, 0.0
        if slope >= omega:
            raise InfeasibleError(f"constant gain slope {slope:.3e} >= omega {omega:.3e}")
        return 0.0, slope


def reference_trajectory_csv(trajectory, path):
    """`Trajectory.to_csv` with one f"{x:.17g}" per value."""
    e = trajectory.energies
    table = np.column_stack((trajectory.times, e.total, e.kinetic, e.elastic, e.boundary,
                             e.source, e.history, trajectory.state_norms,
                             trajectory.tip_values, trajectory.tip_velocities))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(trajectory.CSV_COLUMNS) + "\n")
        for row in table.tolist():
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def reference_margins_csv(report, path):
    """`BoundReport.to_csv` with one f-string per row."""
    with open(path, "w", newline="") as fh:
        fh.write("t,included,bound_ratio\n")
        for t, inc, r in zip(report.times, report.included, report.ratios):
            fh.write(f"{t:.17g},{int(inc)},{r:.17g}\n")


def reference_states(scenario):
    """All `nsteps` + 1 states of the run, stepped one step at a time.

    Each step forms its own delay term -k(t) B B* y_t(t - tau) from the slots
    it reads (`slot_trace`): at
    t + dt for the second half-step of a start-up pair, as the mean of slots
    ell - m and ell + 1 - m at the midpoint otherwise.  Then v + h g, the
    velocity-block solve with the stepper's Cholesky factor, and the
    implicit-midpoint update 2 mid - y, term by term as `simulate` computes
    them.  Steps past a blow-up are taken too (overflow is silent), so the
    states of `simulate` are a prefix of these.
    """
    gen, kernel, source = scenario.generator, scenario.kernel, scenario.source
    n, dt, m = gen.ndof, scenario.dt, scenario.m
    h = 0.5 * dt
    factor = evolution._Stepper([scenario], 1).chol
    states = np.empty((scenario.nsteps + 1, 2 * n))
    states[0] = scenario.initial_state

    def delay_term(ell, midpoint):
        g = np.zeros(n)
        if kernel is not None:
            delayed = slot_trace(scenario, states, ell + 1 - m)
            if midpoint:
                delayed = 0.5 * (slot_trace(scenario, states, ell - m) + delayed)
            g[scenario.on_p] = 0.0 - kernel.eval(ell * dt + (h if midpoint else dt)) * delayed
        return g

    def source_term(u):
        return None if source.is_none else eval_f(source, gen.embed(u), gen.grid)[gen.free]

    def solve(r1, v, g):
        r2 = v + g * h
        x2, _ = dpbtrs(factor, gen.mass * r2 - h * gen.stiffness_product(r1), lower=0)
        return r1 + h * x2, x2

    def plus(g, src):
        return g if src is None else g + src

    startup = evolution.STARTUP_STEPS if kernel is not None or not source.is_none else 0
    prev = None
    with np.errstate(all="ignore"):
        for ell in range(scenario.nsteps):
            u, v = states[ell, :n], states[ell, n:]
            if ell < startup:
                u1, v1 = solve(u, v, plus(delay_term(ell, True), source_term(u)))
                u2, v2 = solve(u1, v1, plus(delay_term(ell, False), source_term(u1)))
                states[ell + 1] = np.concatenate((u2, v2))
                prev = source_term(u2)
                continue
            src = source_term(u)
            extrapolated = None
            if src is not None:
                extrapolated = 1.5 * src - 0.5 * (src if prev is None else prev)
                prev = src
            u_mid, v_mid = solve(u, v, plus(delay_term(ell, True), extrapolated))
            states[ell + 1] = np.concatenate((2.0 * u_mid - u, 2.0 * v_mid - v))
    return states
