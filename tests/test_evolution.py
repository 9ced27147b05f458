import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from degenwave import (BoundaryParams, CoefficientSpec, DegenwaveError, Grid,
                       InfeasibleError, KernelSpec,
                       NotExponentiallyStableError, OperatorKind,
                       Scenario, SourceKind, SubdomainP, apply_Bstar, assemble, certify_scenario,
                       classify, decay_fit, diagnostics, eigenmode_state,
                       evolution, polynomial_state, semigroup_constants, simulate,
                       smallness_level)
from degenwave.errors import EigSolveFailureError, LinearSolveFailureError
from degenwave.evolution import (REFINE_GAP, REFINE_LEVELS, _Stepper, pencil_mode,
                                 spectral_norm)
from degenwave.operators import DiscreteGenerator
from helpers import (MatrixGenerator, dense_damping, dense_eigenmodes, direct_semigroup_constants,
                     duhamel_residual, eig_semigroup_profile, make_gen,
                     reference_semigroup_constants, reference_states, slot_trace)

#: the non-normal 6 x 6 generator: transient growth (M > 5), horizon doubled twice
NON_NORMAL = -np.diag(np.linspace(0.3, 2.0, 6)) + np.eye(6, k=1)


# -- semigroup certificates -----------------------------------------------------


def test_semigroup_constants_diagonal_matrix():
    cert = semigroup_constants(MatrixGenerator(np.diag([-1.0, -2.0])), horizon=5.0,
                               samples=50)
    assert cert.omega == pytest.approx(0.9)
    assert cert.M == pytest.approx(1.0, abs=1e-9)


def test_semigroup_rejects_rotation():
    with pytest.raises(NotExponentiallyStableError):
        semigroup_constants(MatrixGenerator([[0.0, 1.0], [-1.0, 0.0]]))


def test_semigroup_certificate_sound(rng):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24)
    cert = semigroup_constants(gen, horizon=10.0, samples=60)
    a_tilde = gen.state_norm_generator()
    for t in rng.uniform(0.0, 10.0, size=50):
        prop = scipy.linalg.expm(t * gen.system_matrix)
        for _ in range(20):
            y0 = rng.standard_normal(2 * gen.ndof)
            lhs = gen.state_norm(prop @ y0)
            assert lhs <= cert.M * math.exp(-cert.omega * t) * gen.state_norm(y0) \
                * (1 + 1e-8)
    assert a_tilde.shape == gen.system_matrix.shape


def note_figures(cert):
    """(horizon, halvings, sampled max) reported in the certificate's note."""
    found = re.search(r"in \[0, (\S+)\] after (\d+) halvings .* sampled max (\S+),",
                      cert.method_note)
    return float(found.group(1)), int(found.group(2)), float(found.group(3))


def check_against_direct_sampler(monkeypatch, generator, a_tilde):
    """M at least the one-expm-per-time sampled maximum, omega within 1e-10 of
    its omega, and one matrix exponential in all; against the reference route
    of SVD norms, one `expm` per width and two full walks, M within 1e-12 and
    the note's horizon, cells, halvings and sampled maximum identical."""
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda *a, **k: calls.append(1) or expm(*a, **k))
    cert = semigroup_constants(generator)
    monkeypatch.undo()
    want_m, want_omega, horizon = direct_semigroup_constants(a_tilde)
    assert cert.M >= want_m * (1.0 - 1e-10)
    assert abs(cert.omega - want_omega) <= 1e-10 * want_omega
    noted_horizon, _, _ = note_figures(cert)
    assert noted_horizon == horizon
    assert len(calls) == 1
    reference = reference_semigroup_constants(generator)
    assert cert.M == pytest.approx(reference.M, rel=1e-12, abs=0.0)
    assert cert.omega == reference.omega
    figures = re.compile(r"^M = \S+ ")
    assert figures.sub("", cert.method_note) == figures.sub("", reference.method_note)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("n", [16, 32])
def test_semigroup_powers_match_direct_sampler(monkeypatch, kind, alpha, n):
    gen = make_gen(kind, alpha, n)
    check_against_direct_sampler(monkeypatch, gen, gen.state_norm_generator())


def test_semigroup_powers_match_direct_sampler_plain_matrix(monkeypatch):
    check_against_direct_sampler(monkeypatch, MatrixGenerator(NON_NORMAL), NON_NORMAL)
    cert = semigroup_constants(MatrixGenerator(NON_NORMAL))
    assert cert.M > 5.0 and "in [0, 80]" in cert.method_note


def norm_counts(monkeypatch, generator):
    """The certificate of `generator`, with the number of `spectral_norm`
    calls it made in all, and the samples of its first walk: the calls, less
    one per horizon tried and one per halved cell's midpoint, plus the t = 0
    sample, ||I|| = 1, which takes no norm."""
    calls = []
    monkeypatch.setattr(evolution, "spectral_norm",
                        lambda p: calls.append(1) or spectral_norm(p))
    cert = semigroup_constants(generator)
    monkeypatch.undo()
    horizon, _, _ = note_figures(cert)
    cells = int(re.search(r" on (\d+) cells ", cert.method_note).group(1))
    horizons = round(math.log2(horizon / 20.0)) + 1
    return cert, len(calls), len(calls) - horizons - (cells - 80) + 1


README_GEN = (OperatorKind.BEAM_NONDIV, 0.5, 64)


@pytest.mark.parametrize("kind, alpha, n", [
    (kind, alpha, n) for kind in OperatorKind for alpha in (0.5, 1.5) for n in (16, 32)]
    + [README_GEN, (None, None, None)])
def test_semigroup_constants_match_the_full_walk_to_the_bit(monkeypatch, kind, alpha, n):
    # the stopped first walk against the reference that samples all 81 powers,
    # with the package's norm and ladder; NON_NORMAL never meets the stop rule
    gen = MatrixGenerator(NON_NORMAL) if kind is None else make_gen(kind, alpha, n)
    cert, _, first_walk = norm_counts(monkeypatch, gen)
    reference = reference_semigroup_constants(gen, package=True)
    assert cert.M.hex() == reference.M.hex()
    assert cert.omega.hex() == reference.omega.hex()
    assert cert.method_note == reference.method_note
    assert (first_walk == 81) == (kind is None)


def used_ladder(monkeypatch, generator):
    """The certificate of `generator`, with the width and the rungs of the
    last ladder `propagator_ladders` yielded to it: the ladder of the
    certificate's horizon."""
    ladders, used = evolution.propagator_ladders, []

    def recorded(a_tilde, width):
        for rungs in ladders(a_tilde, width):
            used.append((width, rungs))
            width *= 2.0
            yield rungs

    monkeypatch.setattr(evolution, "propagator_ladders", recorded)
    cert = semigroup_constants(generator)
    monkeypatch.undo()
    return cert, used[-1]


@pytest.mark.parametrize("kind, alpha, n", [
    (kind, alpha, n) for kind in OperatorKind for alpha in (0.5, 1.5) for n in (16, 32)]
    + [README_GEN, (None, None, None)])
def test_every_ladder_rung_is_the_exponential_at_its_width(monkeypatch, kind, alpha, n):
    # rung j of the ladder against expm at width w / 2^(REFINE_LEVELS - j);
    # NON_NORMAL's ladder is the one of H = 80, after two horizon doublings
    gen = MatrixGenerator(NON_NORMAL) if kind is None else make_gen(kind, alpha, n)
    cert, (width, rungs) = used_ladder(monkeypatch, gen)
    horizon, _, _ = note_figures(cert)
    assert width == horizon / 80 and len(rungs) == REFINE_LEVELS + 1
    assert kind is not None or horizon == 80.0
    a_tilde = gen.state_norm_generator()
    for j, rung in enumerate(rungs):
        want = scipy.linalg.expm((width / 2.0 ** (REFINE_LEVELS - j)) * a_tilde)
        assert np.linalg.norm(rung - want, 2) <= 1e-12 * np.linalg.norm(want, 2), j


def test_semigroup_first_walk_stops_once_the_profile_has_decayed(monkeypatch):
    # README generator: 11 first-walk samples and 50 norms, against 81 and 120
    # for the full walk
    _, norms, first_walk = norm_counts(monkeypatch, make_gen(*README_GEN))
    assert first_walk <= 12 and norms <= 50


def test_semigroup_normal_generator_stops_at_the_first_sample(monkeypatch):
    # a normal A~ has mu equal to its spectral abscissa a, so omega + mu < 0,
    # g = 0 and v_1 = e^{0.1 a w} < 1
    normal = np.array([[-1.0, 2.0, 0.0, 0.0], [-2.0, -1.0, 0.0, 0.0],
                       [0.0, 0.0, -3.0, 0.0], [0.0, 0.0, 0.0, -1.5]])
    cert, norms, first_walk = norm_counts(monkeypatch, MatrixGenerator(normal))
    assert first_walk == 2 and norms == 2
    assert cert.M == 1.0
    assert "on 80 cells in [0, 20] after 0 halvings" in cert.method_note


def test_spectral_norm_matches_the_svd(rng):
    # the top eigenvalue of P^T P against the largest singular value, to 4 dim u
    readme = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 64).state_norm_generator()
    step = scipy.linalg.expm(0.25 * readme)
    powers = [np.eye(readme.shape[0])]
    for _ in range(80):
        powers.append(step @ powers[-1])
    inputs = [rng.standard_normal((dim, dim)) for dim in (2, 7, 40, 126)]
    inputs += [1e-200 * inputs[2], 1e200 * inputs[2]]   # P^T P would leave the range
    inputs += [NON_NORMAL] + [scipy.linalg.expm(t * NON_NORMAL) for t in (0.5, 4.0, 40.0)]
    for matrix in inputs + powers:
        want = np.linalg.norm(matrix, 2)
        assert abs(spectral_norm(matrix) - want) <= 4 * matrix.shape[0] * np.finfo(float).eps * want


def test_spectral_norm_of_a_nearly_orthogonal_propagator():
    # LAPACK's subset driver fails ("Internal Error") on the clustered Gram
    # spectrum of these powers of e^{0.005 A~} (wave_nondiv, a = x^0.5, n = 16,
    # t = 0.02, 0.04, 0.045, 0.06, 0.115); the full spectrum gives the norm
    a_tilde = make_gen(OperatorKind.WAVE_NONDIV, 0.5, 16).state_norm_generator()
    step = scipy.linalg.expm(0.005 * a_tilde)
    for k in (4, 8, 9, 12, 23):
        power = np.linalg.matrix_power(step, k)
        want = np.linalg.svd(power, compute_uv=False)[0]
        assert spectral_norm(power) == pytest.approx(want, rel=1e-12, abs=0.0), k


def test_semigroup_constants_take_the_first_sample_as_one(monkeypatch):
    # ||I|| = 1 exactly, as `spectral_norm` computes it too; the walk norms no
    # identity
    for dim in (2, 3, 7, 126, 1024):
        assert spectral_norm(np.eye(dim)) == 1.0
    normed = []
    monkeypatch.setattr(evolution, "spectral_norm",
                        lambda p: normed.append(np.array_equal(p, np.eye(len(p))))
                        or spectral_norm(p))
    semigroup_constants(make_gen(*README_GEN))
    assert normed and not any(normed)


def test_semigroup_constants_take_no_svd(monkeypatch):
    def svd(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    for module, name in [(np.linalg, "svd"), (scipy.linalg, "norm"), (scipy.linalg, "svd"),
                         (scipy.linalg, "svdvals")]:
        monkeypatch.setattr(module, name, svd)
    assert semigroup_constants(make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)).M >= 1.0
    assert semigroup_constants(MatrixGenerator(NON_NORMAL)).M > 5.0


def test_semigroup_rejects_large_state_dimension():
    with pytest.raises(DegenwaveError, match="state dimension 1026 exceeds 1024"):
        semigroup_constants(MatrixGenerator(-np.eye(1026)))


@pytest.mark.parametrize("matrix, message", [
    # the rule ||e^(HA)|| e^(omega H) <= 1 still fails after 8 doublings
    (-np.diag(np.linspace(0.01, 2.0, 6)) + 3.0 * np.eye(6, k=1),
     "> 1 at the last horizon H = 5120"),
    # e^(omega H) overflows (omega H > 709) before the rule holds
    (-np.eye(12) + np.triu(3.0 * np.random.RandomState(20240817).randn(12, 12), 1),
     "overflows at the horizon H = 1280"),
])
def test_semigroup_rejects_horizon_rule_that_never_holds(matrix, message):
    with pytest.raises(InfeasibleError, match=message):
        semigroup_constants(MatrixGenerator(matrix))


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_semigroup_constant_bounds_the_profile_between_samples(rng, kind, alpha, n):
    # M bounds ||e^{tA}|| e^{omega t} at stratified times off the sample grid
    # (beyond H the horizon rule covers the tail), and refinement stops
    # within REFINE_GAP of the sampled maximum
    gen = make_gen(kind, alpha, n)
    cert = semigroup_constants(gen)
    horizon, halvings, sampled = note_figures(cert)
    assert halvings < REFINE_LEVELS
    a_tilde = gen.state_norm_generator()
    count = 2000
    times = (np.arange(count) + rng.uniform(size=count)) * horizon / count
    profile = eig_semigroup_profile(a_tilde, cert.omega, times)
    for j in range(0, count, 500):
        direct = np.linalg.norm(scipy.linalg.expm(times[j] * a_tilde), 2) \
            * math.exp(cert.omega * times[j])
        assert profile[j] == pytest.approx(direct, rel=1e-8)
    assert np.max(profile) <= cert.M * (1.0 + 1e-9)
    assert cert.M <= (1.0 + REFINE_GAP) * sampled * (1.0 + 1e-6)


def eigh_state_norm_generator(gen):
    """W^{1/2} A W^{-1/2} for the weight W = diag(K, M), with the symmetric
    square root of K from its eigendecomposition (eigenvalues floored at
    1e-13 of the largest): the reference for the closed form."""
    evals, evecs = np.linalg.eigh(gen.stiffness_form)
    evals = np.maximum(evals, max(evals[-1], 1.0) * 1e-13)
    n = gen.ndof
    whalf = np.zeros((2 * n, 2 * n))
    wihalf = np.zeros((2 * n, 2 * n))
    whalf[:n, :n] = evecs @ (np.sqrt(evals)[:, None] * evecs.T)
    wihalf[:n, :n] = evecs @ ((1.0 / np.sqrt(evals))[:, None] * evecs.T)
    whalf[n:, n:] = np.diag(np.sqrt(gen.mass))
    wihalf[n:, n:] = np.diag(1.0 / np.sqrt(gen.mass))
    return whalf @ gen.system_matrix @ wihalf


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha, n", [(0.5, 16), (1.5, 32), (0.5, 64)])
def test_state_norm_generator_matches_eigh_similarity(kind, alpha, n):
    gen = make_gen(kind, alpha, n)
    closed = gen.state_norm_generator()
    reference = eigh_state_norm_generator(gen)
    for t in (0.01, 0.1, 0.5, 2.0, 8.0):
        got = np.linalg.norm(scipy.linalg.expm(t * closed), 2)
        want = np.linalg.norm(scipy.linalg.expm(t * reference), 2)
        assert abs(got - want) <= 1e-9, t
    # the symmetric part is diag(0, -M^{-1/2} D M^{-1/2}) exactly
    ndof = gen.ndof
    sym = closed + closed.T
    assert np.all(sym[:ndof, :ndof] == 0.0)
    assert np.all(sym[:ndof, ndof:] == 0.0)
    assert np.all(sym[ndof:, :ndof] == 0.0)
    inv_sqrt_mass = 1.0 / np.sqrt(gen.mass)
    damping = dense_damping(gen) * np.outer(inv_sqrt_mass, inv_sqrt_mass)
    assert np.allclose(closed[ndof:, ndof:], -damping, rtol=1e-14, atol=0.0)


def test_semigroup_rejects_indefinite_stiffness():
    gen = make_gen(OperatorKind.WAVE_NONDIV, 0.5, 16)
    with pytest.raises(DegenwaveError, match="positive definite"):
        semigroup_constants(dataclasses.replace(gen, stiffness_bands=-gen.stiffness_bands))


def test_eigenmode_state_rejects_bad_mode():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    vals = np.linalg.eigvals(gen.system_matrix)
    count = int(np.sum(vals.imag >= -1e-12))
    eigenmode_state(gen, count - 1)
    eigenmode_state(gen, np.int64(1))
    for mode in (count, 40, -1, 2.7, 2.0, True):
        with pytest.raises(ValueError, match="mode"):
            eigenmode_state(gen, mode)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("n", [16, 64, 128])
def test_eigenmode_state_matches_the_dense_eigenvector_route(kind, alpha, n):
    # against eig(A~) carried back by diag(L^-T, M^-1/2), normalised the same
    # way: its largest-modulus entry made real and positive
    gen = make_gen(kind, alpha, n)
    matrices = (np.diag(gen.mass), dense_damping(gen), gen.stiffness_form)
    norm_m, norm_d, norm_k = (np.linalg.norm(matrix, 2) for matrix in matrices)
    for by in ("frequency", "decay"):
        vals, vecs = dense_eigenmodes(gen, by)
        for mode in (0, 1, 3):
            lam, vec = vals[mode], vecs[:, mode]
            y0, y1 = eigenmode_state(gen, mode, amplitude=0.7, by=by)
            state = gen.join(gen.restrict(y0), gen.restrict(y1))
            # state_norm rounds C u: on beams at n = 128 a rescaled state's norm
            # moves by up to 1.6e-14 relative, for the dense route too
            assert gen.state_norm(state) == pytest.approx(0.7, rel=4e-14, abs=0.0)
            top = int(np.argmax(np.abs(vec)))
            assert state[top] > 0.0                      # the sign convention
            want = (vec * (np.conj(vec[top]) / abs(vec[top]))).real
            want *= 0.7 / gen.state_norm(want)
            error = min(gen.state_norm(state - want), gen.state_norm(state + want))
            assert error <= 1e-8 * 0.7, (by, mode, error)
            # the relative residual of the pencil mode, in 2-norms
            phi = pencil_mode(gen, lam)
            pencil = lam * lam * matrices[0] + lam * matrices[1] + matrices[2]
            residual = np.linalg.norm(pencil @ phi) / (
                (abs(lam) ** 2 * norm_m + abs(lam) * norm_d + norm_k) * np.linalg.norm(phi))
            assert residual <= 1e-14, (by, mode, residual)


def test_pencil_mode_off_an_eigenvalue_fails():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    with pytest.raises(EigSolveFailureError, match="relative pencil residual"):
        pencil_mode(gen, gen.spectrum[0] + 0.1)


def test_pencil_mode_shifts_off_an_exactly_singular_factor(monkeypatch):
    gen = make_gen(OperatorKind.WAVE_NONDIV, 0.5, 16)
    lam, kd = gen.spectrum[0], gen.stiffness_bands.shape[0] - 1
    factored, zgbtrf = [], evolution.zgbtrf

    def singular_once(ab, kl, ku):
        factored.append(ab[2 * kd].copy())         # the diagonal of the pencil
        lu, piv, info = zgbtrf(ab, kl, ku)
        return lu, piv, 1 if len(factored) == 1 else info

    monkeypatch.setattr(evolution, "zgbtrf", singular_once)
    phi = pencil_mode(gen, lam)
    assert len(factored) == 2
    shifted = lam + abs(lam) * np.finfo(float).eps
    np.testing.assert_array_equal(factored[1], gen.combined_bands(shifted ** 2, shifted, 1.0)[kd])
    monkeypatch.setattr(evolution, "zgbtrf", zgbtrf)
    # the same unit mode, up to a phase
    assert abs(np.vdot(phi, pencil_mode(gen, lam))) == pytest.approx(1.0, abs=1e-12)

    monkeypatch.setattr(evolution, "zgbtrf", lambda ab, kl, ku: (ab, np.arange(ab.shape[1]), 1))
    with pytest.raises(EigSolveFailureError, match="singular"):
        pencil_mode(gen, lam)


def test_beam_stable_without_tip_gains():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 1.0, 32, beta=0.0, gamma=0.0)
    assert np.max(gen.spectrum.real) < 0.0


# -- stepping ----------------------------------------------------------------------


def simple_scenario(gen, t_end=1.0, dt=0.01, kernel=None, subdomain=None,
                    history=None, source=None, amplitude=1.0, mode_by="frequency"):
    y0, y1 = eigenmode_state(gen, 0, amplitude=amplitude, by=mode_by)
    return Scenario(generator=gen, source=source or SourceKind.none(), y0=y0, y1=y1,
                    t_end=t_end, dt=dt, kernel=kernel, subdomain=subdomain,
                    history=history)


@pytest.mark.parametrize("t_end, dt", [(0.004, 0.01), (0.005, 0.01), (1e-300, 1.0),
                                        (1e300, 1e-300)])
def test_run_of_no_whole_step_is_rejected(t_end, dt):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen)
    with pytest.raises(ValueError, match="whole number of steps"):
        Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1, t_end=t_end, dt=dt)


def test_step_count_is_resolved_once():
    # round(t_end / dt), also for a t_end that is not a multiple of dt
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen)
    for t_end, dt, steps in [(0.006, 0.01, 1), (1.0, 0.3, 3), (1.0, 0.0125, 80)]:
        sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                      t_end=t_end, dt=dt)
        assert sc.nsteps == steps
        assert len(simulate(sc).times) == steps + 1


@pytest.mark.parametrize("kernel", [
    KernelSpec.constant(0.3, tau=0.5),
    KernelSpec.exp_decay(0.4, 1.7, tau=0.5),
    KernelSpec.pulse(0.2, 13.0, tau=0.5),
    KernelSpec.tabulated([0.0, 1.3, 7.77, 19.0], [0.1, -0.05, 0.3, 0.0], tau=0.5),
], ids=lambda kernel: kernel.kind)
def test_kernel_values_per_run_match_the_scalar_eval(kernel):
    # the stepper evaluates k once per run: at the midpoints of all steps, and
    # at the ends of the start-up steps, which alone read them; each entry is
    # the value the per-step scalar evaluation gives, bit for bit
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 8)
    dt = 0.0005
    sc = simple_scenario(gen, t_end=40000 * dt, dt=dt, kernel=kernel,
                         subdomain=SubdomainP(0.25, 0.75))
    stepper = _Stepper([sc], 1)
    assert stepper.k_mid.shape == (40000, 1)
    assert stepper.k_end.shape == (evolution.STARTUP_STEPS, 1)
    mid = np.array([float(kernel.eval(ell * dt + dt / 2)) for ell in range(40000)])
    end = np.array([float(kernel.eval(ell * dt + dt))
                    for ell in range(evolution.STARTUP_STEPS)])
    assert np.array_equal(stepper.k_mid[:, 0].view(np.int64), mid.view(np.int64))
    assert np.array_equal(stepper.k_end[:, 0].view(np.int64), end.view(np.int64))


def test_zero_data_stays_zero():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    z = np.zeros(gen.grid.n)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=z, y1=z,
                  t_end=0.5, dt=0.0125, kernel=KernelSpec.constant(0.3, 0.25),
                  subdomain=SubdomainP(0.25, 0.75), history=None)
    traj = simulate(sc)
    assert np.all(traj.states == 0.0)
    assert not traj.blew_up


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_eigenmode_run_energy_monotone(kind, alpha):
    gen = make_gen(kind, alpha, 24)
    sc = simple_scenario(gen, t_end=2.0, dt=0.01)
    traj = simulate(sc)
    totals = traj.energies.total
    assert np.all(np.diff(totals) <= 1e-12 * totals[0])


def test_simulate_with_tabulated_kernel_and_coefficient():
    # interpolated coefficient samples drive the flux-form faces; a stepwise
    # gain drives the delay term
    xs = np.linspace(0.0, 1.0, 1025)
    spec = CoefficientSpec.tabulated(xs, xs ** 0.5)
    grid = Grid.uniform(33)
    profile = classify(spec, grid)
    gen = assemble(OperatorKind.WAVE_DIV, profile, BoundaryParams(1.0, 0.0))
    kernel = KernelSpec.tabulated([0.0, 0.5, 1.0], [0.05, 0.02, 0.0], tau=0.25)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = eigenmode_state(gen, 0, amplitude=0.1)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                  t_end=3.0, dt=0.0125, kernel=kernel, subdomain=sub, history=None)
    traj = simulate(sc)
    assert not traj.blew_up
    assert decay_fit(traj).rate > 0.0


def test_desk_scale_simulation():
    # dimension sanity at the largest supported desk scale
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 256)
    kernel = KernelSpec.constant(0.01, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = polynomial_state(gen, amplitude=0.01)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1,
                  t_end=0.5, dt=0.0125, kernel=kernel, subdomain=sub)
    traj = simulate(sc)
    assert not traj.blew_up
    totals = traj.energies.total
    assert totals[-1] <= totals[0] * 1.01


def first_step(stepper, state):
    """The state after the step from t_0, written by the stepper of one run
    into a second row."""
    states = np.empty((2, 1, state.size))
    states[0, 0] = state
    stepper.advance(0, 1, states)
    return states[1, 0]


def test_single_step_matches_rk4_oracle(monkeypatch):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 8)
    kernel = KernelSpec.constant(0.3, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = eigenmode_state(gen, 0)
    g_trace = apply_Bstar(sub, gen.grid, y1)
    dt = 0.002
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1,
                  t_end=1.0, dt=dt, kernel=kernel, subdomain=sub,
                  history=lambda s: g_trace)
    state0 = sc.initial_state
    monkeypatch.setattr(evolution, "STARTUP_STEPS", 0)
    got = first_step(_Stepper([sc], 1), state0)

    from degenwave.nonlinearity import eval_f

    idx = np.arange(*sub.node_range(gen.grid))
    lookup = {node: i for i, node in enumerate(gen.free)}
    sub_free = np.array([lookup[i] for i in idx])

    def rhs(t, y):
        out = gen.system_matrix @ y
        u, _ = gen.split(y)
        out[gen.ndof:] += eval_f(sc.source, gen.embed(u), gen.grid)[gen.free]
        out[gen.ndof:][sub_free] -= float(kernel.eval(t)) * g_trace  # t - tau < 0
        return out

    y = state0.copy()
    n_sub = 100
    h = dt / n_sub
    t = 0.0
    for _ in range(n_sub):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    assert gen.state_norm(got - y) <= 1e-4 * gen.state_norm(y)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_block_solve_matches_dense_trapezoid(monkeypatch, kind, alpha, n, dt):
    # the velocity-block solve and the midpoint-form step against the dense
    # 2n x 2n trapezoid (I - dt/2 A)^{-1}((I + dt/2 A) y + dt G), with a
    # delay kernel, a nonzero history and a power source in G
    gen = make_gen(kind, alpha, n)
    x = gen.grid.nodes
    y0, _ = polynomial_state(gen)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=x ** 2 * (1.0 - x),
                  t_end=1.0, dt=dt, kernel=KernelSpec.exp_decay(0.4, 1.5, tau=0.1),
                  subdomain=SubdomainP(0.25, 0.75), history=0.3)
    monkeypatch.setattr(evolution, "STARTUP_STEPS", 0)
    stepper = _Stepper([sc], 1)
    state = sc.initial_state
    u, _ = gen.split(state)
    g = stepper.midpoint_delays(0, 1)[0, 0] + stepper.source_term(u[None])[0]
    assert np.any(g != 0.0)
    explicit = gen.join(np.zeros(gen.ndof), g)
    ident = np.eye(2 * gen.ndof)
    half = 0.5 * dt * gen.system_matrix

    rhs = state + 0.5 * dt * explicit
    dense = np.linalg.solve(ident - half, rhs)
    got = gen.join(*(x[0] for x in stepper.solve(*(r[None] for r in gen.split(rhs)))))
    assert gen.state_norm(got - dense) <= 1e-8 * gen.state_norm(dense)

    dense = np.linalg.solve(ident - half, (ident + half) @ state + dt * explicit)
    got = first_step(stepper, state)
    assert gen.state_norm(got - dense) <= 1e-8 * gen.state_norm(dense)


@pytest.mark.parametrize("kind", list(OperatorKind))
def test_energy_identity_at_large_n(kind):
    # undelayed, unforced trapezoid steps: E(l+1) - E(l) = -dt vb^T D vb with vb
    # the midpoint velocity, checked at n = 1024, where K is too ill-conditioned
    # (about h^-4) for a comparison with a dense solve to mean much
    gen = make_gen(kind, 0.5, 1024)
    y0, y1 = polynomial_state(gen)
    dt = 1e-3
    traj = simulate(Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                             t_end=0.2, dt=dt))
    e_quad = traj.energies.kinetic + traj.energies.elastic + traj.energies.boundary
    dissipation = dt * gen.boundary_damping_rate(0.5 * (traj.states[:-1] + traj.states[1:]))
    assert np.max(dissipation) > 1e-6 * e_quad[0]  # the tip damps
    assert np.max(np.abs(np.diff(e_quad) + dissipation)) <= 1e-8 * e_quad[0]


def _first_indefinite_minor(matrix):
    """The order of the first leading principal minor that is not positive definite."""
    for order in range(1, matrix.shape[0] + 1):
        try:
            np.linalg.cholesky(matrix[:order, :order])
        except np.linalg.LinAlgError:
            return order
    return None


def test_step_factor_failure_names_the_minor():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    bad = dataclasses.replace(gen, stiffness_bands=-gen.stiffness_bands)
    y0, y1 = polynomial_state(gen)
    dt = 1.0
    h = 0.5 * dt
    block = -h * h * gen.stiffness_form + h * dense_damping(gen) + np.diag(gen.mass)
    order = _first_indefinite_minor(block)
    assert order is not None
    with pytest.raises(LinearSolveFailureError, match=f"leading minor of order {order}$"):
        _Stepper([Scenario(generator=bad, source=SourceKind.none(), y0=y0, y1=y1,
                           t_end=dt, dt=dt)], 1)


def test_step_factor_rejects_non_finite_bands():
    gen = make_gen(OperatorKind.WAVE_NONDIV, 0.5, 16)
    bands = gen.stiffness_bands.copy()
    bands[-1, 5] = math.nan
    y0, y1 = polynomial_state(gen)
    with pytest.raises(LinearSolveFailureError, match="non-finite"):
        simulate(Scenario(generator=dataclasses.replace(gen, stiffness_bands=bands),
                          source=SourceKind.none(), y0=y0, y1=y1, t_end=0.1, dt=0.01))


def test_system_matrix_built_on_demand(monkeypatch):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    assert "system_matrix" not in vars(gen)
    y0, y1 = polynomial_state(gen)
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1, t_end=0.5,
                  dt=0.0125, kernel=KernelSpec.constant(0.3, tau=0.25),
                  subdomain=SubdomainP(0.25, 0.75), history=0.3)

    def dense(*args, **kwargs):
        raise AssertionError("a dense n x n form was built on the stepping path")

    with monkeypatch.context() as patch:
        patch.setattr(DiscreteGenerator, "stiffness_form", property(dense))
        patch.setattr(scipy.linalg, "lu_factor", dense)
        patch.setattr(scipy.linalg, "lu_solve", dense)
        assert not simulate(sc).blew_up
    assert "system_matrix" not in vars(gen)
    eigenmode_state(gen, 0)
    # the eigenmode data come from the spectrum and a banded solve
    assert "system_matrix" not in vars(gen) and "spectrum" in vars(gen)
    assert not gen.spectrum.flags.writeable
    assert not gen.system_matrix.flags.writeable

    gen = make_gen(OperatorKind.WAVE_DIV, 1.5, 16)
    semigroup_constants(gen)
    assert "system_matrix" not in vars(gen)


def test_linear_run_decays():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24)
    traj = simulate(simple_scenario(gen, t_end=6.0, dt=0.01))
    fit = decay_fit(traj)
    assert fit.rate > 0.0
    assert fit.r_squared > 0.9


def test_blow_up_detected_and_flagged():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    kernel = KernelSpec.constant(-40.0, tau=0.25)  # anti-damping
    sub = SubdomainP(0.25, 0.75)
    with pytest.warns(UserWarning):
        sc = simple_scenario(gen, t_end=20.0, dt=0.05, kernel=kernel, subdomain=sub,
                             history=1.0)
    traj = simulate(sc)
    assert traj.blew_up
    assert traj.times[-1] < 20.0


# -- records handled one block at a time ------------------------------------------


def trajectory_arrays(traj):
    """Every array of a trajectory, by name; the states only if kept."""
    e = traj.energies
    kept = {} if traj.states is None else {"states": traj.states}
    return {"times": traj.times, **kept, "state_norms": traj.state_norms,
            "tip_values": traj.tip_values, "tip_velocities": traj.tip_velocities,
            **{f"E_{name}": getattr(e, name) for name in
               ("kinetic", "elastic", "boundary", "source", "history", "total")}}


def simulate_in_blocks(monkeypatch, sc, rows):
    """`simulate` with blocks of `rows` records (None: the default size)."""
    if rows is not None:
        monkeypatch.setattr(evolution, "RECORD_BLOCK", rows * 2 * sc.generator.ndof)
    try:
        return simulate(sc)
    finally:
        monkeypatch.undo()


def delay_config(tau, history=0.3):
    return dict(kernel=KernelSpec.exp_decay(0.4, 1.5, tau=tau),
                subdomain=SubdomainP(0.25, 0.75), history=history)


def block_configs():
    delayed = delay_config(0.25)
    return {
        "delayed_forced": (make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24),
                           dict(source=SourceKind.power(1.0), **delayed)),
        "undelayed": (make_gen(OperatorKind.BEAM_DIV, 1.5, 24), {}),
        "nonlocal_source": (make_gen(OperatorKind.WAVE_DIV, 0.5, 24),
                            dict(source=SourceKind.nonlocal_l2(2.0), **delayed)),
        # m = 1, and m = 100 past the run's 80 steps (dt = 0.0125)
        "delay_of_one_step": (make_gen(OperatorKind.WAVE_NONDIV, 1.5, 24),
                              dict(source=SourceKind.power(1.0), **delay_config(0.0125))),
        "delay_past_the_run": (make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24),
                               delay_config(1.25)),
    }


@pytest.mark.parametrize("config", ["delayed_forced", "undelayed", "nonlocal_source",
                                    "delay_of_one_step", "delay_past_the_run"])
def test_records_do_not_depend_on_the_block_size(config, monkeypatch):
    gen, extra = block_configs()[config]
    sc = simple_scenario(gen, t_end=1.0, dt=0.0125, amplitude=0.5, **extra)
    runs = [simulate_in_blocks(monkeypatch, sc, rows) for rows in (1, 7, None)]
    # the default block holds every record of this run, so the runs differ
    assert evolution.RECORD_BLOCK // (2 * gen.ndof) > len(runs[-1].times) == 81
    reference = trajectory_arrays(runs[-1])
    for traj in runs[:-1]:
        assert not traj.blew_up
        for name, values in trajectory_arrays(traj).items():
            assert np.array_equal(values, reference[name]), name


SOURCES = {"none": SourceKind.none(), "power": SourceKind.power(1.0),
           "nonlocal": SourceKind.nonlocal_l2(2.0)}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("m", [1, 2, 5, 20, 100])
def test_states_match_the_per_step_reference(m, source, monkeypatch):
    # the midpoint delay terms of a sub-block of at most m steps, formed in one
    # pass, give the states of steps that each form their own, bit for bit;
    # m = 100 is longer than the run's 80 steps, and 1, 3, 7 rows cut the
    # sub-blocks short at block ends
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 24)
    sc = simple_scenario(gen, t_end=1.0, dt=0.0125, amplitude=0.5, source=SOURCES[source],
                         **delay_config(m * 0.0125, history=lambda s: 0.3 + np.sin(7.0 * s)))
    assert sc.m == m and sc.nsteps == 80
    want = reference_states(sc)
    # every run is kept, so that no run's states array reuses another's memory
    runs = {rows: simulate_in_blocks(monkeypatch, sc, rows) for rows in (1, 3, 7, None)}
    for rows, traj in runs.items():
        assert traj.states.tobytes() == want.tobytes(), rows


def test_blow_up_states_match_the_per_step_reference(monkeypatch):
    # m = 5: anti-damping blows up at a row written by a step inside a
    # sub-block (not its last step), for the default block and blocks of 3
    # and 7 rows; the states up to that row are the reference's, bit for bit
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    sc = blow_up_scenarios(gen)[0]
    assert sc.m == 5
    want = reference_states(sc)
    runs = {rows: simulate_in_blocks(monkeypatch, sc, rows) for rows in (3, 7, None)}
    for rows, traj in runs.items():
        last = len(traj.times) - 1
        span = 5 if rows is None else min(rows, 5)
        block = last - 1 if rows is None else (last - 1) % rows     # its step in the block
        assert traj.blew_up and last < sc.nsteps and (block + 1) % span, rows
        assert traj.states.tobytes() == want[:last + 1].tobytes(), rows


def blow_up_scenarios(gen):
    y0, y1 = polynomial_state(gen)
    with pytest.warns(UserWarning):
        anti = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1, t_end=20.0,
                        dt=0.05, kernel=KernelSpec.constant(-40.0, tau=0.25),
                        subdomain=SubdomainP(0.25, 0.75), history=1.0)
    y0, y1 = polynomial_state(gen, amplitude=160.0)
    overflow = Scenario(generator=gen, source=SourceKind.power(150.0), y0=y0, y1=y1,
                        t_end=1.0, dt=0.01)
    # the rows stepped past this blow-up square a finite L2 norm past the
    # largest double in the nonlocal factor ||y||^p
    y0, y1 = polynomial_state(gen, amplitude=300.0)
    nonlocal_ = Scenario(generator=gen, source=SourceKind.nonlocal_l2(4.0), y0=y0, y1=y1,
                         t_end=1.0, dt=0.01)
    return anti, overflow, nonlocal_


def test_blow_up_does_not_depend_on_the_block_size(monkeypatch):
    # anti-damping ends on a finite state above BLOWUP_NORM, the overflow on a
    # non-finite one; the rows stepped past the blow-up in its block are
    # dropped, and overflow in them gives inf, not an error
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    for sc in blow_up_scenarios(gen):
        runs = [simulate_in_blocks(monkeypatch, sc, rows) for rows in (1, 2, 3, 7, None)]
        reference = runs[-1]
        assert reference.blew_up and 2 <= len(reference.times) < sc.nsteps + 1
        for traj in runs[:-1]:
            assert traj.blew_up
            assert len(traj.times) == len(reference.times)
            for name, values in trajectory_arrays(traj).items():
                assert np.array_equal(values[-1], trajectory_arrays(reference)[name][-1],
                                      equal_nan=True), name


def test_blow_up_on_a_finite_state_whose_energy_overflows():
    # u ~ 1e157 after one step is finite, but its energy squares past the
    # largest double: the run stops there with inf energies, not an error
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen, amplitude=1e160)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1, t_end=1.0, dt=0.01)
    traj = simulate(sc)
    assert traj.blew_up and len(traj.times) == 2
    assert np.all(np.isfinite(traj.states)) and abs(traj.tip_values[-1]) > 1e155
    assert math.isinf(traj.energies.total[-1]) and math.isinf(traj.state_norms[-1])
    assert math.isinf(traj.energies.elastic[-1]) and math.isinf(traj.energies.boundary[-1])


# -- runs stepped as one batch ------------------------------------------------------


def batch_runs(gen, source, delayed, t_end=1.0, dt=0.0125):
    """Four runs on `gen` that share a step and differ in the kernel (kind and
    gain), the history and the initial data; undelayed, in the data alone."""
    runs = []
    for i in range(4):
        y0, y1 = polynomial_state(gen, amplitude=0.5 + i)
        y1 = y1 + 0.1 * i * gen.grid.nodes ** 2 * (1.0 - gen.grid.nodes)
        extra = {}
        if delayed:
            kernel = (KernelSpec.exp_decay(0.2 * i + 0.1, 1.5, tau=0.25) if i % 2
                      else KernelSpec.constant(0.05 * (i + 1), tau=0.25))
            extra = dict(kernel=kernel, subdomain=SubdomainP(0.25, 0.75),
                         history=lambda s, i=i: 0.3 * i + np.sin(7.0 * s))
        runs.append(Scenario(generator=gen, source=source, y0=y0, y1=y1, t_end=t_end,
                             dt=dt, **extra))
    return runs


def assert_batch_matches_each_run_alone(monkeypatch, runs, rows=None, keep_states=False):
    """Every trajectory of the batch, stepped in blocks of `rows` records (None:
    the default size), streamed or with its states kept, against `simulate`
    of its run alone, bit for bit: every record column, the blow-up flag and
    every kept state."""
    alone = [simulate(sc) for sc in runs]
    if rows is not None:
        monkeypatch.setattr(evolution, "RECORD_BLOCK",
                            rows * 2 * runs[0].generator.ndof * len(runs))
    batch = evolution.simulate_runs(runs, keep_states)
    monkeypatch.undo()
    assert len(batch) == len(runs)
    for sc, got, want in zip(runs, batch, alone):
        assert got.scenario is sc and got.blew_up == want.blew_up
        assert (got.states is not None) == keep_states
        wanted = trajectory_arrays(want)
        if not keep_states:
            del wanted["states"]
        assert trajectory_arrays(got).keys() == wanted.keys()
        for name, values in wanted.items():
            assert trajectory_arrays(got)[name].tobytes() == values.tobytes(), name
    return batch


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("delayed", [True, False], ids=["delayed", "undelayed"])
@pytest.mark.parametrize("rows", [1, 3, None])
def test_batch_matches_each_run_alone(monkeypatch, source, delayed, rows):
    # one dpbtrs call on the B columns, one dsbmv per run, and one energy pass
    # over every run's records give each run the bits it gets alone
    gen = make_gen(OperatorKind.BEAM_NONDIV if source != "nonlocal" else OperatorKind.WAVE_DIV,
                   0.5, 24)
    batch = assert_batch_matches_each_run_alone(
        monkeypatch, batch_runs(gen, SOURCES[source], delayed), rows)
    assert not any(traj.blew_up for traj in batch)
    assert all(len(traj.times) == 81 for traj in batch)


def test_a_run_that_blows_up_mid_batch_ends_alone(monkeypatch):
    # anti-damping blows up after a few dozen steps; the two damped runs of the
    # batch go on to t_end, each with the bits it gets alone
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    anti = blow_up_scenarios(gen)[0]
    damped = [dataclasses.replace(anti, kernel=KernelSpec.constant(k0, tau=0.25))
              for k0 in (0.1, 0.3)]
    for rows in (3, None):
        batch = assert_batch_matches_each_run_alone(monkeypatch, [damped[0], anti, damped[1]],
                                                    rows)
        assert [traj.blew_up for traj in batch] == [False, True, False]
        assert len(batch[1].times) < anti.nsteps + 1 == len(batch[0].times)


@pytest.mark.parametrize("keep_states", [False, True], ids=["streamed", "kept"])
def test_streamed_and_kept_batches_match_each_run_alone(monkeypatch, keep_states):
    # a delayed, forced batch (m = 20), a batch whose middle run blows up
    # (m = 5) and a batch of one, as `simulate` steps it, in blocks of 1, 3,
    # m - 1, m and m + 1 records and of the default size: each block reads
    # the delayed traces of earlier blocks from the ring of the last m + 1
    # slots, which a block of m or more records rewrites whole, and still
    # gets each run's bits.  Each run alone is one default block, so its
    # reference reads no slot back from the ring
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    anti = blow_up_scenarios(gen)[0]
    damped = [dataclasses.replace(anti, kernel=KernelSpec.constant(k0, tau=0.25))
              for k0 in (0.1, 0.3)]
    forced = batch_runs(gen, SourceKind.power(1.0), True)
    for runs in (forced, [damped[0], anti, damped[1]], forced[1:2]):
        m = runs[0].m
        assert all(sc.nsteps < evolution.RECORD_BLOCK // (2 * gen.ndof) for sc in runs)
        for rows in (1, 3, m - 1, m, m + 1, None):
            assert_batch_matches_each_run_alone(monkeypatch, runs, rows, keep_states)


def test_streamed_batch_memory_grows_by_its_records_alone():
    # two delayed runs at n = 16, of 800 and of 8 000 steps: the streamed
    # batch's tracemalloc peak grows by the per-record arrays (six record
    # columns, a slot norm and a kernel value, then the energies and norms
    # built from them), never by the 2 ndof doubles per step of the states
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)

    def peak(t_end):
        runs = batch_runs(gen, SourceKind.power(1.0), True, t_end=t_end)[:2]
        assert runs[0].nsteps == round(t_end / 0.0125)
        tracemalloc.start()
        try:
            evolution.simulate_runs(runs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_step = (peak(100.0) - peak(10.0)) / (8 * 7200 * 2)     # doubles per step per run
    assert 8 <= per_step <= 16 < 2 * gen.ndof


def test_batch_stops_once_every_run_has_blown_up(monkeypatch):
    # the anti-damped run and its copy with twice the gain blow up in the
    # first of the 401-step blocks; no later block is stepped
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    anti = blow_up_scenarios(gen)[0]
    with pytest.warns(UserWarning):
        runs = [anti, dataclasses.replace(anti, kernel=KernelSpec.constant(-80.0, tau=0.25))]
    rows = 50
    solves = []
    dpbtrs = evolution.dpbtrs
    monkeypatch.setattr(evolution, "dpbtrs", lambda *a, **k: solves.append(1) or dpbtrs(*a, **k))
    monkeypatch.setattr(evolution, "RECORD_BLOCK", rows * 2 * gen.ndof * len(runs))
    batch = evolution.simulate_runs(runs)
    assert all(traj.blew_up for traj in batch)
    last = max(len(traj.times) for traj in batch)
    # one solve per step, two per start-up step, up to the end of the block
    # that holds the last blow-up
    assert len(solves) == -(-last // rows) * rows - 1 + evolution.STARTUP_STEPS


def test_batches_group_consecutive_runs_that_share_a_step(monkeypatch):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    runs = batch_runs(gen, SourceKind.power(1.0), True)
    other_tau = dataclasses.replace(runs[0], kernel=KernelSpec.constant(0.1, tau=0.125))
    other_source = dataclasses.replace(runs[0], source=SourceKind.power(2.0))
    other_gen = dataclasses.replace(runs[0], generator=make_gen(OperatorKind.BEAM_NONDIV,
                                                                0.5, 16))
    other_dt = dataclasses.replace(runs[0], dt=0.025 / 4)
    undelayed = dataclasses.replace(runs[0], kernel=None, subdomain=None)
    order = [*runs[:2], other_tau, runs[2], other_source, other_gen, other_dt, undelayed,
             runs[3]]
    groups = [[order.index(sc) for sc in batch] for batch in evolution.batches(order)]
    assert groups == [[0, 1], [2], [3], [4], [5], [6], [7], [8]]
    assert [len(b) for b in evolution.batches(runs)] == [4]
    # the cap on the batch's records: two runs of 81 records fit, three do not
    per_run = 81
    monkeypatch.setattr(evolution, "BATCH_RECORDS", 2 * per_run)
    assert [len(b) for b in evolution.batches(runs)] == [2, 2]
    monkeypatch.setattr(evolution, "BATCH_RECORDS", per_run - 1)   # a run alone is a batch
    assert [len(b) for b in evolution.batches(runs)] == [1, 1, 1, 1]
    monkeypatch.undo()
    # the cap on the block: at n = 1024 it holds BLOCK_STEPS states of two
    # runs (2 x 2046 doubles each), not of three
    wide = batch_runs(make_gen(OperatorKind.BEAM_NONDIV, 0.5, 1024), SourceKind.power(1.0), True)
    assert [len(b) for b in evolution.batches(wide)] == [2, 2]
    assert 2 * 2046 * evolution.BLOCK_STEPS <= evolution.RECORD_BLOCK < 3 * 2046 * 16
    with pytest.raises(ValueError, match="must share"):
        evolution.simulate_runs([runs[0], other_tau])


def test_dt_tau_tolerance_of_scenario():
    # one rule: m dt may miss tau by at most 1e-9 tau; at tau = 0.5 that is 5e-10.
    # The scenario resolves m once; its history buffer never sees tau
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen)
    sub = SubdomainP(0.25, 0.75)
    tau = 0.5
    for offset, accepted in ((0.7e-9, False), (-0.7e-9, False), (0.3e-9, True)):
        dt = (tau + offset) / 200

        def build():
            return Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                            t_end=1.0, dt=dt, kernel=KernelSpec.constant(0.1, tau),
                            subdomain=sub)
        if accepted:
            sc = build()
            width = sc.on_p.stop - sc.on_p.start
            assert sc.m == 200 and sc.history_slots.shape == (201, width)
        else:
            with pytest.raises(ValueError):
                build()


def test_delayed_trace_slot_and_half_slot_only():
    # m = tau/dt = 5: a start-up step from t_l reads slot l + 1 - m at t_l + dt,
    # and every step the exact mean of slots l - m and l + 1 - m at the
    # midpoint, prepared for a sub-block of at most m steps; slot j <= 0 is
    # the initial history, slot j >= 1 the velocity on P in row j, which the
    # ring holds once `advance` has stepped it
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    sub = SubdomainP(0.25, 0.75)
    dt, tau, k0 = 0.05, 0.25, 0.1
    sc = simple_scenario(gen, t_end=1.0, dt=dt, kernel=KernelSpec.constant(k0, tau),
                         subdomain=sub, history=lambda s: s)
    stepper = _Stepper([sc], 7)
    assert len(stepper.delay_rows) == 5
    slots = sc.history_slots                        # slot j in row j + m
    states = np.empty((8, 1, 2 * gen.ndof))
    states[0, 0] = sc.initial_state
    on_p = np.arange(gen.ndof)[sc.on_p]
    off_p = np.setdiff1d(np.arange(gen.ndof), on_p)
    assert np.array_equal(stepper.end_delay(0)[0, on_p], -k0 * slots[-4 + 5])
    end = stepper.end_delay(1)[0].copy()
    assert np.array_equal(end[on_p], -k0 * slots[-3 + 5])
    mid = stepper.midpoint_delays(1, 2)[:, 0]
    assert mid.shape == (1, gen.ndof)
    assert np.array_equal(mid[0, on_p], -k0 * (0.5 * (slots[-4 + 5] + slots[-3 + 5])))
    assert mid[0, on_p][0] == pytest.approx(k0 * 3.5 * dt)  # history s at s = -3.5 dt
    assert np.all(end[off_p] == 0.0) and np.all(mid[:, off_p] == 0.0)

    def check(first, last):
        rows = stepper.midpoint_delays(first, last)[:, 0]
        assert rows.shape == (last - first, gen.ndof) and np.all(rows[:, off_p] == 0.0)
        for ell, row in zip(range(first, last), rows):
            before, after = (slot_trace(sc, states[:, 0], j) for j in (ell - 5, ell - 4))
            assert np.array_equal(row[on_p], -k0 * (0.5 * (before + after)))

    # a sub-block of history slots only; once slot 3 is stepped, one of
    # history slots and rows, and one of rows only
    check(0, 5)
    stepper.advance(0, 3, states)
    assert np.any(states[1:4, 0, gen.ndof + on_p] != 0.0)
    check(3, 8)
    check(6, 8)


@pytest.mark.parametrize("tau", [0.0125, 0.0375, 0.25, 2.0])     # m = 1, 3, 20, 160 > steps
def test_ring_holds_the_last_m_plus_one_slots(tau):
    # after each `advance` of a batch, ring row (j + m) mod (m + 1) holds slot
    # j of every run for j = last - m .. last: the history for j <= 0, the
    # velocity on P in row j after; blocks shorter and longer than m + 1
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    runs = [simple_scenario(gen, t_end=1.0, dt=0.0125, kernel=KernelSpec.constant(k0, tau),
                            subdomain=SubdomainP(0.25, 0.75),
                            history=lambda s, k0=k0: 1.0 + s / k0)
            for k0 in (0.05, -0.1)]
    m = runs[0].m
    stepper = _Stepper(runs, 7)
    states = np.empty((runs[0].nsteps + 1, 2, 2 * gen.ndof))
    states[0] = [run.initial_state for run in runs]
    stops = (0, 1, 4, 11, 30, 31, runs[0].nsteps)
    for first, last in zip(stops, stops[1:]):
        stepper.advance(first, last, states[first:])
        for j in range(last - m, last + 1):
            for b, run in enumerate(runs):
                assert np.array_equal(stepper.ring[(j + m) % (m + 1), b],
                                      slot_trace(run, states[:, b], j)), (last, j, b)


@pytest.mark.parametrize("k0", [0.005, -0.02, 0.05])
def test_delayed_energy_identity(k0):
    # after the two start-up steps every trapezoid step satisfies
    # E(l+1) - E(l) = dt (vb^T M g - vb^T D vb), vb the midpoint velocity and
    # g = -k0 (slot l - m + slot l + 1 - m) / 2 on P, slots read off the states
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 64)
    dt, tau = 0.0125, 0.5
    sc = simple_scenario(gen, t_end=3.0, dt=dt, kernel=KernelSpec.constant(k0, tau),
                         subdomain=SubdomainP(0.25, 0.75))
    traj = simulate(sc)
    e_quad = traj.energies.kinetic + traj.energies.elastic + traj.energies.boundary
    m = round(tau / dt)
    on_p = np.arange(gen.ndof)[sc.on_p]
    _, v = gen.split(traj.states)
    slots = np.zeros((m + v.shape[0], on_p.size))  # slot j in row j + m; zero history
    slots[m + 1:] = v[1:, on_p]
    g = np.zeros_like(v[1:])
    g[:, on_p] = -k0 * 0.5 * (slots[:-m - 1] + slots[1:-m])
    mid = 0.5 * (traj.states[:-1] + traj.states[1:])
    _, v_mid = gen.split(mid)
    work = dt * np.einsum("ij,j,ij->i", v_mid, gen.mass, g)
    dissipation = dt * gen.boundary_damping_rate(mid)
    residual = (np.diff(e_quad) - work + dissipation)[2:]
    assert np.max(np.abs(work)) > 1e-7 * e_quad[0]  # the delay term does work
    assert np.max(np.abs(residual)) <= 1e-10 * e_quad[0]

def test_delayed_inputs_resolved_once(monkeypatch):
    # the scenario evaluates g at the m + 1 slot times and snaps P once; the
    # stepper, the smallness level, the Duhamel oracle and the certificate
    # read what it resolved
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    dt, tau = 0.0125, 0.5
    times = []

    def history(s):
        times.append(s)
        return 0.01

    sc = simple_scenario(gen, t_end=1.0, dt=dt, kernel=KernelSpec.constant(0.005, tau),
                         subdomain=SubdomainP(0.25, 0.75), history=history, amplitude=0.01)
    m = round(tau / dt)
    assert sc.m == m and times == [j * dt for j in range(-m, 1)]

    def snap(*args):
        raise AssertionError("the subdomain was snapped after the scenario was built")

    monkeypatch.setattr(SubdomainP, "node_range", snap)
    traj = simulate(sc)
    assert not traj.blew_up
    assert smallness_level(sc) > 0.0
    assert duhamel_residual(traj) <= 1e-3
    assert certify_scenario(sc).b == sc.b
    assert len(times) == m + 1


@pytest.mark.parametrize("kind", [OperatorKind.BEAM_DIV, OperatorKind.WAVE_NONDIV,
                                  OperatorKind.WAVE_DIV])
def test_certify_scenario_refuses_a_source_off_the_weighted_beam(monkeypatch, kind):
    # explicit source constants exist for beam_nondiv only: no certificate, and
    # no semigroup work, for a forced scenario of another kind
    sc = simple_scenario(make_gen(kind, 0.5, 16), source=SourceKind.power(1.0),
                         amplitude=1e-3)
    monkeypatch.setattr(evolution, "semigroup_constants", lambda *a, **k: pytest.fail(
        "semigroup constants computed for an uncertifiable scenario"))
    with pytest.raises(InfeasibleError, match="derived for beam_nondiv only"):
        certify_scenario(sc)
    assert not sc.certifiable
    assert simple_scenario(make_gen(kind, 0.5, 16)).certifiable   # unforced: covered


def test_certify_scenario_bounds_the_kernel_window_once(monkeypatch):
    calls = []
    for module in (diagnostics, evolution):   # every module that binds the name
        bound = getattr(module, "kernel_window_bound", None)
        if bound is not None:
            monkeypatch.setattr(module, "kernel_window_bound",
                                lambda kernel, bound=bound: calls.append(1) or bound(kernel))
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    sc = simple_scenario(gen, dt=0.0125, kernel=KernelSpec.constant(0.005, 0.5),
                         subdomain=SubdomainP(0.25, 0.75), source=SourceKind.power(1.0),
                         amplitude=1e-3)
    result = certify_scenario(sc)
    assert len(calls) == 1
    assert result.threshold.lambda_window == pytest.approx(0.005 * 0.5)


@pytest.mark.parametrize("name", ["y0", "y1", "history", "history_at_a_slot"])
def test_scenario_rejects_non_finite_inputs(name):
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen)
    data = dict(y0=y0, y1=y1, history=0.1)
    if name == "history_at_a_slot":
        data["history"] = lambda s: math.inf if s == -0.25 else 0.1
    elif name == "history":
        data["history"] = math.nan
    else:
        data[name] = data[name].copy()
        data[name][5] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        Scenario(generator=gen, source=SourceKind.none(), t_end=1.0, dt=0.025,
                 kernel=KernelSpec.constant(0.1, tau=0.5), subdomain=SubdomainP(0.25, 0.75),
                 **data)


def test_dt_bound_warning_points_at_the_caller():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1, t_end=1.0,
                 dt=0.05, kernel=KernelSpec.constant(-40.0, tau=0.25),
                 subdomain=SubdomainP(0.25, 0.75))
    assert [w.filename for w in caught] == [__file__]
    assert "explicit delay-term bound" in str(caught[0].message)


def test_scenario_validation():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = polynomial_state(gen)
    with pytest.raises(ValueError):
        Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                 t_end=1.0, dt=0.3, kernel=KernelSpec.constant(0.1, 1.0),
                 subdomain=SubdomainP(0.3, 0.7))  # dt does not divide tau
    with pytest.raises(ValueError):
        Scenario(generator=gen, source=SourceKind.none(), y0=y0 + 1.0, y1=y1,
                 t_end=1.0, dt=0.1)  # violates the x = 0 condition
    with pytest.raises(ValueError):
        Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                 t_end=1.0, dt=0.1, kernel=KernelSpec.constant(0.1, 1.0))  # no P


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_data_on_a_pinned_node_is_rejected(kind, alpha):
    # x = 0 is pinned in every kind but the strongly degenerate wave_div
    gen = make_gen(kind, alpha, 16)
    pinned = not (kind is OperatorKind.WAVE_DIV and alpha > 1)
    assert gen.free[0] == int(pinned)
    for which in (0, 1):
        data = [y.copy() for y in polynomial_state(gen)]
        data[which][0] = 0.5
        run = dict(generator=gen, source=SourceKind.none(), y0=data[0], y1=data[1],
                   t_end=0.1, dt=0.05)
        if pinned:
            with pytest.raises(ValueError, match="essential x = 0 conditions"):
                Scenario(**run)
        else:
            assert Scenario(**run).y0[0] == data[0][0]


# -- variation-of-constants oracle ----------------------------------------------------


def test_duhamel_zero_data():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    z = np.zeros(gen.grid.n)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=z, y1=z,
                  t_end=0.5, dt=0.025, kernel=KernelSpec.constant(0.3, 0.25),
                  subdomain=SubdomainP(0.25, 0.75))
    assert duhamel_residual(simulate(sc)) == 0.0


def test_duhamel_undelayed_matches_expm():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    sc = simple_scenario(gen, t_end=2.0, dt=2e-4)
    traj = simulate(sc)
    assert duhamel_residual(traj, check_stride=100) <= 1e-6


def test_duhamel_delayed_beam_within_tolerance():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    kernel = KernelSpec.constant(0.2, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = eigenmode_state(gen, 0)
    g_trace = apply_Bstar(sub, gen.grid, y1)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                  t_end=1.0, dt=0.0125, kernel=kernel, subdomain=sub,
                  history=lambda s: g_trace)
    assert duhamel_residual(simulate(sc)) <= 1e-3


def test_duhamel_second_order_on_wave():
    gen = make_gen(OperatorKind.WAVE_DIV, 0.5, 16, beta=1.0)
    kernel = KernelSpec.constant(0.2, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = eigenmode_state(gen, 0)
    g_trace = apply_Bstar(sub, gen.grid, y1)
    residuals = []
    for dt in (0.0125, 0.00625):
        sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                      t_end=1.5, dt=dt, kernel=kernel, subdomain=sub,
                      history=lambda s: g_trace)
        residuals.append(duhamel_residual(simulate(sc)))
    assert 3.0 <= residuals[0] / residuals[1] <= 5.0


def test_duhamel_requires_disabled_source():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    sc = simple_scenario(gen, t_end=0.5, dt=0.01, source=SourceKind.power(1.0))
    with pytest.raises(ValueError):
        duhamel_residual(simulate(sc))


# -- helpers --------------------------------------------------------------------------


def test_smallness_level_scales_quadratically():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    kernel = KernelSpec.constant(0.3, tau=0.5)
    sub = SubdomainP(0.25, 0.75)
    y0, y1 = polynomial_state(gen)
    sc1 = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1,
                   t_end=1.0, dt=0.025, kernel=kernel, subdomain=sub, history=1.0)
    sc2 = Scenario(generator=gen, source=SourceKind.none(), y0=2 * y0, y1=2 * y1,
                   t_end=1.0, dt=0.025, kernel=kernel, subdomain=sub, history=2.0)
    assert smallness_level(sc2) == pytest.approx(4.0 * smallness_level(sc1), rel=1e-12)
    z = np.zeros(gen.grid.n)
    sc0 = Scenario(generator=gen, source=SourceKind.none(), y0=z, y1=z,
                   t_end=1.0, dt=0.025)
    assert smallness_level(sc0) == 0.0


def test_trajectory_csv_round_trip(tmp_path):
    gen = make_gen(OperatorKind.WAVE_NONDIV, 0.5, 16)
    traj = simulate(simple_scenario(gen, t_end=0.5, dt=0.01))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert tuple(header) == traj.CSV_COLUMNS
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(traj.times), len(header))
    assert np.allclose(data[:, 0], traj.times)


def test_eigenmode_state_amplitude():
    gen = make_gen(OperatorKind.BEAM_NONDIV, 0.5, 16)
    y0, y1 = eigenmode_state(gen, 0, amplitude=0.3)
    state = gen.join(gen.restrict(y0), gen.restrict(y1))
    assert gen.state_norm(state) == pytest.approx(0.3, rel=1e-9)
