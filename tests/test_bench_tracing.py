"""The traced benchmark wraps degenwave functions by name; they must all exist."""

import importlib.util
from pathlib import Path

import scipy.linalg

from degenwave import (BoundaryParams, CoefficientSpec, Grid, KernelSpec, OperatorKind,
                       Scenario, SourceKind, SubdomainP, assemble, classify, evolution,
                       polynomial_state)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(owner, attr):
    """The attribute as the tracer finds it: class attributes from the class body."""
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def test_every_traced_boundary_resolves():
    tracing = load_tracing()
    for name, owner, attr in tracing.BOUNDARIES:
        assert callable(lookup(owner, attr)), f"{name}: {owner.__name__}.{attr} is gone"
    for fn in tracing.EVOLUTION_LINALG:
        assert callable(getattr(scipy.linalg, fn, None)), fn


def test_tracer_counts_and_restores(monkeypatch):
    tracing = load_tracing()
    # the step factor and solves, counted on the LAPACK names evolution binds
    lapack_calls = {"dpbtrf": 0, "dpbtrs": 0}
    for name in lapack_calls:
        def counted(*args, _name=name, _lapack=getattr(evolution, name), **kwargs):
            lapack_calls[_name] += 1
            return _lapack(*args, **kwargs)
        monkeypatch.setattr(evolution, name, counted)
    before = [(owner, attr, lookup(owner, attr)) for _, owner, attr in tracing.BOUNDARIES]
    grid = Grid.uniform(16)
    gen = assemble(OperatorKind.BEAM_NONDIV, classify(CoefficientSpec.power_law(0.5), grid),
                   BoundaryParams(1.0, 1.0))
    y0, y1 = polynomial_state(gen)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1, t_end=0.1, dt=0.01)
    tracer = tracing.Tracer()
    tracer.start_round(0)
    with tracer.installed():
        evolution.simulate(sc)  # looked up at call time, as the CLI does
    assert tracer.calls["evolution.simulate"] == 1
    assert lapack_calls == {"dpbtrf": 1, "dpbtrs": 10}
    assert tracer.steps == 10

    # delayed and forced: 2 start-up steps of two solves and two source
    # evaluations, then one of each per step; one energy call per block of
    # records (the 11 records, the initial state included, are one block), no
    # push onto a history ring, and one source energy call for the same block
    sc = Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1, t_end=0.1,
                  dt=0.01, kernel=KernelSpec.constant(0.1, tau=0.05),
                  subdomain=SubdomainP(0.25, 0.75))
    lapack_calls.update(dpbtrf=0, dpbtrs=0)
    tracer.start_round(1)
    with tracer.installed():
        evolution.simulate(sc)
    assert lapack_calls == {"dpbtrf": 1, "dpbtrs": 12}
    assert {name: tracer.calls[name] for name in
            ("operators.energy_parts", "delay.push", "nonlinearity.eval_f",
             "nonlinearity.eval_F_functional")} == {
        "operators.energy_parts": 1, "delay.push": 0, "nonlinearity.eval_f": 12,
        "nonlinearity.eval_F_functional": 1}
    assert tracer.steps == 10

    # the same run and two more gains as one batch: one factor, and one
    # dpbtrs call per stage that solves the three runs' columns together, so
    # the counts are those of one run; the tracer wraps `simulate` alone, so
    # a batch has no simulate span and adds no steps
    runs = [sc] + [Scenario(generator=gen, source=SourceKind.power(1.0), y0=y0, y1=y1,
                            t_end=0.1, dt=0.01, kernel=KernelSpec.constant(k0, tau=0.05),
                            subdomain=SubdomainP(0.25, 0.75)) for k0 in (0.2, 0.3)]
    lapack_calls.update(dpbtrf=0, dpbtrs=0)
    tracer.start_round(2)
    with tracer.installed():
        batch = evolution.simulate_runs(runs)
    assert [len(traj.times) for traj in batch] == [11, 11, 11]
    assert lapack_calls == {"dpbtrf": 1, "dpbtrs": 12}
    assert {name: tracer.calls[name] for name in
            ("operators.energy_parts", "nonlinearity.eval_f",
             "nonlinearity.eval_F_functional", "evolution.simulate")} == {
        "operators.energy_parts": 1, "nonlinearity.eval_f": 12,
        "nonlinearity.eval_F_functional": 1, "evolution.simulate": 0}
    assert tracer.steps == 0
    for owner, attr, original in before:
        assert lookup(owner, attr) is original, attr
