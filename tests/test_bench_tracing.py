"""The traced benchmark wraps degenwave functions by name; they must all exist."""

import importlib.util
from pathlib import Path

import scipy.linalg

from degenwave import (BoundaryParams, CoefficientSpec, Grid, OperatorKind, Scenario,
                       SourceKind, assemble, classify, evolution, polynomial_state)

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


def test_tracer_counts_and_restores():
    tracing = load_tracing()
    before = [(owner, attr, lookup(owner, attr)) for _, owner, attr in tracing.BOUNDARIES]
    grid = Grid.uniform(16)
    gen = assemble(OperatorKind.BEAM_NONDIV, classify(CoefficientSpec.power_law(0.5), grid),
                   BoundaryParams(1.0, 1.0), grid)
    y0, y1 = polynomial_state(gen)
    sc = Scenario(generator=gen, source=SourceKind.none(), y0=y0, y1=y1, t_end=0.1, dt=0.01)
    tracer = tracing.Tracer()
    tracer.start_round(0)
    with tracer.installed():
        evolution.simulate(sc)  # looked up at call time, as the CLI does
    assert tracer.calls["evolution.simulate"] == 1
    assert tracer.calls["evolution.lu_factor"] == 1
    assert tracer.calls["evolution.lu_solve"] == 10
    assert tracer.steps == 10
    for owner, attr, original in before:
        assert lookup(owner, attr) is original, attr
