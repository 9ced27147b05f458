"""Repository tooling: the BLAS thread count of the test session, no unused
imports, definitions, error classes or defaulted parameters in the package
modules, no bare numpy array sized by the step count, no numpy LAPACK call
in a `simulate` run from csv or polynomial data, and the layout of the root
`BENCH_*.json` measurement files."""

import ast
import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from degenwave import cli

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "bench" / "run.py"
PACKAGE = ROOT / "src" / "degenwave"
SCRIPTS = ROOT / "scripts"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_openblas_thread_count_is_the_session_setting(monkeypatch):
    expected = int(os.environ["OPENBLAS_NUM_THREADS"])  # 1 unless the caller set it
    for var in THREAD_VARS:  # bench/run.py pins these on import; undo that afterwards
        monkeypatch.setenv(var, os.environ[var])
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    counts = run.blas_threads()
    if not counts:
        pytest.skip("numpy and scipy loaded no OpenBLAS")
    assert set(counts.values()) == {expected}, counts


def test_package_modules_use_every_import():
    # deletions tend to leave imports behind; __init__.py re-exports on purpose
    modules = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert len(modules) >= 8 and len(scripts) >= 3
    modules += scripts
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text())
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update({(a.asname or a.name.split(".")[0]): node.lineno
                              for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({(a.asname or a.name): node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in used]
    assert not unused


def test_every_script_is_run_by_the_script_tests():
    tree = ast.parse((ROOT / "tests" / "test_scripts.py").read_text())
    run = {node.args[0].value for node in ast.walk(tree)
           if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_script"}
    assert run == {path.name for path in SCRIPTS.glob("*.py")}


def test_package_defines_nothing_only_tests_use():
    # a top-level function, class or method must be named by the package, the
    # scripts or the benchmark: as a name, an attribute, or a string (the
    # benchmark's tracer names the methods it wraps by string)
    readers = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
    readers += sorted(SCRIPTS.glob("*.py"))
    readers += sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))
    mentioned = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                mentioned.add(node.value)
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, definitions):
                continue
            named = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                named += [(f"{node.name}.{sub.name}", sub.name) for sub in node.body
                          if isinstance(sub, definitions)]
            # dunder methods are called by the interpreter, not by name
            unused += [f"{path.name} {qualified}" for qualified, name in named
                       if name not in mentioned
                       and not (name.startswith("__") and name.endswith("__"))]
    assert not unused


def test_every_error_class_is_raised_by_the_package():
    # an exception class of errors.py must be named in a `raise` of the
    # package; one that nothing raises stands for no failure a run can have
    classes = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert len(classes) >= 10
    assert not classes - raised, sorted(classes - raised)


#: defaulted parameters that only the tests pass, each with its reason
TEST_PASSED_DEFAULTS = {
    # only bench/tracing names energy_breakdown, to wrap it; ROADMAP item 1 deletes it
    "diagnostics.energy_breakdown(kernel)", "diagnostics.energy_breakdown(buffer)",
}


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # a parameter with a default must be passed, by position or by keyword,
    # by the package, the scripts or the benchmark: a call is matched to a
    # definition by name, and a class call to its __init__; an option that
    # only the tests set is one more configuration nothing else runs
    readers = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    readers += sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))
    positions, keywords = {}, {}
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            positions[name] = max(positions.get(name, 0), math.inf if starred else len(node.args))
            keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)  # None: **
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                # (name, called as, definition, leading parameters no call passes)
                functions = [(f"{node.name}.{sub.name}",
                              node.name if sub.name == "__init__" else sub.name, sub,
                              0 if any(getattr(d, "id", None) == "staticmethod"
                                       for d in sub.decorator_list) else 1)
                             for sub in node.body if isinstance(sub, ast.FunctionDef)]
            else:
                continue
            for qualified, called, function, bound in functions:
                args = function.args
                ordered = args.posonlyargs + args.args
                first = len(ordered) - len(args.defaults)
                defaulted = [(arg, i - bound) for i, arg in enumerate(ordered) if i >= first]
                defaulted += [(arg, math.inf) for arg, default
                              in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                passed = keywords.get(called, set())
                unpassed += [f"{path.stem}.{qualified}({arg.arg})" for arg, index in defaulted
                             if not (positions.get(called, 0) > index
                                     or arg.arg in passed or None in passed)]
    assert set(unpassed) == TEST_PASSED_DEFAULTS


def test_every_dataclass_field_has_a_reader():
    # a field must be read as an attribute by the package, the scripts or the
    # benchmark; a field that nothing reads is a stored copy of nothing
    readers = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    readers += sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))
    read = {node.attr for path in readers for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in getattr(node, "decorator_list", [])]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            fields += [(f"{node.name}.{item.target.id}", item.target.id) for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    assert len(fields) >= 40
    unread = {qualified for qualified, name in fields if name not in read}
    assert not unread, sorted(unread)


def test_step_sized_arrays_go_through_allocate():
    # an array whose shape names the step count may be too large to hold: a
    # bare numpy constructor then raises numpy's MemoryError, where
    # `errors.allocate` raises the ArrayTooLargeError that the CLI reports
    constructors = {"empty", "zeros", "ones", "full", "arange"}
    bare = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in constructors
                    and getattr(node.func.value, "id", None) == "np"):
                continue
            shape = node.args[:1] + [kw.value for kw in node.keywords
                                     if kw.arg in ("shape", "stop")]
            named = {getattr(sub, "id", getattr(sub, "attr", None))
                     for arg in shape for sub in ast.walk(arg)}
            if "nsteps" in named:
                bare.append(f"{path.name}:{node.lineno}")
    assert not bare


def test_bench_files_record_environment_parent_and_change():
    # each BENCH file cites the harness results of the parent and of the change,
    # measured under one recorded environment
    for path in sorted(ROOT.glob("BENCH_*.json")):
        bench = json.loads(path.read_text())
        assert bench["environment"]["blas_threads"], path.name
        for side in ("parent", "change"):
            assert bench[side]["result"]["metrics"], (path.name, side)


SIMULATE = """\
[coefficient]
kind = power
alpha = 0.5

[operator]
kind = beam_nondiv
n = 16
beta = 1.0
gamma = 1.0
{kernel}
[source]
kind = {source}
q = 1.0

[initial]
preset = {preset}
amplitude = 0.001
history = zero

[run]
dt = 0.0125
t_end = 2.0
"""

KERNEL = """
[kernel]
kind = constant
k0 = 0.005
tau = 0.25
subdomain = 0.25, 0.75
"""


@pytest.mark.parametrize("preset", ["polynomial", "csv"])
@pytest.mark.parametrize("delayed", [False, True])
@pytest.mark.parametrize("source", ["none", "power"])
def test_simulate_makes_no_numpy_linalg_call(tmp_path, monkeypatch, preset, delayed, source):
    # a simulate run from csv or polynomial data loads none of numpy's LAPACK:
    # its decay fit is a closed form; only the eigenmode preset's spectrum, a
    # dense eigvals, and the certificates need numpy.linalg
    if preset == "csv":
        x = np.linspace(0.0, 1.0, 16)
        rows = np.column_stack((x, x ** 2 * np.cos(3.0 * x), x ** 2 * np.sin(2.0 * x)))
        np.savetxt(tmp_path / "initial.csv", rows, delimiter=",", header="x,y0,y1",
                   comments="", fmt="%.17g")
        preset = f"csv:{tmp_path / 'initial.csv'}"
    config = tmp_path / "run.ini"
    config.write_text(SIMULATE.format(kernel=KERNEL if delayed else "", source=source,
                                      preset=preset))

    def refuse(*args, **kwargs):
        raise AssertionError("numpy LAPACK call")

    monkeypatch.setattr(np, "polyfit", refuse)
    for name in dir(np.linalg):
        if not name.startswith("_") and callable(getattr(np.linalg, name)) \
                and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert "fitted_rate" in (out / "energy_report.txt").read_text()
