"""Repository tooling: the BLAS thread count of the test session, no unused
imports or definitions in the package modules, and the layout of the root
`BENCH_*.json` measurement files."""

import ast
import importlib.util
import json
import os
from pathlib import Path

import pytest

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
    assert len(modules) >= 8 and len(scripts) >= 4
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


#: package definitions that only the tests call: the oracles of the acceptance gates
TEST_ORACLES = {
    "duhamel_residual",                     # gate 4, the Duhamel oracle
    "DiscreteGenerator.quadratic_form",     # gate 1, dissipativity of the dense generator
}


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
                       if name not in mentioned and qualified not in TEST_ORACLES
                       and not (name.startswith("__") and name.endswith("__"))]
    assert not unused


def test_bench_files_record_environment_parent_and_change():
    # each BENCH file cites the harness results of the parent and of the change,
    # measured under one recorded environment
    for path in sorted(ROOT.glob("BENCH_*.json")):
        bench = json.loads(path.read_text())
        assert bench["environment"]["blas_threads"], path.name
        for side in ("parent", "change"):
            assert bench[side]["result"]["metrics"], (path.name, side)
