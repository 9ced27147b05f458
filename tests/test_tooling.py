"""The test session runs BLAS with the thread count conftest.py sets."""

import importlib.util
import os
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
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
