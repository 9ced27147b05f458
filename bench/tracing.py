"""Wrappers installed around degenwave's public functions from outside the package.

``Probe`` is active on every round: it records what the checks need (the
scenarios ``cli.build_scenario`` returns and, when asked, the trajectories
``evolution.simulate`` returns).  ``Tracer`` is active on traced rounds
only: it records one span per call at each layer boundary listed in
``BOUNDARIES`` and the per-round counts and self times derived from them.
Both patch module and class attributes and undo the patches on exit.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy
import scipy.linalg

from degenwave import (cli, degeneracy, delay, diagnostics, evolution, nonlinearity,
                       operators)

#: (span name, owner, attribute); owners are modules or classes.  The two
#: to_csv methods write the trajectory and margins files for the CLI.
BOUNDARIES = (
    ("cli.build_scenario", cli, "build_scenario"),
    ("degeneracy.classify", degeneracy, "classify"),
    ("operators.assemble", operators, "assemble"),
    ("evolution.eigenmode_state", evolution, "eigenmode_state"),
    ("operators.energy_parts", operators.DiscreteGenerator, "energy_parts"),
    ("diagnostics.energy_breakdown", diagnostics, "energy_breakdown"),
    ("diagnostics.history_energy", diagnostics, "history_energy"),
    ("diagnostics.energy_bound_check", diagnostics, "energy_bound_check"),
    ("delay.push", delay.HistoryBuffer, "push"),
    ("delay.window_norms_sq", delay.HistoryBuffer, "window_norms_sq"),
    ("nonlinearity.eval_f", nonlinearity, "eval_f"),
    ("nonlinearity.eval_F_functional", nonlinearity, "eval_F_functional"),
    ("nonlinearity.hardy_poincare_constant", nonlinearity, "hardy_poincare_constant"),
    ("evolution.simulate", evolution, "simulate"),
    ("evolution.certify_scenario", evolution, "certify_scenario"),
    ("evolution.semigroup_constants", evolution, "semigroup_constants"),
    ("cli.to_csv", evolution.Trajectory, "to_csv"),
    ("cli.to_csv", diagnostics.BoundReport, "to_csv"),
)

#: scipy.linalg calls made by the evolution module, traced as evolution.<name>
EVOLUTION_LINALG = ("lu_factor", "lu_solve", "expm")


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "degenwave" or name.startswith("degenwave."))]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement):
        """Rebind every degenwave module attribute that refers to `original`."""
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _Proxy:
    """A module stand-in that serves some attributes from `overrides`."""

    def __init__(self, module, overrides):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._module, name)


def _patch_function(patches: _Patches, owner, attr, wrapper_of):
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    wrapped = wrapper_of(original)
    if isinstance(owner, type):
        patches.set(owner, attr, wrapped)
    else:
        patches.everywhere(original, wrapped)


class Probe:
    """Captures scenarios built and (optionally) trajectories simulated."""

    def __init__(self, capture_trajectories: bool):
        self.capture_trajectories = capture_trajectories
        self.scenarios = []
        self.trajectories = []

    def clear(self):
        self.scenarios = []
        self.trajectories = []

    @contextlib.contextmanager
    def installed(self):
        patches = _Patches()

        def keep(store):
            def wrapper_of(fn):
                def wrapper(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    store.append(result)
                    return result
                return wrapper
            return wrapper_of

        _patch_function(patches, cli, "build_scenario", keep(self.scenarios))
        if self.capture_trajectories:
            _patch_function(patches, evolution, "simulate", keep(self.trajectories))
        try:
            yield self
        finally:
            patches.undo()


def array_bytes(obj) -> int:
    """Bytes held by the array attributes of `obj` (dense or scipy.sparse).

    Lazily cached attributes count once computed; sparse storage counts so
    that a banded or sparse generator layout is measured by the same metric.
    """
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "data") and hasattr(value, "nnz"):  # scipy.sparse
            total += sum(getattr(value, part).nbytes
                         for part in ("data", "indices", "indptr", "offsets")
                         if isinstance(getattr(value, part, None), np.ndarray))
    return total


class Tracer:
    """Spans at the layer boundaries, kept in memory until `write`.

    A span is (round, name id, start, end, parent span index); the round
    number is the identifier shared by the spans of one workload execution.
    Self time is a span's duration minus the time its direct children cover.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self._stack = []
        self.round = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.steps = 0
        self.states_bytes = 0
        self._generators = []

    def start_round(self, index: int):
        self.round = index
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.steps = 0
        self.states_bytes = 0
        self._generators = []

    def generator_bytes(self) -> int:
        """Array bytes of the largest generator assembled in this round."""
        return max((array_bytes(gen) for gen in self._generators), default=0)

    def _wrapper_of(self, name, after=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter

        def wrapper_of(fn):
            def wrapper(*args, **kwargs):
                stack = self._stack
                parent = stack[-1][0] if stack else -1
                frame = [len(self.spans), 0.0]
                self.spans.append(None)
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    if stack:
                        stack[-1][1] += duration
                    self.spans[frame[0]] = (self.round, nid, start, end, parent)
                    self.calls[name] += 1
                    self.self_s[name] += duration - frame[1]
                if after is not None:
                    after(result)
                return result
            return wrapper
        return wrapper_of

    def _after_assemble(self, generator):
        self._generators.append(generator)

    def _after_simulate(self, trajectory):
        self.steps += len(trajectory.times) - 1
        states = getattr(trajectory, "states", None)
        if states is not None:
            self.states_bytes += np.asarray(states).nbytes

    @contextlib.contextmanager
    def installed(self):
        patches = _Patches()
        hooks = {"operators.assemble": self._after_assemble,
                 "evolution.simulate": self._after_simulate}
        for name, owner, attr in BOUNDARIES:
            _patch_function(patches, owner, attr, self._wrapper_of(name, hooks.get(name)))
        linalg = {fn: self._wrapper_of(f"evolution.{fn}")(getattr(scipy.linalg, fn))
                  for fn in EVOLUTION_LINALG}
        linalg_proxy = _Proxy(scipy.linalg, linalg)
        # evolution imports scipy; the other two forms keep the counts right
        # should it import scipy.linalg or the functions themselves
        for attr, value in list(vars(evolution).items()):
            if value is scipy.linalg:
                patches.set(evolution, attr, linalg_proxy)
            elif value is scipy:
                patches.set(evolution, attr, _Proxy(scipy, {"linalg": linalg_proxy}))
            elif attr in linalg and value is getattr(scipy.linalg, attr):
                patches.set(evolution, attr, linalg[attr])
        try:
            yield self
        finally:
            patches.undo()

    def write(self, path):
        """All spans of the run, times in microseconds from the first span."""
        spans = [s for s in self.spans if s is not None]
        origin = min((s[2] for s in spans), default=0.0)
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["round", "name", "start_us", "end_us", "parent"],
                       "spans": [[r, n, round((a - origin) * 1e6), round((b - origin) * 1e6), p]
                                 for r, n, a, b, p in spans]}, fh, separators=(",", ":"))
