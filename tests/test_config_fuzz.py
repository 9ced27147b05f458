"""Seeded config fuzzer: no mutated config ends in a traceback.

Each example mutates one or two keys of a small delayed, forced README-style
config (n = 16, t_end = 0.05) to edge values, and runs `simulate`, `certify`
and `sweep` in-process through `cli.main`.  Every run must return one of the
documented exit codes; an exception escaping `main` fails the test with the
seed, the example and the mutation.  The work of a run is bounded before it
starts: a mutation that would take n above 32, or t_end/dt or tau/dt above
400 finite steps, is skipped.  Nothing starts a thread or a process.
"""

import itertools
import math
import random
import signal
import traceback
import warnings

import pytest

from degenwave.cli import main

SEED = 20261020
EXAMPLES = 60
MAX_N = 32
MAX_STEPS = 400
SECONDS_PER_RUN = 20

#: leading examples `test_a_rerun_into_the_same_directory...` runs twice
RERUNS = 16

BASE = {
    "coefficient": {"kind": "power", "alpha": "0.5"},
    "operator": {"kind": "beam_nondiv", "n": "16", "beta": "1.0", "gamma": "1.0"},
    "kernel": {"kind": "constant", "k0": "0.005", "tau": "0.05", "rate": "1.0",
               "support_end": "0.025", "subdomain": "0.25, 0.75"},
    "source": {"kind": "power", "q": "1.0", "p": "2.0"},
    "initial": {"preset": "eigenmode", "mode": "0", "amplitude": "0.001", "history": "zero"},
    "run": {"dt": "0.0125", "t_end": "0.05"},
    "sweep": {"parameter": "kernel.k0", "values": "0.002, 0.005"},
}

#: edge values tried on every key
EDGE_VALUES = ["0", "-0", "-1", "-2.5", "nan", "inf", "-inf", "1e308", "1e-308", "1e-12",
               "600", "", "text", "%%", "1, 2", "0.5, 0.7, 0.9"]

#: the valid alternatives of the keys that name a choice
CHOICES = {
    ("coefficient", "kind"): ["power", "tabulated"],
    ("operator", "kind"): ["beam_nondiv", "beam_div", "wave_nondiv", "wave_div"],
    ("kernel", "kind"): ["none", "constant", "exp_decay", "pulse", "tabulated"],
    ("source", "kind"): ["none", "power", "nonlocal"],
    ("initial", "preset"): ["eigenmode", "polynomial"],
    ("initial", "history"): ["zero", "constant:0.5", "constant:nan"],
}

KEYS = [(section, key) for section, items in BASE.items() for key in items]


def _number(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def _bounded(config) -> bool:
    """Whether the config's grid, step count and delay slot count stay within
    the fuzzer's caps (values that do not parse are left to the program)."""
    n = _number(config["operator"]["n"])
    dt = _number(config["run"]["dt"])
    ratios = (_number(config["run"]["t_end"]) / dt, _number(config["kernel"]["tau"]) / dt) \
        if dt != 0 else ()
    if math.isfinite(n) and n > MAX_N:
        return False
    return not any(math.isfinite(r) and abs(r) > MAX_STEPS for r in ratios)


def _ini(config) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n"
                                              for key, value in items.items()) + "\n"
                   for section, items in config.items())


def _mutations(rng):
    """One or two (section, key, value) edits."""
    edits = []
    for section, key in rng.sample(KEYS, rng.choice((1, 2))):
        values = EDGE_VALUES + CHOICES.get((section, key), [])
        edits.append((section, key, rng.choice(values)))
    return edits


def _timeout(signum, frame):
    raise TimeoutError(f"a run took over {SECONDS_PER_RUN} s")


def _examples():
    """(example, edits, config) of each seeded example within the caps."""
    rng = random.Random(SEED)
    for example in range(EXAMPLES):
        edits = _mutations(rng)
        config = {section: dict(items) for section, items in BASE.items()}
        for section, key, value in edits:
            config[section][key] = value
        if _bounded(config):
            yield example, edits, config


def _main_quietly(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


def test_mutated_configs_exit_with_a_documented_code(tmp_path, capsys):
    ran = 0
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for example, edits, config in _examples():
            path = tmp_path / f"{example}.ini"
            path.write_text(_ini(config))
            for command in ("simulate", "certify", "sweep"):
                where = f"seed {SEED}, example {example}, {command}, edits {edits}"
                signal.alarm(SECONDS_PER_RUN)
                try:
                    code = _main_quietly(["--config", str(path), "--out",
                                          str(tmp_path / f"{example}_{command}"),
                                          "--command", command, "--quiet"])
                except Exception:  # reported with the seed and the traceback
                    pytest.fail(f"{where}:\n{traceback.format_exc()}")
                finally:
                    signal.alarm(0)
                capsys.readouterr()
                assert code in (0, 2, 3, 4), f"{where}: exit {code}"
                ran += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert ran >= 2 * EXAMPLES, f"seed {SEED}: only {ran} runs within the caps"


def test_a_rerun_into_the_same_directory_gives_the_same_code_and_bytes(tmp_path, capsys):
    # the first RERUNS examples, each command run twice into one --out (with
    # the operator dump); before the second run every output file is
    # overwritten with longer junk, so each file it leaves is written afresh
    written = 0
    for example, edits, config in itertools.islice(_examples(), RERUNS):
        path = tmp_path / f"{example}.ini"
        path.write_text(_ini(config))
        for command in ("simulate", "certify", "sweep"):
            out = tmp_path / f"{example}_{command}"
            argv = ["--config", str(path), "--out", str(out), "--command", command, "--quiet"]
            if command == "simulate":
                argv.append("--dump-operators")
            first = _main_quietly(argv)
            files = {p.name: p.read_bytes() for p in out.glob("*")}
            for name, data in files.items():
                (out / name).write_bytes(b"junk" + data + b"junk")
            second = _main_quietly(argv)
            capsys.readouterr()
            where = f"seed {SEED}, example {example}, {command}, edits {edits}"
            assert second == first, f"{where}: exit {first}, then {second}"
            assert {p.name: p.read_bytes() for p in out.glob("*")} == files, where
            written += len(files)
    assert written >= 20, f"seed {SEED}: only {written} files written"
