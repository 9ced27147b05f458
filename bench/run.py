"""Benchmark of the degenwave command line, end to end and layer by layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The workload's inputs are drawn from the seed
and written as INI/CSV files under bench/out/<workload>/; the CLI is then
driven in-process (``degenwave.cli.main``, imports already done) in rounds
until the time is up.  Round 0 is a warm-up whose peak RSS is reported;
wall_s is the median over the later rounds, and setup_s the median of
cli.build_scenario timings repeated after every round.  Every round's
outputs are checked; one operation is one simulate (simulate workloads) or
one swept value (sweep workload).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds, prints the per-layer metrics of the traced rounds with the
tracing overhead, and writes the spans to bench/out/traces/<workload>.json.
The last stdout line is the JSON result.
"""

import os

# fixed before numpy loads: one BLAS thread, as the program runs in the workloads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: seconds of set-up repetitions after each round (spread over the run)
SETUP_REPEAT_S = 0.25

#: the checks whose failure is a known fault of the program, not of this run
KNOWN_FAULTS = {"semigroup_bound"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = (
    "cli.build_scenario.s", "degeneracy.classify.s", "operators.assemble.s",
    "evolution.eigenmode_state.s", "operators.generator.bytes",
    "evolution.lu_factor.calls", "evolution.lu_factor.s",
    "evolution.lu_solve.calls", "evolution.lu_solve.s",
    "operators.energy_parts.calls", "operators.energy_parts.s",
    "diagnostics.energy_breakdown.calls", "diagnostics.energy_breakdown.s",
    "delay.push.calls", "delay.window_norms_sq.calls", "delay.window_norms_sq.s",
    "diagnostics.history_energy.s",
    "nonlinearity.eval_f.calls", "nonlinearity.eval_f.s",
    "nonlinearity.eval_F_functional.calls", "nonlinearity.eval_F_functional.s",
    "evolution.simulate.calls", "evolution.simulate.self_s", "evolution.simulate.steps",
    "evolution.states.bytes", "cli.to_csv.s", "diagnostics.energy_bound_check.s",
    "evolution.certify_scenario.calls", "evolution.certify_scenario.s",
    "evolution.semigroup_constants.calls", "evolution.semigroup_constants.s",
    "evolution.expm.calls", "evolution.expm.s",
    "nonlinearity.hardy_poincare_constant.calls", "nonlinearity.hardy_poincare_constant.s",
    "trace.wall_s", "trace.overhead_s",
)


def _unit(metric: str) -> str:
    kind = metric.rsplit(".", 1)[1]
    return {"calls": "count", "steps": "count", "bytes": "bytes"}.get(kind, "s")


def _median(metric: str, values):
    """Times as medians; counts and bytes repeat exactly, so they stay whole."""
    return statistics.median(values) if _unit(metric) == "s" else statistics.median_low(values)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "degenwave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(numpy, scipy) -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "git_sha": git_sha(), "src_sha256": source_digest()}


# -- per-workload checks ------------------------------------------------------------


def check_simulate(checks, inputs, out, probe, cache):
    """One operation: the simulate call and its energy checks."""
    p = inputs.params
    report = checks.read_report(out / "energy_report.txt")
    table = checks.read_table(out / "trajectory.csv")
    (trajectory,) = probe.trajectories
    problems = [("run_length", m) for m in
                checks.check_run_length(report, table, trajectory, p["dt"], p["t_end"])]
    if problems:
        return [problems]
    problems += [("energy_columns", m) for m in checks.check_energy_columns(table, trajectory)]
    delay = (p["k0"], p["tau"], p["lower"], p["upper"]) if "k0" in p else None
    e_quad = checks.quadratic_energy(table)
    ledger = checks.energy_ledger(trajectory, e_quad, delay, p.get("q"))
    startup = checks.STARTUP_STEPS if delay or "q" in p else 0
    problems += [("energy_balance", m) for m in
                 checks.check_energy_balance(ledger, e_quad[0], p["balance_tol"], startup)]
    if delay is not None:
        b2 = checks.subdomain_gain_sq(p["n"], p["lower"], p["upper"], p["alpha"])
        ratios = checks.growth_ratios(table, b2, p["k0"])
        problems += [("growth_bound", m) for m in
                     checks.check_growth_bound(ratios, float(report["bound_max_ratio"]))]
    return [problems]


def check_sweep(checks, inputs, out, probe, cache):
    """One operation per swept value; the semigroup profile is computed once."""
    p = inputs.params
    cert = checks.read_report(out / "certificate.txt")
    rows = checks.read_rows(out / "summary.csv")
    if cert.get("feasible") != "yes" or [r["value"] for r in rows] != p["values"]:
        return [[("sweep_outputs", "certificate infeasible or summary rows differ")]
                for _ in p["values"]]
    key = cert["omega"]
    if key not in cache:
        gen = probe.scenarios[0].generator
        times = checks.stratified_times(p["time_seed"], p["check_times"], p["horizon"])
        profile = checks.semigroup_profile(checks.weighted_generator(gen),
                                           float(cert["omega"]), times)
        cache[key] = (times, profile)
    times, profile = cache[key]
    bound = [("semigroup_bound", m) for m in
             checks.check_semigroup_bound(profile, times, float(cert["M"]))]
    operations = []
    for row in rows:
        problems = [("sweep_row", m) for m in checks.check_sweep_row(row, cert, p["tau"])]
        if row["value"] == p["values"][0] and (
                abs(float(cert["predicted_rate"]) - float(row["predicted_rate"]))
                > 1e-12 * abs(float(row["predicted_rate"]))):
            problems.append(("sweep_row", "certificate and sweep disagree on predicted_rate"))
        operations.append(problems + bound)
    return operations


CHECKS = {"delayed_beam_n64": check_simulate, "refine_beam_n1024": check_simulate,
          "sweep_k0_certify": check_sweep}


# -- the run ------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "degenwave" / "__init__.py").is_file():
        print(f"bench: no degenwave sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import degenwave
    from degenwave import cli

    if Path(degenwave.__file__).resolve().parent != (SRC / "degenwave").resolve():
        print(f"bench: imported degenwave from {degenwave.__file__}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "round"
    inputs = workloads.WORKLOADS[args.workload](args.seed, work, out)
    check = CHECKS[args.workload]
    probe = tracing.Probe(capture_trajectories=check is check_simulate)
    tracer = tracing.Tracer() if args.trace else None
    cache = {}

    rounds = []
    setup_samples = []
    peak_rss_mb = None
    min_rounds = 4 if args.trace else 3
    start = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        round_start = time.perf_counter()
        if traced:
            tracer.start_round(index)
        with probe.installed(), (tracer.installed() if traced else contextlib.nullcontext()):
            t0 = time.perf_counter()
            codes = [cli.main(argv) for argv in inputs.calls]
            wall = time.perf_counter() - t0
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_start = time.perf_counter()
        if any(codes):
            operations = [[("exit_code", f"CLI exit codes {codes}")]]
        else:
            operations = check(checks, inputs, out, probe, cache)
        probe.clear()
        layer = _layer_metrics(tracer) if traced else None
        rounds.append({"wall_s": wall, "traced": traced, "operations": operations,
                       "layer": layer, "check_s": time.perf_counter() - check_start})
        if not args.trace:
            setup_samples += _repeat_setup(cli, inputs.scenarios)
        elapsed = time.perf_counter() - start
        if index + 1 >= min_rounds and elapsed + (time.perf_counter() - round_start) > args.seconds:
            break

    attempted = sum(len(r["operations"]) for r in rounds)
    failed_ops = [ops for r in rounds for ops in r["operations"] if ops]
    correct = all(check_name in KNOWN_FAULTS for ops in failed_ops for check_name, _ in ops)
    for message in sorted({m for ops in failed_ops for _, m in ops}):
        print(f"bench: failed check: {message}", file=sys.stderr)

    timed = [r["wall_s"] for r in rounds[1:] if not r["traced"]]
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {name: _median(name, [r["layer"][name] for r in traced_rounds])
                   for name in PER_LAYER if not name.startswith("trace.")}
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced_rounds)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(timed)
        units = {name: _unit(name) for name in PER_LAYER}
        (OUT / "traces").mkdir(exist_ok=True)
        tracer.write(OUT / "traces" / f"{args.workload}.json")
    else:
        metrics = {"wall_s": statistics.median(timed),
                   "setup_s": statistics.median(setup_samples),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS

    env = environment(numpy, scipy)
    (work / "run.json").write_text(json.dumps(
        {"args": vars(args), "environment": env, "params": inputs.params,
         "round_wall_s": [r["wall_s"] for r in rounds],
         "round_check_s": [r["check_s"] for r in rounds],
         "traced": [r["traced"] for r in rounds],
         "setup_samples": len(setup_samples), "metrics": metrics}, indent=1, default=str))
    print("environment " + json.dumps(env))
    print(f"rounds {len(rounds)}, setup samples {len(setup_samples)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed_ops),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def _layer_metrics(tracer) -> dict:
    values = {"operators.generator.bytes": tracer.generator_bytes(),
              "evolution.simulate.steps": tracer.steps,
              "evolution.states.bytes": tracer.states_bytes,
              "evolution.simulate.self_s": tracer.self_s["evolution.simulate"]}
    for name in PER_LAYER:
        span, kind = name.rsplit(".", 1)
        if name in values or span.startswith("trace"):
            continue
        values[name] = tracer.calls[span] if kind == "calls" else tracer.self_s[span]
    return values


def _repeat_setup(cli, scenarios) -> list:
    """Time cli.build_scenario over the workload's scenarios, repeatedly.

    Each sample is the summed build time of every scenario the workload
    builds; repetitions fill SETUP_REPEAT_S, with at least two samples.
    """
    samples = []
    begin = time.perf_counter()
    while len(samples) < 2 or time.perf_counter() - begin < SETUP_REPEAT_S:
        total = 0.0
        for cfg in scenarios:
            t0 = time.perf_counter()
            cli.build_scenario(cfg)
            total += time.perf_counter() - t0
        samples.append(total)
    return samples


if __name__ == "__main__":
    sys.exit(main())
