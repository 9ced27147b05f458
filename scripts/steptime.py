"""Microseconds per step of `simulate` on the README beam, for one source tree.

The beam is beam_nondiv with a = x^0.5 and beta = gamma = 1, started from
polynomial data of amplitude 1e-3 with dt = 0.0025.  A positive --tau adds
the constant kernel k0 = 0.005 with that delay on P = (0.25, 0.75), so
m = tau/dt history slots; --tau 0 runs undelayed.  --runs B > 1 steps B runs
as one batch through `simulate_runs`, run i with k0 = 0.005 (1 + i/B), and
reports microseconds per step per run; the default B = 1 times `simulate`,
which every source tree has.  After one warm-up call, the call is timed
--repeats times; the post-run diagnostics are included.  One more untimed
call runs under tracemalloc.  The one output line is a JSON object with the
median and the minimum in microseconds per step (per run), and `peak_kb`,
that call's tracemalloc peak in KiB.

Usage: python scripts/steptime.py [--src DIR] [--n 64] [--tau 0.5] [--runs 1]
                                  [--source none|power] [--steps 4000] [--repeats 5]
"""

import argparse
import json
import os
import sys
import time
import tracemalloc

# one BLAS thread, fixed before numpy loads, as the benchmark runs the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

DT = 0.0025


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", help="source tree to import degenwave from")
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--tau", type=float, default=0.5, help="delay; 0 runs undelayed")
    parser.add_argument("--source", choices=("none", "power"), default="power")
    parser.add_argument("--steps", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--runs", type=int, default=1, help="runs stepped as one batch")
    args = parser.parse_args()
    if args.src:
        sys.path.insert(0, args.src)

    import configparser

    import numpy as np
    from degenwave import cli, evolution

    # the scenario comes from a config, through the one builder whose
    # signature every source tree shares
    kernel = (f"[kernel]\nkind = constant\nk0 = 0.005\ntau = {args.tau!r}\n"
              "subdomain = 0.25, 0.75\n") if args.tau > 0 else ""
    cfg = configparser.ConfigParser()
    cfg.read_string(f"""\
[coefficient]
kind = power
alpha = 0.5
[operator]
kind = beam_nondiv
n = {args.n}
beta = 1.0
gamma = 1.0
{kernel}[source]
kind = {args.source}
q = 1.0
[initial]
preset = polynomial
amplitude = 1e-3
[run]
dt = {DT!r}
t_end = {args.steps * DT!r}
""")
    shared, scenarios = {}, []
    for i in range(args.runs):
        if args.tau > 0:
            cfg["kernel"]["k0"] = repr(0.005 * (1.0 + i / args.runs))
        scenarios.append(cli.build_scenario(cfg, shared))
    sc = scenarios[0]

    def run():
        if args.runs == 1:
            evolution.simulate(sc)
        else:
            evolution.simulate_runs(scenarios)

    run()
    per_step = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        run()
        per_step.append((time.perf_counter() - start) / (sc.nsteps * args.runs) * 1e6)
    tracemalloc.start()
    run()
    peak_kb = tracemalloc.get_traced_memory()[1] / 1024.0
    tracemalloc.stop()
    print(json.dumps({"n": args.n, "tau": args.tau, "m": sc.m, "source": args.source,
                      "runs": args.runs, "steps": sc.nsteps,
                      "median_us": float(np.median(per_step)), "min_us": min(per_step),
                      "peak_kb": peak_kb}))


if __name__ == "__main__":
    main()
