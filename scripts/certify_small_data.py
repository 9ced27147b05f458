"""End-to-end small-data certification demo over a list of kernel gains.

Builds a delayed nonlinear beam scenario and computes its semigroup constants
(M, omega) once.  For each constant gain k0 it computes the rest of the
certificate chain (Lambda, alpha, omega', b, T, rho, C_rho, predicted rate),
scales the initial data into the certified smallness ball (to 0.8 x 0.01 when
the gain is infeasible), integrates, and compares the observed decay rate
with the certified one.  Negative gains act as anti-damping and may blow up;
that is recorded, not asserted.

Writes `gain_sweep.csv` (one row per gain) and the `trajectory.csv` of the
last gain into the output directory.

Usage: python scripts/certify_small_data.py [--k0 0.001,0.004,0.016] [--q 1.0]
           [--out-dir out]
"""

import argparse
import math
from pathlib import Path

from degenwave import (BoundaryParams, CoefficientSpec, Grid, InfeasibleError,
                       KernelSpec, OperatorKind, Scenario, SourceKind, SubdomainP,
                       apply_Bstar, assemble, certify_scenario, classify, decay_fit,
                       eigenmode_state, semigroup_constants, simulate, smallness_level)
from degenwave.errors import DegenerateFitError


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--k0", default="0.004", help="comma-separated kernel gains")
    parser.add_argument("--q", type=float, default=1.0)
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--out-dir", default="out_certified")
    args = parser.parse_args()
    gains = [float(v) for v in args.k0.split(",")]

    grid = Grid.uniform(args.n)
    profile = classify(CoefficientSpec.power_law(0.5), grid)
    gen = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(1.0, 1.0))
    sub = SubdomainP(0.25, 0.75)
    source = SourceKind.power(args.q)
    dt = args.tau / 40
    # the generator, the data and its trace on P do not depend on the gain
    semigroup = semigroup_constants(gen)
    y0, y1 = eigenmode_state(gen, 0, by="frequency", amplitude=1.0)
    g_trace = apply_Bstar(sub, grid, y1)

    rows = []
    for k0 in gains:
        kernel = KernelSpec.constant(k0, args.tau)
        probe = Scenario(generator=gen, source=source, y0=y0, y1=y1, t_end=1.0, dt=dt,
                         kernel=kernel, subdomain=sub, history=lambda s: g_trace)
        try:
            result = certify_scenario(probe, semigroup)
        except InfeasibleError as exc:
            print(f"feasible: no\nreason: {exc}")
            rho, predicted, feasible = float("nan"), float("nan"), False
        else:
            print("\n".join(result.report_lines()))
            rho, predicted = result.threshold.rho, result.threshold.predicted_rate
            feasible = True

        scale = 0.8 * (rho if feasible else 0.01) / math.sqrt(smallness_level(probe))
        trace = scale * g_trace
        run = Scenario(generator=gen, source=source, y0=scale * y0, y1=scale * y1,
                       t_end=10.0, dt=dt, kernel=kernel, subdomain=sub,
                       history=lambda s: trace)
        if feasible:
            print(f"smallness: {smallness_level(run):.6g} < rho^2 = {rho ** 2:.6g}")
        trajectory = simulate(run)
        try:
            fitted = decay_fit(trajectory).rate
        except DegenerateFitError:
            fitted = float("nan")
        print(f"fitted_rate: {fitted:.6g}  (certified {predicted:.6g})")
        print(f"blew_up: {trajectory.blew_up}")
        rows.append((k0, feasible, rho, predicted, fitted, trajectory.blew_up))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trajectory.to_csv(out / "trajectory.csv")
    print(f"wrote {out / 'trajectory.csv'}")
    with open(out / "gain_sweep.csv", "w") as fh:
        fh.write("k0,feasible,rho,predicted_rate,fitted_rate,blew_up\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    print(f"wrote {out / 'gain_sweep.csv'}")


if __name__ == "__main__":
    main()
