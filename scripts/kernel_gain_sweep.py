"""Sweep the delayed-damping gain and track certificate and observed decay.

Runs the same beam scenario over a range of constant kernel gains k0,
recording the window bound Lambda, the cumulative-gain slope omega', the
small-data threshold rho, and the fitted decay of a small-data run.  Negative
gains act as anti-damping and may blow up; that is recorded, not asserted.

Usage: python scripts/kernel_gain_sweep.py [--gains 0.001,0.004,0.016] [--out sweep.csv]
"""

import argparse
import math

from degenwave import (BoundaryParams, CoefficientSpec, Grid, InfeasibleError,
                       KernelSpec, OperatorKind, Scenario, SourceKind, SubdomainP,
                       apply_Bstar, assemble, certify_scenario, classify, decay_fit,
                       eigenmode_state, semigroup_constants, simulate, smallness_level)
from degenwave.errors import DegenerateFitError


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--gains", default="0.001,0.002,0.004,0.008,0.016")
    parser.add_argument("--out", default="gain_sweep.csv")
    args = parser.parse_args()
    gains = [float(v) for v in args.gains.split(",")]

    grid = Grid.uniform(32)
    profile = classify(CoefficientSpec.power_law(0.5), grid)
    gen = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(1.0, 1.0), grid)
    sub = SubdomainP(0.25, 0.75)
    source = SourceKind.power(1.0)
    tau = 0.5
    semigroup = semigroup_constants(gen)   # one generator for every gain

    rows = []
    for k0 in gains:
        kernel = KernelSpec.constant(k0, tau)
        y0, y1 = eigenmode_state(gen, 0, by="frequency", amplitude=1.0)
        g_trace = apply_Bstar(sub, grid, y1)
        probe = Scenario(generator=gen, source=source, y0=y0, y1=y1, t_end=1.0,
                         dt=tau / 40, kernel=kernel, subdomain=sub,
                         history=lambda s: g_trace)
        try:
            result = certify_scenario(probe, semigroup)
            rho = result.threshold.rho
            predicted = result.threshold.predicted_rate
            feasible = True
        except InfeasibleError:
            rho, predicted, feasible = float("nan"), float("nan"), False

        amp = 0.8 * (rho if feasible else 0.01) / math.sqrt(smallness_level(probe))
        trace = amp * g_trace
        run = Scenario(generator=gen, source=source, y0=amp * y0, y1=amp * y1,
                       t_end=10.0, dt=tau / 40, kernel=kernel, subdomain=sub,
                       history=lambda s: trace)
        trajectory = simulate(run)
        try:
            fitted = decay_fit(trajectory).rate
        except DegenerateFitError:
            fitted = float("nan")
        rows.append((k0, feasible, rho, predicted, fitted, trajectory.blew_up))
        print(f"k0={k0:+.4f}  feasible={feasible}  rho={rho:.3e}  "
              f"predicted={predicted:.4f}  fitted={fitted:.4f}  "
              f"blew_up={trajectory.blew_up}")

    with open(args.out, "w") as fh:
        fh.write("k0,feasible,rho,predicted_rate,fitted_rate,blew_up\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
