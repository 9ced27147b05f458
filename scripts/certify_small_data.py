"""End-to-end small-data certification demo.

Builds a delayed nonlinear beam scenario, computes the full certificate chain
(Lambda, alpha, omega', M, omega, b, T, rho, C_rho, predicted rate), scales
the initial data into the certified smallness ball, integrates, and compares
the observed decay rate with the certified one.

Usage: python scripts/certify_small_data.py [--k0 0.004] [--q 1.0] [--out-dir out]
"""

import argparse
import math
from pathlib import Path

from degenwave import (BoundaryParams, CoefficientSpec, Grid, KernelSpec,
                       OperatorKind, Scenario, SourceKind, SubdomainP, apply_Bstar,
                       assemble, certify_scenario, classify, decay_fit,
                       eigenmode_state, simulate, smallness_level)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--k0", type=float, default=0.004)
    parser.add_argument("--q", type=float, default=1.0)
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--out-dir", default="out_certified")
    args = parser.parse_args()

    grid = Grid.uniform(args.n)
    profile = classify(CoefficientSpec.power_law(0.5), grid)
    gen = assemble(OperatorKind.BEAM_NONDIV, profile, BoundaryParams(1.0, 1.0))
    kernel = KernelSpec.constant(args.k0, args.tau)
    sub = SubdomainP(0.25, 0.75)
    source = SourceKind.power(args.q)

    y0, y1 = eigenmode_state(gen, 0, by="frequency", amplitude=1.0)
    g_trace = apply_Bstar(sub, grid, y1)
    probe = Scenario(generator=gen, source=source, y0=y0, y1=y1, t_end=1.0,
                     dt=args.tau / 40, kernel=kernel, subdomain=sub,
                     history=lambda s: g_trace)
    result = certify_scenario(probe)
    for line in result.report_lines():
        print(line)

    rho = result.threshold.rho
    scale = 0.8 * rho / math.sqrt(smallness_level(probe))
    scaled_trace = scale * g_trace
    scenario = Scenario(generator=gen, source=source, y0=scale * y0, y1=scale * y1,
                        t_end=10.0, dt=args.tau / 40, kernel=kernel, subdomain=sub,
                        history=lambda s: scaled_trace)
    print(f"smallness: {smallness_level(scenario):.6g} < rho^2 = {rho ** 2:.6g}")
    trajectory = simulate(scenario)
    fit = decay_fit(trajectory)
    print(f"fitted_rate: {fit.rate:.6g}  (certified {result.threshold.predicted_rate:.6g})")
    print(f"blew_up: {trajectory.blew_up}")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trajectory.to_csv(out / "trajectory.csv")
    print(f"wrote {out / 'trajectory.csv'}")


if __name__ == "__main__":
    main()
