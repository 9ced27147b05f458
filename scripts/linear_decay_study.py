"""Linear decay study: spectral abscissa vs fitted trajectory decay.

For each operator kind and grid size, assemble the generator, take the
slowest-decaying eigenmode as initial data, integrate the undelayed unforced
system, and compare the fitted decay rate of ||Y(t)|| against the spectral
abscissa and the semigroup constants (M, omega), M a bound for every t.

Usage: python scripts/linear_decay_study.py [--out decay_study.csv]
"""

import argparse

import numpy as np

from degenwave import (BoundaryParams, CoefficientSpec, Grid, OperatorKind,
                       Scenario, SourceKind, assemble, classify, decay_fit,
                       eigenmode_state, semigroup_constants, simulate)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="decay_study.csv")
    parser.add_argument("--alpha", type=float, default=0.5)
    args = parser.parse_args()

    rows = []
    for kind in OperatorKind:
        for n in (16, 32):
            grid = Grid.uniform(n)
            profile = classify(CoefficientSpec.power_law(args.alpha), grid)
            gen = assemble(kind, profile, BoundaryParams(1.0, 1.0))
            vals = gen.spectrum
            abscissa = float(np.max(vals.real))
            freq = abs(vals[np.argmax(vals.real)].imag)
            dt = min(0.25 / freq if freq > 1 else 0.01, 0.01)
            y0, y1 = eigenmode_state(gen, 0, by="decay")
            scenario = Scenario(generator=gen, source=SourceKind.none(),
                                y0=y0, y1=y1, t_end=5.0 / abs(abscissa), dt=dt)
            fit = decay_fit(simulate(scenario))
            cert = semigroup_constants(gen, horizon=12.0, samples=60)
            rows.append((kind.value, n, abscissa, fit.rate, cert.M, cert.omega))
            print(f"{kind.value:12s} n={n:3d}  abscissa={abscissa:+.4f}  "
                  f"fitted={fit.rate:.4f}  M={cert.M:.3f}  omega={cert.omega:.4f}")

    with open(args.out, "w") as fh:
        fh.write("kind,n,abscissa,fitted_rate,M,omega\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
