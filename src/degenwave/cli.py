"""Scenario-driven command line: simulate, certify, and sweep from INI configs.

Exit codes: 0 success, 2 infeasible certificate, 3 error, 4 blow-up during
simulate.  An exit 3 prints "config error: ..." when the config is invalid,
or does not build a scenario, and "error: ..." for any other package error
raised by a valid config, such as the size limit of the dense matrix
exponentials.  Outputs are deterministic (fixed formatting, no sampling),
so identical configs produce bit-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import sys
from pathlib import Path

import numpy as np

from . import degeneracy, delay, diagnostics, evolution, nonlinearity, operators
from .errors import DegenwaveError, InfeasibleError, NotExponentiallyStableError
from .grids import Grid

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_BLOWUP = 4


class ConfigError(DegenwaveError):
    """Invalid or incomplete scenario configuration."""


def _require(cfg, section, key):
    try:
        return cfg[section][key]
    except KeyError as exc:
        raise ConfigError(f"missing [{section}] {key}") from exc


def _get_float(cfg, section, key, default=None):
    raw = cfg[section].get(key) if section in cfg else None
    if raw is None:
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _get_int(cfg, section, key, default=None):
    value = _get_float(cfg, section, key, default)
    if not float(value).is_integer():
        raise ConfigError(f"[{section}] {key} = {value!r} is not an integer")
    return int(value)


def build_coefficient(cfg) -> degeneracy.CoefficientSpec:
    kind = _require(cfg, "coefficient", "kind").strip().lower()
    if kind == "power":
        return degeneracy.CoefficientSpec.power_law(_get_float(cfg, "coefficient", "alpha"))
    if kind == "tabulated":
        return degeneracy.CoefficientSpec.from_csv(_require(cfg, "coefficient", "csv"))
    raise ConfigError(f"unknown coefficient kind {kind!r}")


def build_kernel(cfg):
    """(kernel, subdomain) or (None, None) for the undelayed case."""
    if "kernel" not in cfg:
        return None, None
    kind = cfg["kernel"].get("kind", "none").strip().lower()
    if kind == "none":
        return None, None
    tau = _get_float(cfg, "kernel", "tau")
    if kind == "constant":
        kernel = delay.KernelSpec.constant(_get_float(cfg, "kernel", "k0"), tau)
    elif kind == "exp_decay":
        kernel = delay.KernelSpec.exp_decay(_get_float(cfg, "kernel", "k0"),
                                            _get_float(cfg, "kernel", "rate"), tau)
    elif kind == "pulse":
        kernel = delay.KernelSpec.pulse(_get_float(cfg, "kernel", "k0"),
                                        _get_float(cfg, "kernel", "support_end"), tau)
    elif kind == "tabulated":
        kernel = delay.KernelSpec.from_csv(_require(cfg, "kernel", "csv"), tau)
    else:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    raw = _require(cfg, "kernel", "subdomain")
    try:
        lo, hi = (float(p) for p in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"[kernel] subdomain = {raw!r}; expected 'lo, hi'") from exc
    return kernel, delay.SubdomainP(lo, hi)


def build_source(cfg) -> nonlinearity.SourceKind:
    if "source" not in cfg:
        return nonlinearity.SourceKind.none()
    kind = cfg["source"].get("kind", "none").strip().lower()
    if kind == "none":
        return nonlinearity.SourceKind.none()
    if kind == "power":
        return nonlinearity.SourceKind.power(_get_float(cfg, "source", "q"))
    if kind == "nonlocal":
        return nonlinearity.SourceKind.nonlocal_l2(_get_float(cfg, "source", "p"))
    raise ConfigError(f"unknown source kind {kind!r}")


def build_initial(cfg, generator):
    """(y0, y1, history) from the [initial] section presets."""
    section = cfg["initial"] if "initial" in cfg else {}
    preset = section.get("preset", "polynomial").strip()
    amplitude = _get_float(cfg, "initial", "amplitude", default=1.0)
    if preset.startswith("csv:"):
        path = preset[4:]
        xs, y0s, y1s = degeneracy.read_csv_columns(path, 3)
        if not xs.size:
            raise ConfigError(f"{path}: no data rows; need columns x, y0, y1")
        if np.any(np.diff(xs) <= 0):
            raise ConfigError(f"{path}: x must be strictly ascending")
        tol = degeneracy.ADMISSIBILITY_TOL
        if abs(xs[0]) > tol or abs(xs[-1] - 1.0) > tol:
            raise ConfigError(f"{path}: x must run from 0 to 1, got {xs[0]:g} to {xs[-1]:g}")
        x = generator.grid.nodes
        y0 = amplitude * np.interp(x, xs, y0s)
        y1 = amplitude * np.interp(x, xs, y1s)
    elif preset == "eigenmode":
        mode = _get_int(cfg, "initial", "mode", default=0)
        y0, y1 = evolution.eigenmode_state(generator, mode, amplitude=amplitude)
    elif preset == "polynomial":
        y0, y1 = evolution.polynomial_state(generator, amplitude=amplitude)
    else:
        raise ConfigError(f"unknown initial preset {preset!r}")

    raw_hist = section.get("history", "zero").strip().lower()
    if raw_hist == "zero":
        history = None
    elif raw_hist.startswith("constant:"):
        history = float(raw_hist.split(":", 1)[1])
    else:
        raise ConfigError(f"unknown history preset {raw_hist!r}")
    return y0, y1, history


def build_scenario(cfg) -> evolution.Scenario:
    try:
        grid = Grid.uniform(_get_int(cfg, "operator", "n"))
        spec = build_coefficient(cfg)
        profile = degeneracy.classify(spec, grid)
        kind = operators.OperatorKind(_require(cfg, "operator", "kind").strip().lower())
        bc = operators.BoundaryParams(beta=_get_float(cfg, "operator", "beta", default=0.0),
                                      gamma=_get_float(cfg, "operator", "gamma", default=0.0))
        generator = operators.assemble(kind, profile, bc, grid)
        kernel, subdomain = build_kernel(cfg)
        source = build_source(cfg)
        y0, y1, history = build_initial(cfg, generator)
        return evolution.Scenario(
            generator=generator, source=source, y0=y0, y1=y1,
            t_end=_get_float(cfg, "run", "t_end"), dt=_get_float(cfg, "run", "dt"),
            kernel=kernel, subdomain=subdomain, history=history)
    except (ValueError, OSError, DegenwaveError) as exc:
        raise ConfigError(str(exc)) from exc


def _energy_report_lines(trajectory, fit=None):
    total = trajectory.energies.total
    lines = [
        f"steps: {len(trajectory.times) - 1}",
        f"t_end: {trajectory.times[-1]:.12g}",
        f"blew_up: {'yes' if trajectory.blew_up else 'no'}",
        f"E_initial: {total[0]:.12g}",
        f"E_final: {total[-1]:.12g}",
        f"state_norm_initial: {trajectory.state_norms[0]:.12g}",
        f"state_norm_final: {trajectory.state_norms[-1]:.12g}",
    ]
    if fit is not None:
        lines.append(f"fitted_rate: {fit.rate:.12g}")
        lines.append(f"fit_r_squared: {fit.r_squared:.12g}")
    return lines


def run_simulate(cfg, out_dir: Path, quiet: bool, dump_operators: bool = False) -> int:
    scenario = build_scenario(cfg)
    trajectory = evolution.simulate(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trajectory.csv"
    trajectory.to_csv(csv_path)
    fit = None
    lines_extra = []
    if not trajectory.blew_up:
        try:
            fit = diagnostics.decay_fit(trajectory)
        except DegenwaveError:
            fit = None
        if scenario.kernel is not None:
            b = delay.subdomain_gain(scenario.subdomain, scenario.generator)
            bound = diagnostics.energy_bound_check(trajectory, scenario.kernel, b,
                                                   raise_on_violation=False)
            bound.to_csv(out_dir / "margins.csv")
            lines_extra.append(f"bound_max_ratio: {bound.max_ratio:.12g}")
            lines_extra.append(f"bound_excluded_steps: {bound.n_excluded}")
    report = out_dir / "energy_report.txt"
    report.write_text("\n".join(_energy_report_lines(trajectory, fit) + lines_extra)
                      + "\n")
    if dump_operators:
        scenario.generator.dump_system(out_dir / "system_matrix.mtx")
    if not quiet:
        print(f"wrote {csv_path}")
        print(f"wrote {report}")
    if trajectory.blew_up:
        if not quiet:
            print("blow-up detected", file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK


def run_certify(cfg, out_dir: Path, quiet: bool) -> int:
    scenario = build_scenario(cfg)
    if (not scenario.source.is_none
            and scenario.generator.kind is not operators.OperatorKind.BEAM_NONDIV):
        raise ConfigError("explicit source constants are derived for beam_nondiv only; "
                          "use source kind 'none' for other operator kinds")
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "certificate.txt"
    try:
        result = evolution.certify_scenario(scenario)
    except (InfeasibleError, NotExponentiallyStableError) as exc:
        report.write_text(f"feasible: no\nreason: {exc}\n")
        if not quiet:
            print(f"wrote {report}")
            print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    lines = result.report_lines()
    level = evolution.smallness_level(scenario)
    lines.append(f"smallness: {level:.12g}")
    small_enough = level < result.threshold.rho ** 2
    lines.append(f"small_enough: {'yes' if small_enough else 'no'}")
    report.write_text("\n".join(lines) + "\n")
    if not quiet:
        print(f"wrote {report}")
    return EXIT_OK


def _set_config_value(cfg, dotted: str, value: str) -> None:
    try:
        section, key = dotted.split(".")
    except ValueError as exc:
        raise ConfigError(f"sweep parameter {dotted!r} must be section.key") from exc
    if section not in cfg:
        raise ConfigError(f"sweep parameter section [{section}] not in config")
    cfg[section][key] = value


def run_sweep(cfg, out_dir: Path, quiet: bool) -> int:
    if "sweep" not in cfg:
        raise ConfigError("sweep command needs a [sweep] section")
    parameter = _require(cfg, "sweep", "parameter")
    values = [v.strip() for v in _require(cfg, "sweep", "values").split(",")]
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    # semigroup constants per generator: `assemble` reads only the
    # [coefficient] and [operator] sections, so their contents are the key
    semigroups = {}
    for value in values:
        sub_cfg = copy.deepcopy(cfg)
        _set_config_value(sub_cfg, parameter, value)
        scenario = build_scenario(sub_cfg)
        generator_key = tuple(tuple(sub_cfg.items(section, raw=True))
                              for section in ("coefficient", "operator"))
        trajectory = evolution.simulate(scenario)
        fitted = ""
        r2 = ""
        if not trajectory.blew_up:
            try:
                fit = diagnostics.decay_fit(trajectory)
                fitted = f"{fit.rate:.12g}"
                r2 = f"{fit.r_squared:.12g}"
            except DegenwaveError:
                pass
        feasible = "no"
        predicted = ""
        try:
            if (scenario.source.is_none
                    or scenario.generator.kind is operators.OperatorKind.BEAM_NONDIV):
                if generator_key not in semigroups:
                    semigroups[generator_key] = evolution.semigroup_constants(
                        scenario.generator)
                result = evolution.certify_scenario(scenario, semigroups[generator_key])
                feasible = "yes"
                predicted = f"{result.threshold.predicted_rate:.12g}"
        except (InfeasibleError, NotExponentiallyStableError):
            feasible = "no"
        margin = ""
        if not trajectory.blew_up and scenario.kernel is not None:
            b = delay.subdomain_gain(scenario.subdomain, scenario.generator)
            try:
                rep = diagnostics.energy_bound_check(trajectory, scenario.kernel, b)
                margin = f"{rep.max_ratio:.12g}"
            except DegenwaveError:
                margin = "violated"
        rows.append((value, feasible, predicted, fitted, r2, margin,
                     "yes" if trajectory.blew_up else "no"))
    summary = out_dir / "summary.csv"
    with open(summary, "w", newline="") as fh:
        fh.write("value,feasible,predicted_rate,fitted_rate,r_squared,"
                 "bound_margin,blew_up\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    if not quiet:
        print(f"wrote {summary}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="degenwave",
        description="Simulate and certify degenerate beam/wave equations "
                    "with delayed damping")
    parser.add_argument("--config", required=True, help="INI scenario config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--command", choices=("simulate", "certify", "sweep"),
                        default="simulate")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--dump-operators", action="store_true",
                        help="also write the system matrix in matrix-market form")
    args = parser.parse_args(argv)

    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not cfg.read(args.config):
            raise ConfigError(f"cannot read config {args.config!r}")
    except (configparser.Error, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    try:
        if args.command == "simulate":
            return run_simulate(cfg, out_dir, args.quiet, args.dump_operators)
        if args.command == "certify":
            return run_certify(cfg, out_dir, args.quiet)
        return run_sweep(cfg, out_dir, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
