"""Scenario-driven command line: simulate, certify, and sweep from INI configs.

Exit codes: 0 success, 2 infeasible certificate, 3 error, 4 blow-up during
simulate.  An exit 3 prints "config error: ..." when the config is invalid,
or does not build a scenario, and "error: ..." for any other package error
raised by a valid config.  Outputs are deterministic: identical configs give
bit-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

import numpy as np

from . import degeneracy, delay, diagnostics, evolution, nonlinearity, operators
from .errors import DegenerateFitError, DegenwaveError, InfeasibleError, NotExponentiallyStableError
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


def _finite_float(raw: str, where: str) -> float:
    """`raw` as a finite float; ConfigError naming `where` otherwise."""
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where} = {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where} = {raw!r} is not a finite number")
    return value


def _get_float(cfg, section, key, default=None):
    if default is not None and not cfg.has_option(section, key):
        return default
    return _finite_float(_require(cfg, section, key), f"[{section}] {key}")


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
    preset = cfg.get("initial", "preset", fallback="polynomial").strip()
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
        y0, y1 = (amplitude * np.interp(generator.grid.nodes, xs, ys) for ys in (y0s, y1s))
    elif preset == "eigenmode":
        mode = _get_int(cfg, "initial", "mode", default=0)
        y0, y1 = evolution.eigenmode_state(generator, mode, amplitude=amplitude)
    elif preset == "polynomial":
        y0, y1 = evolution.polynomial_state(generator, amplitude=amplitude)
    else:
        raise ConfigError(f"unknown initial preset {preset!r}")

    raw_hist = cfg.get("initial", "history", fallback="zero").strip().lower()
    if raw_hist == "zero":
        return y0, y1, None
    if raw_hist.startswith("constant:"):
        return y0, y1, _finite_float(raw_hist.removeprefix("constant:"),
                                     "[initial] history constant")
    raise ConfigError(f"unknown history preset {raw_hist!r}")


def build_scenario(cfg, shared=None) -> evolution.Scenario:
    try:
        # a sweep passes its memo `shared`; without one no key is made
        key = shared is not None and tuple(tuple(cfg.items(s, raw=True)) if s in cfg else None
                                           for s in ("coefficient", "operator", "initial"))
        entry = shared.setdefault(key[:2], {}) if key else {}
        if "generator" not in entry:
            grid = Grid.uniform(_get_int(cfg, "operator", "n"))
            profile = degeneracy.classify(build_coefficient(cfg), grid)
            kind = operators.OperatorKind(_require(cfg, "operator", "kind").strip().lower())
            bc = operators.BoundaryParams(beta=_get_float(cfg, "operator", "beta", default=0.0),
                                          gamma=_get_float(cfg, "operator", "gamma", default=0.0))
            entry["generator"] = operators.assemble(kind, profile, bc)
        generator = entry["generator"]
        kernel, subdomain = build_kernel(cfg)
        source = build_source(cfg)
        if key not in entry:
            entry[key] = build_initial(cfg, generator)
            for y in entry[key][:2]:
                y.setflags(write=False)
        y0, y1, history = entry[key]
        return evolution.Scenario(
            generator=generator, source=source, y0=y0, y1=y1,
            t_end=_get_float(cfg, "run", "t_end"), dt=_get_float(cfg, "run", "dt"),
            kernel=kernel, subdomain=subdomain, history=history)
    except (ValueError, OSError, DegenwaveError) as exc:
        raise ConfigError(str(exc)) from exc


def _energy_report_lines(trajectory, fit):
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
        lines += [f"fitted_rate: {fit.rate:.12g}", f"fit_r_squared: {fit.r_squared:.12g}"]
    return lines


def _diagnose(trajectory):
    """(decay fit, growth-bound report) of a run: no fit of a norm too small to
    fit, no report without a delay, and neither after a blow-up."""
    if trajectory.blew_up:
        return None, None
    try:
        fit = diagnostics.decay_fit(trajectory)
    except DegenerateFitError:
        fit = None
    delayed = trajectory.scenario.kernel is not None
    return fit, diagnostics.energy_bound_check(trajectory) if delayed else None


def run_simulate(cfg, out_dir: Path, quiet: bool, dump_operators: bool = False) -> int:
    scenario = build_scenario(cfg)
    trajectory = evolution.simulate(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trajectory.csv"
    trajectory.to_csv(csv_path)
    fit, bound = _diagnose(trajectory)
    lines = _energy_report_lines(trajectory, fit)
    if bound is not None:
        bound.to_csv(out_dir / "margins.csv")
        lines += [f"bound_max_ratio: {bound.max_ratio:.12g}",
                  f"bound_excluded_steps: {bound.n_excluded}"]
    report = out_dir / "energy_report.txt"
    report.write_text("\n".join(lines) + "\n")
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
    infeasible = None
    try:
        result = evolution.certify_scenario(scenario)
    except (InfeasibleError, NotExponentiallyStableError) as exc:
        if not scenario.certifiable:  # a config error: no certificate is written
            raise ConfigError(str(exc)) from exc
        infeasible = exc
        lines = ["feasible: no", f"reason: {exc}"]
    else:
        level = evolution.smallness_level(scenario)
        lines = result.report_lines() + [
            f"smallness: {level:.12g}",
            f"small_enough: {'yes' if level < result.threshold.rho ** 2 else 'no'}"]
    out_dir.mkdir(parents=True, exist_ok=True)   # only once there is a certificate
    report = out_dir / "certificate.txt"
    report.write_text("\n".join(lines) + "\n")
    if not quiet:
        print(f"wrote {report}")
        if infeasible is not None:
            print(f"infeasible: {infeasible}", file=sys.stderr)
    return EXIT_OK if infeasible is None else EXIT_INFEASIBLE


def _set_config_value(cfg, dotted: str, value: str) -> None:
    """Set the literal `value`, escaping '%' from the config's interpolation."""
    try:
        section, key = dotted.split(".")
    except ValueError as exc:
        raise ConfigError(f"sweep parameter {dotted!r} must be section.key") from exc
    if section not in cfg:
        raise ConfigError(f"sweep parameter section [{section}] not in config")
    if key not in cfg[section]:
        raise ConfigError(f"sweep parameter key {key!r} not in [{section}]")
    cfg[section][key] = value.replace("%", "%%")


def _run_columns(trajectory) -> tuple:
    """The (fitted_rate, r_squared, bound_margin, blew_up) cells of a sweep row."""
    fit, bound = _diagnose(trajectory)
    fitted = r2 = margin = ""
    if fit is not None:
        fitted, r2 = f"{fit.rate:.12g}", f"{fit.r_squared:.12g}"
    if bound is not None:
        margin = f"{bound.max_ratio:.12g}" if bound.holds else "violated"
    return fitted, r2, margin, "yes" if trajectory.blew_up else "no"


def run_sweep(cfg, out_dir: Path, quiet: bool) -> int:
    """A summary row per value, set in turn on `cfg`.  A memo entry per raw
    [coefficient] and [operator] items holds the generator and, per raw
    [initial] items, the read-only initial data; `semigroups` holds each
    generator's semigroup constants and C_HP.

    Every value's scenario is built first.  Consecutive scenarios that share
    a step (`evolution.batches`) are streamed as one batch by
    `evolution.simulate_runs`, and each run's fit and margin are taken before
    the next batch; the certificates follow.
    Each row is the one its value gets alone, written in value order."""
    if "sweep" not in cfg:
        raise ConfigError("sweep command needs a [sweep] section")
    parameter = _require(cfg, "sweep", "parameter")
    values = [v.strip() for v in _require(cfg, "sweep", "values").split(",")]
    shared, semigroups, scenarios = {}, {}, []
    for value in values:
        _set_config_value(cfg, parameter, value)
        scenarios.append(build_scenario(cfg, shared))
    run_columns = []
    for batch in evolution.batches(scenarios):
        run_columns += [_run_columns(t) for t in evolution.simulate_runs(batch)]
    rows = []
    for value, scenario, columns in zip(values, scenarios, run_columns):
        feasible, predicted = "no", ""
        try:
            if scenario.certifiable:
                gen = scenario.generator
                if gen not in semigroups:
                    semigroups[gen] = (evolution.semigroup_constants(gen),
                                       nonlinearity.hardy_poincare_constant(gen.profile))
                semigroup, c_hp = semigroups[gen]
                result = evolution.certify_scenario(scenario, semigroup, c_hp)
                feasible, predicted = "yes", f"{result.threshold.predicted_rate:.12g}"
        except (InfeasibleError, NotExponentiallyStableError):
            pass
        rows.append((value, feasible, predicted) + columns)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = out_dir / "summary.csv"
    with open(summary, "w", newline="") as fh:
        fh.write("value,feasible,predicted_rate,fitted_rate,r_squared,"
                 "bound_margin,blew_up\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
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
    out_dir = Path(args.out)
    try:
        if not cfg.read(args.config):
            raise ConfigError(f"cannot read config {args.config!r}")
        if args.command == "simulate":
            return run_simulate(cfg, out_dir, args.quiet, args.dump_operators)
        if args.command == "certify":
            return run_certify(cfg, out_dir, args.quiet)
        return run_sweep(cfg, out_dir, args.quiet)
    except (configparser.Error, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
