"""Batch front end for catalog inspection, Young-function checks, norm and
conjugate evaluation, eigen-solving, region analysis, and spectrum sweeps.

Every run is driven by one declarative YAML config plus the subcommand
name; outputs are CSV files with a versioned header comment and a JSON
summary, written under the output directory.  Identical config and seed
give byte-identical CSV.  ``ORLICZ_LAB_THREADS`` caps sweep workers; each
sweep level is solved independently of the others, so the cap changes
timing only, never results.  The exit status is nonzero whenever a
delegated computation violates its contract (unparseable or unknown
config keys, failed validity conditions, residual above tolerance).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import yaml

from . import __version__
from .errors import (ConditionFailure, ConfigError, DomainError,
                     NonConvergenceError, OrliczLabError)
from .eigensolver import SolverOptions, minimize_on_level, residual
from .functionals import EnergySetup
from .norms import (GridDomain, GridFunction, WeightField, domain_from_config,
                    gradient_norm, luxemburg_norm, sobolev_norm)
from .region import REPORT_COLUMNS, format_report, grid_search, report_row
from .util import config_int, thread_count
from .young import (catalog, check_delta2, dominates_essentially,
                    from_config, simonenko_indices, sqrt_convexity_holds)

_COMMON_KEYS = {"phi", "psi", "domain", "weight", "weight1", "seed",
                "solver", "out"}
_COMMAND_KEYS = {
    "catalog": set(),
    "check-young": set(),
    "conjugate": {"s_min", "s_max", "points"},
    "norm": {"u"},
    "eig": {"alpha"},
    "region": {"d_values", "r_values", "samples", "starts", "c1"},
    "spectrum": {"alphas", "alpha_min", "alpha_max", "points"},
}
_SOLVER_KEYS = {"tol", "max_iter", "onesigned", "seed", "starts"}


# --------------------------------------------------------------------------
# config plumbing

def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _check_keys(cfg: dict, command: str):
    section = command.replace("-", "_")
    allowed = _COMMON_KEYS | {section}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {sorted(unknown)} for '{command}'")
    body = cfg.get(section, {})
    if not isinstance(body, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    bad = set(body) - _COMMAND_KEYS[command]
    if bad:
        raise ConfigError(
            f"unknown key(s) {sorted(bad)} in section '{section}'")
    solver = cfg.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("section 'solver' must be a mapping")
    bad = set(solver) - _SOLVER_KEYS
    if bad:
        raise ConfigError(f"unknown key(s) {sorted(bad)} in section 'solver'")
    return body


def _real(x) -> float:
    """float(x), or nan when x is not a number."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _number(value, what: str) -> float:
    """A config value that must be a finite number, as a float."""
    x = _real(value)
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return x


def _numbers(body: dict, key: str, section: str) -> list:
    """``body[key]`` as a list of finite floats."""
    raw = body[key]
    vals = [_real(x) for x in raw] if isinstance(raw, list) else [math.nan]
    if not all(math.isfinite(x) for x in vals):
        raise ConfigError(
            f"{section} {key!r} must be a list of finite numbers, got {raw!r}")
    return vals


def _weight_field(dom: GridDomain, cfg, name: str) -> WeightField:
    if cfg is None:
        return WeightField.constant(dom, 1.0)
    if not isinstance(cfg, dict) or len(cfg) != 1:
        raise ConfigError(
            f"'{name}' must be a one-key mapping (constant or csv)")
    (key, val), = cfg.items()
    if key == "constant":
        return WeightField.constant(dom, _number(val, f"{name} 'constant'"))
    if key == "csv":
        return WeightField.from_csv(dom, val)
    raise ConfigError(f"unknown key '{key}' in '{name}'")


def _solver_options(cfg: dict, seed: int) -> SolverOptions:
    body = cfg.get("solver", {})
    return SolverOptions(
        tol=_number(body.get("tol", 1e-8), "solver 'tol'"),
        max_iter=config_int(body.get("max_iter", 100_000),
                            "solver 'max_iter'"),
        onesigned=bool(body.get("onesigned", True)),
        seed=config_int(body.get("seed", seed), "solver 'seed'"),
        starts=config_int(body.get("starts", 8), "solver 'starts'"),
    )


def _build_setup(cfg: dict) -> EnergySetup:
    for key in ("phi", "psi", "domain"):
        if key not in cfg:
            raise ConfigError(f"config needs a '{key}' section")
    dom = domain_from_config(cfg["domain"])
    w = _weight_field(dom, cfg.get("weight"), "weight")
    w1 = _weight_field(dom, cfg.get("weight1"), "weight1")
    return EnergySetup(from_config(cfg["phi"]), from_config(cfg["psi"]),
                       w, w1, dom)


# --------------------------------------------------------------------------
# output plumbing

def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(out_dir, command: str, columns, rows) -> str:
    path = os.path.join(out_dir, f"{command}.csv")
    with open(path, "w", newline="") as fh:
        fh.write(f"# orlicz-lab v{__version__} {command}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path


def _write_summary(out_dir, command: str, seed: int, results: dict,
                   outputs: list) -> str:
    path = os.path.join(out_dir, "summary.json")
    payload = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "outputs": sorted(outputs),
        "results": results,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# --------------------------------------------------------------------------
# subcommands

def cmd_catalog(out_dir: str, seed: int) -> int:
    rows = []
    for kind, phi in catalog():
        l, m = simonenko_indices(phi)
        rep = check_delta2(phi)
        rows.append([kind, phi.label(), repr(l), repr(m),
                     int(rep.satisfied),
                     repr(rep.bound if rep.satisfied else rep.witness)])
    columns = ["kind", "label", "l", "m", "delta2", "bound_or_witness"]
    path = _write_csv(out_dir, "catalog", columns, rows)
    for row in rows:
        flag = "doubling" if row[4] else "not doubling"
        print(f"{row[0]:>10s}  {row[1]:28s} indices ({row[2]}, {row[3]})  "
              f"{flag}")
    n_ok = sum(r[4] for r in rows)
    _write_summary(out_dir, "catalog", seed,
                   {"entries": len(rows), "doubling": n_ok,
                    "violators": len(rows) - n_ok}, [path])
    return 0


def cmd_check_young(cfg: dict, out_dir: str, seed: int) -> int:
    if "phi" not in cfg:
        raise ConfigError("config needs a 'phi' section")
    phi = from_config(cfg["phi"])
    rows = []
    l, m = simonenko_indices(phi)
    rows.append(["phi_indices", 1, f"l={l!r} m={m!r}"])
    rows.append(["phi_growth_bounds", int(1.0 < l <= m < math.inf),
                 "1 < l <= m < inf"])
    rep = check_delta2(phi)
    rows.append(["phi_doubling", int(rep.satisfied), str(rep)])
    rows.append(["phi_sqrt_convexity", int(sqrt_convexity_holds(phi)),
                 "t -> phi(sqrt(t)) convex on samples"])
    conj = phi.conjugate()
    ss = np.geomspace(1e-2, 1e2, 61)
    back = np.asarray(conj.conjugate().value(ss), dtype=float)
    ref = np.asarray(phi.value(ss), dtype=float)
    inv_err = float(np.max(np.abs(back - ref) / (1.0 + ref)))
    rows.append(["phi_conjugate_involution", int(inv_err <= 1e-5),
                 f"max rel err {inv_err:.3e}"])
    if "psi" in cfg:
        psi = from_config(cfg["psi"])
        l1, m1 = simonenko_indices(psi)
        rows.append(["psi_indices", 1, f"l={l1!r} m={m1!r}"])
        rows.append(["psi_growth_bounds", int(1.0 < l1 <= m1 < math.inf),
                     "1 < l <= m < inf"])
        rows.append(["psi_grows_slower", int(dominates_essentially(psi, phi)),
                     "psi grows essentially slower than phi"])
    path = _write_csv(out_dir, "check-young", ["condition", "holds", "detail"],
                      rows)
    for name, holds, detail in rows:
        print(f"{name:26s} {'ok' if holds else 'NO':3s} {detail}")
    _write_summary(out_dir, "check-young", seed,
                   {"conditions": len(rows),
                    "holding": int(sum(r[1] for r in rows))}, [path])
    return 0


def cmd_conjugate(cfg: dict, body: dict, out_dir: str, seed: int) -> int:
    if "phi" not in cfg:
        raise ConfigError("config needs a 'phi' section")
    phi = from_config(cfg["phi"])
    s_min = _number(body.get("s_min", 1e-2), "conjugate 's_min'")
    s_max = _number(body.get("s_max", 1e2), "conjugate 's_max'")
    points = config_int(body.get("points", 41), "conjugate 'points'")
    if not (0 < s_min < s_max) or points < 2:
        raise ConfigError("conjugate needs 0 < s_min < s_max and points >= 2")
    conj = phi.conjugate()
    ss = np.geomspace(s_min, s_max, points)
    vals = np.asarray(conj.value(ss), dtype=float)
    back = np.asarray(conj.conjugate().value(ss), dtype=float)
    ref = np.asarray(phi.value(ss), dtype=float)
    errs = np.abs(back - ref) / (1.0 + ref)
    rows = [[repr(float(s)), repr(float(v)), repr(float(e))]
            for s, v, e in zip(ss, vals, errs)]
    path = _write_csv(out_dir, "conjugate",
                      ["s", "conjugate_value", "involution_rel_err"], rows)
    worst = float(np.max(errs))
    print(f"conjugate of {phi.label()} on [{s_min:g}, {s_max:g}], "
          f"{points} points; worst involution error {worst:.3e}")
    _write_summary(out_dir, "conjugate", seed,
                   {"points": points, "max_involution_rel_err": worst},
                   [path])
    return 0


def cmd_norm(cfg: dict, body: dict, out_dir: str, seed: int) -> int:
    for key in ("phi", "domain"):
        if key not in cfg:
            raise ConfigError(f"config needs a '{key}' section")
    phi = from_config(cfg["phi"])
    dom = domain_from_config(cfg["domain"])
    w = _weight_field(dom, cfg.get("weight"), "weight")
    spec = body.get("u")
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("norm needs u: {constant: value} or u: {csv: path}")
    (key, val), = spec.items()
    if key == "constant":
        vals = np.full(dom.node_shape, _number(val, "norm u 'constant'"))
    elif key == "csv":
        from .norms import load_values_csv
        vals = load_values_csv(dom, val)
    else:
        raise ConfigError(f"unknown key '{key}' in norm u spec")
    u = GridFunction(dom, np.where(dom.mask, vals, 0.0), trace="free")
    rows = [["luxemburg_state", repr(luxemburg_norm(phi, w, u))],
            ["gradient", repr(gradient_norm(phi, w, u))]]
    if "psi" in cfg:
        psi = from_config(cfg["psi"])
        w1 = _weight_field(dom, cfg.get("weight1"), "weight1")
        rows.append(["sobolev", repr(sobolev_norm(phi, psi, w, w1, u))])
    path = _write_csv(out_dir, "norm", ["quantity", "value"], rows)
    for name, value in rows:
        print(f"{name:16s} {value}")
    _write_summary(out_dir, "norm", seed,
                   {name: float(value) for name, value in rows}, [path])
    return 0


def cmd_eig(cfg: dict, body: dict, out_dir: str, seed: int) -> int:
    setup = _build_setup(cfg)
    opts = _solver_options(cfg, seed)
    alpha = _number(body.get("alpha", 1.0), "eig 'alpha'")
    pair = minimize_on_level(setup, alpha, opts=opts)
    rows = [[repr(pair.alpha), repr(pair.lam), repr(pair.level),
             repr(pair.residual), pair.iterations]]
    path = _write_csv(out_dir, "eig",
                      ["alpha", "lambda", "level_I", "residual", "iterations"],
                      rows)
    print(f"alpha={pair.alpha:g}: lambda = {pair.lam:.8g}  "
          f"I(u) = {pair.level:.8g}  residual {pair.residual:.3e}  "
          f"({pair.iterations} iterations)")
    _write_summary(out_dir, "eig", seed,
                   {"alpha": pair.alpha, "lambda": pair.lam,
                    "level_I": pair.level, "residual": pair.residual,
                    "iterations": pair.iterations}, [path])
    return 0


def _sweep_levels(body: dict) -> list:
    if "alphas" in body:
        levels = _numbers(body, "alphas", "spectrum")
        if "alpha_min" in body or "alpha_max" in body or "points" in body:
            raise ConfigError(
                "spectrum takes either 'alphas' or a range, not both")
    else:
        try:
            lo = _number(body["alpha_min"], "spectrum 'alpha_min'")
            hi = _number(body["alpha_max"], "spectrum 'alpha_max'")
            points = config_int(body.get("points", 10), "spectrum 'points'")
        except KeyError as exc:
            raise ConfigError(
                f"spectrum range needs key {exc.args[0]!r}") from None
        if not (0 < lo <= hi) or points < 1:
            raise ConfigError("spectrum range needs 0 < alpha_min <= "
                              "alpha_max and points >= 1")
        levels = [float(a) for a in np.geomspace(lo, hi, points)]
    if not levels or any(a <= 0 for a in levels):
        raise ConfigError("spectrum levels must be positive")
    return sorted(set(levels))


def cmd_spectrum(cfg: dict, body: dict, out_dir: str, seed: int) -> int:
    setup = _build_setup(cfg)
    opts = _solver_options(cfg, seed)
    levels = _sweep_levels(body)

    def solve(alpha):
        try:
            return alpha, minimize_on_level(setup, alpha, opts=opts), None
        except NonConvergenceError as exc:
            return alpha, None, str(exc)

    workers = min(thread_count(), len(levels))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(solve, levels))
    else:
        done = [solve(a) for a in levels]
    done.sort(key=lambda t: t[0])
    rows = []
    failures = []
    for alpha, pair, err in done:
        if pair is None:
            failures.append((alpha, err))
            continue
        rows.append([repr(alpha), repr(pair.lam), repr(pair.level),
                     repr(pair.residual), pair.iterations])
    path = _write_csv(out_dir, "spectrum",
                      ["alpha", "lambda", "level_I", "residual", "iterations"],
                      rows)
    lams = [float(r[1]) for r in rows]
    spread = ((max(lams) - min(lams)) / abs(max(lams))) if lams else None
    print(f"{len(rows)}/{len(levels)} levels solved; lambda spread "
          f"{spread if spread is None else format(spread, '.3e')}")
    for alpha, err in failures:
        print(f"  failed at alpha={alpha:g}: {err}")
    _write_summary(out_dir, "spectrum", seed,
                   {"levels": len(levels), "solved": len(rows),
                    "lambda_spread": spread,
                    "failures": [list(f) for f in failures]}, [path])
    return 3 if failures else 0


def _region_values(body: dict, key: str) -> list:
    if key not in body:
        raise ConfigError(f"region needs key {key!r}")
    return _numbers(body, key, "region")


def cmd_region(cfg: dict, body: dict, out_dir: str, seed: int,
               two_n: bool) -> int:
    d_values = _region_values(body, "d_values")
    r_values = _region_values(body, "r_values")
    samples = config_int(body.get("samples", 48), "region 'samples'")
    starts = config_int(body.get("starts", 0), "region 'starts'")
    raw_c1 = body.get("c1")
    c1 = None if raw_c1 is None else _real(raw_c1)
    if c1 is not None and not 0 < c1 < math.inf:
        raise ConfigError(
            f"region 'c1' must be a positive finite number, got {raw_c1!r}")
    setup = _build_setup(cfg)
    reports = grid_search(setup, d_values, r_values, samples=samples,
                          seed=seed, c1=c1, two_n=two_n, probe_starts=starts)
    rows = [report_row(rep) for rep in reports]
    path = _write_csv(out_dir, "region", REPORT_COLUMNS, rows)
    winners = [rep for rep in reports
               if rep.admissible
               and rep.lambda_interval[0] < rep.lambda_interval[1]]
    n_adm = sum(rep.admissible for rep in reports)
    print(f"{len(reports)} pairs evaluated; {n_adm} admissible, "
          f"{len(winners)} with a nonempty multiplier window"
          f"{' (2N constant)' if two_n else ''}")
    if winners:
        print(format_report(winners[0]))
    _write_summary(out_dir, "region", seed,
                   {"pairs": len(reports), "admissible": int(n_adm),
                    "nonempty_windows": len(winners),
                    "proof_variant": bool(two_n),
                    "best": (None if not winners
                             else {"d": winners[0].d, "r": winners[0].r,
                                   "lambda_lo": winners[0].lambda_interval[0],
                                   "lambda_hi": winners[0].lambda_interval[1]}
                             )}, [path])
    return 0


# --------------------------------------------------------------------------
# entry point

def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="orlicz-lab",
        description="Weighted Orlicz-Sobolev eigenproblem toolbox")
    sub = top.add_subparsers(dest="command", required=True)
    for name in ("catalog", "check-young", "conjugate", "norm", "eig",
                 "region", "spectrum"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="YAML run configuration")
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name == "region":
            p.add_argument("--proof-variant", action="store_true",
                           help="use the 2N constant in the r-condition")
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = args.command
    try:
        if command == "catalog":
            cfg = {} if args.config is None else load_config(args.config)
        else:
            if args.config is None:
                raise ConfigError(f"'{command}' needs --config")
            cfg = load_config(args.config)
        body = _check_keys(cfg, command)
        seed = config_int(cfg.get("seed", 0) if args.seed is None
                          else args.seed, "seed")
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        os.makedirs(args.out, exist_ok=True)
        if command == "catalog":
            return cmd_catalog(args.out, seed)
        if command == "check-young":
            return cmd_check_young(cfg, args.out, seed)
        if command == "conjugate":
            return cmd_conjugate(cfg, body, args.out, seed)
        if command == "norm":
            return cmd_norm(cfg, body, args.out, seed)
        if command == "eig":
            return cmd_eig(cfg, body, args.out, seed)
        if command == "spectrum":
            return cmd_spectrum(cfg, body, args.out, seed)
        return cmd_region(cfg, body, args.out, seed, args.proof_variant)
    except (ConfigError, DomainError, ConditionFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OrliczLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
