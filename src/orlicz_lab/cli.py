"""Batch front end for catalog inspection, Young-function checks, norm and
conjugate evaluation, eigen-solving, region analysis, and spectrum sweeps.

Every run is driven by one declarative YAML config plus the subcommand
name; outputs are CSV files with a versioned header comment and a JSON
summary, written under the output directory.  Identical config and seed
give byte-identical CSV.  The exit status is nonzero whenever a
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

import numpy as np
import yaml

from . import __version__
from .errors import (ConfigError, DomainError, NonConvergenceError,
                     OrliczLabError)
from .eigensolver import SolverOptions, minimize_on_level, spectrum_sweep
from .functionals import EnergySetup
from .norms import (GridDomain, GridFunction, WeightField, domain_from_config,
                    gradient_norm, load_values_csv, luxemburg_norm,
                    sobolev_norm)
from .region import REPORT_COLUMNS, format_report, grid_search, report_row
from .util import (BOOL, PATH, POSITIVE, REAL, REALS, SECTION,
                   ConfigKind, config_values, count)
from .young import (catalog, check_delta2, dominates_essentially,
                    from_config, simonenko_indices, sqrt_convexity_holds)

# config tables, read by util.config_values: key -> (kind, default)

# node values: a constant or a CSV file
_NODAL = {"constant": REAL, "csv": PATH}
# a null c1 asks for the computed Poincare constant
_C1 = ConfigKind("a positive finite number or null",
                 lambda v: None if v is None else POSITIVE.convert(v))
# the top level; main adds the command's section and requires the
# sections the command needs.  ``out`` is accepted and unused: the --out
# flag sets the output directory
_TOP = {
    "phi": (SECTION, None),
    "psi": (SECTION, None),
    "domain": (SECTION, None),
    "weight": (_NODAL, ("constant", 1.0)),
    "weight1": (_NODAL, ("constant", 1.0)),
    "seed": (count(0), 0),
    "solver": (SECTION, {}),
    "out": (PATH, None),
}
# main sets the seed's default to the top-level seed
_SOLVER = {
    "tol": (POSITIVE, 1e-8),
    "max_iter": (count(0), 100_000),
    "onesigned": (BOOL, True),
    "seed": (count(0), None),
    "starts": (count(0), 8),
}
# per command: the top-level sections it needs, and the table of its own
# section
_SETUP = ("phi", "psi", "domain")
_SECTIONS = {
    "catalog": ((), {}),
    "check-young": (("phi",), {}),
    "conjugate": (("phi",), {"s_min": (POSITIVE, 1e-2),
                             "s_max": (POSITIVE, 1e2),
                             "points": (count(2), 41)}),
    "norm": (("phi", "domain"), {"u": (_NODAL, ...)}),
    "eig": (_SETUP, {"alpha": (POSITIVE, 1.0)}),
    "region": (_SETUP, {"d_values": (REALS, ...), "r_values": (REALS, ...),
                        "samples": (count(1), 48), "starts": (count(0), 0),
                        "c1": (_C1, None)}),
    "spectrum": (_SETUP, {"alphas": (REALS, None),
                          "alpha_min": (POSITIVE, None),
                          "alpha_max": (POSITIVE, None),
                          "points": (count(1), 10)}),
}


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


def _nodal_values(dom: GridDomain, spec, name: str) -> np.ndarray:
    """Node values of a ``(constant, x)`` or ``(csv, path)`` spec."""
    key, val = spec
    if key == "constant":
        return np.full(dom.node_shape, val)
    try:
        return load_values_csv(dom, val)
    except DomainError as exc:
        raise ConfigError(f"{name} csv: {exc}") from None


def _build_setup(cfg: dict) -> EnergySetup:
    dom = domain_from_config(cfg["domain"])
    w, w1 = (WeightField(dom, _nodal_values(dom, cfg[key], key))
             for key in ("weight", "weight1"))
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

def cmd_catalog(cfg: dict, body: dict, out_dir: str, seed: int) -> int:
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


def _involution_errors(phi, ss) -> np.ndarray:
    """``|Phi~~ - Phi| / (1 + Phi)`` of the double conjugate at ``ss``."""
    back = np.asarray(phi.conjugate().conjugate().value(ss), dtype=float)
    ref = np.asarray(phi.value(ss), dtype=float)
    return np.abs(back - ref) / (1.0 + ref)


def cmd_check_young(cfg: dict, body: dict, out_dir: str, seed: int) -> int:
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
    # a tabulated phi ends at its last knot
    ss = np.geomspace(1e-2, min(1e2, 0.999 * phi.horizon), 61)
    inv_err = float(np.max(_involution_errors(phi, ss)))
    rows.append(["phi_conjugate_involution", int(inv_err <= 1e-5),
                 f"max rel err {inv_err:.3e}"])
    if cfg["psi"] is not None:
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
    phi = from_config(cfg["phi"])
    s_min, s_max, points = body["s_min"], body["s_max"], body["points"]
    if not s_min < s_max:
        raise ConfigError("conjugate needs s_min < s_max")
    ss = np.geomspace(s_min, s_max, points)
    vals = np.asarray(phi.conjugate().value(ss), dtype=float)
    errs = _involution_errors(phi, ss)
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
    phi = from_config(cfg["phi"])
    dom = domain_from_config(cfg["domain"])
    w = WeightField(dom, _nodal_values(dom, cfg["weight"], "weight"))
    vals = _nodal_values(dom, body["u"], "norm u")
    u = GridFunction(dom, np.where(dom.mask, vals, 0.0), trace="free")
    rows = [["luxemburg_state", repr(luxemburg_norm(phi, w, u))],
            ["gradient", repr(gradient_norm(phi, w, u))]]
    if cfg["psi"] is not None:
        psi = from_config(cfg["psi"])
        w1 = WeightField(dom, _nodal_values(dom, cfg["weight1"], "weight1"))
        rows.append(["sobolev", repr(sobolev_norm(phi, psi, w, w1, u))])
    path = _write_csv(out_dir, "norm", ["quantity", "value"], rows)
    for name, value in rows:
        print(f"{name:16s} {value}")
    _write_summary(out_dir, "norm", seed,
                   {name: float(value) for name, value in rows}, [path])
    return 0


def cmd_eig(cfg: dict, body: dict, out_dir: str, seed: int) -> int:
    setup = _build_setup(cfg)
    pair = minimize_on_level(setup, body["alpha"], opts=cfg["solver"])
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


def _sweep_levels(body: dict, given) -> list:
    if body["alphas"] is not None:
        if given & {"alpha_min", "alpha_max", "points"}:
            raise ConfigError(
                "spectrum takes either 'alphas' or a range, not both")
        levels = body["alphas"]
    else:
        for key in ("alpha_min", "alpha_max"):
            if body[key] is None:
                raise ConfigError(f"spectrum range needs key {key!r}")
        lo, hi = body["alpha_min"], body["alpha_max"]
        if not lo <= hi:
            raise ConfigError("spectrum range needs alpha_min <= alpha_max")
        levels = [float(a) for a in np.geomspace(lo, hi, body["points"])]
    if not levels or any(a <= 0 for a in levels):
        raise ConfigError("spectrum levels must be positive")
    return sorted(set(levels))


def cmd_spectrum(cfg: dict, body: dict, out_dir: str, seed: int) -> int:
    setup = _build_setup(cfg)
    levels = _sweep_levels(body, set(cfg["spectrum"]))
    sweep = spectrum_sweep(setup, levels, cfg["solver"])
    failures = sweep.failures
    failed = {alpha for alpha, _ in failures}
    solved = [alpha for alpha in levels if alpha not in failed]
    rows = [[repr(alpha), repr(pair.lam), repr(pair.level),
             repr(pair.residual), pair.iterations]
            for alpha, pair in zip(solved, sweep.pairs)]
    path = _write_csv(out_dir, "spectrum",
                      ["alpha", "lambda", "level_I", "residual", "iterations"],
                      rows)
    lams = [pair.lam for pair in sweep.pairs]
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


def cmd_region(cfg: dict, body: dict, out_dir: str, seed: int,
               two_n: bool) -> int:
    setup = _build_setup(cfg)
    reports = grid_search(setup, body["d_values"], body["r_values"],
                          samples=body["samples"], seed=seed, c1=body["c1"],
                          two_n=two_n, probe_starts=body["starts"])
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

_COMMANDS = {"catalog": cmd_catalog, "check-young": cmd_check_young,
             "conjugate": cmd_conjugate, "norm": cmd_norm, "eig": cmd_eig,
             "spectrum": cmd_spectrum}


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="orlicz-lab",
        description="Weighted Orlicz-Sobolev eigenproblem toolbox")
    sub = top.add_subparsers(dest="command", required=True)
    for name in _SECTIONS:
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
        if args.config is None and command != "catalog":
            raise ConfigError(f"'{command}' needs --config")
        cfg = {} if args.config is None else load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        section = command.replace("-", "_")
        needs, table = _SECTIONS[command]
        cfg = config_values(cfg, dict(
            _TOP, **{key: (SECTION, ...) for key in needs},
            **{section: (SECTION, {})}))
        body = config_values(cfg[section], table, section)
        seed = cfg["seed"]
        solver = dict(_SOLVER, seed=(_SOLVER["seed"][0], seed))
        cfg["solver"] = SolverOptions(
            **config_values(cfg["solver"], solver, "solver"))
        os.makedirs(args.out, exist_ok=True)
        if command == "region":
            return cmd_region(cfg, body, args.out, seed, args.proof_variant)
        return _COMMANDS[command](cfg, body, args.out, seed)
    except NonConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OrliczLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
