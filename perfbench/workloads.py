"""The four benchmark workloads.

``build(name, seed, scratch)`` makes every input of a workload from the
seed (this is the set-up that ``setup_s`` times) and returns its ops: the
public calls one pass of the workload makes, each a ``(label, call)``
pair.  A call returns the list of its failed correctness gates, empty when
the output is right.  Gates use tolerances and invariants, never
last-digit golden output, so a change that only moves rounding passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np
import yaml

import orlicz_lab as ol
from orlicz_lab import cli

from suites import SUITES, build_context

WORKLOADS = ("eigensolve", "critical-probe", "region-scan", "norm-suites")

# --------------------------------------------------------------------------
# eigensolve
#
# Chosen because factorization, stiffness assembly and level-set projection
# do most of the work here.  The p=3 box pair at n=33 and n=49 is the
# stalling secant ladder (594 and 109 iterations, not monotone in n); the
# non-power box pair makes a closed form that only covers Power show up as
# a partial gain; the 1D pairs are the cheap well-conditioned end; the
# p=2 minimax ladder is projection-bound (deflation multi-starts).  The
# instances are fixed, not seeded: the lambda gate compares with values
# recorded at the commit that defined this benchmark, and the ladder's
# cost swings by 3x with its start seed.

ALPHA = 1.0
# (label, phi, psi, shape, n, tol, lambda recorded at the defining commit)
EIG_INSTANCES = (
    ("box-p3-n33", ("power", 3.0), ("power", 2.0), "box", 33, 1e-8,
     133.06252117847384),
    ("box-p3-n49", ("power", 3.0), ("power", 2.0), "box", 49, 1e-8,
     133.10499239904146),
    ("box-powersum-n65", ("power-sum", 2.0, 4.0), ("power-sum", 1.5, 2.5),
     "box", 65, 1e-8, 215.6945144095233),
    ("interval-p3-n512", ("power", 3.0), ("power", 3.0), "interval", 512,
     1e-9, 28.288611366542042),
    ("interval-plasticity-n512", ("plasticity", 2.0, 1.0),
     ("power-sum", 2.0, 3.0), "interval", 512, 1e-9, 16.89023639434792),
)
LADDER_N = 21
LADDER_K = 3
LADDER_RTOL = (1e-6, 1e-4)  # rungs 1 and 2 against the 5-point closed form


def _young(spec):
    kind, *params = spec
    return {"power": ol.Power, "power-sum": ol.PowerSum,
            "plasticity": ol.Plasticity}[kind](*params)


def _unit_setup(phi, psi, shape, n):
    dom = ol.GridDomain(shape, (0.0, 1.0), n)
    return ol.EnergySetup(phi, psi, ol.WeightField.constant(dom),
                          ol.WeightField.constant(dom), dom)


def _pair_gates(label, setup, pair, tol, alpha=None):
    fails = []
    if not pair.residual <= tol * (1.0 + pair.level):
        fails.append(f"{label}: residual {pair.residual:.3e} above "
                     f"tol*(1+I) = {tol * (1.0 + pair.level):.3e}")
    if alpha is not None:
        j = ol.energy_J(setup, pair.u)
        if not abs(j - alpha) <= 1e-10 * alpha:
            fails.append(f"{label}: J(u) = {j!r} is off the level {alpha}")
    return fails


def _solve_op(label, setup, tol, lam_ref):
    opts = ol.SolverOptions(tol=tol)

    def call():
        pair = ol.minimize_on_level(setup, ALPHA, opts=opts)
        fails = _pair_gates(label, setup, pair, tol, ALPHA)
        if not abs(pair.lam - lam_ref) <= 1e-6 * lam_ref:
            fails.append(f"{label}: lambda {pair.lam!r} differs from the "
                         f"recorded {lam_ref!r}")
        return fails
    return label, call


def _box_eigenvalue(n, j, k):
    """5-point Dirichlet eigenvalue (j, k) on the unit box with n nodes."""
    h = 1.0 / (n - 1)
    return 4.0 / h ** 2 * (math.sin(j * math.pi * h / 2) ** 2
                           + math.sin(k * math.pi * h / 2) ** 2)


def _ladder_op(setup):
    label = f"ladder-box-p2-n{LADDER_N}-k{LADDER_K}"
    want = (_box_eigenvalue(LADDER_N, 1, 1), _box_eigenvalue(LADDER_N, 1, 2))
    opts = ol.SolverOptions()

    def call():
        levels = ol.ls_sequence(setup, ALPHA, LADDER_K, opts=opts)
        fails = []
        if [lv.k for lv in levels] != list(range(1, LADDER_K + 1)):
            fails.append(f"{label}: rungs {[lv.k for lv in levels]}")
        for lv in levels:
            fails += _pair_gates(f"{label} rung {lv.k}", setup, lv.pair,
                                 opts.tol)
        for lv, ref, rtol in zip(levels, want, LADDER_RTOL):
            if not abs(lv.pair.lam - ref) <= rtol * ref:
                fails.append(f"{label} rung {lv.k}: lambda {lv.pair.lam!r} "
                             f"vs closed form {ref!r}")
        return fails
    return label, call


def _build_eigensolve(seed, scratch):
    ops = [_solve_op(label, _unit_setup(_young(phi), _young(psi), shape, n),
                     tol, lam)
           for label, phi, psi, shape, n, tol, lam in EIG_INSTANCES]
    ops.append(_ladder_op(_unit_setup(ol.Power(2.0), ol.Power(2.0), "box",
                                      LADDER_N)))
    return ops


# --------------------------------------------------------------------------
# critical-probe
#
# Chosen because it is the unconstrained free-energy loop: factorizations
# and energy evaluations with no level-set projection at all.  The starts
# are the documented probe seed 0 (its second start is the slow one); the
# run seed perturbs both weights by at most 1%.  Iteration counts of the
# stalled descents swing by 100x between start seeds, so seeding the starts
# would make wall_s depend on the seed more than on the code, while the 1%
# weight change moves the factorization count by 2% (778-793, seeds 0-7).

PROBE_N = 41
PROBE_LAMBDA = 1.5
PROBE_STARTS = 2
PROBE_START_SEED = 0
WEIGHT_WOBBLE = 0.01


def _smooth_weight(rng, dom):
    """1 + WEIGHT_WOBBLE * a random smooth field with values in [0, 1]."""
    x, y = dom.nodes[..., 0], dom.nodes[..., 1]
    a, b = rng.uniform(1.0, 3.0, size=2)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return 1.0 + WEIGHT_WOBBLE * 0.5 * (1.0 + np.sin(a * x + b * y + phase))


def _build_critical_probe(seed, scratch):
    rng = np.random.default_rng(seed)
    dom = ol.GridDomain("disc", (1.0,), PROBE_N)
    setup = ol.EnergySetup(ol.Power(3.0), ol.Power(2.0),
                           ol.WeightField(dom, _smooth_weight(rng, dom)),
                           ol.WeightField(dom, _smooth_weight(rng, dom)), dom)
    label = f"probe-disc-n{PROBE_N}"

    def call():
        found = ol.count_critical_points(setup, PROBE_LAMBDA, PROBE_STARTS,
                                         seed=PROBE_START_SEED)
        return [] if found >= 2 else [f"{label}: {found} cluster(s), "
                                      "expected at least 2"]
    return [(label, call)]


# --------------------------------------------------------------------------
# region-scan
#
# Chosen because it is the only workload that runs the cli layer and the
# batched shell-supremum bisection; it makes almost no factorizations.
# Three `region` runs on generated configs with consecutive seeds; seed 0
# starts at config seed 1, the seed of the demo region config.

REGION_CONFIGS = 3
REGION_N = 81
REGION_D = (0.1, 0.15, 0.2)
REGION_R_COUNT = 6
REGION_SAMPLES = 48


def _region_config(cfg_seed):
    rng = np.random.default_rng(cfg_seed)
    r_values = sorted(round(float(r), 6)
                      for r in rng.uniform(0.02, 0.03, REGION_R_COUNT))
    return {"phi": {"kind": "power", "p": 3},
            "psi": {"kind": "power", "p": 2},
            "domain": {"shape": "disc", "n": REGION_N, "extent": [1.0]},
            "seed": cfg_seed,
            "region": {"d_values": list(REGION_D), "r_values": r_values,
                       "samples": REGION_SAMPLES}}


def _region_row_gates(label, text):
    """Each row's admissible flag equals its two clauses recomputed."""
    rows = list(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))
    fails = [] if len(rows) == len(REGION_D) * REGION_R_COUNT else \
        [f"{label}: {len(rows)} rows"]
    for row in rows:
        r, cap = float(row["r"]), float(row["r_cap"])
        w_t, g_d = float(row["w_tilde_r"]), float(row["gamma_d"])
        if int(row["admissible"]) != int(r < cap and w_t < g_d):
            fails.append(f"{label}: admissible flag of d={row['d']} "
                         f"r={row['r']} disagrees with its clauses")
    return fails


def _region_op(index, cfg_seed, scratch):
    label = f"region-config-{index}-seed{cfg_seed}"
    config = os.path.join(scratch, f"{label}.yaml")
    with open(config, "w") as fh:
        yaml.safe_dump(_region_config(cfg_seed), fh)
    out_dir = os.path.join(scratch, label)
    first_csv = []

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["region", "--config", config, "--out", out_dir])
        if code != 0:
            return [f"{label}: exit code {code}"]
        with open(os.path.join(out_dir, "region.csv"), "rb") as fh:
            data = fh.read()
        fails = _region_row_gates(label, data.decode())
        if not first_csv:
            first_csv.append(data)
        elif data != first_csv[0]:
            fails.append(f"{label}: CSV differs from the first run of the "
                         "same config")
        return fails
    return label, call


def _build_region_scan(seed, scratch):
    return [_region_op(i, seed + 1 + i, scratch)
            for i in range(REGION_CONFIGS)]


# --------------------------------------------------------------------------
# norm-suites
#
# Chosen because it is pure young/norms/util work on 1D rows: conjugate
# tables and batched Luxemburg bisection, with no solves at all, so every
# solver change should leave it unchanged.

SUITE_TRIALS = 4000


def _suite_op(name, run):
    def call():
        bad = run()
        return [] if bad == 0 else [f"{name}: {bad} violation(s)"]
    return name, call


def _build_norm_suites(seed, scratch):
    rng = np.random.default_rng(seed)
    ctx = build_context(rng)
    return [_suite_op(name, prepare(rng, SUITE_TRIALS, ctx))
            for name, prepare in SUITES]


_BUILDERS = {
    "eigensolve": _build_eigensolve,
    "critical-probe": _build_critical_probe,
    "region-scan": _build_region_scan,
    "norm-suites": _build_norm_suites,
}


def build(name: str, seed: int, scratch: str) -> list:
    """All inputs of workload ``name``; returns its ops for one pass."""
    return _BUILDERS[name](seed, scratch)
