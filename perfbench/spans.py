"""Span tracer for the traced benchmark run.

Every layer is measured from outside: ``install`` replaces each public
function of the package modules with a timing wrapper in every module
namespace that binds it (the defining module, the modules that bind it
through ``from ... import``, and the ``orlicz_lab`` package), wraps the
``EnergySetup`` and ``ConjugateFunction`` constructors and conjugate
evaluations, and replaces ``scipy.sparse.linalg.splu`` with a version that
returns a proxy timing ``SuperLU.solve``.  Nothing in the package changes;
``uninstall`` puts every original back.

A span is (name, start, end, parent, op id).  Spans are kept in compact
arrays in memory and written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

LAYERS = ("young", "util", "norms", "functionals", "eigensolver", "region",
          "cli")
# span layers beyond the package modules: the sparse LU and the
# benchmark's own code around each call (the root span of an op)
ALL_LAYERS = LAYERS + ("sparse", "bench")

_PROJECTIONS = ("functionals.project_to_level",
                "functionals.scale_to_energy_level")
_ENERGIES = ("functionals.energy_I", "functionals.energy_J")
_GATEAUX = ("functionals.gateaux_I", "functionals.gateaux_J")

# counts that must repeat exactly between two traced passes on equal inputs
EXACT_COUNTS = ("eigensolver.iterations", "sparse.factor_calls",
                "functionals.project_evals", "util.bisect_evals",
                "norms.modular_calls")

_MISSING = object()


class Tracer:
    """Span store plus the per-pass counters that spans cannot carry."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list = []
        self.misnested = 0
        self.op_id = -1
        self.op_pass: dict = {}
        self.counts = defaultdict(int)
        self.pass_counts: dict = {}

    def begin_pass(self, index: int):
        self.counts = defaultdict(int)
        self.pass_counts[index] = self.counts

    def begin_op(self, op_id: int, pass_index: int):
        self.op_id = op_id
        self.op_pass[op_id] = pass_index

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        if not self._stack or self._stack.pop() != i:
            self.misnested += 1

    def inside(self, prefix: str) -> bool:
        """Whether an open span's name starts with ``prefix``."""
        return any(self.names[self.name[i]].startswith(prefix)
                   for i in self._stack)

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), op=np.asarray(self.op))


# --------------------------------------------------------------------------
# wrappers

def _traced(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(tracer, args, kwargs)
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(tracer, result)
        return result
    return wrapper


def _counting_map(tracer: Tracer, args, kwargs):
    """Count the evaluations of the monotone map handed to a bisection."""
    tracer.counts["util.bisect_calls"] += 1
    fn = args[0]

    def counted(x):
        tracer.counts["util.bisect_evals"] += 1
        return fn(x)
    return (counted,) + tuple(args[1:]), kwargs


def _luxemburg_rows(tracer: Tracer, args, kwargs):
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    tracer.counts["norms.luxemburg_rows"] += int(np.shape(rows)[0])
    return args, kwargs


def _projection(tracer: Tracer, args, kwargs):
    # the line-search trials of minimize_on_level: one projection each,
    # plus one per descent start; the ladder's deflation descents return
    # no iteration count, so their projections are left out
    if tracer.inside("eigensolver.minimize_on_level") \
            and not tracer.inside("eigensolver.ls_sequence"):
        tracer.counts["eigensolver.solve_trials"] += 1
    return args, kwargs


def _iterations(tracer: Tracer, result):
    """Sum ``EigenPair.iterations`` of outermost eigensolver calls."""
    if tracer.inside("eigensolver."):
        return
    if hasattr(result, "iterations"):
        tracer.counts["eigensolver.solve_iterations"] += result.iterations
        pairs = [result]
    else:
        pairs = [level.pair for level in result]
    tracer.counts["eigensolver.iterations"] += sum(p.iterations
                                                   for p in pairs)


_BEFORE = {
    "util.bisect_decreasing": _counting_map,
    "util.invert_increasing": _counting_map,
    "norms.luxemburg_values": _luxemburg_rows,
    "functionals.project_to_level": _projection,
    "functionals.scale_to_energy_level": _projection,
}
_AFTER = {
    "eigensolver.minimize_on_level": _iterations,
    "eigensolver.ls_sequence": _iterations,
}


class _TracedLU:
    """Proxy of a ``SuperLU`` factorization that times ``solve``."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        i = self._tracer.open("sparse.solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(i)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> list:
    """Wrap every layer boundary; returns the patches for ``uninstall``."""
    import orlicz_lab
    modules = {layer: importlib.import_module(f"orlicz_lab.{layer}")
               for layer in LAYERS}
    namespaces = list(modules.values()) + [orlicz_lab]
    patches = []

    def patch(obj, attr, new):
        patches.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, new)

    for layer, mod in modules.items():
        # the CLI is entered through main; its other functions are its own
        public = ["main"] if layer == "cli" else mod.__all__
        for fname in public:
            fn = mod.__dict__[fname]
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{fname}"
            wrapper = _traced(tracer, name, fn, _BEFORE.get(name),
                              _AFTER.get(name))
            for ns in namespaces:
                if ns.__dict__.get(fname) is fn:
                    patch(ns, fname, wrapper)

    functionals, young = modules["functionals"], modules["young"]
    patch(functionals.EnergySetup, "__init__",
          _traced(tracer, "functionals.EnergySetup",
                  functionals.EnergySetup.__init__))
    conj = young.ConjugateFunction
    patch(conj, "__init__",
          _traced(tracer, "young.ConjugateFunction", conj.__init__))
    patch(conj, "value", _traced(tracer, "young.conjugate_value", conj.value))
    patch(conj, "derivative",
          _traced(tracer, "young.conjugate_derivative", conj.derivative))

    splu = spla.splu

    def traced_splu(*args, **kwargs):
        i = tracer.open("sparse.splu")
        try:
            lu = splu(*args, **kwargs)
        finally:
            tracer.close(i)
        return _TracedLU(lu, tracer)
    patch(spla, "splu", traced_splu)
    return patches


def uninstall(patches: list):
    for obj, attr, orig in reversed(patches):
        if orig is _MISSING:
            delattr(obj, attr)
        else:
            setattr(obj, attr, orig)


# --------------------------------------------------------------------------
# analysis

def _arrays(tracer: Tracer):
    name = np.asarray(tracer.name, dtype=np.int64)
    start = np.asarray(tracer.start)
    end = np.asarray(tracer.end)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    op = np.asarray(tracer.op, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=name.size)
    return name, start, end, parent, op, dur, dur - child


def nesting_errors(tracer: Tracer) -> list:
    """Spans that are open, misnested, outside their parent, or overlap a
    sibling; an empty list means the span tree is well formed."""
    name, start, end, parent, _, dur, _ = _arrays(tracer)
    errors = []
    if tracer.misnested:
        errors.append(f"{tracer.misnested} spans closed out of order")
    if name.size == 0:
        return errors
    if not np.all(np.isfinite(end)) or np.any(dur < 0):
        errors.append("a span was left open or ends before it starts")
    kids = np.flatnonzero(parent >= 0)
    p = parent[kids]
    if np.any((start[kids] < start[p]) | (end[kids] > end[p])):
        errors.append("a span lies outside its parent")
    order = np.lexsort((start, parent))
    same = parent[order][1:] == parent[order][:-1]
    if np.any(same & (end[order][:-1] > start[order][1:])):
        errors.append("sibling spans overlap")
    return errors


def pass_metrics(tracer: Tracer, pass_index: int) -> dict:
    """Per-layer metrics of one traced pass."""
    name, _, _, parent, op, dur, self_t = _arrays(tracer)
    ops = [o for o, p in tracer.op_pass.items() if p == pass_index]
    mask = np.isin(op, ops)
    ids = {n: i for i, n in enumerate(tracer.names)}
    size = len(tracer.names)
    calls = np.bincount(name[mask], minlength=size)
    incl = np.bincount(name[mask], weights=dur[mask], minlength=size)
    self_by_name = np.bincount(name[mask], weights=self_t[mask],
                               minlength=size)

    def n_calls(*names):
        return int(sum(calls[ids[n]] for n in names if n in ids))

    def t_incl(*names):
        return float(sum(incl[ids[n]] for n in names if n in ids))

    def t_self(*names):
        return float(sum(self_by_name[ids[n]] for n in names if n in ids))

    def layer_self(layer):
        return t_self(*[n for n in tracer.names
                        if n.startswith(layer + ".")])

    proj_ids = [ids[n] for n in _PROJECTIONS if n in ids]
    energy_ids = [ids[n] for n in _ENERGIES if n in ids]
    in_proj = mask & (parent >= 0)
    in_proj[in_proj] = np.isin(name[parent[in_proj]], proj_ids)
    counts = tracer.pass_counts.get(pass_index, {})
    solved = counts.get("eigensolver.solve_iterations", 0)
    trials = counts.get("eigensolver.solve_trials", 0)

    out = {
        "eigensolver.iterations": counts.get("eigensolver.iterations", 0),
        "eigensolver.self_s": layer_self("eigensolver"),
        "eigensolver.accept_ratio": solved / trials if trials else 0.0,
        "sparse.factor_calls": n_calls("sparse.splu"),
        "sparse.factor_s": t_incl("sparse.splu"),
        "sparse.solve_calls": n_calls("sparse.solve"),
        "sparse.solve_s": t_incl("sparse.solve"),
        "functionals.project_calls": n_calls(*_PROJECTIONS),
        "functionals.project_evals":
            int(np.count_nonzero(in_proj & np.isin(name, energy_ids))),
        "functionals.project_s": t_incl(*_PROJECTIONS),
        "functionals.energy_calls": n_calls(*_ENERGIES),
        "functionals.energy_s": t_incl(*_ENERGIES),
        "functionals.gateaux_calls": n_calls(*_GATEAUX),
        "functionals.gateaux_s": t_incl(*_GATEAUX),
        "functionals.dual_norm_s": t_incl("functionals.dual_norm"),
        "norms.modular_calls": n_calls("norms.modular_values"),
        "norms.modular_s": t_incl("norms.modular_values"),
        "norms.luxemburg_calls": n_calls("norms.luxemburg_values"),
        "norms.luxemburg_rows": counts.get("norms.luxemburg_rows", 0),
        "norms.luxemburg_s": t_incl("norms.luxemburg_values"),
        "util.bisect_calls": counts.get("util.bisect_calls", 0),
        "util.bisect_evals": counts.get("util.bisect_evals", 0),
        "util.bisect_s": t_incl("util.bisect_decreasing",
                                "util.invert_increasing"),
        "young.conjugate_evals": n_calls("young.conjugate_value",
                                         "young.conjugate_derivative"),
        "young.conjugate_s": t_incl("young.conjugate_value",
                                    "young.conjugate_derivative"),
        "region.c1_s": t_incl("region.default_c1"),
        "region.search_self_s": t_self("region.grid_search"),
        "region.probe_self_s": t_self("region.count_critical_points"),
        "trace.spans": int(np.count_nonzero(mask)),
        "trace.self_sum_s": float(np.sum(self_t[mask])),
    }
    for layer in ALL_LAYERS:
        out[f"{layer}.self_s"] = layer_self(layer)
    return out


def setup_metrics(tracer: Tracer, op_id: int) -> dict:
    """Constructor times inside the traced set-up (op ``op_id``)."""
    name, _, _, _, op, dur, _ = _arrays(tracer)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def t_incl(n):
        if n not in ids:
            return 0.0
        return float(np.sum(dur[(op == op_id) & (name == ids[n])]))
    return {"functionals.setup_s": t_incl("functionals.EnergySetup"),
            "young.conjugate_build_s": t_incl("young.ConjugateFunction")}
