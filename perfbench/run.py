"""orlicz-lab benchmark.

    python3 perfbench/run.py --workload eigensolve --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from its
``src/`` directory and from nowhere else.  One run builds the workload's
inputs from ``--seed``, then repeats passes of the workload's public calls
for about ``--seconds`` seconds and checks every
call's output.  The last line of standard output is one JSON object with
``correct``, ``attempted`` (calls made), ``failed`` (calls that raised or
failed a gate) and ``metrics``:

  --trace 0  end-to-end metrics, with tracing off:
             wall_s       median wall time of one pass
             setup_s      median, over five fresh interpreters, of the time
                          from interpreter start to all inputs built
             peak_rss_mb  peak resident memory of this process
  --trace 1  per-layer metrics from spans around every layer boundary
             (see spans.py), as means over the traced passes.  Passes
             alternate untraced and traced (at least four), and
             trace.overhead_s is the median traced pass minus the median
             untraced pass, the first (warm-up) pass left out.

The run exits with 1 when an output is wrong or a trace self-check fails,
and with 2, printing no result, when the checkout holds no package source.
Run records and spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

# one process, no worker threads: BLAS pinned to one thread before numpy
# loads, and the package's sweep thread cap left unset
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ORLICZ_LAB_THREADS", None)

# glibc adapts its mmap threshold to each process's allocation history, and
# in some processes every large numpy temporary is mmapped and faulted in
# afresh: region-scan on equal inputs made 2.6M minor faults and 2.9 s of
# system time in one process, 0.4M and 0.2 s in the next.  Fixed thresholds
# keep freed blocks in the heap, so runs of equal inputs are comparable.
# glibc reads them at process start, hence the re-exec.
_MALLOC = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
           "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
if any(os.environ.get(k) != v for k, v in _MALLOC.items()):
    os.environ.update(_MALLOC)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 60


def _import_package():
    """Import orlicz_lab from this checkout's source tree, or exit 2."""
    if not (SRC / "orlicz_lab" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import orlicz_lab
    if Path(orlicz_lab.__file__).resolve().parent != SRC / "orlicz_lab":
        print(f"perfbench: orlicz_lab resolved to {orlicz_lab.__file__}",
              file=sys.stderr)
        sys.exit(2)


# --------------------------------------------------------------------------
# environment record

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "orlicz_lab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": openblas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_commit": _git_commit(), "src_sha256": _source_digest()}


# --------------------------------------------------------------------------
# measurement

def _setup_time(args, scratch: Path) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scratch", str(scratch)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=True, cwd=ROOT)
    return float(done.stdout.split()[-1]) - t0


def _run_pass(ops, pass_index, first_op, tracer=None):
    """Run every op once; returns (wall time, process CPU time, the gate
    failures of each failed op)."""
    failed = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for k, (label, call) in enumerate(ops):
        span = None
        if tracer is not None:
            tracer.begin_op(first_op + k, pass_index)
            span = tracer.open("bench.op")
        try:
            fails = call()
        except Exception:  # an op that raises is a failed op; keep going
            fails = [f"{label} raised:\n{traceback.format_exc()}"]
        finally:
            if span is not None:
                tracer.close(span)
        if fails:
            failed.append(fails)
    return time.perf_counter() - t0, time.process_time() - c0, failed


def run_workload(args) -> dict:
    import workloads
    scratch = OUT / f"run-{os.getpid()}-{args.workload}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = patches = None
    try:
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.begin_op(0, -1)
            patches = spans.install(tracer)
            span = tracer.open("bench.setup")
        try:
            ops = workloads.build(args.workload, args.seed, str(scratch))
        finally:
            if tracer is not None:
                tracer.close(span)
                spans.uninstall(patches)
        setup = [] if args.trace else [
            _setup_time(args, scratch / f"setup-{k}")
            for k in range(SETUP_SAMPLES)]

        walls = {False: [], True: []}
        cpus = []
        failures = []
        attempted = failed_ops = 0
        t_start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(walls[False] + walls[True]) \
                if index else 0.0
            if index >= MIN_PASSES + args.trace \
                    and elapsed + typical > args.seconds:
                break
            traced = bool(args.trace) and index % 2 == 1
            if traced:
                tracer.begin_pass(index)
                patches = spans.install(tracer)
            try:
                wall, cpu, fails = _run_pass(ops, index, 1 + attempted,
                                             tracer if traced else None)
            finally:
                if traced:
                    spans.uninstall(patches)
            walls[traced].append(wall)
            cpus.append(cpu)
            failed_ops += len(fails)
            failures += [f"pass {index}: {f}" for op in fails for f in op]
            attempted += len(ops)
            index += 1
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "passes": index, "pass_walls_s": walls[False],
              "pass_cpu_s": cpus,
              "attempted": attempted, "failed": failed_ops,
              "failures": failures, "checks": []}
    if args.trace:
        record.update(_traced_metrics(tracer, walls, args.workload))
    else:
        record["setup_samples_s"] = setup
        record["metrics"] = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}
    return record


def _traced_metrics(tracer, walls, workload) -> dict:
    import spans
    checks = spans.nesting_errors(tracer)
    traced = sorted(tracer.pass_counts)
    per_pass = {p: spans.pass_metrics(tracer, p) for p in traced}
    for p, wall in zip(traced, walls[True]):
        gap = abs(per_pass[p]["trace.self_sum_s"] - wall)
        if gap > 0.01 * wall + 1e-3:
            checks.append(f"pass {p}: self times sum to "
                          f"{per_pass[p]['trace.self_sum_s']:.4f} s, "
                          f"traced wall is {wall:.4f} s")
    for key in spans.EXACT_COUNTS:
        seen = {per_pass[p][key] for p in traced}
        if len(seen) > 1:
            checks.append(f"{key} differs between traced passes: "
                          f"{sorted(seen)}")
    keys = per_pass[traced[0]]
    metrics = {k: statistics.fmean(per_pass[p][k] for p in traced)
               for k in keys if k != "trace.self_sum_s"}
    metrics.update(spans.setup_metrics(tracer, 0))
    metrics["trace.wall_s"] = statistics.median(walls[True])
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False][1:]))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload}.npz")
    units = {k: _unit(k) for k in metrics}
    return {"checks": checks, "traced_pass_walls_s": walls[True],
            "per_pass": {str(p): v for p, v in per_pass.items()},
            "metrics": {k: (v, units[k]) for k, v in metrics.items()}}


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


# --------------------------------------------------------------------------
# reporting

def _report(record: dict) -> None:
    wl = record["workload"]
    print(f"== {wl}: seed {record['seed']}, {record['passes']} passes, "
          f"trace {record['trace']}")
    walls = record["pass_walls_s"] + record.get("traced_pass_walls_s", [])
    print("  pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    for key, (value, unit) in record["metrics"].items():
        print(f"  {key:<32s} {value:>14.6g} {unit}")
    ops, bad = record["attempted"], record["failed"]
    print(f"  {'fail_ratio':<32s} {bad / ops:>14.6g} "
          f"({bad} of {ops} ops)")
    for line in record["checks"]:
        print(f"  trace check failed: {line}")
    for line in record["failures"]:
        print(f"  gate failed: {line}")


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        os.makedirs(args.scratch, exist_ok=True)
        workloads.build(args.workload, args.seed, args.scratch)
        print(repr(time.monotonic()))
        return 0

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    records = []
    for name in names:
        records.append(run_workload(argparse.Namespace(**{
            **vars(args), "workload": name})))
        record = {**records[-1], "environment": env}
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{name}-trace{args.trace}-seed{args.seed}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
        _report(records[-1])

    many = len(records) > 1
    correct = all(r["failed"] == 0 and not r["checks"] for r in records)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if many else k):
                    {"value": v, "unit": u}
                    for r in records for k, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
