"""Benchmark of the efix simulator: EFIX-Q and DIGing on fixed workloads.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 perfbench/run.py --workload quad-c4 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 1
    python3 perfbench/run.py --smoke

One run repeats the measured job -- the solver call plus the trace CSV
and sidecar writes -- while another job still fits in ``--seconds``, and
times a few set-ups after each job (``setup_s`` is their median).  The
first job is a warm-up; ``run_s`` is the median over the rest.  Every job's outputs are
checked, and every job must reproduce the first job's counts exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced jobs with traced ones (set-up included) and prints per-layer
calls and self time, the solver counts, and the tracing overhead.  The
load is one closed-loop caller in one process.

``peak_rss_mb`` is the process's peak resident memory, so with
``--workload all`` it covers every workload run so far.

``--smoke`` runs every workload with tiny budgets in both modes and
checks that each metric named in BENCHMARK.json is printed with its
unit and that traced and untraced runs agree on every count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the dense SVD in the
# contraction estimate would otherwise spawn a thread per core and
# compete with the single-threaded round engine for the same cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUPS_PER_JOB = 4

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rounds_per_s": "1/s",
    "error_e_digits": "digits",
    "sp_max": "count",
    "vectors_sent": "count",
    "peak_rss_mb": "MB",
}
SOLVER_COUNTS = {
    "solvers.stages": "count",
    "solvers.k_planned_sum": "count",
    "solvers.k_run_sum": "count",
    "solvers.grad_slack_max": "ratio",
    "penalty.fallback_warnings": "count",
    "cli.trace_rows": "count",
}


def import_library():
    """Import efix from this checkout's sources, never from elsewhere."""
    pkg = SRC / "efix"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no efix sources in {pkg}")
    sys.path.insert(0, str(SRC))
    import efix
    if Path(efix.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: efix was imported from {efix.__file__}, not from {pkg}")


def machine():
    import numpy
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


@dataclass
class Job:
    run_s: float
    counts: dict
    failed: list
    tracer: object = None


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    shares: list = field(default_factory=list)    # traced runs: load checks
    samples: str = ""


def measure(wl, seed, seconds, traced, smoke=False):
    """One benchmark run of one workload; see the module docstring."""
    from tracer import LAYERS, Tracer
    import workloads

    size = wl.smoke if smoke else wl.full
    setup_times = []

    def timed_setups(count):
        for _ in range(count):
            t0 = time.perf_counter()
            inst = workloads.setup(wl, seed)
            setup_times.append(time.perf_counter() - t0)
        return inst

    inst = timed_setups(SETUPS_PER_JOB)

    res = Result()
    plain, traced_jobs = [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            res.attempted += 1
            try:
                if traced and len(plain) > len(traced_jobs):
                    tracer = Tracer()
                    with tracer.installed(), tracer.span("bench.setup"):
                        tinst = workloads.setup(wl, seed)
                    traced_jobs.append(Job(*workloads.run_job(wl, tinst, size, outdir, tracer),
                                           tracer=tracer))
                else:
                    plain.append(Job(*workloads.run_job(wl, inst, size, outdir)))
            except Exception:
                traceback.print_exc()
                res.failed += 1
                res.notes.append("a job raised; measuring stopped")
                break
            # set-up samples spread over the run, so one slow spell cannot
            # move their median
            timed_setups(SETUPS_PER_JOB)
            # stop when another job of the same length would end past the deadline
            now = time.perf_counter()
            if (now + (now - started) > deadline and len(plain) >= 2
                    and (traced_jobs or not traced)):
                break
    if len(plain) < 2 or (traced and not traced_jobs):
        sys.exit("error: too few jobs completed to report a result")

    ref = plain[0].counts
    for job in plain[1:] + traced_jobs:
        if job.counts != ref:
            job.failed.append("counts differ from the first job's")
    for job in traced_jobs[1:]:
        if job.tracer.calls != traced_jobs[0].tracer.calls:
            job.failed.append("layer call counts differ between traced jobs")
    for job in plain + traced_jobs:
        res.failed += bool(job.failed)
        res.notes += job.failed
    res.counts = ref

    runs = sorted(j.run_s for j in plain[1:])
    untraced_s = statistics.median(runs)
    res.samples = (f"run_s over {len(runs)} untraced jobs: min {runs[0]:.4f} "
                   f"median {untraced_s:.4f} max {runs[-1]:.4f}; "
                   f"setup_s over {len(setup_times)} set-ups")
    if not traced:
        res.metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": untraced_s,
            "rounds_per_s": ref["rounds"] / untraced_s,
            "error_e_digits": -math.log10(ref["error_e_final"]),
            "sp_max": ref["sp_max"],
            "vectors_sent": ref["vectors_sent"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        res.metrics = {k: (v, END_TO_END[k]) for k, v in res.metrics.items()}
        return res

    for name in LAYERS:
        res.metrics[f"{name}.calls"] = (traced_jobs[0].tracer.calls[name], "count")
        res.metrics[f"{name}.self_s"] = (
            statistics.median(j.tracer.self_s[name] for j in traced_jobs), "s")
    for key, unit in SOLVER_COUNTS.items():
        res.metrics[key] = (ref[key], unit)
    res.metrics["trace.overhead_s"] = (
        statistics.median(j.run_s for j in traced_jobs) - untraced_s, "s")
    for names, lo, hi in wl.load:
        share = statistics.median(j.tracer.share("bench.run", names) for j in traced_jobs)
        verdict = "ok" if lo <= share <= hi else "MISSED"
        res.shares.append(f"load {'+'.join(names)}: {share:.3f} of run_s, "
                          f"wanted [{lo}, {hi}]: {verdict}")
    return res


def report(wl, seed, traced, res):
    print(f"workload {wl.name} seed {seed} trace {int(traced)}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"error_e_final {res.counts['error_e_final']!r} (ceiling {wl.full.error_ceiling})")
    for name, (value, unit) in res.metrics.items():
        print(f"  {name:<42} {value!r:>24} {unit}")
    print(res.samples)
    for line in res.shares:
        print(line)
    verdict = "correct" if res.failed == 0 else "INCORRECT: " + "; ".join(res.notes)
    print(f"{res.attempted} jobs, {res.failed} failed: {verdict}")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in res.metrics.items()}}))


def smoke():
    """Tiny budgets, both modes, every workload; returns the exit code."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for wl in workloads.WORKLOADS.values():
        results = {}
        for traced in (False, True):
            res = results[traced] = measure(wl, 1, 0, traced, smoke=True)
            got = {k: u for k, (_, u) in res.metrics.items()}
            if got != wanted[traced]:
                errors.append(f"{wl.name} trace {int(traced)}: metrics {got} "
                              f"!= BENCHMARK.json {wanted[traced]}")
            if res.failed:
                errors.append(f"{wl.name} trace {int(traced)}: {res.notes}")
        if results[False].counts != results[True].counts:
            errors.append(f"{wl.name}: traced and untraced counts differ")
        print(f"smoke {wl.name}: {results[False].counts}")
    for e in errors:
        print("smoke FAILED: " + e)
    print("smoke failed" if errors else "smoke ok")
    return 1 if errors else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import_library()
    import workloads

    if args.smoke:
        return smoke()
    if args.workload == "all":
        chosen = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        chosen = [workloads.WORKLOADS[args.workload]]
    else:
        ap.error(f"--workload must be 'all' or one of {list(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")
    traced = bool(args.trace)
    for wl in chosen:
        report(wl, args.seed, traced, measure(wl, args.seed, args.seconds, traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
