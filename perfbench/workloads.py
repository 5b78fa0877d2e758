"""The benchmark's workloads, their set-up, one measured job and its checks.

Each workload fixes the network (graph seed) and draws the local costs
from ``--seed``: the network sets how many messages a round moves, so
keeping it fixed keeps the work per round equal across seeds, while the
problem data still changes so that a claim can be re-checked on a
held-out seed.  Budgets pin the number of rounds for every seed, so run
time depends on the code and not on the instance.
"""

import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from efix import analysis, cli, penalty, problems, simnet, solvers, topology


@dataclass(frozen=True)
class Size:
    """A budget and the error_e ceiling that a correct run stays under."""

    budget: dict
    error_ceiling: float


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str            # "efix-q" or "diging"
    N: int
    n: int
    graph_seed: int
    seed_offset: int     # problem seed = seed_offset + --seed
    record_rounds: bool
    full: Size
    smoke: Size
    # (layers, lowest share, highest share) of run_s the layers must take
    load: tuple
    T: int = 0           # logistic samples
    mu: float = 0.0      # logistic regularization


EMIT = ("solvers.emit",)
CONTRACTION = ("penalty.contraction_estimate",)

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {wl.name: wl for wl in (
    # The criterion-4 instance at --seed 1.  2000 rounds put every seed
    # inside stage 4, far from its end, so the final error is comparable
    # across seeds; five small contraction estimates and five emitted rows
    # leave the round engine nearly all of the run.
    Workload(
        name="quad-c4", algo="efix-q", N=30, n=10, graph_seed=1, seed_offset=1000,
        record_rounds=False,
        full=Size({"scalar_products": 2000 * 23}, 0.05),
        smoke=Size({"scalar_products": 2_000}, 1.0),
        load=((("simnet.run_round",), 0.80, 1.0), (CONTRACTION + EMIT, 0.0, 0.05))),
    # Nn=1000: the dense contraction estimate (cubic in Nn) and the
    # quadratic error_v (O(N^2 n^2) per row) are each about a third of the
    # run.  The scalar-product cap ends every seed inside the third stage.
    Workload(
        name="quad-wide", algo="efix-q", N=100, n=10, graph_seed=7, seed_offset=6,
        record_rounds=True,
        full=Size({"outer": 3, "scalar_products": 400 * 23}, 0.2),
        smoke=Size({"outer": 1, "scalar_products": 20 * 23}, 1.0),
        load=((CONTRACTION, 0.20, 1.0), (EMIT, 0.20, 1.0))),
    # 2N local gradients per round.  mu=1e-2 rather than 1e-4: with the
    # weaker regularizer the final error's digits varied by 13% across seeds.
    Workload(
        name="logistic-diging", algo="diging", N=20, n=20, T=2000, mu=1e-2,
        graph_seed=1, seed_offset=0, record_rounds=True,
        full=Size({"rounds": 500}, 0.2),
        smoke=Size({"rounds": 30}, 1.0),
        load=((("problems.local_gradient",), 0.25, 1.0), (CONTRACTION, 0.0, 0.0))),
)}


@dataclass
class Instance:
    w: object
    problem: object
    consts: object
    oracle: object


def setup(wl, seed):
    """Graph, mixing matrix, problem, constants and oracle for one seed."""
    g = topology.generate_geometric_graph(wl.N, wl.graph_seed)
    w = topology.metropolis_weights(g)
    pseed = wl.seed_offset + seed
    if wl.algo == "efix-q":
        p = problems.generate_quadratic(wl.N, wl.n, pseed)
    else:
        p = problems.generate_logistic(wl.N, wl.T, wl.n, pseed, wl.mu)
    consts = problems.constants_for(p)
    oracle = analysis.solve_reference(p)
    return Instance(w, p, consts, oracle)


def solve(wl, inst, size, outdir):
    """The measured work: the solver call plus the trace CSV and sidecar."""
    budget = solvers.Budget(**size.budget)
    if wl.algo == "efix-q":
        sched = solvers.Schedule(theta0=2.0 * inst.consts.L, theta_rule="factorial",
                                 q_mode="fixed")
        trace = solvers.efix_q(inst.problem, inst.w, sched, budget, oracle=inst.oracle,
                               record_rounds=wl.record_rounds)
    else:
        trace = solvers.diging(inst.problem, inst.w, 1.0 / (10.0 * inst.consts.L), budget,
                               variant="general", oracle=inst.oracle,
                               record_rounds=wl.record_rounds)
    out = Path(outdir) / "trace.csv"
    cli.write_trace_csv(trace, out)
    cli.write_sidecar(trace, {"workload": wl.name, "budget": size.budget},
                      str(out) + ".meta.json")
    return trace


@contextmanager
def ledger_probe():
    """Collect each CostLedger the solver creates; costs one call per job."""
    init = simnet.CostLedger.__dict__["__init__"]
    ledgers = []

    def keep(ledger, *args, **kwargs):
        init(ledger, *args, **kwargs)
        ledgers.append(ledger)

    simnet.CostLedger.__init__ = keep
    try:
        yield ledgers
    finally:
        simnet.CostLedger.__init__ = init


def run_job(wl, inst, size, outdir, tracer=None):
    """Solve once; return (run_s, counts, failed checks)."""
    penalty_file = Path(penalty.__file__).resolve()
    with ledger_probe() as ledgers, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is None:
            t0 = time.perf_counter()
            trace = solve(wl, inst, size, outdir)
            run_s = time.perf_counter() - t0
        else:
            with tracer.installed(), tracer.span("bench.run"):
                trace = solve(wl, inst, size, outdir)
            run_s = tracer.total_s["bench.run"]
    ledger, = ledgers
    counts = summarize(trace, ledger, inst.oracle)
    counts["penalty.fallback_warnings"] = sum(
        1 for w in caught if Path(w.filename).resolve() == penalty_file)
    return run_s, counts, check(wl, size, inst, trace, counts)


def summarize(trace, ledger, oracle):
    """Every count a run produces; equal runs must agree on all of them."""
    ran_planned = [o.grad_norm / o.epsilon for o in trace.outer
                   if o.k_planned is not None and o.k_run == o.k_planned]
    return {
        "rounds": ledger.rounds,
        "sp_max": ledger.max_sp,
        "vectors_sent": ledger.total_sent,
        "error_e_final": analysis.error_e(trace.x_final, oracle),
        "solvers.stages": len(trace.outer),
        "solvers.k_planned_sum": sum(o.k_planned or 0 for o in trace.outer),
        "solvers.k_run_sum": sum(o.k_run for o in trace.outer),
        "solvers.grad_slack_max": max(ran_planned, default=0.0),
        "cli.trace_rows": len(trace.records),
    }


def check(wl, size, inst, trace, counts):
    """Names of the checks this run fails (empty when it is correct)."""
    failed = []
    if not np.all(np.isfinite(trace.x_final)):
        failed.append("x_final is not finite")
    if trace.diverged or trace.numerical_failure:
        failed.append("solver flagged divergence or numerical failure")
    per_round = 1 if wl.algo == "efix-q" else 2
    degree_sum = int(inst.w.degrees().sum())
    if counts["vectors_sent"] != counts["rounds"] * per_round * degree_sum:
        failed.append(f"vectors_sent {counts['vectors_sent']} != rounds {counts['rounds']}"
                      f" x {per_round} x degree sum {degree_sum}")
    if wl.algo == "efix-q" and counts["solvers.k_run_sum"] != counts["rounds"]:
        failed.append("stage round counts do not add up to the ledger's rounds")
    e = counts["error_e_final"]
    if not (math.isfinite(e) and e < size.error_ceiling):
        failed.append(f"error_e_final {e!r} not under {size.error_ceiling}")
    return failed
