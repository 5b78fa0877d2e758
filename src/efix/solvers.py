"""Outer loops: penalty fixed-point solvers and the DIGing baseline.

efix_q / efix_g solve a sequence of quadratic penalty subproblems with
increasing penalty parameter; each subproblem runs a fixed number of
Chebyshev-accelerated JOR rounds, where the round count is derived from
the target tolerance, the certified rate of the subproblem, and the
previous tolerance.  efix_q_stopping replaces the
precomputed count by the (centrally evaluated) gradient-norm exit test and
exists as a reference for calibrating the counts.  diging is the gradient-tracking
first-order baseline.

Rounds run on stacked (N, n) arrays, with every neighbor sum a gather over
the network's neighbor table.  The node updates ``_efix_cheb_update`` and
the one made by ``_diging_update_factory`` are the same rounds written for
the message engine in ``simnet``; tests replay the solvers on it and
require bit-identical traces.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import analysis, penalty, problems, simnet
from .topology import gather

DIVERGENCE_CEILING = 1e12


@dataclass(frozen=True)
class Schedule:
    """Rules producing theta_s and eps_s for the outer loop.

    theta_rule "factorial" grows theta_{s+1} = (s+1) theta_s; "linear"
    uses theta_s = (s+1) theta0 (with theta0 = 1 the stage penalties are
    1, 2, 3, ...).  eps_rule "balance" matches the inner tolerance to the
    penalty approximation error; "reciprocal" uses eps0 / s with eps0
    defaulting to theta0.  ``q_mode`` and ``q_safety`` are accepted and
    ignored: each stage's Chebyshev rounds sweep at their own relaxation
    q = 2 / (a + b), so no schedule value sets q.
    """

    theta0: float
    theta_rule: str = "factorial"
    eps_rule: str = "balance"
    eps0: float | None = None
    q_mode: str = "fixed"
    q_safety: float = 0.99

    def __post_init__(self):
        if self.theta_rule not in ("factorial", "linear"):
            raise ValueError(f"unknown theta rule {self.theta_rule!r}")
        if self.eps_rule not in ("balance", "reciprocal"):
            raise ValueError(f"unknown eps rule {self.eps_rule!r}")

    def theta_at(self, s):
        if self.theta_rule == "factorial":
            th = self.theta0 * math.factorial(s)
        else:
            th = self.theta0 * (s + 1)
        if not math.isfinite(th):
            raise OverflowError(f"theta overflowed at stage {s}")
        return th

    def epsilon_at(self, s, consts, lambda2):
        if self.eps_rule == "balance":
            return epsilon_balance(self.theta_at(s), consts, lambda2)
        eps0 = self.theta0 if self.eps0 is None else self.eps0
        return eps0 if s == 0 else eps0 / s


@dataclass(frozen=True)
class Budget:
    """Stop conditions; at least one must be set.

    ``rounds`` caps communication rounds, ``outer`` caps outer stages,
    ``scalar_products`` caps the per-node maximum cumulative scalar
    products.  Exhaustion yields a partial trace, not an error.
    """

    rounds: int | None = None
    outer: int | None = None
    scalar_products: int | None = None

    def __post_init__(self):
        if self.rounds is None and self.outer is None and self.scalar_products is None:
            raise ValueError("budget needs at least one limit")
        for name in ("rounds", "outer", "scalar_products"):
            limit = getattr(self, name)
            if limit is None:
                continue
            if isinstance(limit, bool) or not isinstance(limit, numbers.Real):
                raise ValueError(f"budget limit {name} must be a number, got {limit!r}")
            if limit < 0:
                raise ValueError(f"budget limit {name} must be nonnegative, got {limit}")

    def exhausted(self, ledger):
        if self.rounds is not None and ledger.rounds >= self.rounds:
            return True
        if self.scalar_products is not None and ledger.max_sp >= self.scalar_products:
            return True
        return False


@dataclass
class OuterRecord:
    """Per-stage summary: schedule values, planned/executed rounds, residuals.

    ``q`` is the relaxation 2 / (a + b) that the stage's Chebyshev rounds
    sweep with, and ``rho`` their certified rate r.
    """

    s: int
    theta: float
    epsilon: float
    q: float
    rho: float
    k_planned: int | None
    k_run: int
    grad_norm: float
    error_max: float


@dataclass
class Trace:
    algo: str
    problem_hash: str
    node_count: int
    dim: int
    records: list = field(default_factory=list)
    outer: list = field(default_factory=list)
    diverged: bool = False
    numerical_failure: bool = False
    centralized_reference: bool = False
    meta: dict = field(default_factory=dict)
    x_final: np.ndarray | None = None


def epsilon_balance(theta, consts, lambda2):
    """Inner tolerance balancing solver error against penalty error.

    eps = mu * ( L J sqrt(4 - 2 kappa/theta) / (theta kappa (1 - lambda2))
                 + J / (theta (1 - lambda2)) ).
    """
    if lambda2 >= 1.0:
        raise ValueError(f"lambda2={lambda2} leaves no spectral gap")
    if theta <= consts.kappa / 2.0:
        raise ValueError(f"theta={theta} must exceed kappa/2={consts.kappa / 2.0}")
    root = math.sqrt(4.0 - 2.0 * consts.kappa / theta)
    gap = 1.0 - lambda2
    return consts.mu * (consts.L * consts.J * root / (theta * consts.kappa * gap)
                        + consts.J / (theta * gap))


def inner_count(eps_prev, eps_target, theta, rho, cbar_sum, L, mu, solver_constant=1.0):
    """Rounds sufficient to carry the tolerance from one stage to the next.

    k = ceil| (log(mu eps_target) - log(C (L + 2 theta)(eps_prev + cbar_sum)))
              / log(rho) |
    where cbar_sum collects the right-hand-side norm terms of the two
    neighboring subproblems and C is the inner solver's R-linear constant
    (2 sqrt(max d / min d) for the Chebyshev-accelerated JOR of the EFIX
    solvers).
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"contraction factor {rho} outside (0, 1)")
    gap = eps_prev + cbar_sum
    if eps_target <= 0 or gap <= 0:
        raise ValueError("tolerances and offset norms must be positive")
    num = math.log(mu * eps_target) - math.log(solver_constant * (L + 2.0 * theta) * gap)
    return math.ceil(abs(num / math.log(rho)))


def cbar(problem, consts=None):
    """Norm bound on the subproblem right-hand side, the same at every stage.

    Quadratic family: the exact ||c||, with c_i = B_ii b_i for any theta.
    General family: the rough estimate 3 L sqrt(N); the exact norm moves
    with the expansion point, which no node knows in full.
    """
    if problem.family == "quadratic":
        c = np.stack([problem.model_terms(i, None)[1] for i in range(problem.node_count)])
        return float(np.linalg.norm(c))
    if consts is None:
        consts = problems.constants_for(problem)
    return 3.0 * consts.L * math.sqrt(problem.node_count)


def _as_blocks(x0, N, n):
    if x0 is None:
        return np.zeros((N, n))
    X = np.asarray(x0, dtype=float).reshape(N, n)
    return X.copy()


def _emit(trace, ledger, X, s, theta, eps, problem, oracle, W_dense):
    X = np.asarray(X)
    residual = float(np.linalg.norm(X - W_dense @ X))
    trace.records.append(analysis.TraceRecord(
        round=ledger.rounds, outer_s=s, theta=theta, epsilon=eps,
        error_e=analysis.error_e(X, oracle),
        error_v=analysis.error_v(X, problem),
        consensus_residual=residual,
        cum_sp_max=ledger.max_sp,
        cum_vectors_sent=ledger.total_sent))


def _efix_node_blocks(sub, w, i):
    return {"M_self": sub.M_self[i], "p": sub.p[i], "dinv": sub.dinv[i],
            "qtheta": sub.q * sub.theta, "w_off": w.off_diag[i]}


def _efix_update(node, inbox):
    b = node.blocks
    vals = {j: inbox[j]["z"] for j in node.neighbors}
    z_new = penalty.jor_local_update(b["M_self"], b["p"], b["dinv"], b["qtheta"],
                                     node.neighbors, b["w_off"], node.state["z"], vals)
    return {"z": z_new}


def _efix_cheb_update(node, inbox, omega):
    """One Chebyshev round: the JOR sweep, then the node-local extrapolation.

    ``z_prev`` stays in the node and is never sent; ``omega`` is the
    round's schedule constant, the same at every node.
    """
    y = _efix_update(node, inbox)["z"]
    return {"z": penalty.chebyshev_combine(omega, y, node.state["z_prev"]),
            "z_prev": node.state["z"]}


def _run_efix(problem, w, sched, budget, algo, stopping=False, oracle=None, x0=None,
              record_rounds=True):
    N, n = problem.node_count, problem.dim
    if w.node_count != N:
        raise ValueError("network and problem disagree on the node count")
    consts = problems.constants_for(problem)
    oracle = oracle or analysis.solve_reference(problem)
    W_dense = w.to_dense()

    Z = _as_blocks(x0, N, n)
    ledger = simnet.CostLedger(w.degrees())
    trace = Trace(algo=algo, problem_hash=problems.problem_fingerprint(problem),
                  node_count=N, dim=n, centralized_reference=stopping,
                  meta={"L": consts.L, "mu": consts.mu, "J": consts.J,
                        "lambda2": w.lambda2, "w_bar": w.w_bar})

    sp_round = 2 * n + 3
    boundary_sp = None
    if problem.family != "quadratic":
        boundary_sp = np.array([len(J) + 2 * n for J in problem.partition], dtype=np.int64)

    # the right-hand-side norms of two neighboring stages share one bound
    cbar_sum = 2.0 * cbar(problem, consts=consts)
    eps_prev = None
    s = 0
    stop = False
    while not stop:
        if budget.outer is not None and s >= budget.outer:
            break
        if s > 0 and budget.exhausted(ledger):
            break
        theta_s = sched.theta_at(s)
        eps_s = sched.epsilon_at(s, consts, w.lambda2)

        sub = penalty.assemble_model(problem, Z, w, theta_s)
        if boundary_sp is not None:
            ledger.charge_local(boundary_sp)
        plan = penalty.chebyshev_plan(sub, consts.mu)
        sweep = penalty.relaxed(sub, plan.q)
        if eps_prev is None:
            _, eps_prev = penalty.penalty_gradient(sub, Z)
        k_s = None if stopping else inner_count(eps_prev, eps_s, theta_s, plan.rate,
                                                cbar_sum, consts.L, consts.mu,
                                                solver_constant=2.0 * plan.C)
        Z_prev = Z

        _emit(trace, ledger, Z, s, theta_s, eps_s, problem, oracle, W_dense)

        k_run = 0
        while True:
            if stopping:
                _, gn = penalty.penalty_gradient(sub, Z)
                if gn <= eps_s:
                    break
            elif k_run >= k_s:
                break
            if budget.exhausted(ledger):
                stop = True
                break
            Z, Z_prev = penalty.chebyshev_step(Z, Z_prev, sweep, plan.weight(k_run)), Z
            ledger.charge_round(sp_round, 1)
            k_run += 1
            if record_rounds:
                _emit(trace, ledger, Z, s, theta_s, eps_s, problem, oracle, W_dense)
            if not np.isfinite(Z).all():
                trace.numerical_failure = True
                stop = True
                break
            if np.max(np.linalg.norm(Z, axis=1)) > DIVERGENCE_CEILING:
                trace.diverged = True
                stop = True
                break

        _, gn = penalty.penalty_gradient(sub, Z)
        trace.outer.append(OuterRecord(
            s=s, theta=theta_s, epsilon=eps_s, q=plan.q, rho=plan.rate,
            k_planned=k_s, k_run=k_run, grad_norm=gn,
            error_max=analysis.max_node_error(Z, oracle)))
        eps_prev = eps_s
        s += 1
    trace.x_final = Z.reshape(-1)
    return trace


def efix_q(problem, w, sched: Schedule, budget: Budget, oracle=None, x0=None,
           record_rounds=True) -> Trace:
    """Penalty fixed-point solver for the quadratic family.

    Each outer stage s assembles A = B + theta_s (I - W (x) I), bounds the
    spectrum of D^{-1} A, and runs exactly k(s) Chebyshev-accelerated JOR
    rounds seeded from the previous iterate.
    ``record_rounds=False`` keeps only the per-stage boundary rows, which
    makes long calibration runs much cheaper.
    """
    if problem.family != "quadratic":
        raise TypeError("efix_q handles quadratic problems; use efix_g")
    return _run_efix(problem, w, sched, budget, algo="efix-q",
                     oracle=oracle, x0=x0, record_rounds=record_rounds)


def efix_g(problem, w, sched: Schedule, budget: Budget, oracle=None, x0=None,
           record_rounds=True) -> Trace:
    """Generic strongly convex variant: re-linearize each outer stage.

    Every stage rebuilds the subproblem from the local gradients and
    Hessians at the current iterate.  On a quadratic problem the model is
    the problem itself, so the iterate sequence reproduces efix_q exactly.
    """
    return _run_efix(problem, w, sched, budget, algo="efix-g", oracle=oracle, x0=x0,
                     record_rounds=record_rounds)


def efix_q_stopping(problem, w, sched: Schedule, budget: Budget, oracle=None,
                    x0=None, record_rounds=True) -> Trace:
    """Reference variant exiting each stage on the true gradient-norm test.

    The exit test reads the full stacked iterate, which no node could do
    in a deployment; traces are flagged ``centralized_reference`` and the
    variant exists to calibrate the precomputed round counts.
    """
    if problem.family != "quadratic":
        raise TypeError("efix_q_stopping handles quadratic problems")
    return _run_efix(problem, w, sched, budget, algo="efix-q-stopping",
                     stopping=True, oracle=oracle, x0=x0,
                     record_rounds=record_rounds)


def _diging_update_factory(problem, alpha, variant):
    quadratic_tracker = variant == "quadratic"

    def update(node, inbox):
        i = node.node_id
        b = node.blocks
        x = node.state["x"]
        u = node.state["u"]
        wx = b["w_self"] * x
        wu = b["w_self"] * u
        for k in range(len(node.neighbors)):
            j = node.neighbors[k]
            wx = wx + b["w_off"][k] * inbox[j]["x"]
            wu = wu + b["w_off"][k] * inbox[j]["u"]
        x_new = wx - alpha * u
        if quadratic_tracker:
            du = b["B"] @ (x_new - x)
        else:
            du = problem.local_gradient(i, x_new) - problem.local_gradient(i, x)
        return {"x": x_new, "u": wu + du}

    return update


def diging(problem, w, alpha, budget: Budget, variant=None, oracle=None,
           x0=None, record_rounds=True) -> Trace:
    """Gradient tracking with constant step size alpha.

    x_i <- sum_j w_ij x_j - alpha u_i;  u_i <- sum_j w_ij u_j + delta_i,
    where delta_i is B_ii (x_i' - x_i) for the quadratic variant and the
    local gradient difference for the general variant; u_i starts at the
    local gradient.  Two vectors travel per neighbor per round.  Scalar
    products are charged by problem family: 3n for quadratic costs and
    3n + |J_i| for logistic ones.
    """
    if alpha < 0:
        raise ValueError("step size must be nonnegative")
    if budget.outer is not None:
        raise ValueError("DIGing has no outer iterations; budget by rounds or scalar products")
    variant = variant or ("quadratic" if problem.family == "quadratic" else "general")
    N, n = problem.node_count, problem.dim
    if w.node_count != N:
        raise ValueError("network and problem disagree on the node count")
    oracle = oracle or analysis.solve_reference(problem)
    W_dense = w.to_dense()

    X = _as_blocks(x0, N, n)
    G = problems.stacked_gradient(problem, X)
    U = G
    ledger = simnet.CostLedger(w.degrees())
    trace = Trace(algo="diging", problem_hash=problems.problem_fingerprint(problem),
                  node_count=N, dim=n, meta={"alpha": alpha, "variant": variant})

    if problem.family == "quadratic":
        sp_round = 3 * n
    else:
        sp_round = np.array([3 * n + len(J) for J in problem.partition], dtype=np.int64)

    w_self = w.diag[:, None]
    _emit(trace, ledger, X, 0, None, None, problem, oracle, W_dense)
    while not budget.exhausted(ledger):
        X_new = gather(w, X, acc=w_self * X) - alpha * U
        if variant == "quadratic":
            dU = np.matmul(problem.B, (X_new - X)[..., None])[..., 0]
        else:
            # the gradient at X is the one taken at X_new a round earlier
            G_new = problems.stacked_gradient(problem, X_new)
            dU = G_new - G
            G = G_new
        U = gather(w, U, acc=w_self * U) + dU
        X = X_new
        ledger.charge_round(sp_round, 2)
        if record_rounds:
            _emit(trace, ledger, X, 0, None, None, problem, oracle, W_dense)
        if not (np.isfinite(X).all() and np.isfinite(U).all()):
            trace.numerical_failure = True
            break
        if np.max(np.linalg.norm(X, axis=1)) > DIVERGENCE_CEILING:
            trace.diverged = True
            break
    trace.x_final = X.reshape(-1)
    return trace
