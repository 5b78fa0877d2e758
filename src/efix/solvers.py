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
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import analysis, penalty, problems, simnet
from .topology import gather

DIVERGENCE_CEILING = 1e12
# trace rows queued before their metrics are evaluated as one block
ROW_RING = 16
# a sum of squares at most this leaves every row norm below the ceiling
_SAFE_SQUARE_SUM = 0.5 * DIVERGENCE_CEILING ** 2


@dataclass(frozen=True)
class Schedule:
    """The rule producing theta_s for the outer loop, from a finite theta0 > 0.

    theta_rule "factorial" grows theta_{s+1} = (s+1) theta_s; "linear"
    uses theta_s = (s+1) theta0 (with theta0 = 1 the stage penalties are
    1, 2, 3, ...).  Each stage's tolerance eps_s is always
    ``epsilon_balance(theta_s, ...)``, which matches the inner tolerance to
    the penalty approximation error.  ``q_mode`` is accepted and ignored,
    for callers that still pass it: each stage's Chebyshev rounds sweep at
    their own relaxation q = 2 / (a + b), so no schedule value sets q.
    """

    theta0: float
    theta_rule: str = "factorial"
    q_mode: str = "fixed"

    def __post_init__(self):
        if not (math.isfinite(self.theta0) and self.theta0 > 0):
            raise ValueError(f"theta0 must be finite and positive, got {self.theta0}")
        if self.theta_rule not in ("factorial", "linear"):
            raise ValueError(f"unknown theta rule {self.theta_rule!r}")

    def theta_at(self, s):
        if self.theta_rule == "factorial":
            th = self.theta0 * math.factorial(s)
        else:
            th = self.theta0 * (s + 1)
        if not math.isfinite(th):
            raise OverflowError(f"theta overflowed at stage {s}")
        return th


@dataclass(frozen=True)
class Budget:
    """Stop conditions, each a nonnegative integer; at least one must be set.

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
            if not isinstance(limit, numbers.Integral):
                # a NaN limit is never reached (rounds >= nan is false); 5.5 stops after 6
                kind = "finite" if not math.isfinite(limit) else "an integer"
                raise ValueError(f"budget limit {name} must be {kind}, got {limit}")
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
    x_final: np.ndarray | None = None   # (N, n)


def epsilon_balance(theta, consts, gap):
    """Inner tolerance balancing solver error against penalty error.

    eps = mu (L J sqrt(4 - 2 kappa/theta) / (theta kappa gap) + J / (theta gap)), gap = ``w.gap``.
    """
    if theta <= consts.kappa / 2.0:
        raise ValueError(f"theta={theta} must exceed kappa/2={consts.kappa / 2.0}")
    root = math.sqrt(4.0 - 2.0 * consts.kappa / theta)
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


def cbar(problem):
    """Norm bound on the subproblem right-hand side, the same at every stage.

    Quadratic family: the exact ||c||, with c_i = B_ii b_i for any theta.
    General family: the rough estimate 3 L sqrt(N); the exact norm moves
    with the expansion point, which no node knows in full.
    """
    if problem.family == "quadratic":
        return float(np.linalg.norm(problem.Bb))
    return 3.0 * problems.constants_for(problem).L * math.sqrt(problem.node_count)


def _round_fault(Z):
    """The ``Trace`` flag that a round's (N, n) iterate raises, or None.

    One dot product first: the computed sum of all squares is within a
    relative Nn eps of the true sum, which bounds every row's squared norm,
    so a sum at most half the squared ceiling leaves every row norm below
    it.  A NaN or inf in Z makes the sum NaN or inf, which the comparison
    sends on to the exact test, as it does any larger sum.

    The exact test takes ``m = max_i ||Z_i||^2`` from the row sums
    ``np.linalg.norm`` takes, so while m is finite, Z is finite and
    ``sqrt(m)`` is bitwise the largest row norm: the run has diverged iff
    it exceeds the ceiling.  An infinite or NaN m is a NaN or inf in Z
    (``numerical_failure``) or else a row whose squares overflow, whose
    norm is inf (``diverged``).
    """
    if np.vdot(Z, Z) <= _SAFE_SQUARE_SUM:
        return None
    m = float(np.add.reduce(Z * Z, axis=1).max())
    if math.isfinite(m):
        return "diverged" if math.sqrt(m) > DIVERGENCE_CEILING else None
    return "diverged" if np.isfinite(Z).all() else "numerical_failure"


def _all_finite(U):
    """``np.isfinite(U).all()``, from one dot product while its sum of squares is finite."""
    return math.isfinite(np.vdot(U, U)) or bool(np.isfinite(U).all())


def _emit(run, X, s=0, theta=None, eps=None):
    """Queue (N, n) iterate X's trace row at the run's costs; DIGing's rows keep the defaults.

    X is copied into the run's row ring, which ``_flush`` empties once it is full.
    """
    k = len(run.queued)
    run.ring[k] = X
    run.queued.append((run.ledger.rounds, s, theta, eps, run.ledger.max_sp,
                       run.ledger.total_sent))
    if k + 1 == ROW_RING:
        _flush(run)


def _flush(run):
    """Evaluate the queued rows a block at a time and append their records in row order.

    The consensus residual ``||X - W X||`` is the dense product per row
    (``matmul`` runs one GEMM per ring slot) and the ddot that
    ``np.linalg.norm`` takes, as ``vecdot`` over the flattened rows.
    """
    k = len(run.queued)
    if not k:
        return
    Xs = run.ring[:k]
    A = np.matmul(run.W_dense, Xs, out=run.ring_scratch[:k])
    np.subtract(Xs, A, out=A)
    flat = A.reshape(k, -1)
    residuals = np.vecdot(flat, flat).tolist()
    rows = zip(run.queued, analysis.error_e(Xs, run.oracle),
               analysis.error_v(Xs, run.problem), residuals)
    run.trace.records.extend(
        analysis.TraceRecord(round=rnd, outer_s=s, theta=theta, epsilon=eps, error_e=e,
                             error_v=v, consensus_residual=math.sqrt(r), cum_sp_max=sp,
                             cum_vectors_sent=sent)
        for (rnd, s, theta, eps, sp, sent), e, v, r in rows)
    run.queued.clear()


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


_StageSetup = namedtuple("_StageSetup", "s theta eps sub plan")


class _Run:
    """The set-up and bookkeeping that all four solvers share.

    ``Z`` is the (N, n) iterate: a C-ordered copy of ``x0`` of that shape, or else zeros,
    so the stages' round buffers are C-ordered too.  ``fault`` is the ``_round_fault``
    that stops the run; ``finish`` flags it and sets ``x_final``.  ``_emit`` copies each
    row's iterate into the (ROW_RING, N, n) ``ring`` and its round, stage and costs into
    ``queued``; ``_flush`` evaluates them when the ring is full, at the end of every
    stage and in ``finish``, so every returned trace holds all of its rows.
    """

    def __init__(self, problem, w, algo, oracle, x0, record_rounds, meta):
        N, n = problem.node_count, problem.dim
        if w.node_count != N:
            raise ValueError("network and problem disagree on the node count")
        self.problem, self.w, self.record_rounds = problem, w, record_rounds
        self.oracle = oracle or analysis.solve_reference(problem)
        # every row's error_e divides by ||y*||: refuse a zero y* before any round
        analysis.relative_scale(self.oracle)
        self.W_dense = w.to_dense()
        self.ring, self.ring_scratch = np.empty((2, ROW_RING, N, n))
        self.queued = []
        self.Z = np.zeros((N, n)) if x0 is None else np.array(x0, dtype=float, order="C")
        if self.Z.shape != (N, n):
            raise ValueError(f"x0 must be ({N}, {n}) node blocks, got shape {self.Z.shape}")
        self.ledger = simnet.CostLedger(w.degrees())
        self.trace = Trace(algo=algo, problem_hash=problems.problem_fingerprint(problem),
                           node_count=N, dim=n, meta=meta)
        self.fault = None

    def finish(self):
        _flush(self)
        if self.fault:
            setattr(self.trace, self.fault, True)
        self.trace.x_final = self.Z
        return self.trace


def _efix_run(algo, problem, w, oracle, x0, record_rounds):
    """An EFIX run's harness, and the problem's constants that its trace carries."""
    c = problems.constants_for(problem)
    meta = {"L": c.L, "mu": c.mu, "J": c.J, "gap": w.gap, "w_bar": w.w_bar}
    return _Run(problem, w, algo, oracle, x0, record_rounds, meta), c


def _stages(run, consts, sched, budget):
    """A ``_StageSetup`` for each penalty stage that the budget allows, until a round faults.

    ``sub`` is the model's subproblem at the current iterate; on the general
    family its re-linearization is charged before the stage's first row.  A
    quadratic's model does not depend on the iterate, so a stage whose theta
    equals the previous one's (stage 1 of the factorial rule: 1! = 0!) takes
    that stage's subproblem and plan, which it would rebuild bit for bit.
    """
    quadratic = run.problem.family == "quadratic"
    boundary_sp = None if quadratic else np.array(
        [len(J) + 2 * run.problem.dim for J in run.problem.partition], dtype=np.int64)
    s, st = 0, None
    while run.fault is None and s != budget.outer and (s == 0 or not budget.exhausted(run.ledger)):
        theta_s = sched.theta_at(s)
        reuse = quadratic and st is not None and theta_s == st.theta
        sub = st.sub if reuse else penalty.assemble_model(run.problem, run.Z, run.w, theta_s)
        if boundary_sp is not None:
            run.ledger.charge_local(boundary_sp)
        st = _StageSetup(s, theta_s, epsilon_balance(theta_s, consts, run.w.gap), sub,
                         st.plan if reuse else penalty.chebyshev_plan(sub, consts.mu))
        yield st
        s += 1


def _stage(run, budget, st, done, k_planned=None):
    """Run one stage's Chebyshev-JOR rounds from ``run.Z`` until ``done(k, Z)``.

    The exit test runs before the budget check.  Emits the stage's rows and
    record, and leaves the last round's iterate and fault in ``run``.
    """
    s, theta, eps, sub, plan = st
    sweep = penalty.relaxed(sub, plan.q)
    ledger, record, sp_round = run.ledger, run.record_rounds, 2 * sub.dim + 3
    # three iterate buffers: each round writes the spare, the iterate of two rounds back
    Z, Z_prev, spare, wsum = run.Z, run.Z.copy(), np.empty_like(run.Z), np.empty_like(run.Z)
    _emit(run, Z, s, theta, eps)
    k, fault = 0, None
    while fault is None and not done(k, Z) and not budget.exhausted(ledger):
        Y = penalty.chebyshev_step(Z, Z_prev, sweep, plan.weight(k), spare, wsum)
        Z, Z_prev, spare = Y, Z, Z_prev
        ledger.charge_round(sp_round, 1)
        k += 1
        if record:
            _emit(run, Z, s, theta, eps)
        fault = _round_fault(Z)
    run.Z, run.fault = Z, fault
    _flush(run)
    run.trace.outer.append(OuterRecord(
        s=s, theta=theta, epsilon=eps, q=plan.q, rho=plan.rate, k_planned=k_planned,
        k_run=k, grad_norm=penalty.penalty_gradient(sub, Z)[1],
        error_max=analysis.max_node_error(Z, run.oracle)))


def _planned(algo, problem, w, sched, budget, oracle, x0, record_rounds):
    """efix_q's and efix_g's run: stage s runs the k(s) rounds of ``inner_count``."""
    run, consts = _efix_run(algo, problem, w, oracle, x0, record_rounds)
    # k(0) is sized from the gradient norm at x0, so a planned run classifies x0 first
    run.fault = _round_fault(run.Z)
    # the right-hand-side norms of two neighboring stages share one bound
    cbar_sum = 2.0 * cbar(problem)
    for st in _stages(run, consts, sched, budget):
        if st.s == 0:
            _, eps_prev = penalty.penalty_gradient(st.sub, run.Z)
        k_s = inner_count(eps_prev, st.eps, st.theta, st.plan.rate, cbar_sum, consts.L,
                          consts.mu, solver_constant=2.0 * st.plan.C)
        _stage(run, budget, st, lambda k, Z: k >= k_s, k_s)
        eps_prev = st.eps
    return run.finish()


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
    return _planned("efix-q", problem, w, sched, budget, oracle, x0, record_rounds)


def efix_g(problem, w, sched: Schedule, budget: Budget, oracle=None, x0=None,
           record_rounds=True) -> Trace:
    """Generic strongly convex variant: re-linearize each outer stage.

    Every stage rebuilds the subproblem from the local gradients and
    Hessians at the current iterate.  On a quadratic problem the model is
    the problem itself, so the iterate sequence reproduces efix_q exactly.
    """
    return _planned("efix-g", problem, w, sched, budget, oracle, x0, record_rounds)


def efix_q_stopping(problem, w, sched: Schedule, budget: Budget, oracle=None,
                    x0=None, record_rounds=True) -> Trace:
    """Reference variant exiting each stage on the true gradient-norm test.

    The exit test reads the full stacked iterate, which no node could do
    in a deployment; traces are flagged ``centralized_reference`` and the
    variant exists to calibrate the precomputed round counts.
    """
    if problem.family != "quadratic":
        raise TypeError("efix_q_stopping handles quadratic problems")
    run, consts = _efix_run("efix-q-stopping", problem, w, oracle, x0, record_rounds)
    run.trace.centralized_reference = True
    for st in _stages(run, consts, sched, budget):
        _stage(run, budget, st, lambda k, Z: penalty.penalty_gradient(st.sub, Z)[1] <= st.eps)
    return run.finish()


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
    3n + |J_i| for logistic ones.  The mixing contracts only if
    ``w.lambda2 < 1``, so any other W is refused.
    """
    if alpha < 0:
        raise ValueError("step size must be nonnegative")
    if w.lambda2 >= 1.0:
        raise ValueError(f"DIGing needs lambda2 < 1, got lambda2={w.lambda2}; the weight rule "
                         "w_ij = 1/max(d_i, d_j) gives lambda2 = 1 on 2-node networks "
                         "and the 4-cycle")
    if budget.outer is not None:
        raise ValueError("DIGing has no outer iterations; budget by rounds or scalar products")
    variant = variant or ("quadratic" if problem.family == "quadratic" else "general")
    run = _Run(problem, w, "diging", oracle, x0, record_rounds,
               {"alpha": alpha, "variant": variant})
    X, ledger = run.Z, run.ledger
    G = problem.stacked_gradient(X)
    U = G

    if problem.family == "quadratic":
        sp_round = 3 * problem.dim
    else:
        sp_round = np.array([3 * problem.dim + len(J) for J in problem.partition], dtype=np.int64)

    w_self = w.diag[:, None]
    _emit(run, X)
    fault = None
    while fault is None and not budget.exhausted(ledger):
        X_new = gather(w, X, acc=w_self * X) - alpha * U
        if variant == "quadratic":
            dU = np.matmul(problem.B, (X_new - X)[..., None])[..., 0]
        else:
            # the gradient at X is the one taken at X_new a round earlier
            G_new = problem.stacked_gradient(X_new)
            dU = G_new - G
            G = G_new
        U = gather(w, U, acc=w_self * U) + dU
        X = X_new
        ledger.charge_round(sp_round, 2)
        if record_rounds:
            _emit(run, X)
        fault = "numerical_failure" if not _all_finite(U) else _round_fault(X)
    run.Z, run.fault = X, fault
    return run.finish()
