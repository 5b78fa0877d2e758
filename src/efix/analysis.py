"""Ground-truth oracles, error metrics, and trace post-processing."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class OracleSolution:
    y_star: np.ndarray
    f_star: float
    method: str

    @cached_property
    def y_norm(self):
        """||y*||, computed once for every ``error_e`` row."""
        return np.linalg.norm(self.y_star)


@dataclass
class TraceRecord:
    """One emitted trace row (per round, or per outer-stage entry)."""

    round: int
    outer_s: int
    theta: float | None
    epsilon: float | None
    error_e: float | None
    error_v: float | None
    consensus_residual: float
    cum_sp_max: int
    cum_vectors_sent: int


def oracle_quadratic(problem) -> OracleSolution:
    """Exact minimizer (sum_i B_ii)^{-1} sum_i B_ii b_i by dense solve."""
    H, rhs, _ = problem.expanded_objective
    y = np.linalg.solve(H, rhs)
    return OracleSolution(y_star=y, f_star=float(problem.global_objective(y)),
                          method="direct-solve")


def _node_order_sum(stack):
    """0 + stack[0] + stack[1] + ..., left to right, as Python's ``sum`` adds node terms.

    Not ``np.add.reduce(stack, axis=0)``: that adds in node order only
    while the node axis is outermost in memory, and sums pairwise when it
    is the contiguous one.
    """
    total = 0.0 + stack[0]
    for term in stack[1:]:
        total += term
    return total


def oracle_logistic(problem, tol=1e-10, max_iter=100) -> OracleSolution:
    """Centralized damped Newton on the strongly convex global objective.

    The full gradient and Hessian add the nodes' terms in node order, from
    one batched pass of ``stacked_gradient`` and ``stacked_hessian``.
    """
    n = problem.dim
    N = problem.node_count
    y = np.zeros(n)

    def full_grad(y):
        return _node_order_sum(problem.stacked_gradient(np.repeat(y[None], N, axis=0)))

    def full_hess(y):
        return _node_order_sum(problem.stacked_hessian(np.repeat(y[None], N, axis=0)))

    for _ in range(max_iter):
        g = full_grad(y)
        if np.linalg.norm(g) <= tol:
            return OracleSolution(y_star=y, f_star=float(problem.global_objective(y)),
                                  method="newton")
        step = np.linalg.solve(full_hess(y), g)
        t = 1.0
        f_here = problem.global_objective(y)
        # halve until decrease; strong convexity guarantees termination
        while problem.global_objective(y - t * step) > f_here and t > 1e-14:
            t *= 0.5
        y = y - t * step
    raise RuntimeError(f"Newton oracle did not reach tol={tol} within {max_iter} iterations")


def solve_reference(problem) -> OracleSolution:
    if problem.family == "quadratic":
        return oracle_quadratic(problem)
    return oracle_logistic(problem)


def _node_distances(X, oracle: OracleSolution):
    """||X_i - y*|| per node block, by the steps ``np.linalg.norm(..., axis=-1)`` takes."""
    D = X - oracle.y_star
    return np.sqrt(np.add.reduce(D * D, axis=-1))


def _node_mean(vals):
    """The mean over the last (node) axis as ``np.mean`` takes it: the sum, then / N."""
    return np.add.reduce(vals, axis=-1) / vals.shape[-1]


def relative_scale(oracle: OracleSolution):
    """||y*||, which ``error_e`` divides by; a zero solution leaves it undefined."""
    if oracle.y_norm == 0:
        raise ValueError("oracle solution is zero; relative error undefined")
    return oracle.y_norm


def error_e(X, oracle: OracleSolution):
    """Average relative distance of node blocks to the oracle solution.

    X is one (N, n) iterate, giving a float, or an (R, N, n) block of R
    iterates, giving a list of R floats, each bitwise the one-iterate value.
    """
    return (_node_mean(_node_distances(X, oracle)) / relative_scale(oracle)).tolist()


def error_v(X, problem):
    """Average global objective across the nodes' estimates, the rows of X.

    X is one (N, n) iterate, giving a float, or an (R, N, n) block of R
    iterates, giving a list of R floats, each bitwise the one-iterate value:
    the stacked ``matmul`` calls run one GEMM or GEMV per iterate.
    Vectorized over nodes (an N x N sweep otherwise dominates per-round
    trace collection); agrees with averaging ``global_objective`` directly.
    A quadratic objective is evaluated in its expanded form, O(n^2) per
    node instead of O(N n^2).
    """
    if problem.family == "quadratic":
        H, r, f0 = problem.expanded_objective
        vals = 0.5 * np.add.reduce(np.matmul(X, H) * X, axis=-1) - np.matmul(X, r) + f0
    else:
        # margins t = zeta * (D x); logaddexp(0, -t) = max(-t, 0) + log1p(exp(-|t|))
        # takes numpy's own branches through its vectorised exp and log1p
        # loops.  Every label is +-1, so s = (-zeta D) x is bitwise -t and
        # |s| = |t|; both (T, N) buffers are the problem's, reused per
        # iterate.  One iterate at a time: a stacked (T, R N) layout gave
        # the same bits but was no faster and needs R times the buffers
        signed, s, loss = problem.error_v_workspace
        regularizer = problem.node_count * 0.5 * problem.mu
        blocks = X.reshape(-1, *X.shape[-2:])   # one iterate is a block of one
        vals = np.empty(blocks.shape[:2])
        for x, out in zip(blocks, vals):
            np.matmul(signed, x.T, out=s)
            np.maximum(s, 0.0, out=loss)
            np.abs(s, out=s)
            np.negative(s, out=s)
            np.exp(s, out=s)
            np.log1p(s, out=s)
            loss += s
            np.add(np.add.reduce(loss, axis=0), regularizer * np.add.reduce(x * x, axis=1),
                   out=out)
        vals = vals.reshape(X.shape[:-1])
    return _node_mean(vals).tolist()


def max_node_error(X, oracle: OracleSolution) -> float:
    return float(np.max(_node_distances(X, oracle)))


def loglog_slope(thetas, errors) -> float:
    """Least-squares slope of log(error) against log(theta)."""
    lt = np.log(np.asarray(thetas, dtype=float))
    le = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(lt, le, 1)[0])


def slope_fit(trace, s_range) -> float:
    """Slope of log max-node error vs log theta over outer stages in s_range.

    Requires at least 5 stages with positive recorded errors.
    """
    lo, hi = s_range
    pts = [(rec.theta, rec.error_max) for rec in trace.outer
           if lo <= rec.s <= hi and rec.error_max > 0]
    if len(pts) < 5:
        raise ValueError(f"only {len(pts)} usable stages in s range {s_range}; need at least 5")
    return loglog_slope([t for t, _ in pts], [e for _, e in pts])


def first_hit(trace, tol):
    """theta of the first outer stage whose max-node error is <= tol, or None."""
    return next((rec.theta for rec in trace.outer if rec.error_max <= tol), None)


def complexity_bound(consts, gap, tol) -> int:
    """Outer-stage upper bound ceil(2 J (3 + 2L/mu) / (gap tol)), gap from ``MixingMatrix``."""
    return math.ceil(2.0 * consts.J * (3.0 + 2.0 * consts.L / consts.mu) / (gap * tol))
