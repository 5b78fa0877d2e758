"""Ground-truth oracles, error metrics, and trace post-processing."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OracleSolution:
    y_star: np.ndarray
    f_star: float
    method: str


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


def oracle_logistic(problem, tol=1e-10, max_iter=100) -> OracleSolution:
    """Centralized damped Newton on the strongly convex global objective."""
    n = problem.dim
    N = problem.node_count
    y = np.zeros(n)

    def full_grad(y):
        return sum(problem.local_gradient(i, y) for i in range(N))

    def full_hess(y):
        return sum(problem.local_hessian(i, y) for i in range(N))

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


def solve_reference(problem, **kwargs) -> OracleSolution:
    if problem.family == "quadratic":
        return oracle_quadratic(problem)
    return oracle_logistic(problem, **kwargs)


def error_e(x, oracle: OracleSolution) -> float:
    """Average per-node relative distance to the oracle solution."""
    ynorm = np.linalg.norm(oracle.y_star)
    if ynorm == 0:
        raise ValueError("oracle solution is zero; relative error undefined")
    X = np.asarray(x, dtype=float).reshape(-1, oracle.y_star.size)
    return float(np.mean(np.linalg.norm(X - oracle.y_star, axis=1)) / ynorm)


def error_v(x, problem) -> float:
    """Average global objective across the nodes' estimates.

    Vectorized over nodes (an N x N sweep otherwise dominates per-round
    trace collection); agrees with averaging ``global_objective`` directly.
    A quadratic objective is evaluated in its expanded form, O(n^2) per
    node instead of O(N n^2).
    """
    X = np.asarray(x, dtype=float).reshape(problem.node_count, -1)
    if problem.family == "quadratic":
        H, r, f0 = problem.expanded_objective
        vals = 0.5 * ((X @ H) * X).sum(axis=1) - X @ r + f0
    else:
        # margins t = zeta * s; logaddexp(0, -t) = max(-t, 0) + log1p(exp(-|t|))
        # takes numpy's own branches through its vectorised exp and log1p
        # loops, and |t| = |s| because every label is +-1
        s = problem.features @ X.T
        loss = s * -problem.labels[:, None]
        np.maximum(loss, 0.0, out=loss)
        np.abs(s, out=s)
        np.negative(s, out=s)
        np.exp(s, out=s)
        np.log1p(s, out=s)
        loss += s
        vals = loss.sum(axis=0) \
            + problem.node_count * 0.5 * problem.mu * (X * X).sum(axis=1)
    return float(np.mean(vals))


def max_node_error(x, oracle: OracleSolution) -> float:
    X = np.asarray(x, dtype=float).reshape(-1, oracle.y_star.size)
    return float(np.max(np.linalg.norm(X - oracle.y_star, axis=1)))


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
           if lo <= rec.s <= hi and rec.error_max is not None and rec.error_max > 0]
    if len(pts) < 5:
        raise ValueError(f"only {len(pts)} usable stages in s range {s_range}; need at least 5")
    return loglog_slope([t for t, _ in pts], [e for _, e in pts])


def first_hit(trace, tol):
    """theta of the first outer stage whose max-node error is <= tol, or None."""
    for rec in trace.outer:
        if rec.error_max is not None and rec.error_max <= tol:
            return rec.theta
    return None


def complexity_bound(consts, lambda2, tol) -> int:
    """Outer-stage upper bound ceil(2 J (3 + 2L/mu) / ((1 - lambda2) tol))."""
    return math.ceil(2.0 * consts.J * (3.0 + 2.0 * consts.L / consts.mu)
                     / ((1.0 - lambda2) * tol))
