"""Penalty linear systems A x = c and their Jacobi over-relaxation splitting.

A = H + theta * (I - W (x) I) where H is the block-diagonal of local
Hessians.  Off-diagonal blocks are -theta * w_ij * I, i.e. scalar multiples
of the identity, so only the diagonal blocks are ever stored densely; that
is what makes one JOR sweep an O(n)-per-neighbor update.

The EFIX solvers accelerate the sweep by Chebyshev semi-iteration
(Golub & Varga, 1961): D^{-1} A is similar to the symmetric
D^{-1/2} A D^{-1/2}, so its spectrum is real, and an interval [a, b]
around it, bounded from the nodes' own blocks, fixes the sweep's
relaxation, the extrapolation weights and a certified rate.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .topology import MixingMatrix, gather


class NonContractiveError(RuntimeError):
    """The JOR iteration matrix is not a contraction (q outside the valid range)."""


@dataclass
class PenaltySubproblem:
    """Assembled blocks of A x = c for one theta, and its JOR splitting.

    ``A_self[i]`` is the diagonal block H_i + theta (1 - w_ii) I and ``d[i]``
    its diagonal.  The JOR fields are ``None`` until ``relaxed`` sets them:
    the relaxation ``q``, the self blocks ``M_self[i]`` and the offsets
    ``p[i]`` = q D_ii^{-1} c_i.  Neighbor coupling is implicit:
    M_ij x_j = q theta w_ij D_ii^{-1} x_j.
    """

    theta: float
    w: MixingMatrix
    A_self: np.ndarray   # (N, n, n)
    d: np.ndarray        # (N, n) positive diagonals
    dinv: np.ndarray
    c: np.ndarray        # (N, n)
    q: float | None = None
    M_self: np.ndarray | None = None
    p: np.ndarray | None = None   # (N, n)

    @property
    def node_count(self):
        return self.A_self.shape[0]

    @property
    def dim(self):
        return self.A_self.shape[1]


def assemble(h_blocks, c_blocks, w: MixingMatrix, theta) -> PenaltySubproblem:
    """Build the subproblem from local Hessian blocks and right-hand sides."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    N = w.node_count
    H = np.asarray(h_blocks, dtype=float)
    c = np.asarray(c_blocks, dtype=float)
    n = H.shape[1]
    I = np.eye(n)
    A_self = np.empty_like(H)
    d = np.empty((N, n))
    for i in range(N):
        A_self[i] = H[i] + theta * (1.0 - w.diag[i]) * I
        d[i] = np.diag(A_self[i])
        if np.any(d[i] <= 0):
            raise ValueError(f"nonpositive diagonal in block {i}; input violates strong convexity")
    return PenaltySubproblem(theta=float(theta), w=w, A_self=A_self, d=d, dinv=1.0 / d, c=c)


def relaxed(sub: PenaltySubproblem, q) -> PenaltySubproblem:
    """The same system with its JOR splitting at relaxation q.

    Self blocks q D_i^{-1} (D_i - A_ii) + (1 - q) I and offsets q D_i^{-1} c_i.
    """
    I = np.eye(sub.dim)
    M_self = np.empty_like(sub.A_self)
    for i in range(sub.node_count):
        M_self[i] = q * ((np.diag(sub.d[i]) - sub.A_self[i]) / sub.d[i][:, None]) + (1.0 - q) * I
    return replace(sub, q=float(q), M_self=M_self, p=q * sub.c / sub.d)


def assemble_quadratic(problem, w: MixingMatrix, theta, q) -> PenaltySubproblem:
    """Subproblem of the quadratic family, H_i = B_ii and c_i = B_ii b_i, relaxed to q."""
    pairs = [problem.model_terms(i, None) for i in range(problem.node_count)]
    return relaxed(assemble([H for H, _ in pairs], [ci for _, ci in pairs], w, theta), q)


def assemble_model(problem, x_prev, w: MixingMatrix, theta) -> PenaltySubproblem:
    """Subproblem of the quadratic model built at the stacked point x_prev.

    H_i = local Hessian at x_prev_i and c_i = H_i x_prev_i - grad f_i(x_prev_i);
    for quadratic problems this reproduces ``assemble_quadratic`` exactly.
    """
    X = np.asarray(x_prev, dtype=float).reshape(problem.node_count, -1)
    pairs = [problem.model_terms(i, X[i]) for i in range(problem.node_count)]
    return assemble([H for H, _ in pairs], [ci for _, ci in pairs], w, theta)


def relaxation_bound(theta, L, w_bar):
    """Upper endpoint 2 theta (1 - w_bar) / (L + 2 theta) of plain JOR's safe q interval.

    The relaxation of the paper's unaccelerated JOR, which acceptance
    criteria 1, 2 and 9 check; the solvers sweep at the Chebyshev plan's
    q instead and never call this.
    """
    if theta <= 0 or L <= 0 or not (0 <= w_bar < 1):
        raise ValueError("need theta > 0, L > 0, w_bar in [0, 1)")
    return 2.0 * theta * (1.0 - w_bar) / (L + 2.0 * theta)


def jor_local_update(M_self, p, dinv, qtheta, neighbor_ids, neighbor_weights,
                     z_own, values_by_id):
    """One node's JOR update from its own block data and neighbor vectors.

    ``values_by_id`` maps a neighbor id to that neighbor's current vector
    (an inbox dict or a row-indexable array).  Neighbors are accumulated
    in list order, so results are bit-reproducible across callers.
    """
    wsum = None
    for k in range(len(neighbor_ids)):
        v = neighbor_weights[k] * values_by_id[neighbor_ids[k]]
        wsum = v if wsum is None else wsum + v
    acc = M_self @ z_own + p
    if wsum is not None:
        acc = acc + qtheta * (dinv * wsum)
    return acc


def jor_step(z, sub: PenaltySubproblem):
    """One synchronous JOR sweep M z + p over the stacked vector z.

    Each node's terms are added in the order ``jor_local_update`` adds
    them, so row i equals that node update bit for bit.
    """
    z = np.asarray(z, dtype=float)
    N, n = sub.node_count, sub.dim
    if z.size != N * n:
        raise ValueError(f"vector of size {z.size}, expected {N * n}")
    Z = z.reshape(N, n)
    wsum = gather(sub.w, Z)
    acc = np.matmul(sub.M_self, Z[..., None])[..., 0] + sub.p
    out = acc + (sub.q * sub.theta) * (sub.dinv * wsum)
    return out.reshape(z.shape)


def penalty_gradient(sub: PenaltySubproblem, z):
    """A z - c and its norm: the gradient of the penalty (or model) objective."""
    z = np.asarray(z, dtype=float)
    N, n = sub.node_count, sub.dim
    Z = z.reshape(N, n)
    acc = np.matmul(sub.A_self, Z[..., None])[..., 0]
    g = gather(sub.w, Z, weights=-(sub.theta * sub.w.wt), acc=acc) - sub.c
    g = g.reshape(z.shape)
    return g, float(np.linalg.norm(g))


def dense_system(sub: PenaltySubproblem):
    """(A, c) as dense arrays; desk-scale helper for oracles and tests."""
    N, n = sub.node_count, sub.dim
    w = sub.w
    blocks = np.zeros((N, N, n, n))
    blocks[np.arange(N)[:, None], w.idx] = (-sub.theta * w.wt)[:, :, None, None] * np.eye(n)
    # after the table: padding slots wrote zero blocks onto the diagonal
    blocks[np.arange(N), np.arange(N)] = sub.A_self
    return blocks.transpose(0, 2, 1, 3).reshape(N * n, N * n), sub.c.reshape(-1)


def dense_iteration_matrix(sub: PenaltySubproblem):
    """The dense JOR matrix M = q D^{-1} (D - A) + (1 - q) I of a relaxed subproblem."""
    A, _ = dense_system(sub)
    dinv = sub.dinv.reshape(-1)
    return np.eye(A.shape[0]) - sub.q * (dinv[:, None] * A)


def contraction_estimate(sub: PenaltySubproblem) -> float:
    """Upper estimate of ||M||, the JOR convergence factor, in (0, 1).

    The spectral norm is used when it certifies contraction; when it
    reaches 1 while the spectrum still contracts, the spectral radius
    (inflated by 1e-6) is substituted with a warning, because the 2-norm
    of the nonsymmetric M can exceed 1 even for convergent iterations.
    """
    M = dense_iteration_matrix(sub)
    rho = float(np.linalg.norm(M, 2))
    if rho >= 1.0:
        sr = float(np.max(np.abs(np.linalg.eigvals(M)))) * (1.0 + 1e-6)
        if sr >= 1.0:
            raise NonContractiveError(
                f"iteration matrix is not contractive (norm {rho:.6g}, spectral radius {sr:.6g}); "
                f"q={sub.q:.6g} lies outside the convergence region")
        warnings.warn(f"spectral norm {rho:.6g} >= 1; falling back to spectral radius {sr:.6g}")
        rho = sr
    return max(rho, 1e-12)


@dataclass(frozen=True)
class ChebyshevPlan:
    """Chebyshev semi-iteration over the JOR sweep of one subproblem.

    ``[a, b]`` contains the spectrum of D^{-1} A.  The sweep runs at the
    relaxation ``q = 2 / (a + b)``, which centres the spectrum of its
    iteration matrix I - q D^{-1} A on zero, and round k extrapolates
    z+ = omega_k (sweep(z) - z_prev) + z_prev.
    After k rounds the error has shrunk by at most 2 r^k / (1 + r^(2k))
    in the D^{1/2}-norm, with r = (sqrt b - sqrt a) / (sqrt b + sqrt a);
    ``C = sqrt(max d / min d)`` carries that into the 2-norm:
    ||z_k - x*|| <= 2 C r^k ||z_0 - x*||.
    """

    a: float
    b: float
    C: float

    @property
    def q(self):
        return 2.0 / (self.a + self.b)

    @property
    def rate(self):
        sa, sb = math.sqrt(self.a), math.sqrt(self.b)
        return max((sb - sa) / (sb + sa), 1e-12)

    def weight(self, k):
        """omega for round k of a stage (k = 0 is its first round).

        omega_0 = 1 and omega_k = (1 + r^2)(1 + r^(2k)) / (1 + r^(2k+2)),
        the ratio 2 T_k(1/rho) / (rho T_(k+1)(1/rho)) with rho = (b - a)/(b + a)
        written in r, which cannot overflow.
        """
        if k == 0:
            return 1.0
        r2 = self.rate ** 2
        return (1.0 + r2) * (1.0 + r2 ** k) / (1.0 + r2 ** (k + 1))


def chebyshev_plan(sub: PenaltySubproblem, mu) -> ChebyshevPlan:
    """Certified spectral interval of D^{-1} A without dense linear algebra.

    a = mu / max d is a Rayleigh-quotient bound (A >= mu I, because every
    local Hessian is and I - W >= 0); b is the largest Gershgorin row sum
    of D^{-1} A, whose off-diagonal blocks are -theta w_ij I.  Both come
    from the nodes' own blocks and weights in O(N n^2).
    """
    if mu <= 0:
        raise ValueError("need a positive strong-convexity constant mu")
    d_max = float(sub.d.max())
    off = np.array([float(np.sum(np.abs(ws))) for ws in sub.w.off_diag])
    rows = np.abs(sub.A_self).sum(axis=2) + sub.theta * off[:, None]
    b = float(np.max(rows / sub.d))
    return ChebyshevPlan(a=min(mu / d_max, b), b=b,
                         C=math.sqrt(d_max / float(sub.d.min())))


def chebyshev_combine(omega, y, z_prev):
    """The extrapolation z+ = omega (y - z_prev) + z_prev: axpy work only."""
    return omega * (y - z_prev) + z_prev


def chebyshev_step(z, z_prev, sweep: PenaltySubproblem, omega):
    """One stacked Chebyshev round; ``sweep`` is relaxed to the plan's q."""
    return chebyshev_combine(omega, jor_step(z, sweep), np.asarray(z_prev, dtype=float))
