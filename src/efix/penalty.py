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
from dataclasses import dataclass, replace
from functools import cached_property

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

    @cached_property
    def coupling_weights(self):
        """The blocks' weights -theta w_ij as ``gather`` reads them, built once per subproblem.

        A read-only full-width (dmax, N, n) stack, like ``w.slot_weights(n)``:
        the same products as the (dmax, N, 1) broadcast, at less cost.
        """
        stack = -(self.theta * self.w.slot_weights(self.dim))
        stack.setflags(write=False)
        return stack


def assemble(h_blocks, c_blocks, w: MixingMatrix, theta) -> PenaltySubproblem:
    """Build the subproblem from local Hessian blocks and right-hand sides."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    H = np.asarray(h_blocks, dtype=float)
    c = np.asarray(c_blocks, dtype=float)
    A_self = H + (theta * (1.0 - w.diag))[:, None, None] * np.eye(H.shape[1])
    d = np.diagonal(A_self, axis1=1, axis2=2).copy()
    bad = np.flatnonzero((d <= 0).any(axis=1))
    if bad.size:
        raise ValueError(f"nonpositive diagonal in block {bad[0]}; input violates strong convexity")
    return PenaltySubproblem(theta=float(theta), w=w, A_self=A_self, d=d, dinv=1.0 / d, c=c)


def relaxed(sub: PenaltySubproblem, q) -> PenaltySubproblem:
    """The same system with its JOR splitting at relaxation q.

    Self blocks q D_i^{-1} (D_i - A_ii) + (1 - q) I and offsets q D_i^{-1} c_i.
    """
    I = np.eye(sub.dim)
    d = sub.d[:, :, None]
    M_self = q * ((d * I - sub.A_self) / d) + (1.0 - q) * I
    return replace(sub, q=float(q), M_self=M_self, p=q * sub.c / sub.d)


def assemble_model(problem, X, w: MixingMatrix, theta) -> PenaltySubproblem:
    """Subproblem of the quadratic model built at the (N, n) node blocks X.

    H_i = local Hessian at X_i and c_i = H_i X_i - grad f_i(X_i), all from
    ``problem.stacked_model``; a quadratic's model is its cost.
    """
    return assemble(*problem.stacked_model(X), w, theta)


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


def jor_step(Z, sub: PenaltySubproblem, out=None, wsum=None):
    """One synchronous JOR sweep M z + p over the (N, n) node blocks Z.

    Each node's terms are added in the order ``jor_local_update`` adds
    them, so row i equals that node update bit for bit.  The sweep is
    written to ``out`` and the neighbor sums to the scratch ``wsum``:
    (N, n) C-ordered arrays distinct from Z and each other, or None for
    fresh ones.
    """
    wsum = gather(sub.w, Z, out=wsum)
    # acc + (q theta) (dinv wsum), in place on the two buffers
    acc = np.matmul(sub.M_self, Z[..., None], out=None if out is None else out[..., None])[..., 0]
    acc += sub.p
    wsum *= sub.dinv
    wsum *= sub.q * sub.theta
    acc += wsum
    return acc


def penalty_gradient(sub: PenaltySubproblem, Z):
    """(N, n) blocks of A z - c and its norm: the gradient of the penalty (or model) objective."""
    acc = np.matmul(sub.A_self, Z[..., None])[..., 0]
    G = gather(sub.w, Z, weights=sub.coupling_weights, acc=acc) - sub.c
    return G, float(np.linalg.norm(G))


def dense_system(sub: PenaltySubproblem):
    """(A, c) as dense arrays; desk-scale helper for oracles and tests."""
    N, n = sub.node_count, sub.dim
    w = sub.w
    blocks = np.zeros((N, N, n, n))
    blocks[np.arange(N)[:, None], w.idx] = (-sub.theta * w.wt)[:, :, None, None] * np.eye(n)
    # after the table: padding slots wrote zero blocks onto the diagonal
    blocks[np.arange(N), np.arange(N)] = sub.A_self
    return blocks.transpose(0, 2, 1, 3).reshape(N * n, N * n), sub.c.reshape(-1)


def contraction_estimate(sub: PenaltySubproblem) -> float:
    """Spectral radius rho of the JOR matrix M, its certified rate, in (0, 1).

    D^{1/2} M D^{-1/2} = I - q S with the symmetric S = D^{-1/2} A D^{-1/2},
    so rho = max |1 - q lambda(S)| is also the norm of M in ||z||_{D^{1/2}} =
    ||D^{1/2} z||: ||z_k - x*||_{D^{1/2}} <= rho^k ||z_0 - x*||_{D^{1/2}}.
    """
    A, _ = dense_system(sub)
    s = np.sqrt(sub.dinv.reshape(-1))
    lam = np.linalg.eigvalsh(s[:, None] * A * s)
    rho = float(np.abs(1.0 - sub.q * lam).max())
    if rho >= 1.0:
        raise NonContractiveError(
            f"iteration matrix is not contractive (spectral radius {rho:.6g}); "
            f"q={sub.q:.6g} lies outside the convergence region")
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

    @cached_property
    def rate_squared(self):
        return self.rate ** 2

    def weight(self, k):
        """omega for round k of a stage (k = 0 is its first round).

        omega_0 = 1 and omega_k = (1 + r^2)(1 + r^(2k)) / (1 + r^(2k+2)),
        the ratio 2 T_k(1/rho) / (rho T_(k+1)(1/rho)) with rho = (b - a)/(b + a)
        written in r, which cannot overflow.
        """
        if k == 0:
            return 1.0
        r2 = self.rate_squared
        return (1.0 + r2) * (1.0 + r2 ** k) / (1.0 + r2 ** (k + 1))


def chebyshev_plan(sub: PenaltySubproblem, mu) -> ChebyshevPlan:
    """Certified spectral interval of D^{-1} A without dense linear algebra.

    a = max(lam, mu) / max d bounds lambda_min(D^{-1/2} A D^{-1/2}) from
    below, where lam is a consensus-aware bound on lambda_min(A).  Split
    x = u + v with u = 1 (x) y the consensus part and sum_i v_i = 0:
    u'Hu >= hbar |u|^2 with hbar = lambda_min(mean_i H_i);
    v'Hv + theta v'((I - W) (x) I)v >= g |v|^2 with g = mu + theta ``w.gap``, the
    gap being the least nonzero eigenvalue of I - W; and |u'Hv| <= eta |u||v|
    with eta = max_i ||H_i||.  So lambda_min(A) >= lam = lambda_min([[hbar, -eta],
    [-eta, g]]).  When lam <= mu, a is exactly the Rayleigh bound mu / max d (A >= mu I).

    b is the largest Gershgorin row sum of D^{-1} A, whose off-diagonal
    blocks are -theta w_ij I.  Everything comes from the nodes' own blocks
    and weights plus one batched eigvalsh over the H_i and their mean,
    O(N n^3), combined centrally like theta_s.
    """
    if mu <= 0:
        raise ValueError("need a positive strong-convexity constant mu")
    d_max = float(sub.d.max())
    # a theta near the float limit overflows b to inf, which the rate check refuses
    with np.errstate(over="ignore"):
        rows = np.abs(sub.A_self).sum(axis=2) + sub.theta * sub.w.off_abs_sums[:, None]
    b = float(np.max(rows / sub.d))
    # the theta shift sits only on the diagonal of A_ii
    H = sub.A_self - (sub.theta * (1.0 - sub.w.diag))[:, None, None] * np.eye(sub.dim)
    ev = np.linalg.eigvalsh(np.concatenate([H, H.mean(axis=0)[None]]))
    h_bar = float(ev[-1, 0])
    eta = float(np.abs(ev[:-1]).max())
    g = mu + sub.theta * sub.w.gap
    # det / lambda_max: (h_bar + g)/2 - sqrt(...) would cancel at large theta
    lam_max = 0.5 * (h_bar + g) + math.hypot(0.5 * (h_bar - g), eta)
    lam = (h_bar * g - eta * eta) / lam_max
    plan = ChebyshevPlan(a=min(max(lam, mu) / d_max, b), b=b,
                         C=math.sqrt(d_max / float(sub.d.min())))
    if not plan.rate < 1.0:
        raise ValueError(f"penalty stage at theta={sub.theta:.6g} has no certified "
                         f"contraction rate below 1 (rate {plan.rate})")
    return plan


def chebyshev_combine(omega, y, z_prev):
    """The extrapolation z+ = omega (y - z_prev) + z_prev: axpy work only."""
    return omega * (y - z_prev) + z_prev


def chebyshev_step(Z, Z_prev, sweep: PenaltySubproblem, omega, out=None, wsum=None):
    """One Chebyshev round over (N, n) node blocks; ``sweep`` is relaxed to the plan's q.

    ``chebyshev_combine``'s operations, in place on the sweep's result,
    which ``jor_step`` writes to ``out`` (distinct from Z and Z_prev too).
    """
    Y = jor_step(Z, sweep, out, wsum)
    Y -= Z_prev
    Y *= omega
    Y += Z_prev
    return Y
