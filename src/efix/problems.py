"""Problem families: synthetic quadratics and regularized logistic regression.

Both families expose the same local surface per node i: objective value,
gradient, Hessian, and the quadratic-model terms (H_i, c_i) used by the
penalty subproblem assembly.  Problems are immutable after construction.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _sigmoid(t):
    """Numerically stable 1/(1+exp(-t))."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True)
class ProblemConstants:
    """Global curvature constants shared by all nodes."""

    L: float
    mu: float
    kappa: float
    J: float
    f0: float


class QuadraticProblem:
    """Per-node costs f_i(y) = (1/2)(y - b_i)^T B_ii (y - b_i)."""

    family = "quadratic"

    def __init__(self, B, b):
        self.B = np.asarray(B, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.B.ndim != 3 or self.B.shape[1] != self.B.shape[2]:
            raise ValueError("B must be (N, n, n)")
        if self.b.shape != self.B.shape[:2]:
            raise ValueError("b must be (N, n)")

    @property
    def node_count(self):
        return self.B.shape[0]

    @property
    def dim(self):
        return self.B.shape[1]

    def local_objective(self, i, y):
        d = np.asarray(y, dtype=float) - self.b[i]
        return 0.5 * float(d @ (self.B[i] @ d))

    def local_gradient(self, i, y):
        return self.B[i] @ (np.asarray(y, dtype=float) - self.b[i])

    def local_hessian(self, i, y):
        return self.B[i]

    def model_terms(self, i, y):
        """(H_i, c_i) of the local quadratic model at y.

        For a quadratic cost the model is the cost itself, so c_i reduces
        analytically to B_ii b_i independent of y; computing it that way
        keeps the model path bit-identical to the direct quadratic path.
        """
        return self.B[i], self.B[i] @ self.b[i]

    def global_objective(self, y):
        return sum(self.local_objective(i, y) for i in range(self.node_count))

    @cached_property
    def expanded_objective(self):
        """(H, r, f0) with sum_i f_i(y) = (1/2) y^T H y - y^T r + f0.

        H = sum_i B_ii, r = sum_i B_ii b_i and f0 = (1/2) sum_i b_i^T B_ii b_i,
        the objective at y = 0.
        """
        H = self.B.sum(axis=0)
        r = np.einsum("ijk,ik->j", self.B, self.b)
        f0 = 0.5 * float(np.einsum("ij,ijk,ik->", self.b, self.B, self.b))
        return H, r, f0

    def to_json(self):
        return json.dumps({
            "n": self.dim,
            "N": self.node_count,
            "B": [self.B[i].reshape(-1).tolist() for i in range(self.node_count)],
            "b": [self.b[i].tolist() for i in range(self.node_count)],
        })

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("problem document must be a JSON object")
        for key in ("n", "N", "B", "b"):
            if key not in doc:
                raise ValueError(f"problem document needs field {key!r}")
        n, N = int(doc["n"]), int(doc["N"])
        B = np.array([np.array(blk, dtype=float).reshape(n, n) for blk in doc["B"]])
        b = np.array(doc["b"], dtype=float)
        if B.shape != (N, n, n):
            raise ValueError("inconsistent block shapes")
        return cls(B, b)


class LogisticProblem:
    """L2-regularized logistic regression split across nodes.

    f_i(y) = sum_{j in J_i} log(1 + exp(-zeta_j d_j^T y)) + (mu/2)||y||^2.
    The regularizer is counted once per node, not per sample.
    """

    family = "logistic"

    def __init__(self, features, labels, partition, mu):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        self.partition = tuple(np.asarray(J, dtype=int) for J in partition)
        self.mu = float(mu)
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if set(np.unique(self.labels)) - {-1.0, 1.0}:
            raise ValueError("labels must be +-1")
        seen = np.concatenate(self.partition) if self.partition else np.array([], dtype=int)
        if len(np.unique(seen)) != len(seen) or len(seen) != len(self.labels):
            raise ValueError("partition must cover all samples exactly once")

    @property
    def node_count(self):
        return len(self.partition)

    @property
    def dim(self):
        return self.features.shape[1]

    @property
    def sample_count(self):
        return self.features.shape[0]

    @cached_property
    def size_classes(self):
        """Node data grouped by block size: a tuple of (nodes, features, labels).

        The nodes with |J_i| = m share one contiguous (k, m, n) features
        stack and one (k, m) labels stack, so a batched oracle runs one
        matmul per class; ``array_split`` partitions have at most two.
        Built on first use: an unscaled problem never needs it.
        """
        sizes = np.array([len(J) for J in self.partition], dtype=int)
        classes = []
        for m in np.unique(sizes):
            nodes = np.flatnonzero(sizes == m)
            rows = np.array([self.partition[i] for i in nodes], dtype=int).reshape(len(nodes), m)
            classes.append((nodes, self.features[rows], self.labels[rows]))
        return tuple(classes)

    @cached_property
    def node_blocks(self):
        """Node i's (features[J_i], labels[J_i]), as views into its class's stacks."""
        blocks = [None] * self.node_count
        for nodes, F, z in self.size_classes:
            for k, i in enumerate(nodes):
                blocks[i] = (F[k], z[k])
        return tuple(blocks)

    def margins(self, i, y):
        """zeta_j d_j^T y over node i's samples."""
        D, z = self.node_blocks[i]
        return z * (D @ np.asarray(y, dtype=float))

    def local_objective(self, i, y):
        y = np.asarray(y, dtype=float)
        t = self.margins(i, y)
        return float(np.logaddexp(0.0, -t).sum()) + 0.5 * self.mu * float(y @ y)

    def local_gradient(self, i, y):
        y = np.asarray(y, dtype=float)
        D, z = self.node_blocks[i]
        t = self.margins(i, y)
        coef = -_sigmoid(-t)  # (1 - psi)/psi
        return (coef * z) @ D + self.mu * y

    def stacked_gradient(self, X):
        """All N local gradients as an (N, n) array, one batched pass per size class.

        Each node's row runs the same matmul shapes and elementwise steps
        as ``local_gradient``, so the rows are bitwise equal to it.
        """
        X = np.asarray(X, dtype=float)
        G = np.empty_like(X)
        for nodes, F, z in self.size_classes:
            Y = X[nodes]
            t = z * np.matmul(F, Y[..., None])[..., 0]
            coef = -_sigmoid(-t)
            G[nodes] = np.matmul((coef * z)[:, None, :], F)[:, 0, :] + self.mu * Y
        return G

    def curvature_coeffs(self, i, y):
        """Per-sample (psi-1)/psi^2 factors; lie in (0, 1/4]."""
        t = self.margins(i, y)
        return _sigmoid(t) * _sigmoid(-t)

    def local_hessian(self, i, y):
        D, _ = self.node_blocks[i]
        f = self.curvature_coeffs(i, y)
        return (D.T * f) @ D + self.mu * np.eye(self.dim)

    def model_terms(self, i, y):
        y = np.asarray(y, dtype=float)
        H = self.local_hessian(i, y)
        return H, H @ y - self.local_gradient(i, y)

    def global_objective(self, y):
        y = np.asarray(y, dtype=float)
        t = self.labels * (self.features @ y)
        return float(np.logaddexp(0.0, -t).sum()) \
            + self.node_count * 0.5 * self.mu * float(y @ y)


def generate_quadratic(N, n, seed, spectrum=(1.0, 101.0), shift_range=(1.0, 31.0)):
    """Random quadratic instance.

    Each B_ii = P S P^T with P the orthonormal eigenvectors of a
    symmetrized standard normal matrix and S uniform on ``spectrum``;
    each component of b_i is uniform on ``shift_range``.  Deterministic
    per seed.
    """
    if n < 1:
        raise ValueError(f"problem n must be at least 1, got {n}")
    if not 0 < spectrum[0] <= spectrum[1]:
        raise ValueError(f"problem spectrum must be [low, high] with 0 < low <= high, "
                         f"got {list(spectrum)}")
    rng = np.random.default_rng(seed)
    B = np.empty((N, n, n))
    b = np.empty((N, n))
    for i in range(N):
        C = rng.standard_normal((n, n))
        _, P = np.linalg.eigh((C + C.T) / 2.0)
        S = rng.uniform(spectrum[0], spectrum[1], n)
        M = (P * S) @ P.T
        B[i] = (M + M.T) / 2.0
        b[i] = rng.uniform(shift_range[0], shift_range[1], n)
    return QuadraticProblem(B, b)


def quadratic_constants(p: QuadraticProblem) -> ProblemConstants:
    """L = max_i l_i, mu = min_i mu_i from the block spectra; J = sqrt(2 L f(0))."""
    ls, mus = [], []
    for i in range(p.node_count):
        ev = np.linalg.eigvalsh(p.B[i])
        mus.append(ev[0])
        ls.append(ev[-1])
    L = float(max(ls))
    mu = float(min(mus))
    f0 = float(sum(0.5 * p.b[i] @ (p.B[i] @ p.b[i]) for i in range(p.node_count)))
    return ProblemConstants(L=L, mu=mu, kappa=mu * L / (mu + L),
                            J=math.sqrt(2.0 * L * f0), f0=f0)


def logistic_constants(p: LogisticProblem) -> ProblemConstants:
    """Constants under the scaling contract max_i lambda_max(Gram_i) = 1.

    The per-sample curvature factor is below 1, so the local Hessian norm
    is at most 1 + mu and L = 1 + mu is used directly; f(0) = T log 2.
    """
    L = 1.0 + p.mu
    mu = p.mu
    f0 = p.sample_count * math.log(2.0)
    return ProblemConstants(L=L, mu=mu, kappa=mu * L / (mu + L),
                            J=math.sqrt(2.0 * L * f0), f0=f0)


def constants_for(problem):
    if problem.family == "quadratic":
        return quadratic_constants(problem)
    return logistic_constants(problem)


_LABEL_MAP = {1.0: 1.0, -1.0: -1.0, 0.0: -1.0}


def load_libsvm(path):
    """Read a LIBSVM-format text file into dense (features, labels).

    Lines look like ``label idx:val idx:val ...`` with 1-based indices.
    Labels are mapped to {-1, +1} (0 maps to -1); anything else is an
    error.  Parse failures report the 1-based line number.
    """
    rows, labels = [], []
    n = 0
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                raw = float(tokens[0])
            except ValueError:
                raise ValueError(f"line {ln}: unrecognized label {tokens[0]!r}")
            if raw not in _LABEL_MAP:
                raise ValueError(f"line {ln}: unrecognized label {tokens[0]!r}")
            labels.append(_LABEL_MAP[raw])
            feats = {}
            for tok in tokens[1:]:
                try:
                    idx, val = tok.split(":")
                    idx = int(idx)
                    val = float(val)
                except ValueError:
                    raise ValueError(f"line {ln}: malformed feature {tok!r}")
                if idx < 1:
                    raise ValueError(f"line {ln}: feature index {idx} is not 1-based")
                feats[idx] = val
                n = max(n, idx)
            rows.append(feats)
    features = np.zeros((len(rows), n))
    for r, feats in enumerate(rows):
        for idx, val in feats.items():
            features[r, idx - 1] = val
    return features, np.array(labels)


def partition_data(features, labels, N, seed, mu) -> LogisticProblem:
    """Random near-equal split of the samples across N nodes (sizes differ by <= 1)."""
    T = len(labels)
    if T < N:
        raise ValueError(f"cannot split {T} samples across {N} nodes")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(T)
    parts = [np.sort(chunk) for chunk in np.array_split(perm, N)]
    return LogisticProblem(features, labels, parts, mu)


def scale_features(p: LogisticProblem) -> LogisticProblem:
    """Divide all features by the worst per-node Gram norm root.

    After scaling, max_i lambda_max(sum_{j in J_i} d_j d_j^T) = 1, which
    bounds every local Hessian norm by 1 + mu.  A problem already at the
    fixed point is returned unchanged (division by exactly 1.0).
    """
    worst = 0.0
    for J in p.partition:
        D = p.features[J]
        if len(J):
            worst = max(worst, float(np.linalg.eigvalsh(D.T @ D)[-1]))
    c = math.sqrt(worst)
    if c == 0.0:
        raise ValueError("all-zero dataset cannot be scaled")
    return LogisticProblem(p.features / c, p.labels, p.partition, p.mu)


def generate_logistic(N, T, n, seed, mu, label_noise=0.1) -> LogisticProblem:
    """Synthetic binary classification instance, partitioned and scaled.

    Gaussian features, labels from a random linear rule with additive
    noise plus a ``label_noise`` fraction of flips, so the data is not
    separable and the regularized optimum stays at moderate norm.
    """
    if n < 1:
        raise ValueError(f"problem n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((T, n))
    w_true = rng.standard_normal(n)
    z = D @ w_true + 0.5 * rng.standard_normal(T)
    zeta = np.where(z >= 0, 1.0, -1.0)
    flip = rng.random(T) < label_noise
    zeta[flip] = -zeta[flip]
    p = partition_data(D, zeta, N, seed + 1, mu)
    return scale_features(p)


def stacked_gradient(problem, X):
    """Per-node gradients of the separable objective, as an (N, n) array.

    A logistic problem takes them in its batched pass; its per-node
    ``local_gradient`` stays the reference that pass is bitwise equal to.
    """
    X = np.asarray(X, dtype=float)
    if problem.family == "logistic":
        return problem.stacked_gradient(X)
    return np.stack([problem.local_gradient(i, X[i]) for i in range(problem.node_count)])


def problem_fingerprint(problem) -> str:
    """Stable content hash used to guard trace comparisons."""
    h = hashlib.sha256()
    h.update(problem.family.encode())
    if problem.family == "quadratic":
        h.update(problem.B.tobytes())
        h.update(problem.b.tobytes())
    else:
        h.update(problem.features.tobytes())
        h.update(problem.labels.tobytes())
        for J in problem.partition:
            h.update(J.tobytes())
        h.update(repr(problem.mu).encode())
    return h.hexdigest()[:16]
