"""Problem families: synthetic quadratics and regularized logistic regression.

Both families expose the same local surface per node i (objective value,
gradient, Hessian, quadratic-model terms (H_i, c_i)) and, bitwise equal to
it, a stacked one over all N nodes that the solvers call.  Problems are
immutable after construction.
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
        """(H_i, c_i) of the local model at y: the cost itself, (B_ii, B_ii b_i) at any y."""
        return self.B[i], self.B[i] @ self.b[i]

    def stacked_gradient(self, X):
        """All N local gradients B_ii (x_i - b_i) as an (N, n) array, in one matmul."""
        return np.matmul(self.B, (X - self.b)[..., None])[..., 0]

    @cached_property
    def Bb(self):
        """The read-only (N, n) stack of B_ii b_i: every stage's right-hand side."""
        Bb = np.matmul(self.B, self.b[..., None])[..., 0]
        Bb.setflags(write=False)
        return Bb

    def stacked_model(self, X):
        """(H, c) of all N local models: (B, B_ii b_i) at any point X."""
        return self.B, self.Bb

    def global_objective(self, y):
        """sum_i f_i(y): ``local_objective``'s steps stacked, its terms added in node order."""
        D = np.asarray(y, dtype=float) - self.b
        quad = np.matmul(D[:, None, :], np.matmul(self.B, D[..., None]))[:, 0, 0]
        return sum((0.5 * quad).tolist())

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

    @cached_property
    def constants(self):
        return quadratic_constants(self)

    def to_json(self):
        return json.dumps({"n": self.dim, "N": self.node_count,
                           "B": self.B.reshape(self.node_count, -1).tolist(), "b": self.b.tolist()})

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("problem document must be a JSON object")
        for key in ("n", "N", "B", "b"):
            if key not in doc:
                raise ValueError(f"problem document needs field {key!r}")
        n, N = doc["n"], doc["N"]
        if not (type(n) is int and type(N) is int):
            raise ValueError(f"problem fields 'n' and 'N' must be integers, got {n!r} and {N!r}")
        B = np.array([np.array(blk, dtype=float).reshape(n, n) for blk in doc["B"]])
        b = np.array(doc["b"], dtype=float)
        if B.shape != (N, n, n):
            raise ValueError("inconsistent block shapes")
        for name, values in (("B", B), ("b", b)):
            if not np.isfinite(values).all():
                raise ValueError(f"problem field {name!r} has a non-finite entry")
        asym = np.flatnonzero((B != B.transpose(0, 2, 1)).any(axis=(1, 2)))
        if asym.size:
            raise ValueError(f"problem field 'B' has a non-symmetric block {asym[0]}")
        p = cls(B, b)
        if p.constants.mu <= 0:
            raise ValueError(f"problem field 'B' is not positive definite: mu={p.constants.mu:.6g}")
        return p


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
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
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
        Built on first use.
        """
        return tuple((nodes, self.features[rows], self.labels[rows])
                     for nodes, rows in _size_class_rows(self.partition))

    @cached_property
    def constants(self):
        return logistic_constants(self)

    @cached_property
    def error_v_workspace(self):
        """``(signed, s, loss)`` for ``analysis.error_v``, cut from one allocation.

        ``signed`` is -zeta_j d_j^T as a (T, n) array, exact because every
        label is +-1; ``s`` and ``loss`` are (T, N) buffers that every call
        overwrites.  One block rather than three arrays: three measured
        about 60 more minor page faults per ``logistic-diging`` benchmark job.
        """
        T, n, N = self.sample_count, self.dim, self.node_count
        block = np.empty(T * (n + 2 * N))
        signed = block[:T * n].reshape(T, n)
        np.multiply(-self.labels[:, None], self.features, out=signed)
        s, loss = block[T * n:].reshape(2, T, N)
        return signed, s, loss

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
        """All N local gradients, one pass per size class; row i bitwise ``local_gradient``."""
        X = np.asarray(X, dtype=float)
        G = np.empty_like(X)
        for nodes, F, z in self.size_classes:
            Y = X[nodes]
            t = z * np.matmul(F, Y[..., None])[..., 0]
            coef = -_sigmoid(-t)
            G[nodes] = np.matmul((coef * z)[:, None, :], F)[:, 0, :] + self.mu * Y
        return G

    def stacked_hessian(self, X):
        """All N local Hessians, one pass per size class; row i bitwise ``local_hessian``."""
        X = np.asarray(X, dtype=float)
        H = np.empty(X.shape + X.shape[-1:])
        eye = self.mu * np.eye(self.dim)
        for nodes, F, z in self.size_classes:
            t = z * np.matmul(F, X[nodes][..., None])[..., 0]
            f = _sigmoid(t) * _sigmoid(-t)
            H[nodes] = np.matmul(F.transpose(0, 2, 1) * f[:, None, :], F) + eye
        return H

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

    def stacked_model(self, X):
        """All N local models (H, c) at X; row i bitwise ``model_terms``."""
        X = np.asarray(X, dtype=float)
        H = self.stacked_hessian(X)
        return H, np.matmul(H, X[..., None])[..., 0] - self.stacked_gradient(X)

    def global_objective(self, y):
        y = np.asarray(y, dtype=float)
        t = self.labels * (self.features @ y)
        return float(np.logaddexp(0.0, -t).sum()) \
            + self.node_count * 0.5 * self.mu * float(y @ y)


def _size_class_rows(partition):
    """``(nodes, rows)`` per block size m: the nodes with |J_i| = m and their (k, m) sample rows."""
    sizes = np.array([len(J) for J in partition], dtype=int)
    for m in np.unique(sizes):
        nodes = np.flatnonzero(sizes == m)
        yield nodes, np.array([partition[i] for i in nodes], dtype=int).reshape(len(nodes), m)


def generate_quadratic(N, n, seed, spectrum=(1.0, 101.0)):
    """Random quadratic instance.

    Each B_ii = P S P^T with P the orthonormal eigenvectors of a
    symmetrized standard normal matrix and S uniform on ``spectrum``;
    each component of b_i is uniform on [1, 31).  Deterministic per seed.
    """
    if n < 1:
        raise ValueError(f"problem n must be at least 1, got {n}")
    if not (0 < spectrum[0] <= spectrum[1] and math.isfinite(spectrum[1])):
        raise ValueError(f"problem spectrum must be [low, high] with 0 < low <= high < inf, "
                         f"got {list(spectrum)}")
    rng = np.random.default_rng(seed)
    C = np.empty((N, n, n))
    S = np.empty((N, n))
    b = np.empty((N, n))
    # the draws stay per node, in the order that fixes the instance of a seed
    for i in range(N):
        C[i] = rng.standard_normal((n, n))
        S[i] = rng.uniform(spectrum[0], spectrum[1], n)
        b[i] = rng.uniform(1.0, 31.0, n)
    _, P = np.linalg.eigh((C + C.transpose(0, 2, 1)) / 2.0)
    M = (P * S[:, None, :]) @ P.transpose(0, 2, 1)
    return QuadraticProblem((M + M.transpose(0, 2, 1)) / 2.0, b)


def quadratic_constants(p: QuadraticProblem) -> ProblemConstants:
    """L = max_i l_i, mu = min_i mu_i from the block spectra; J = sqrt(2 L f(0)).

    f(0) adds the nodes' terms (1/2) b_i^T B_ii b_i left to right in node order.
    """
    ev = np.linalg.eigvalsh(p.B)
    L = float(ev[:, -1].max())
    mu = float(ev[:, 0].min())
    f0 = float(sum(np.matmul((0.5 * p.b)[:, None, :], p.Bb[..., None])[:, 0, 0].tolist()))
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
    """The problem's ``ProblemConstants``, computed on first use and kept on it."""
    return problem.constants


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


def _partition(T, N, seed):
    """Random near-equal split of T sample ids across N nodes (sizes differ by <= 1)."""
    if T < N:
        raise ValueError(f"cannot split {T} samples across {N} nodes")
    perm = np.random.default_rng(seed).permutation(T)
    return [np.sort(chunk) for chunk in np.array_split(perm, N)]


def _feature_scale(features, partition):
    """sqrt of max_i lambda_max(sum_{j in J_i} d_j d_j^T), the worst per-node Gram norm."""
    worst = 0.0
    for _, rows in _size_class_rows(partition):
        if rows.shape[1]:
            F = features[rows]
            gram = np.matmul(F.transpose(0, 2, 1), F)
            worst = max(worst, float(np.linalg.eigvalsh(gram)[:, -1].max()))
    c = math.sqrt(worst)
    if c == 0.0:
        raise ValueError("all-zero dataset cannot be scaled")
    return c


def partition_and_scale(features, labels, N, seed, mu) -> LogisticProblem:
    """The samples split at random across N nodes, features divided by the worst Gram norm root.

    Block sizes differ by at most one.  After scaling,
    max_i lambda_max(sum_{j in J_i} d_j d_j^T) = 1, which bounds every
    local Hessian norm by 1 + mu; features already at that fixed point
    are divided by exactly 1.0.
    """
    features = np.asarray(features, dtype=float)
    parts = _partition(len(labels), N, seed)
    return LogisticProblem(features / _feature_scale(features, parts), labels, parts, mu)


def generate_logistic(N, T, n, seed, mu) -> LogisticProblem:
    """Synthetic binary classification instance, partitioned and scaled.

    Gaussian features, labels from a random linear rule with additive
    noise plus a tenth of them flipped, so the data is not separable and
    the regularized optimum stays at moderate norm.
    """
    if n < 1:
        raise ValueError(f"problem n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((T, n))
    w_true = rng.standard_normal(n)
    z = D @ w_true + 0.5 * rng.standard_normal(T)
    zeta = np.where(z >= 0, 1.0, -1.0)
    flip = rng.random(T) < 0.1
    zeta[flip] = -zeta[flip]
    return partition_and_scale(D, zeta, N, seed + 1, mu)


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
