"""Random geometric networks and Metropolis mixing matrices.

Networks are undirected, connected graphs over nodes 0..N-1.  A mixing
matrix is the symmetric doubly stochastic weight matrix built from a graph
by the Metropolis rule; its entries are stored sparsely (per-node neighbor
weights plus the diagonal) because every algorithm in this package touches
only neighbor weights.  The same weights also sit in a padded neighbor
table, over which ``gather`` runs every neighbor sum of a round at once.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np


class GraphGenerationError(RuntimeError):
    """No connected geometric graph found within the attempt bound."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph with sorted per-node neighbor lists (no self loops)."""

    node_count: int
    neighbor_lists: tuple
    coordinates: np.ndarray | None = None

    def degree(self, i):
        return len(self.neighbor_lists[i])

    def edges(self):
        """Edge list as (i, j) pairs with i < j."""
        return [(i, j) for i in range(self.node_count)
                for j in self.neighbor_lists[i] if i < j]

    def is_connected(self):
        """Breadth-first reachability from node 0."""
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j in self.neighbor_lists[i]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        return len(seen) == self.node_count

    def validate(self):
        for i, nbrs in enumerate(self.neighbor_lists):
            if i in nbrs:
                raise ValueError(f"self loop at node {i}")
            for j in nbrs:
                if i not in self.neighbor_lists[j]:
                    raise ValueError(f"asymmetric edge ({i},{j})")
        if not self.is_connected():
            raise ValueError("graph is not connected")


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weights stored by neighbor list.

    ``off_diag[i]`` holds w_ij aligned with ``neighbor_lists[i]``;
    ``diag[i]`` is w_ii.  ``w_bar`` is max_i w_ii and ``lambda2`` the
    second largest eigenvalue of W in modulus.

    ``idx`` and ``wt`` are the same weights as a read-only (N, dmax)
    neighbor table, dmax the largest degree: row i lists
    ``neighbor_lists[i]`` in order, then pads with i itself at weight 0.0.
    """

    node_count: int
    neighbor_lists: tuple
    off_diag: tuple
    diag: np.ndarray
    w_bar: float
    lambda2: float
    idx: np.ndarray = field(repr=False)
    wt: np.ndarray = field(repr=False)

    def weight(self, i, j):
        if i == j:
            return float(self.diag[i])
        nbrs = self.neighbor_lists[i]
        try:
            k = nbrs.index(j)
        except ValueError:
            return 0.0
        return float(self.off_diag[i][k])

    def degree(self, i):
        return len(self.neighbor_lists[i])

    def degrees(self):
        return np.array([len(nb) for nb in self.neighbor_lists])

    def to_dense(self):
        return _dense(self.idx, self.wt, self.diag)

    def validate(self, tol=1e-12):
        W = self.to_dense()
        if not np.allclose(W, W.T, atol=tol, rtol=0):
            raise ValueError("mixing matrix is not symmetric")
        if np.max(np.abs(W.sum(axis=1) - 1.0)) > tol:
            raise ValueError("rows do not sum to 1")
        if np.any(W < 0):
            raise ValueError("negative weight")
        if not (0 <= self.w_bar < 1):
            raise ValueError(f"w_bar={self.w_bar} outside [0,1)")


def geometric_edges(points, radius):
    """Neighbor lists for the geometric rule: edge iff distance < radius."""
    N = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    nbrs = []
    for i in range(N):
        row = [int(j) for j in range(N) if j != i and dist[i, j] < radius]
        nbrs.append(tuple(row))
    return tuple(nbrs)


def generate_geometric_graph(N, seed, max_attempts=1000):
    """Connected random geometric graph on [0,1]^2.

    Points are sampled uniformly; nodes are linked when their Euclidean
    distance is strictly below sqrt(log(N)/N).  Disconnected draws are
    resampled with the seed incremented, up to ``max_attempts`` times.

    Parameters
    ----------
    N : int
        Number of nodes, at least 2.
    seed : int
        Base seed; attempt a uses seed + a, so results are reproducible.

    Raises
    ------
    GraphGenerationError
        If no connected sample is found within the attempt bound.
    """
    if N < 2:
        raise ValueError("need at least two nodes")
    radius = math.sqrt(math.log(N) / N)
    for attempt in range(max_attempts):
        rng = np.random.default_rng(seed + attempt)
        points = rng.random((N, 2))
        g = Graph(N, geometric_edges(points, radius), coordinates=points)
        if g.is_connected():
            return g
    raise GraphGenerationError(
        f"no connected geometric graph for N={N} within {max_attempts} attempts from seed {seed}")


def _neighbor_table(neighbor_lists, off):
    """Padded (idx, wt): padding slots point at the row's own node with weight 0."""
    N = len(neighbor_lists)
    dmax = max(len(nb) for nb in neighbor_lists)
    idx = np.repeat(np.arange(N)[:, None], dmax, axis=1)
    wt = np.zeros((N, dmax))
    for i, (nbrs, ws) in enumerate(zip(neighbor_lists, off)):
        idx[i, :len(nbrs)] = nbrs
        wt[i, :len(nbrs)] = ws
    idx.setflags(write=False)
    wt.setflags(write=False)
    return idx, wt


def _dense(idx, wt, diag):
    N = len(diag)
    W = np.zeros((N, N))
    W[np.arange(N)[:, None], idx] = wt
    # after the table: padding slots wrote 0.0 onto the diagonal
    W[np.arange(N), np.arange(N)] = diag
    return W


def _build_mixing(node_count, neighbor_lists, off, diag):
    idx, wt = _neighbor_table(neighbor_lists, off)
    return MixingMatrix(node_count, neighbor_lists, tuple(off), diag,
                        w_bar=float(diag.max()),
                        lambda2=_second_modulus(_dense(idx, wt, diag)), idx=idx, wt=wt)


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis rule: w_ij = 1/max(deg i, deg j), diagonal complements the row."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    deg = [g.degree(i) for i in range(g.node_count)]
    off = []
    diag = np.empty(g.node_count)
    for i in range(g.node_count):
        ws = np.array([1.0 / max(deg[i], deg[j]) for j in g.neighbor_lists[i]])
        off.append(ws)
        diag[i] = 1.0 - ws.sum()
    return _build_mixing(g.node_count, g.neighbor_lists, off, diag)


def _second_modulus(dense_w):
    ev = np.linalg.eigvalsh(dense_w)
    # ev sorted ascending; ev[-1] is the Perron eigenvalue 1
    return float(max(abs(ev[0]), abs(ev[-2])))


def gather(w: MixingMatrix, Z, weights=None, acc=None):
    """acc_i + sum_k weights[i, k] Z[idx[i, k]] for every node i at once.

    ``Z`` is an (N, n) block array and ``weights`` an (N, dmax) array
    aligned with the neighbor table (default ``w.wt``; pass signed
    weights to subtract).  Columns are added one at a time in neighbor
    order, starting from ``acc`` (or from the first column), so row i is
    the same sum, in the same order, as a loop over ``neighbor_lists[i]``.
    Row i reads only rows of Z in node i's neighborhood.
    """
    weights = w.wt if weights is None else weights
    terms = Z[w.idx] * weights[:, :, None]
    for k in range(terms.shape[1]):
        acc = terms[:, k] if acc is None else acc + terms[:, k]
    return acc


def laplacian_quadratic(w: MixingMatrix, x) -> float:
    """Disagreement x^T (I - W (x) I) x over the neighbor table.

    Computed as (1/2) sum_i sum_{j in O_i} w_ij ||x_i - x_j||^2, which is
    exactly zero on consensus vectors and nonnegative term by term.
    """
    x = np.asarray(x, dtype=float)
    if x.size % w.node_count != 0:
        raise ValueError(f"vector of size {x.size} does not split into {w.node_count} blocks")
    X = x.reshape(w.node_count, -1)
    D = X[:, None, :] - X[w.idx]
    return 0.5 * float(np.sum(w.wt * (D * D).sum(axis=2)))


def laplacian_apply(w: MixingMatrix, X):
    """(I - W (x) I) x on a (N, n) block array; used for residual metrics."""
    X = np.asarray(X, dtype=float)
    return gather(w, X, weights=-w.wt, acc=(1.0 - w.diag)[:, None] * X)


def network_to_json(g: Graph, w: MixingMatrix | None = None) -> str:
    """Serialize a graph (and optionally its mixing matrix) to JSON.

    Schema: {"n", "edges": [[i,j],...], "weights": [[i,j,w],...],
    "diag": [...]}; indices are 0-based and edges carry i < j.
    """
    doc = {"n": g.node_count, "edges": [[i, j] for i, j in g.edges()]}
    if w is not None:
        doc["weights"] = [[i, j, w.weight(i, j)] for i, j in g.edges()]
        doc["diag"] = [float(v) for v in w.diag]
    return json.dumps(doc)


def _json_fields(text, fields):
    """The network document in ``text``; a missing field is an input error naming it."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("network document must be a JSON object")
    for key in fields:
        if key not in doc:
            raise ValueError(f"network document needs field {key!r}")
    return doc


def graph_from_json(text: str) -> Graph:
    doc = _json_fields(text, ("n", "edges"))
    N = int(doc["n"])
    nbrs = [[] for _ in range(N)]
    for i, j in doc["edges"]:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return Graph(N, tuple(tuple(sorted(row)) for row in nbrs))


def mixing_from_json(text: str) -> MixingMatrix:
    doc = _json_fields(text, ("n", "edges", "weights", "diag"))
    g = graph_from_json(text)
    lookup = {}
    for i, j, v in doc["weights"]:
        lookup[(i, j)] = float(v)
        lookup[(j, i)] = float(v)
    try:
        off = [np.array([lookup[(i, j)] for j in g.neighbor_lists[i]])
               for i in range(g.node_count)]
    except KeyError as exc:
        raise ValueError(f"network document has no weight for edge {exc}")
    diag = np.array(doc["diag"], dtype=float)
    w = _build_mixing(g.node_count, g.neighbor_lists, off, diag)
    w.validate()
    return w
