"""Random geometric networks and their mixing matrices.

Networks are undirected, connected graphs over nodes 0..N-1, each held
as its tuple of sorted per-node neighbor lists (no self loops).  A mixing
matrix is the symmetric doubly stochastic weight matrix built from a graph
by the rule w_ij = 1/max(d_i, d_j) (see ``metropolis_weights``); its
entries are stored sparsely (per-node neighbor weights plus the diagonal)
because every algorithm in this package touches only neighbor weights.
The same weights also sit in a padded neighbor table, over which
``gather`` runs every neighbor sum of a round at once.
"""

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GraphGenerationError(RuntimeError):
    """No connected geometric graph found within the attempt bound."""


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weights stored by neighbor list.

    ``off_diag[i]`` holds w_ij aligned with ``neighbor_lists[i]``;
    ``diag[i]`` is w_ii.  ``w_bar`` is max_i w_ii, ``lambda2`` the second
    largest eigenvalue modulus of W (for averaging and DIGing), and ``gap``
    the least nonzero eigenvalue 1 - lambda_2 of I - W, lambda_2 signed (for
    the penalty stages).  No W whose gap is at most N eps, below what its
    eigenvalues resolve, is built.

    ``idx`` and ``wt`` are the same weights as a read-only (N, dmax)
    neighbor table, dmax the largest degree: row i lists
    ``neighbor_lists[i]`` in order, then pads with i itself at weight 0.0.
    ``gather`` reads them slot-major, from ``slot_idx`` and ``slot_weights``.
    """

    node_count: int
    neighbor_lists: tuple
    off_diag: tuple
    diag: np.ndarray
    w_bar: float
    lambda2: float
    gap: float
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

    def degrees(self):
        return np.array([len(nb) for nb in self.neighbor_lists])

    @cached_property
    def slot_idx(self):
        """The neighbor table slot-major: a contiguous, read-only (dmax, N) copy of ``idx.T``."""
        idx = np.ascontiguousarray(self.idx.T)
        idx.setflags(write=False)
        return idx

    @cached_property
    def _slot_weight_stacks(self):
        return {}

    def slot_weights(self, n):
        """``wt.T`` repeated to a read-only (dmax, N, n) stack, built once per width n.

        The full-width multiply costs less than the (dmax, N, 1) broadcast
        and gives the same products.
        """
        stack = self._slot_weight_stacks.get(n)
        if stack is None:
            stack = np.repeat(self.wt.T[:, :, None], n, axis=2)
            stack.setflags(write=False)
            self._slot_weight_stacks[n] = stack
        return stack

    @cached_property
    def off_abs_sums(self):
        """sum_j |w_ij| over node i's neighbors, one ``np.sum`` per ``off_diag`` row.

        Not taken over the padded table: the padding zeros could regroup
        numpy's pairwise sum and change the bits.
        """
        sums = np.array([float(np.sum(np.abs(ws))) for ws in self.off_diag])
        sums.setflags(write=False)
        return sums

    def to_dense(self):
        return _dense(self.idx, self.wt, self.diag)

    def validate(self):
        W = self.to_dense()
        if not np.allclose(W, W.T, atol=1e-12, rtol=0):
            raise ValueError("mixing matrix is not symmetric")
        if np.max(np.abs(W.sum(axis=1) - 1.0)) > 1e-12:
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
    linked = dist < radius
    np.fill_diagonal(linked, False)
    # np.nonzero walks the mask row by row, so each row's columns come sorted
    cols = np.nonzero(linked)[1].tolist()
    return tuple(tuple(row) for row in _rows(cols, linked.sum(axis=1)))


def _rows(flat, counts):
    """``flat`` cut into consecutive slices of the given lengths, one per node."""
    ends = np.cumsum(counts).tolist()
    return [flat[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _connected(nbrs):
    """Breadth-first reachability from node 0."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in nbrs[i]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == len(nbrs)


def generate_geometric_graph(N, seed, max_attempts=1000):
    """Connected random geometric graph on [0,1]^2, as its neighbor lists.

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
        nbrs = geometric_edges(points, radius)
        if _connected(nbrs):
            return nbrs
    raise GraphGenerationError(
        f"no connected geometric graph for N={N} within {max_attempts} attempts from seed {seed}")


def _neighbor_table(neighbor_lists, off):
    """Padded (idx, wt): padding slots point at the row's own node with weight 0."""
    deg = np.array([len(nb) for nb in neighbor_lists])
    live = np.arange(deg.max()) < deg[:, None]
    idx = np.repeat(np.arange(len(deg))[:, None], live.shape[1], axis=1)
    wt = np.zeros(idx.shape)
    # a boolean mask fills its slots row by row, in neighbor-list order
    idx[live] = np.concatenate(neighbor_lists)
    wt[live] = np.concatenate(off)
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


def _build_mixing(neighbor_lists, off, diag):
    idx, wt = _neighbor_table(neighbor_lists, off)
    ev = np.linalg.eigvalsh(_dense(idx, wt, diag))   # ascending; ev[-1] is the Perron 1
    gap = float(1.0 - ev[-2])
    # eigvalsh's eigenvalues of W (||W||_2 = 1) are exact only to rounding of order N eps,
    # so a gap at that level could be zero
    bound = len(neighbor_lists) * np.finfo(float).eps
    if not gap > bound:
        raise ValueError(f"mixing matrix has no spectral gap: 1 - lambda_2 = {gap} is at most "
                         f"N eps = {bound}, the rounding level of W's eigenvalues")
    return MixingMatrix(len(neighbor_lists), neighbor_lists, tuple(off), diag, float(diag.max()),
                        float(max(abs(ev[0]), abs(ev[-2]))), gap, idx=idx, wt=wt)


def metropolis_weights(nbrs) -> MixingMatrix:
    """Max-degree rule: w_ij = 1/max(d_i, d_j), diagonal complements the row.

    This is not the Metropolis-Hastings rule 1/(1 + max(d_i, d_j)): on a
    bipartite graph whose edges each join two nodes of equal degree (every
    2-node network, the 4-cycle) W has the eigenvalue -1, so ``lambda2`` is
    1.0, though ``gap`` is 2 and 1 there.  ``nbrs`` is the graph: its tuple
    of sorted per-node neighbor lists.
    """
    if not _connected(nbrs):
        raise ValueError("graph must be connected")
    deg = np.array([len(row) for row in nbrs])
    cols = np.concatenate(nbrs).astype(int)
    rows = np.repeat(np.arange(len(nbrs)), deg)
    off = _rows(1.0 / np.maximum(deg[rows], deg[cols]), deg)
    # one sum per row: padding zeros could regroup numpy's pairwise sum
    diag = np.array([1.0 - ws.sum() for ws in off])
    return _build_mixing(nbrs, off, diag)


def gather(w: MixingMatrix, Z, weights=None, acc=None, out=None):
    """acc_i + sum_k weights[k, i] Z[idx[i, k]] for every node i at once.

    ``Z`` is an (N, n) block array and ``weights`` the neighbor table's
    weights slot-major, broadcastable to (dmax, N, n) (default
    ``w.slot_weights(n)``; pass signed weights to subtract).  The terms
    sit slot-major in one contiguous (dmax, N, n) stack, ``acc`` is
    added into slot 0, and one ``np.add.reduce`` over the slot axis adds
    the slots element by element in slot order, so row i is
    ``((acc_i + t_0) + t_1) + ...``,
    the same sum in the same order as a loop over ``neighbor_lists[i]``.
    Row i reads only rows of Z in node i's neighborhood.  Neither ``Z``
    nor ``acc`` is modified.  The sums go into ``out``, an (N, n) array,
    when one is given, and into a fresh array otherwise.
    """
    Z = np.asarray(Z)
    terms = Z.take(w.slot_idx, axis=0)
    terms *= w.slot_weights(Z.shape[1]) if weights is None else weights
    if acc is not None:
        # acc + t_0 and t_0 + acc are the same IEEE sum
        terms[0] += acc
    return np.add.reduce(terms, axis=0, out=out)


def network_to_json(w: MixingMatrix) -> str:
    """Serialize a mixing matrix and its graph to JSON.

    Schema: {"n", "edges": [[i,j],...], "weights": [[i,j,w],...],
    "diag": [...]}; indices are 0-based and edges carry i < j.
    """
    edges = [[i, j] for i, nbrs in enumerate(w.neighbor_lists) for j in nbrs if i < j]
    return json.dumps({"n": w.node_count, "edges": edges,
                       "weights": [[i, j, w.weight(i, j)] for i, j in edges],
                       "diag": [float(v) for v in w.diag]})


def _entries(doc, field, N, width):
    """The entries of ``doc[field]``: lists of ``width`` values led by two node ids in [0, N)."""
    for entry in doc[field]:
        # type(...) is int: JSON's true and false are not node ids
        if not (isinstance(entry, list) and len(entry) == width
                and type(entry[0]) is int and type(entry[1]) is int):
            raise ValueError(f"network field {field!r}: {json.dumps(entry)} must be {width} "
                             f"values, the first two integer node ids")
        if not (0 <= entry[0] < N and 0 <= entry[1] < N):
            raise ValueError(f"network field {field!r}: {json.dumps(entry)} must join two "
                             f"node ids in [0, {N})")
        yield entry


def mixing_from_json(text: str) -> MixingMatrix:
    """The mixing matrix of a ``network_to_json`` document; a bad field is an error naming it."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("network document must be a JSON object")
    for key in ("n", "edges", "weights", "diag"):
        if key not in doc:
            raise ValueError(f"network document needs field {key!r}")
        if key != "n" and not isinstance(doc[key], list):
            raise ValueError(f"network field {key!r} must be a list")
    N = doc["n"]
    if not (type(N) is int and N >= 2):
        raise ValueError(f"network field 'n' must be an integer of at least 2, got {N!r}")
    nbrs = [[] for _ in range(N)]
    for i, j in _entries(doc, "edges", N, 2):
        if i == j:
            raise ValueError(f"network field 'edges': self loop at node {i}")
        if j in nbrs[i]:
            raise ValueError(f"network field 'edges': {[i, j]} appears twice")
        nbrs[i].append(j)
        nbrs[j].append(i)
    weights = {}
    for i, j, v in _entries(doc, "weights", N, 3):
        edge = (min(i, j), max(i, j))
        if j not in nbrs[i]:
            raise ValueError(f"network field 'weights': {json.dumps([i, j, v])} names no edge")
        if edge in weights:
            raise ValueError(f"network field 'weights' names edge {edge} twice")
        if not (type(v) in (int, float) and math.isfinite(v)):
            raise ValueError(f"network field 'weights': {json.dumps([i, j, v])} "
                             f"needs a finite weight")
        weights[edge] = float(v)
    nbrs = tuple(tuple(sorted(row)) for row in nbrs)
    try:
        off = [np.array([weights[min(i, j), max(i, j)] for j in nbrs[i]])
               for i in range(N)]
    except KeyError as exc:
        raise ValueError(f"network field 'weights' has no weight for edge {exc}")
    if len(doc["diag"]) != N:
        raise ValueError(f"network field 'diag' needs {N} entries, got {len(doc['diag'])}")
    if not all(type(v) in (int, float) and math.isfinite(v) for v in doc["diag"]):
        raise ValueError("network field 'diag' needs finite numbers")
    diag = np.array(doc["diag"], dtype=float)
    if not _connected(nbrs):
        raise ValueError("graph is not connected")
    w = _build_mixing(nbrs, off, diag)
    w.validate()
    return w
