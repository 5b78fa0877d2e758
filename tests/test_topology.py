import json
import math

import numpy as np
import pytest

from efix.topology import (GraphGenerationError, _connected, gather, generate_geometric_graph,
                           geometric_edges, metropolis_weights, mixing_from_json,
                           network_to_json)


def path3():
    return ((1,), (0, 2), (1,))


def triangle():
    return ((1, 2), (0, 2), (0, 1))


def star4():
    # node 0 is the hub
    return ((1, 2, 3), (0,), (0,), (0,))


def complete(N):
    return tuple(tuple(j for j in range(N) if j != i) for i in range(N))


class TestGeometricGeneration:
    def test_radius_rule_links_close_pair(self):
        # sqrt(log 2 / 2) ~ 0.589, so distance 0.1 must give the edge
        pts = np.array([[0.2, 0.2], [0.3, 0.2]])
        nbrs = geometric_edges(pts, math.sqrt(math.log(2) / 2))
        assert nbrs == ((1,), (0,))

    def test_radius_rule_separates_corners(self):
        # opposite corners at distance sqrt(2) stay disconnected
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        nbrs = geometric_edges(pts, math.sqrt(math.log(2) / 2))
        assert nbrs == ((), ())

    def test_strict_inequality_at_radius(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        assert geometric_edges(pts, 0.5) == ((), ())

    def test_deterministic_per_seed(self):
        a = generate_geometric_graph(20, 5)
        b = generate_geometric_graph(20, 5)
        assert a == b

    def test_generated_graphs_are_connected(self):
        for seed in range(30):
            g = generate_geometric_graph(12, seed)
            assert _connected(g)
            assert all(i not in row and all(i in g[j] for j in row) for i, row in enumerate(g))

    def test_attempt_bound_raises(self):
        # find a seed whose first draw is disconnected, then forbid resampling
        for seed in range(200):
            pts = np.random.default_rng(seed).random((2, 2))
            if np.linalg.norm(pts[0] - pts[1]) >= math.sqrt(math.log(2) / 2):
                with pytest.raises(GraphGenerationError):
                    generate_geometric_graph(2, seed, max_attempts=1)
                return
        pytest.fail("no disconnected first draw found")


class TestMetropolisWeights:
    def test_path_graph(self):
        w = metropolis_weights(path3())
        assert w.weight(0, 1) == 0.5 and w.weight(1, 2) == 0.5
        assert w.weight(0, 0) == 0.5 and w.weight(1, 1) == 0.0 and w.weight(2, 2) == 0.5

    def test_triangle(self):
        w = metropolis_weights(triangle())
        for i in range(3):
            assert w.weight(i, i) == 0.0
        assert w.weight(0, 1) == w.weight(1, 2) == w.weight(0, 2) == 0.5

    def test_star(self):
        w = metropolis_weights(star4())
        assert w.weight(0, 1) == pytest.approx(1 / 3, abs=0)
        assert w.weight(0, 0) == pytest.approx(0.0, abs=1e-15)
        assert w.weight(1, 1) == pytest.approx(2 / 3, abs=1e-15)

    def test_invariants_over_random_networks(self):
        # symmetry, unit row sums, sparsity pattern, w_bar, lambda2 < 1
        count = 0
        for N in (10, 30, 100):
            for seed in range(34):
                g = generate_geometric_graph(N, seed)
                w = metropolis_weights(g)
                W = w.to_dense()
                assert np.array_equal(W, W.T)
                assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-12
                mask = W != 0
                for i in range(N):
                    off = set(np.flatnonzero(mask[i])) - {i}
                    assert off == set(g[i])
                assert 0 <= w.w_bar < 1
                assert 0 <= w.lambda2 < 1
                count += 1
        assert count >= 100


class TestSpectralGap:
    def test_triangle_eigenvalues(self):
        # spectrum {1, -1/2, -1/2}
        assert metropolis_weights(triangle()).lambda2 == pytest.approx(0.5, abs=1e-12)

    def test_complete_graph(self):
        # W = (J - I)/3 + ... has spectrum {1, -1/3, -1/3, -1/3}
        assert metropolis_weights(complete(4)).lambda2 == pytest.approx(1 / 3, abs=1e-12)

    def test_path_eigenvalues(self):
        # spectrum {1, 1/2, -1/2}
        assert metropolis_weights(path3()).lambda2 == pytest.approx(0.5, abs=1e-12)

    def test_bipartite_returns_one(self):
        # two nodes joined by one edge: W = [[0,1],[1,0]], eigenvalues {1,-1}
        w = metropolis_weights(((1,), (0,)))
        assert w.lambda2 == 1.0
        # while I - W = [[1, -1], [-1, 1]] has the eigenvalues {0, 2}
        assert w.gap == 2.0

    def test_four_cycle_returns_one(self):
        # w_ij = 1/max(d_i, d_j) = 1/2 on every edge, w_ii = 0: W has the eigenvalue -1
        # (x = (1, -1, 1, -1)), so the modulus lambda2 is exactly 1, not below it;
        # the spectrum is {1, 0, 0, -1}, so the signed lambda_2 is 0 and the gap 1
        w = metropolis_weights(((1, 3), (0, 2), (1, 3), (0, 2)))
        assert w.lambda2 == 1.0
        assert w.gap == pytest.approx(1.0, abs=1e-15)
        assert metropolis_weights(path3()).lambda2 < 1.0

    def test_gap_never_below_one_minus_the_modulus(self):
        # equal bits whenever the modulus is the signed lambda_2, ev[-2]
        signed = 0
        for N in (3, 4, 5, 6, 10, 20, 30):
            for seed in range(1, 9):
                w = metropolis_weights(generate_geometric_graph(N, seed))
                ev = np.linalg.eigvalsh(w.to_dense())
                assert w.gap == float(1.0 - ev[-2]) and w.gap >= 1.0 - w.lambda2
                if abs(ev[0]) < ev[-2]:
                    assert w.gap == 1.0 - w.lambda2
                    signed += 1
        assert 0 < signed < 7 * 8

    @staticmethod
    def cut_path4(weight):
        # the path 0-1-2-3 whose middle edge weighs (almost) nothing: W's eigenvalue 1 is double
        return json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                           "weights": [[0, 1, 0.5], [1, 2, weight], [2, 3, 0.5]],
                           "diag": [0.5, 0.5 - weight, 0.5 - weight, 0.5]})

    @pytest.mark.parametrize("weight", [0.0, 1e-17, 1e-300])
    def test_no_gap_is_refused_where_built(self, weight):
        with pytest.raises(ValueError, match=r"no spectral gap: 1 - lambda_2 = 0\.0"):
            mixing_from_json(self.cut_path4(weight))

    def test_rounding_level_gap_is_refused(self):
        # a gap of one ulp of 1 is below the N eps = 4 eps that eigvalsh resolves
        expected = (r"no spectral gap: 1 - lambda_2 = 2\.220446049250313e-16 is at most "
                    r"N eps = 8\.881784197001252e-16")
        with pytest.raises(ValueError, match=expected):
            mixing_from_json(self.cut_path4(1e-16))
        w = mixing_from_json(self.cut_path4(1e-12))
        assert 4 * np.finfo(float).eps < w.gap == pytest.approx(1e-12, rel=1e-3)


class TestNeighborTable:
    def test_rows_follow_neighbor_lists_then_pad_with_self(self):
        for g in (star4(), path3(), generate_geometric_graph(30, 1)):
            w = metropolis_weights(g)
            dmax = max(len(nb) for nb in g)
            assert w.idx.shape == w.wt.shape == (len(g), dmax)
            for i, nbrs in enumerate(g):
                d = len(nbrs)
                assert list(w.idx[i]) == list(nbrs) + [i] * (dmax - d)
                assert np.array_equal(w.wt[i, :d], w.off_diag[i])
                assert np.all(w.wt[i, d:] == 0.0)
            assert not (w.idx.flags.writeable or w.wt.flags.writeable)

    def test_gather_reads_only_the_neighborhood(self):
        w = metropolis_weights(generate_geometric_graph(30, 1))
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((30, 5))
        base = gather(w, Z, acc=w.diag[:, None] * Z)
        for i in range(30):
            outside = np.ones(30, dtype=bool)
            outside[list(w.neighbor_lists[i]) + [i]] = False
            Z2 = Z.copy()
            Z2[outside] = 1e30 * rng.standard_normal((int(outside.sum()), 5))
            assert np.array_equal(gather(w, Z2, acc=w.diag[:, None] * Z2)[i], base[i])

    def test_gather_equals_the_neighbor_loop(self):
        # (graph, n): the single edge, small and criterion-4 sizes, and
        # N=100 whose rows pad up to dmax=16
        shapes = [(((1,), (0,)), 1), (generate_geometric_graph(7, 2), 2),
                  (generate_geometric_graph(30, 2), 1), (generate_geometric_graph(30, 2), 10),
                  (generate_geometric_graph(100, 7), 10)]
        for seed, (g, n) in enumerate(shapes):
            w = metropolis_weights(g)
            N = len(g)
            rng = np.random.default_rng(seed)
            # per-row magnitudes from 1e-8 to 1e8
            Z = rng.standard_normal((N, n)) * np.logspace(-8, 8, N)[:, None]
            acc = rng.standard_normal((N, n))
            Z0, acc0 = Z.copy(), acc.copy()
            # (weights, their scale of w.wt, accumulator)
            for weights, scale, start in ((None, 1.0, None), (None, 1.0, acc),
                                          (-(3.0 * w.slot_weights(n)), -3.0, acc)):
                out = gather(w, Z, weights=weights, acc=start)
                assert out.shape == (N, n)
                for i in range(N):
                    ref = None if start is None else start[i]
                    for k, j in enumerate(g[i]):
                        term = (scale * w.off_diag[i][k]) * Z[j]
                        ref = term if ref is None else ref + term
                    assert np.array_equal(out[i].view(np.int64), ref.view(np.int64))
            assert np.array_equal(Z.view(np.int64), Z0.view(np.int64))
            assert np.array_equal(acc.view(np.int64), acc0.view(np.int64))
        assert w.idx.shape == (100, 16)
        # one network at n = 1, 10, 1 in turn: the default weights' stack
        # is cached per width, and a stack of the wrong width must never
        # be served
        g = generate_geometric_graph(30, 2)
        w = metropolis_weights(g)
        rng = np.random.default_rng(5)
        for n in (1, 10, 1):
            Z = rng.standard_normal((len(g), n))
            out = gather(w, Z)
            assert out.shape == Z.shape
            for i in range(len(g)):
                ref = None
                for k, j in enumerate(g[i]):
                    term = w.off_diag[i][k] * Z[j]
                    ref = term if ref is None else ref + term
                assert np.array_equal(out[i].view(np.int64), ref.view(np.int64))
        for n in (1, 10):
            stack = w.slot_weights(n)
            assert stack.shape == (w.idx.shape[1], len(g), n)
            assert w.slot_weights(n) is stack and not stack.flags.writeable
        assert w.slot_idx.flags.c_contiguous and not w.slot_idx.flags.writeable
        assert np.array_equal(w.slot_idx, w.idx.T)

    def test_absolute_off_diagonal_sums(self):
        w = metropolis_weights(generate_geometric_graph(30, 2))
        sums = w.off_abs_sums
        for i, ws in enumerate(w.off_diag):
            assert sums[i] == float(np.sum(np.abs(ws)))
        assert w.off_abs_sums is sums and not sums.flags.writeable

    def test_dense_matches_the_lists(self):
        w = metropolis_weights(star4())
        W = w.to_dense()
        for i in range(4):
            for j in range(4):
                assert W[i, j] == w.weight(i, j)


class TestSerialization:
    def test_round_trip_bitwise(self):
        w = metropolis_weights(generate_geometric_graph(15, 11))
        text = network_to_json(w)
        w2 = mixing_from_json(text)
        assert w2.neighbor_lists == w.neighbor_lists
        assert np.array_equal(w2.idx, w.idx)
        for mine, ref in ((w2.wt, w.wt), (w2.diag, w.diag)):
            assert np.array_equal(mine.view(np.int64), ref.view(np.int64))
        assert w2.lambda2 == w.lambda2 and w2.gap == w.gap
        # the serialized form is stable under a reload cycle
        assert network_to_json(w2) == text

    def test_schema_fields(self):
        doc = json.loads(network_to_json(metropolis_weights(path3())))
        assert doc == {"n": 3, "edges": [[0, 1], [1, 2]],
                       "weights": [[0, 1, 0.5], [1, 2, 0.5]], "diag": [0.5, 0.0, 0.5]}


class TestStackedSetup:
    """Edges and Metropolis weights equal the per-node loops they replaced, bit for bit."""

    @staticmethod
    def loop_edges(points, radius):
        N = points.shape[0]
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        return tuple(tuple(int(j) for j in range(N) if j != i and dist[i, j] < radius)
                     for i in range(N))

    @staticmethod
    def loop_metropolis(g):
        deg = [len(row) for row in g]
        off, diag = [], np.empty(len(g))
        for i in range(len(g)):
            ws = np.array([1.0 / max(deg[i], deg[j]) for j in g[i]])
            off.append(ws)
            diag[i] = 1.0 - ws.sum()
        W = np.diag(diag)
        for i, ws in enumerate(off):
            W[i, list(g[i])] = ws
        ev = np.linalg.eigvalsh(W)
        return off, diag, float(max(abs(ev[0]), abs(ev[-2]))), float(1.0 - ev[-2])

    def test_geometric_edges(self):
        rng = np.random.default_rng(12)
        for N in (2, 3, 10, 30, 100):
            for radius in (0.05, math.sqrt(math.log(N) / N), 2.0):
                points = rng.random((N, 2))
                edges = geometric_edges(points, radius)
                assert edges == self.loop_edges(points, radius)
                assert all(type(j) is int for row in edges for j in row)

    def test_metropolis_weights(self):
        # dmax reaches 16 at N=100, so the rows' pairwise sums run past 8 terms
        graphs = [path3(), triangle(), star4(), complete(12)]
        graphs += [generate_geometric_graph(N, seed) for N in (7, 30, 100) for seed in range(4)]
        for g in graphs:
            w = metropolis_weights(g)
            off, diag, lambda2, gap = self.loop_metropolis(g)
            assert len(w.off_diag) == len(g)
            for mine, ref in zip(w.off_diag, off):
                assert np.array_equal(mine.view(np.int64), ref.view(np.int64))
            assert np.array_equal(w.diag.view(np.int64), diag.view(np.int64))
            assert w.lambda2 == lambda2 and w.gap == gap and w.w_bar == float(diag.max())
        assert max(len(graphs[-1][i]) for i in range(100)) > 8
