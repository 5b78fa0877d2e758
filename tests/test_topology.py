import json
import math

import numpy as np
import pytest

from efix.topology import (Graph, GraphGenerationError, gather, generate_geometric_graph,
                           geometric_edges, graph_from_json, laplacian_apply,
                           laplacian_quadratic, metropolis_weights, mixing_from_json,
                           network_to_json)


def path3():
    return Graph(3, ((1,), (0, 2), (1,)))


def triangle():
    return Graph(3, ((1, 2), (0, 2), (0, 1)))


def star4():
    # node 0 is the hub
    return Graph(4, ((1, 2, 3), (0,), (0,), (0,)))


def complete(N):
    return Graph(N, tuple(tuple(j for j in range(N) if j != i) for i in range(N)))


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
        assert a.neighbor_lists == b.neighbor_lists
        assert np.array_equal(a.coordinates, b.coordinates)

    def test_generated_graphs_are_connected(self):
        for seed in range(30):
            g = generate_geometric_graph(12, seed)
            assert g.is_connected()
            g.validate()

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
                    assert off == set(g.neighbor_lists[i])
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
        w = metropolis_weights(Graph(2, ((1,), (0,))))
        assert w.lambda2 == pytest.approx(1.0, abs=1e-12)


class TestNeighborTable:
    def test_rows_follow_neighbor_lists_then_pad_with_self(self):
        for g in (star4(), path3(), generate_geometric_graph(30, 1)):
            w = metropolis_weights(g)
            dmax = max(len(nb) for nb in g.neighbor_lists)
            assert w.idx.shape == w.wt.shape == (g.node_count, dmax)
            for i, nbrs in enumerate(g.neighbor_lists):
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
        w = metropolis_weights(generate_geometric_graph(30, 2))
        Z = np.random.default_rng(5).standard_normal((30, 4))
        signed = -(3.0 * w.wt)
        for weights, scale in ((None, 1.0), (signed, -3.0)):
            out = gather(w, Z, weights=weights, acc=Z)
            for i in range(30):
                acc = Z[i]
                for k, j in enumerate(w.neighbor_lists[i]):
                    acc = acc + (scale * w.off_diag[i][k]) * Z[j]
                assert np.array_equal(out[i], acc)

    def test_dense_matches_the_lists(self):
        w = metropolis_weights(star4())
        W = w.to_dense()
        for i in range(4):
            for j in range(4):
                assert W[i, j] == w.weight(i, j)


class TestLaplacianQuadratic:
    def test_consensus_vector_vanishes(self):
        w = metropolis_weights(path3())
        x = np.tile([2.0, -1.0], 3)
        assert laplacian_quadratic(w, x) == 0.0

    def test_two_node_hand_value(self):
        w = metropolis_weights(Graph(2, ((1,), (0,))))
        assert laplacian_quadratic(w, np.array([1.0, -1.0])) == pytest.approx(4.0, abs=1e-14)

    def test_nonnegative_and_matches_dense(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            g = generate_geometric_graph(12, seed)
            w = metropolis_weights(g)
            n = 3
            x = rng.standard_normal(12 * n)
            val = laplacian_quadratic(w, x)
            assert val >= 0.0
            Lap = np.kron(np.eye(12) - w.to_dense(), np.eye(n))
            dense = x @ (Lap @ x)
            assert val == pytest.approx(dense, rel=1e-10)

    def test_laplacian_apply_matches_dense(self):
        g = generate_geometric_graph(9, 2)
        w = metropolis_weights(g)
        X = np.random.default_rng(1).standard_normal((9, 4))
        dense = X - w.to_dense() @ X
        np.testing.assert_allclose(laplacian_apply(w, X), dense, atol=1e-13)

    def test_dimension_mismatch(self):
        w = metropolis_weights(path3())
        with pytest.raises(ValueError):
            laplacian_quadratic(w, np.ones(4))


class TestSerialization:
    def test_round_trip_bitwise(self):
        g = generate_geometric_graph(15, 11)
        w = metropolis_weights(g)
        text = network_to_json(g, w)
        w2 = mixing_from_json(text)
        assert np.array_equal(w.to_dense(), w2.to_dense())
        g2 = graph_from_json(text)
        assert g2.neighbor_lists == g.neighbor_lists
        # serialized form is stable under a reload cycle
        g3 = topology_reload(text)
        assert g3 == text

    def test_schema_fields(self):
        g = path3()
        w = metropolis_weights(g)
        doc = json.loads(network_to_json(g, w))
        assert set(doc) == {"n", "edges", "weights", "diag"}
        assert doc["n"] == 3
        assert [1, 2] not in doc["edges"] or [1, 2] in doc["edges"]
        assert all(i < j for i, j in doc["edges"])


def topology_reload(text):
    g = graph_from_json(text)
    w = mixing_from_json(text)
    return network_to_json(g, w)
