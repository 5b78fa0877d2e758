import math

import numpy as np
import pytest

from efix.problems import (LogisticProblem, QuadraticProblem, constants_for,
                           generate_logistic, generate_quadratic, load_libsvm,
                           logistic_constants, partition_data, problem_fingerprint,
                           quadratic_constants, scale_features, stacked_gradient)


def central_diff_grad(f, y, h=1e-6):
    g = np.zeros_like(y)
    for k in range(y.size):
        e = np.zeros_like(y)
        e[k] = h
        g[k] = (f(y + e) - f(y - e)) / (2 * h)
    return g


def small_logistic(N=3, T=20, n=4, seed=0, mu=1e-2):
    return generate_logistic(N, T, n, seed, mu)


class TestGenerateQuadratic:
    def test_spectrum_and_shift_ranges(self):
        p = generate_quadratic(6, 5, seed=42)
        for i in range(6):
            ev = np.linalg.eigvalsh(p.B[i])
            assert ev[0] >= 1.0 - 1e-9 and ev[-1] <= 101.0 + 1e-9
        assert np.all(p.b >= 1.0) and np.all(p.b <= 31.0)

    def test_blocks_symmetric(self):
        p = generate_quadratic(4, 6, seed=1)
        for i in range(4):
            assert np.max(np.abs(p.B[i] - p.B[i].T)) <= 1e-12

    def test_deterministic(self):
        a = generate_quadratic(3, 4, seed=9)
        b = generate_quadratic(3, 4, seed=9)
        assert np.array_equal(a.B, b.B) and np.array_equal(a.b, b.b)

    def test_custom_spectrum(self):
        p = generate_quadratic(3, 4, seed=2, spectrum=(0.1, 0.2))
        for i in range(3):
            ev = np.linalg.eigvalsh(p.B[i])
            assert ev[0] >= 0.1 - 1e-12 and ev[-1] <= 0.2 + 1e-12


class TestQuadraticConstants:
    def test_identity_blocks(self):
        n = 3
        p = QuadraticProblem(np.stack([np.eye(n)] * 2), np.ones((2, n)))
        c = quadratic_constants(p)
        assert c.L == 1.0 and c.mu == 1.0 and c.kappa == 0.5

    def test_zero_shift_gives_zero_J(self):
        p = QuadraticProblem(np.stack([np.eye(2)] * 3), np.zeros((3, 2)))
        c = quadratic_constants(p)
        assert c.f0 == 0.0 and c.J == 0.0

    def test_kappa_formula(self):
        # mu = 1, L = 3 -> kappa = 3/4
        p = QuadraticProblem(np.stack([np.eye(2), 3 * np.eye(2)]), np.ones((2, 2)))
        c = quadratic_constants(p)
        assert c.kappa == pytest.approx(0.75, abs=0)

    def test_J_identity_and_bounds(self):
        p = generate_quadratic(5, 4, seed=3)
        c = quadratic_constants(p)
        assert c.J ** 2 == pytest.approx(2.0 * c.L * c.f0, rel=1e-15)
        assert 0 < c.mu <= c.L
        assert c.kappa < min(c.mu, c.L)


class TestLoadLibsvm:
    def test_basic_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:0.5 3:2.0\n-1 2:1.0 3:0.5\n")
        X, y = load_libsvm(f)
        assert X.shape == (2, 3)
        np.testing.assert_array_equal(X[0], [0.5, 0.0, 2.0])
        np.testing.assert_array_equal(y, [1.0, -1.0])

    def test_zero_label_maps_to_minus_one(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 2:1\n")
        X, y = load_libsvm(f)
        np.testing.assert_array_equal(X[0], [0.0, 1.0])
        assert y[0] == -1.0

    def test_malformed_line_names_line_number(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("abc\n")
        with pytest.raises(ValueError, match="line 1"):
            load_libsvm(f)

    def test_unknown_label(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:1\n3 1:1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_libsvm(f)

    def test_malformed_feature(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:1\n-1 oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_libsvm(f)


class TestPartition:
    def test_even_split(self):
        p = partition_data(np.ones((10, 2)), np.ones(10), 2, seed=0, mu=0.1)
        assert sorted(len(J) for J in p.partition) == [5, 5]

    def test_near_even_split(self):
        p = partition_data(np.ones((7, 2)), np.ones(7), 3, seed=0, mu=0.1)
        assert sorted(len(J) for J in p.partition) == [2, 2, 3]

    def test_deterministic(self):
        X, y = np.ones((9, 2)), np.ones(9)
        a = partition_data(X, y, 3, seed=4, mu=0.1)
        b = partition_data(X, y, 3, seed=4, mu=0.1)
        assert all(np.array_equal(J, K) for J, K in zip(a.partition, b.partition))

    def test_covers_all_samples_disjointly(self):
        p = partition_data(np.ones((11, 2)), np.ones(11), 4, seed=1, mu=0.1)
        joined = np.sort(np.concatenate(p.partition))
        np.testing.assert_array_equal(joined, np.arange(11))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            partition_data(np.ones((2, 2)), np.ones(2), 3, seed=0, mu=0.1)


class TestScaleFeatures:
    def test_single_sample(self):
        p = LogisticProblem(np.array([[2.0, 0.0]]), np.array([1.0]), [np.array([0])], 0.1)
        q = scale_features(p)
        np.testing.assert_array_equal(q.features, [[1.0, 0.0]])
        gram = q.features.T @ q.features
        assert np.linalg.eigvalsh(gram)[-1] == pytest.approx(1.0, abs=1e-15)

    def test_idempotent_at_fixed_point(self):
        p = LogisticProblem(np.array([[1.0, 0.0]]), np.array([1.0]), [np.array([0])], 0.1)
        q = scale_features(p)
        assert np.array_equal(q.features, p.features)

    def test_two_nodes_worst_gram_normalized(self):
        X = np.array([[2.0, 0.0], [0.0, 1.0]])
        p = LogisticProblem(X, np.array([1.0, -1.0]),
                            [np.array([0]), np.array([1])], 0.1)
        q = scale_features(p)
        g0 = np.linalg.eigvalsh(np.outer(q.features[0], q.features[0]))[-1]
        g1 = np.linalg.eigvalsh(np.outer(q.features[1], q.features[1]))[-1]
        assert g0 == pytest.approx(1.0, abs=1e-15)
        assert g1 == pytest.approx(0.25, abs=1e-15)

    def test_all_zero_rejected(self):
        p = LogisticProblem(np.zeros((2, 2)), np.array([1.0, -1.0]),
                            [np.array([0]), np.array([1])], 0.1)
        with pytest.raises(ValueError):
            scale_features(p)


class TestLogisticDerivatives:
    def test_gradient_at_zero(self):
        p = small_logistic()
        for i in range(p.node_count):
            J = p.partition[i]
            expected = -0.5 * (p.labels[J] @ p.features[J])
            np.testing.assert_allclose(p.local_gradient(i, np.zeros(p.dim)), expected,
                                       atol=1e-14)

    def test_empty_node_gradient_is_regularizer(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = LogisticProblem(X, np.array([1.0, -1.0]),
                            [np.array([0, 1]), np.array([], dtype=int)], 0.3)
        y = np.array([2.0, -1.0])
        np.testing.assert_allclose(p.local_gradient(1, y), 0.3 * y, atol=0)
        np.testing.assert_allclose(p.local_hessian(1, y), 0.3 * np.eye(2), atol=0)

    def test_hessian_at_zero(self):
        p = small_logistic()
        for i in range(p.node_count):
            J = p.partition[i]
            D = p.features[J]
            expected = 0.25 * D.T @ D + p.mu * np.eye(p.dim)
            np.testing.assert_allclose(p.local_hessian(i, np.zeros(p.dim)), expected,
                                       atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        p = small_logistic()
        rng = np.random.default_rng(3)
        for _ in range(20):
            i = rng.integers(p.node_count)
            y = rng.standard_normal(p.dim)
            g = p.local_gradient(i, y)
            fd = central_diff_grad(lambda v: p.local_objective(i, v), y)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_hessian_matches_gradient_differences(self):
        p = small_logistic()
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(10):
            i = rng.integers(p.node_count)
            y = rng.standard_normal(p.dim)
            H = p.local_hessian(i, y)
            for k in range(p.dim):
                e = np.zeros(p.dim)
                e[k] = h
                col = (p.local_gradient(i, y + e) - p.local_gradient(i, y - e)) / (2 * h)
                np.testing.assert_allclose(H[:, k], col, rtol=1e-5, atol=1e-7)

    def test_curvature_factor_bounds(self):
        p = small_logistic()
        rng = np.random.default_rng(5)
        for _ in range(100):
            i = rng.integers(p.node_count)
            y = 3 * rng.standard_normal(p.dim)
            f = p.curvature_coeffs(i, y)
            assert np.all(f > 0) and np.all(f <= 0.25)

    def test_strong_convexity_witness(self):
        p = small_logistic()
        rng = np.random.default_rng(6)
        for _ in range(100):
            i = rng.integers(p.node_count)
            y = rng.standard_normal(p.dim)
            v = rng.standard_normal(p.dim)
            assert v @ (p.local_hessian(i, y) @ v) >= p.mu * (v @ v) - 1e-12


class TestStackedLogisticGradient:
    """The batched oracle equals a stack of per-node ``local_gradient`` rows, bit for bit."""

    @staticmethod
    def assert_parity(p, X):
        G = stacked_gradient(p, X)
        assert np.array_equal(G, np.stack([p.local_gradient(i, X[i])
                                           for i in range(p.node_count)]))
        return G

    def test_unequal_block_sizes(self):
        rng = np.random.default_rng(31)
        D = rng.standard_normal((203, 4))
        zeta = np.where(rng.random(203) < 0.5, -1.0, 1.0)
        p = scale_features(partition_data(D, zeta, 10, seed=2, mu=1e-2))
        assert [F.shape[1] for _, F, _ in p.size_classes] == [20, 21]
        for scale in (0.1, 1.0, 10.0):
            self.assert_parity(p, rng.standard_normal((10, 4)) * scale)

    def test_three_size_classes_and_an_empty_block(self):
        rng = np.random.default_rng(32)
        D = rng.standard_normal((12, 3))
        zeta = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        p = LogisticProblem(D, zeta, [[0, 3, 5], [], [1], [2, 4, 6, 7, 8], [9, 10, 11]], 0.1)
        assert [list(nodes) for nodes, _, _ in p.size_classes] == [[1], [2], [0, 4], [3]]
        for i, J in enumerate(p.partition):
            F, z = p.node_blocks[i]
            assert np.array_equal(F, D[J]) and np.array_equal(z, zeta[J])
            assert F.base is not None and z.base is not None   # views into the stacks
        X = rng.standard_normal((5, 3))
        G = self.assert_parity(p, X)
        assert np.array_equal(G[1], 0.1 * X[1])

    def test_margins_near_1e3(self):
        p = generate_logistic(6, 60, 3, seed=33, mu=1e-2)
        rng = np.random.default_rng(34)
        for _ in range(5):
            X = rng.standard_normal((6, 3))
            top = max(np.abs(p.margins(i, X[i])).max() for i in range(6))
            X *= 1e3 / top
            G = self.assert_parity(p, X)
            assert np.isfinite(G).all()

    def test_built_only_on_use(self):
        rng = np.random.default_rng(35)
        p = partition_data(rng.standard_normal((20, 3)), np.ones(20), 4, seed=1, mu=1e-2)
        scaled = scale_features(p)
        assert "size_classes" not in vars(p) and "size_classes" not in vars(scaled)
        stacked_gradient(scaled, np.zeros((4, 3)))
        assert "size_classes" in vars(scaled) and "size_classes" not in vars(p)


class TestQuadraticDerivatives:
    def test_gradient_matches_finite_differences(self):
        p = generate_quadratic(3, 4, seed=8)
        rng = np.random.default_rng(7)
        for _ in range(20):
            i = rng.integers(p.node_count)
            y = p.b[i] + rng.standard_normal(p.dim)
            g = p.local_gradient(i, y)
            fd = central_diff_grad(lambda v: p.local_objective(i, v), y, h=1e-5)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6)

    def test_minimum_value_zero(self):
        p = generate_quadratic(3, 4, seed=8)
        for i in range(3):
            assert p.local_objective(i, p.b[i]) == 0.0


class TestObjectives:
    def test_logistic_value_at_zero(self):
        p = small_logistic()
        for i in range(p.node_count):
            assert p.local_objective(i, np.zeros(p.dim)) == pytest.approx(
                len(p.partition[i]) * math.log(2), rel=1e-15)

    def test_global_is_sum_of_locals(self):
        p = small_logistic()
        y = np.random.default_rng(9).standard_normal(p.dim)
        total = sum(p.local_objective(i, y) for i in range(p.node_count))
        assert p.global_objective(y) == pytest.approx(total, rel=1e-12)

    def test_logistic_constants(self):
        p = small_logistic(mu=1e-4)
        c = logistic_constants(p)
        assert c.L == 1.0 + 1e-4
        assert c.f0 == pytest.approx(p.sample_count * math.log(2), rel=1e-15)
        assert c.J == pytest.approx(math.sqrt(2 * c.L * c.f0), rel=1e-15)


class TestSerializationAndHash:
    def test_quadratic_json_round_trip(self):
        p = generate_quadratic(3, 4, seed=5)
        q = QuadraticProblem.from_json(p.to_json())
        assert np.array_equal(p.B, q.B) and np.array_equal(p.b, q.b)
        assert p.to_json() == q.to_json()

    def test_fingerprint_distinguishes(self):
        a = generate_quadratic(3, 4, seed=5)
        b = generate_quadratic(3, 4, seed=6)
        assert problem_fingerprint(a) == problem_fingerprint(a)
        assert problem_fingerprint(a) != problem_fingerprint(b)

    def test_constants_for_dispatch(self):
        assert constants_for(generate_quadratic(2, 2, 0)).mu > 0
        assert constants_for(small_logistic(mu=1e-2)).L == 1.01
