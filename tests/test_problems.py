import math

import numpy as np
import pytest

from efix.penalty import assemble, assemble_model
from efix.problems import (LogisticProblem, QuadraticProblem, _feature_scale, constants_for,
                           generate_logistic, generate_quadratic, load_libsvm,
                           logistic_constants, partition_and_scale, problem_fingerprint,
                           quadratic_constants)
from efix.topology import generate_geometric_graph, metropolis_weights


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
        p = partition_and_scale(np.ones((10, 2)), np.ones(10), 2, seed=0, mu=0.1)
        assert sorted(len(J) for J in p.partition) == [5, 5]

    def test_near_even_split(self):
        p = partition_and_scale(np.ones((7, 2)), np.ones(7), 3, seed=0, mu=0.1)
        assert sorted(len(J) for J in p.partition) == [2, 2, 3]

    def test_deterministic(self):
        X, y = np.ones((9, 2)), np.ones(9)
        a = partition_and_scale(X, y, 3, seed=4, mu=0.1)
        b = partition_and_scale(X, y, 3, seed=4, mu=0.1)
        assert all(np.array_equal(J, K) for J, K in zip(a.partition, b.partition))

    def test_covers_all_samples_disjointly(self):
        p = partition_and_scale(np.ones((11, 2)), np.ones(11), 4, seed=1, mu=0.1)
        joined = np.sort(np.concatenate(p.partition))
        np.testing.assert_array_equal(joined, np.arange(11))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            partition_and_scale(np.ones((2, 2)), np.ones(2), 3, seed=0, mu=0.1)


class TestScaleFeatures:
    def test_single_sample(self):
        D = np.array([[2.0, 0.0]])
        scaled = D / _feature_scale(D, [np.array([0])])
        np.testing.assert_array_equal(scaled, [[1.0, 0.0]])
        gram = scaled.T @ scaled
        assert np.linalg.eigvalsh(gram)[-1] == pytest.approx(1.0, abs=1e-15)

    def test_idempotent_at_fixed_point(self):
        assert _feature_scale(np.array([[1.0, 0.0]]), [np.array([0])]) == 1.0

    def test_two_nodes_worst_gram_normalized(self):
        X = np.array([[2.0, 0.0], [0.0, 1.0]])
        scaled = X / _feature_scale(X, [np.array([0]), np.array([1])])
        g0 = np.linalg.eigvalsh(np.outer(scaled[0], scaled[0]))[-1]
        g1 = np.linalg.eigvalsh(np.outer(scaled[1], scaled[1]))[-1]
        assert g0 == pytest.approx(1.0, abs=1e-15)
        assert g1 == pytest.approx(0.25, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            _feature_scale(np.zeros((2, 2)), [np.array([0]), np.array([1])])

    def test_partition_and_scale_builds_one_problem(self, monkeypatch):
        rng = np.random.default_rng(43)
        D = rng.standard_normal((203, 4)) * 3.0
        zeta = np.where(rng.random(203) < 0.5, -1.0, 1.0)
        # the split: seed 2's permutation of the sample ids, cut into 10 sorted blocks
        parts = [np.sort(J) for J in np.array_split(np.random.default_rng(2).permutation(203), 10)]
        built, init = [], LogisticProblem.__init__

        def counted_init(self, *args):
            built.append(self)
            init(self, *args)
        monkeypatch.setattr(LogisticProblem, "__init__", counted_init)
        p = partition_and_scale(D, zeta, 10, seed=2, mu=1e-2)
        generate_logistic(10, 203, 4, seed=3, mu=1e-2)
        assert len(built) == 2
        assert all(np.array_equal(J, K) for J, K in zip(p.partition, parts, strict=True))
        assert np.array_equal(bits(p.features), bits(TestStackedSetup.loop_scale(D, parts)))
        assert np.array_equal(p.labels, zeta) and p.mu == 1e-2


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


def two_size_classes():
    """Ten nodes holding 20 or 21 of 203 samples, n=4, and the rng to draw points from."""
    rng = np.random.default_rng(31)
    D = rng.standard_normal((203, 4))
    zeta = np.where(rng.random(203) < 0.5, -1.0, 1.0)
    return partition_and_scale(D, zeta, 10, seed=2, mu=1e-2), rng


def three_size_classes_and_an_empty_block():
    """Five nodes holding 3, 0, 1, 5 and 3 samples, n=3, and the rng to draw points from."""
    rng = np.random.default_rng(32)
    D = rng.standard_normal((12, 3))
    zeta = np.where(rng.random(12) < 0.5, -1.0, 1.0)
    return LogisticProblem(D, zeta, [[0, 3, 5], [], [1], [2, 4, 6, 7, 8], [9, 10, 11]], 0.1), rng


def points_at_margin(p, rng, top):
    """A random (N, n) point scaled so that the largest |margin| over all nodes is ``top``."""
    X = rng.standard_normal((p.node_count, p.dim))
    return X * (top / max(np.abs(p.margins(i, X[i])).max() for i in range(p.node_count)))


class TestStackedLogisticGradient:
    """The batched oracle equals a stack of per-node ``local_gradient`` rows, bit for bit."""

    @staticmethod
    def assert_parity(p, X):
        G = p.stacked_gradient(X)
        assert np.array_equal(G, np.stack([p.local_gradient(i, X[i])
                                           for i in range(p.node_count)]))
        return G

    def test_unequal_block_sizes(self):
        p, rng = two_size_classes()
        assert [F.shape[1] for _, F, _ in p.size_classes] == [20, 21]
        for scale in (0.1, 1.0, 10.0):
            self.assert_parity(p, rng.standard_normal((10, 4)) * scale)

    def test_three_size_classes_and_an_empty_block(self):
        p, rng = three_size_classes_and_an_empty_block()
        assert [list(nodes) for nodes, _, _ in p.size_classes] == [[1], [2], [0, 4], [3]]
        for i, J in enumerate(p.partition):
            F, z = p.node_blocks[i]
            assert np.array_equal(F, p.features[J]) and np.array_equal(z, p.labels[J])
            assert F.base is not None and z.base is not None   # views into the stacks
        X = rng.standard_normal((5, 3))
        G = self.assert_parity(p, X)
        assert np.array_equal(G[1], 0.1 * X[1])

    def test_margins_near_1e3(self):
        p = generate_logistic(6, 60, 3, seed=33, mu=1e-2)
        rng = np.random.default_rng(34)
        for _ in range(5):
            G = self.assert_parity(p, points_at_margin(p, rng, 1e3))
            assert np.isfinite(G).all()

    def test_built_only_on_use(self):
        rng = np.random.default_rng(35)
        p = partition_and_scale(rng.standard_normal((20, 3)), np.ones(20), 4, seed=1, mu=1e-2)
        assert "size_classes" not in vars(p)
        p.stacked_gradient(np.zeros((4, 3)))
        assert "size_classes" in vars(p)


def stacked_model_cases():
    """(problem, X): both families at n = 1, 10 and 64, then the logistic fixtures above."""
    rng = np.random.default_rng(36)
    for n in (1, 10, 64):
        yield generate_quadratic(4, n, seed=n), rng.standard_normal((4, n))
        yield generate_logistic(4, 30, n, seed=n, mu=1e-2), rng.standard_normal((4, n))
    p, rng = two_size_classes()
    yield p, rng.standard_normal((10, 4))
    p, rng = three_size_classes_and_an_empty_block()
    yield p, rng.standard_normal((5, 3))
    p = generate_logistic(6, 60, 3, seed=33, mu=1e-2)
    yield p, points_at_margin(p, np.random.default_rng(34), 1e3)


class TestStackedModel:
    def test_stacked_model_equals_per_node_model_terms(self):
        # stage setup reads only the stacked oracles; the per-node ones are its reference
        for p, X in stacked_model_cases():
            N = p.node_count
            H, c = p.stacked_model(X)
            H_ref, c_ref = (np.stack(t) for t in zip(*(p.model_terms(i, X[i]) for i in range(N))))
            assert np.array_equal(H, H_ref) and np.array_equal(c, c_ref)
            assert np.array_equal(p.stacked_gradient(X),
                                  np.stack([p.local_gradient(i, X[i]) for i in range(N)]))
            w = metropolis_weights(generate_geometric_graph(N, 7))
            sub, ref = assemble_model(p, X, w, 3.0), assemble(H_ref, c_ref, w, 3.0)
            for field in ("A_self", "d", "dinv", "c"):
                assert np.array_equal(getattr(sub, field), getattr(ref, field))
        # the quadratic model is the cost itself at every point, its c one read-only stack
        p = generate_quadratic(4, 3, seed=1)
        H, c = p.stacked_model(None)
        assert H is p.B and c is p.Bb and not c.flags.writeable


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


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestStackedSetup:
    """The stacked instance set-up equals the per-node loops it replaced, bit for bit."""

    SHAPES = [(2, 1), (8, 3), (30, 10), (100, 10)]

    @staticmethod
    def loop_quadratic(N, n, seed, spectrum=(1.0, 101.0)):
        rng = np.random.default_rng(seed)
        B = np.empty((N, n, n))
        b = np.empty((N, n))
        for i in range(N):
            C = rng.standard_normal((n, n))
            _, P = np.linalg.eigh((C + C.T) / 2.0)
            S = rng.uniform(spectrum[0], spectrum[1], n)
            M = (P * S) @ P.T
            B[i] = (M + M.T) / 2.0
            b[i] = rng.uniform(1.0, 31.0, n)
        return B, b

    @staticmethod
    def loop_constants(p):
        ls, mus = [], []
        for i in range(p.node_count):
            ev = np.linalg.eigvalsh(p.B[i])
            mus.append(ev[0])
            ls.append(ev[-1])
        L, mu = float(max(ls)), float(min(mus))
        f0 = float(sum(0.5 * p.b[i] @ (p.B[i] @ p.b[i]) for i in range(p.node_count)))
        return L, mu, mu * L / (mu + L), math.sqrt(2.0 * L * f0), f0

    @staticmethod
    def loop_scale(features, partition):
        worst = 0.0
        for J in partition:
            D = features[J]
            if len(J):
                worst = max(worst, float(np.linalg.eigvalsh(D.T @ D)[-1]))
        return features / math.sqrt(worst)

    @pytest.mark.parametrize("N, n", SHAPES)
    def test_quadratic_instance_and_constants(self, N, n):
        for seed in (1, 7):
            p = generate_quadratic(N, n, seed)
            B, b = self.loop_quadratic(N, n, seed)
            assert np.array_equal(bits(p.B), bits(B)) and np.array_equal(bits(p.b), bits(b))
            c = quadratic_constants(p)
            assert (c.L, c.mu, c.kappa, c.J, c.f0) == self.loop_constants(p)
            y = np.random.default_rng(seed).standard_normal(n) * 10.0
            assert p.global_objective(y) == sum(p.local_objective(i, y) for i in range(N))

    def test_custom_spectrum(self):
        p = generate_quadratic(5, 4, 3, spectrum=(2.0, 2.0))
        B, b = self.loop_quadratic(5, 4, 3, spectrum=(2.0, 2.0))
        assert np.array_equal(bits(p.B), bits(B)) and np.array_equal(bits(p.b), bits(b))

    def test_scale_features_over_two_block_sizes(self):
        rng = np.random.default_rng(41)
        D = rng.standard_normal((203, 4)) * 3.0
        zeta = np.where(rng.random(203) < 0.5, -1.0, 1.0)
        p = partition_and_scale(D, zeta, 10, seed=2, mu=1e-2)
        assert sorted({len(J) for J in p.partition}) == [20, 21]
        assert np.array_equal(bits(p.features), bits(self.loop_scale(D, p.partition)))
        assert "size_classes" not in vars(p)
        parts = [np.array(J, dtype=int) for J in ([0, 3, 5], [], [1], [2, 4, 6, 7, 8], [9, 10, 11])]
        assert np.array_equal(bits(D[:12] / _feature_scale(D[:12], parts)),
                              bits(self.loop_scale(D[:12], parts)))

    def test_stacked_hessian_equals_local_hessian(self):
        rng = np.random.default_rng(42)
        D = rng.standard_normal((12, 3))
        zeta = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        parts = [[0, 3, 5], [], [1], [2, 4, 6, 7, 8], [9, 10, 11]]
        for p in (generate_logistic(10, 203, 4, seed=3, mu=1e-2),
                  LogisticProblem(D, zeta, parts, 0.1)):
            for scale in (0.1, 1.0, 30.0):
                X = rng.standard_normal((p.node_count, p.dim)) * scale
                H = p.stacked_hessian(X)
                for i in range(p.node_count):
                    assert np.array_equal(bits(H[i]), bits(p.local_hessian(i, X[i])))

    def test_constants_computed_once_per_problem(self, monkeypatch):
        import efix.problems as problems
        calls = []
        monkeypatch.setattr(problems, "quadratic_constants",
                            lambda p: calls.append(p) or quadratic_constants(p))
        p = generate_quadratic(4, 2, 0)
        first = constants_for(p)
        assert constants_for(p) is first and calls == [p]
        logistic = small_logistic()
        assert constants_for(logistic) is constants_for(logistic)
