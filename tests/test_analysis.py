import math

import numpy as np
import pytest

from efix.analysis import (OracleSolution, complexity_bound, error_e, error_v,
                           first_hit, loglog_slope, max_node_error, oracle_logistic,
                           oracle_quadratic, slope_fit, solve_reference)
from efix.problems import (LogisticProblem, QuadraticProblem, generate_logistic,
                           generate_quadratic, quadratic_constants)
from efix.solvers import OuterRecord, Trace


def make_trace(thetas, errors):
    tr = Trace(algo="synthetic", problem_hash="x", node_count=1, dim=1)
    for s, (th, e) in enumerate(zip(thetas, errors)):
        tr.outer.append(OuterRecord(s=s, theta=th, epsilon=1.0, q=0.5, rho=0.5,
                                    k_planned=1, k_run=1, grad_norm=0.0, error_max=e))
    return tr


class TestQuadraticOracle:
    def test_identity_blocks_give_mean(self):
        p = QuadraticProblem(np.stack([np.eye(1)] * 3),
                             np.array([[0.0], [3.0], [6.0]]))
        o = oracle_quadratic(p)
        assert o.y_star[0] == pytest.approx(3.0, abs=1e-14)

    def test_single_node_returns_shift(self):
        p = generate_quadratic(1, 4, seed=0)
        o = oracle_quadratic(p)
        np.testing.assert_allclose(o.y_star, p.b[0], atol=1e-12)

    def test_stationarity_residual(self):
        p = generate_quadratic(6, 5, seed=1)
        o = oracle_quadratic(p)
        residual = sum(p.B[i] @ (o.y_star - p.b[i]) for i in range(6))
        assert np.linalg.norm(residual) <= 1e-10 * max(1, np.linalg.norm(o.y_star))


class TestLogisticOracle:
    def test_zero_features_give_zero(self):
        p = LogisticProblem(np.zeros((4, 3)), np.array([1.0, -1.0, 1.0, -1.0]),
                            [np.array([0, 1]), np.array([2, 3])], 0.5)
        o = oracle_logistic(p)
        np.testing.assert_allclose(o.y_star, 0.0, atol=1e-12)

    def test_gradient_norm_at_solution(self):
        p = generate_logistic(4, 60, 5, seed=2, mu=1e-3)
        o = oracle_logistic(p, tol=1e-10)
        g = sum(p.local_gradient(i, o.y_star) for i in range(4))
        assert np.linalg.norm(g) <= 1e-10

    def test_value_below_start(self):
        p = generate_logistic(3, 30, 4, seed=3, mu=1e-2)
        o = oracle_logistic(p)
        assert o.f_star <= p.sample_count * math.log(2)

    def test_iteration_cap(self):
        p = generate_logistic(3, 30, 4, seed=4, mu=1e-2)
        with pytest.raises(RuntimeError):
            oracle_logistic(p, tol=1e-10, max_iter=1)

    def test_dispatch(self):
        assert solve_reference(generate_quadratic(2, 2, 0)).method == "direct-solve"
        assert solve_reference(generate_logistic(2, 10, 2, 0, 1e-2)).method == "newton"


class TestErrorMetrics:
    def oracle(self):
        return OracleSolution(y_star=np.array([3.0, 4.0]), f_star=0.0, method="direct-solve")

    def test_exact_consensus_is_zero(self):
        o = self.oracle()
        x = np.tile(o.y_star, 4)
        assert error_e(x, o) == 0.0

    def test_one_node_off_gives_one_over_N(self):
        o = self.oracle()
        X = np.tile(o.y_star, (5, 1))
        X[2] = 2 * o.y_star
        assert error_e(X.reshape(-1), o) == pytest.approx(1 / 5, rel=1e-15)

    def test_origin_gives_one(self):
        o = self.oracle()
        assert error_e(np.zeros(8), o) == pytest.approx(1.0, rel=1e-15)

    def test_zero_solution_rejected(self):
        o = OracleSolution(np.zeros(2), 0.0, "direct-solve")
        with pytest.raises(ValueError):
            error_e(np.ones(4), o)

    def test_error_v_constant_average(self):
        p = generate_quadratic(4, 3, seed=5)
        y = np.random.default_rng(0).standard_normal(3)
        v = error_v(np.tile(y, 4), p)
        assert v == pytest.approx(p.global_objective(y), rel=1e-12)

    def test_error_v_matches_naive_average(self):
        for problem in (generate_quadratic(5, 3, seed=6),
                        generate_logistic(5, 40, 3, seed=6, mu=1e-2)):
            X = np.random.default_rng(1).standard_normal((5, 3))
            naive = np.mean([problem.global_objective(X[i]) for i in range(5)])
            assert error_v(X.reshape(-1), problem) == pytest.approx(naive, rel=1e-12)

    def test_quadratic_closed_form_at_scale_and_at_the_optimum(self):
        p = generate_quadratic(100, 10, seed=10)
        X = np.random.default_rng(4).standard_normal((100, 10)) * 10.0
        naive = np.mean([p.global_objective(X[i]) for i in range(100)])
        assert error_v(X.reshape(-1), p) == pytest.approx(naive, rel=1e-12)
        o = oracle_quadratic(p)
        assert error_v(np.tile(o.y_star, 100), p) == pytest.approx(o.f_star, rel=1e-12)

    def test_logistic_value_at_origin(self):
        p = generate_logistic(4, 24, 3, seed=7, mu=1e-2)
        assert error_v(np.zeros(12), p) == pytest.approx(24 * math.log(2), rel=1e-12)

    def test_logistic_error_v_is_the_mean_objective(self):
        p = generate_logistic(10, 203, 5, seed=12, mu=1e-2)
        rng = np.random.default_rng(5)
        for scale in (0.01, 1.0, 30.0):
            X = rng.standard_normal((10, 5)) * scale
            naive = np.mean([p.global_objective(X[i]) for i in range(10)])
            assert error_v(X.reshape(-1), p) == pytest.approx(naive, rel=1e-14)

    def test_logistic_error_v_linear_tail(self):
        # margins of +-1e3 and 2e3: exp(-|t|) underflows to 0, so each loss
        # term is exactly max(-t, 0) and the value is exact
        p = LogisticProblem(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]),
                            [[0], [1]], mu=0.5)
        X = np.array([1e3, -1e3])
        # node 0: losses 0 + 2000; node 1: 1000 + 0; regularizer 2 * 0.25 * 1e6 each
        assert error_v(X, p) == 501500.0
        assert error_v(X, p) == np.mean([p.global_objective(X[i:i + 1]) for i in range(2)])

    def test_error_v_dominates_optimum(self):
        p = generate_logistic(4, 40, 3, seed=8, mu=1e-2)
        o = oracle_logistic(p)
        X = np.random.default_rng(2).standard_normal((4, 3))
        assert error_v(X.reshape(-1), p) >= o.f_star

    def test_node_relabeling_invariance(self):
        p = generate_quadratic(5, 3, seed=9)
        o = oracle_quadratic(p)
        X = np.random.default_rng(3).standard_normal((5, 3))
        perm = np.array([3, 0, 4, 1, 2])
        p2 = QuadraticProblem(p.B[perm], p.b[perm])
        assert error_e(X.reshape(-1), o) == pytest.approx(
            error_e(X[perm].reshape(-1), oracle_quadratic(p2)), rel=1e-12)
        assert error_v(X.reshape(-1), p) == pytest.approx(
            error_v(X[perm].reshape(-1), p2), rel=1e-12)


class TestSlopeFit:
    def test_exact_reciprocal_slope(self):
        thetas = np.arange(1, 60, dtype=float)
        tr = make_trace(thetas, 7.0 / thetas)
        assert slope_fit(tr, (5, 50)) == pytest.approx(-1.0, abs=1e-9)

    def test_constant_error_slope(self):
        thetas = np.arange(1, 60, dtype=float)
        tr = make_trace(thetas, np.full_like(thetas, 0.3))
        assert slope_fit(tr, (5, 50)) == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_points(self):
        tr = make_trace([1.0, 2.0, 3.0], [1.0, 0.5, 0.3])
        with pytest.raises(ValueError):
            slope_fit(tr, (0, 10))

    def test_loglog_slope_direct(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert loglog_slope(x, 5.0 / x ** 2) == pytest.approx(-2.0, abs=1e-12)


class TestHittingHelpers:
    def test_first_hit(self):
        tr = make_trace([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.05, 0.01])
        assert first_hit(tr, 0.1) == 3.0
        assert first_hit(tr, 1e-9) is None

    def test_complexity_bound_value(self):
        consts = quadratic_constants(generate_quadratic(4, 3, seed=10))
        b = complexity_bound(consts, lambda2=0.5, tol=0.1)
        expected = math.ceil(2 * consts.J * (3 + 2 * consts.L / consts.mu) / (0.5 * 0.1))
        assert b == expected

    def test_max_node_error(self):
        o = OracleSolution(np.array([1.0, 0.0]), 0.0, "direct-solve")
        X = np.array([[1.0, 0.0], [3.0, 0.0]])
        assert max_node_error(X.reshape(-1), o) == 2.0
