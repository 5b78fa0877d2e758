import math

import numpy as np
import pytest

from efix.analysis import (OracleSolution, _node_order_sum, complexity_bound, error_e, error_v,
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
        X = np.tile(o.y_star, (4, 1))
        assert error_e(X, o) == 0.0

    def test_one_node_off_gives_one_over_N(self):
        o = self.oracle()
        X = np.tile(o.y_star, (5, 1))
        X[2] = 2 * o.y_star
        assert error_e(X, o) == pytest.approx(1 / 5, rel=1e-15)

    def test_origin_gives_one(self):
        o = self.oracle()
        assert error_e(np.zeros((4, 2)), o) == pytest.approx(1.0, rel=1e-15)

    def test_zero_solution_rejected(self):
        o = OracleSolution(np.zeros(2), 0.0, "direct-solve")
        with pytest.raises(ValueError):
            error_e(np.ones((2, 2)), o)

    def test_error_v_constant_average(self):
        p = generate_quadratic(4, 3, seed=5)
        y = np.random.default_rng(0).standard_normal(3)
        v = error_v(np.tile(y, (4, 1)), p)
        assert v == pytest.approx(p.global_objective(y), rel=1e-12)

    def test_error_v_matches_naive_average(self):
        for problem in (generate_quadratic(5, 3, seed=6),
                        generate_logistic(5, 40, 3, seed=6, mu=1e-2)):
            X = np.random.default_rng(1).standard_normal((5, 3))
            naive = np.mean([problem.global_objective(X[i]) for i in range(5)])
            assert error_v(X, problem) == pytest.approx(naive, rel=1e-12)

    def test_quadratic_closed_form_at_scale_and_at_the_optimum(self):
        p = generate_quadratic(100, 10, seed=10)
        X = np.random.default_rng(4).standard_normal((100, 10)) * 10.0
        naive = np.mean([p.global_objective(X[i]) for i in range(100)])
        assert error_v(X, p) == pytest.approx(naive, rel=1e-12)
        o = oracle_quadratic(p)
        assert error_v(np.tile(o.y_star, (100, 1)), p) == pytest.approx(o.f_star, rel=1e-12)

    def test_logistic_value_at_origin(self):
        p = generate_logistic(4, 24, 3, seed=7, mu=1e-2)
        assert error_v(np.zeros((4, 3)), p) == pytest.approx(24 * math.log(2), rel=1e-12)

    def test_logistic_error_v_is_the_mean_objective(self):
        p = generate_logistic(10, 203, 5, seed=12, mu=1e-2)
        rng = np.random.default_rng(5)
        for scale in (0.01, 1.0, 30.0):
            X = rng.standard_normal((10, 5)) * scale
            naive = np.mean([p.global_objective(X[i]) for i in range(10)])
            assert error_v(X, p) == pytest.approx(naive, rel=1e-14)

    def test_logistic_error_v_linear_tail(self):
        # margins of +-1e3 and 2e3: exp(-|t|) underflows to 0, so each loss
        # term is exactly max(-t, 0) and the value is exact
        p = LogisticProblem(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]),
                            [[0], [1]], mu=0.5)
        X = np.array([[1e3], [-1e3]])
        # node 0: losses 0 + 2000; node 1: 1000 + 0; regularizer 2 * 0.25 * 1e6 each
        assert error_v(X, p) == 501500.0
        assert error_v(X, p) == np.mean([p.global_objective(X[i]) for i in range(2)])

    def test_logistic_error_v_equals_the_label_multiply(self):
        # the signed features fold the +-1 labels into the matmul exactly:
        # bit for bit the margins-then-labels form, over repeated calls on
        # the same work buffers
        for N, T, n, seed in ((10, 200, 5, 3), (20, 2000, 20, 1), (7, 71, 3, 5)):
            p = generate_logistic(N, T, n, seed=seed, mu=1e-2)
            rng = np.random.default_rng(seed)
            for scale in (0.0, 1e-3, 1.0, 1e2, 1e3):
                X = scale * rng.standard_normal((N, n))
                s = p.features @ X.T
                loss = s * -p.labels[:, None]
                ref = (np.maximum(loss, 0.0) + np.log1p(np.exp(-np.abs(s)))).sum(axis=0) \
                    + N * 0.5 * p.mu * (X * X).sum(axis=1)
                assert error_v(X, p) == float(np.mean(ref))
        signed, s_buf, loss_buf = p.error_v_workspace
        assert p.error_v_workspace[0] is signed
        assert signed.shape == (71, 3) and s_buf.shape == loss_buf.shape == (71, 7)

    def test_error_v_dominates_optimum(self):
        p = generate_logistic(4, 40, 3, seed=8, mu=1e-2)
        o = oracle_logistic(p)
        X = np.random.default_rng(2).standard_normal((4, 3))
        assert error_v(X, p) >= o.f_star

    def test_node_relabeling_invariance(self):
        p = generate_quadratic(5, 3, seed=9)
        o = oracle_quadratic(p)
        X = np.random.default_rng(3).standard_normal((5, 3))
        perm = np.array([3, 0, 4, 1, 2])
        p2 = QuadraticProblem(p.B[perm], p.b[perm])
        assert error_e(X, o) == pytest.approx(
            error_e(X[perm], oracle_quadratic(p2)), rel=1e-12)
        assert error_v(X, p) == pytest.approx(
            error_v(X[perm], p2), rel=1e-12)

    @pytest.mark.parametrize("R", [1, 3, 16])
    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1.0, 1e150])
    def test_a_block_of_iterates_equals_one_call_each(self, R, scale):
        # the trace rows' stacked form: bitwise the one-iterate value, row by row
        rng = np.random.default_rng(R)
        for p in (generate_quadratic(30, 10, seed=12), generate_quadratic(7, 3, seed=13),
                  generate_logistic(6, 48, 3, seed=14, mu=1e-2)):
            o = solve_reference(p)
            Xs = scale * rng.standard_normal((R, p.node_count, p.dim))
            with np.errstate(over="ignore", invalid="ignore"):
                for metric, arg in ((error_e, o), (error_v, p)):
                    stacked = metric(Xs, arg)
                    rows = [metric(X, arg) for X in Xs]
                    assert type(stacked) is list and all(type(v) is float for v in rows)
                    assert repr(stacked) == repr(rows)


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
        b = complexity_bound(consts, gap=0.5, tol=0.1)
        expected = math.ceil(2 * consts.J * (3 + 2 * consts.L / consts.mu) / (0.5 * 0.1))
        assert b == expected

    def test_max_node_error(self):
        o = OracleSolution(np.array([1.0, 0.0]), 0.0, "direct-solve")
        X = np.array([[1.0, 0.0], [3.0, 0.0]])
        assert max_node_error(X, o) == 2.0


class TestStackedOracle:
    """The batched Newton oracle and the cached ``||y*||`` leave every bit as the loops did."""

    @staticmethod
    def loop_newton(problem, tol=1e-10, max_iter=100):
        N = problem.node_count
        y = np.zeros(problem.dim)
        for _ in range(max_iter):
            g = sum(problem.local_gradient(i, y) for i in range(N))
            if np.linalg.norm(g) <= tol:
                return y, float(problem.global_objective(y))
            step = np.linalg.solve(sum(problem.local_hessian(i, y) for i in range(N)), g)
            t = 1.0
            f_here = problem.global_objective(y)
            while problem.global_objective(y - t * step) > f_here and t > 1e-14:
                t *= 0.5
            y = y - t * step
        raise AssertionError("reference Newton did not converge")

    def test_logistic_oracle(self):
        rng = np.random.default_rng(43)
        D = rng.standard_normal((12, 3))
        zeta = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        cases = [generate_logistic(20, 2000, 20, seed=1, mu=1e-2),
                 generate_logistic(10, 203, 4, seed=3, mu=1e-2),
                 generate_logistic(4, 60, 5, seed=2, mu=1e-3),
                 LogisticProblem(D, zeta, [[0, 3, 5], [], [1], [2, 4, 6, 7, 8], [9, 10, 11]], 0.1)]
        assert len({len(J) for J in cases[1].partition}) == 2
        for p in cases:
            o = oracle_logistic(p)
            y, f = self.loop_newton(p)
            assert np.array_equal(o.y_star.view(np.int64), y.view(np.int64)) and o.f_star == f

    def test_node_order_sum_in_any_layout(self):
        rng = np.random.default_rng(45)
        stack = rng.standard_normal((20, 20)) * 10.0 ** rng.integers(-4, 4, (20, 1))
        for s in (stack, np.asfortranarray(stack)):
            assert np.array_equal(_node_order_sum(s).view(np.int64), sum(stack).view(np.int64))

    def test_quadratic_oracle_value(self):
        for N, n in ((2, 1), (30, 10), (100, 10)):
            p = generate_quadratic(N, n, seed=N)
            o = oracle_quadratic(p)
            assert o.f_star == sum(p.local_objective(i, o.y_star) for i in range(N))

    def test_error_e_equals_the_norm_form(self):
        p = generate_quadratic(30, 10, seed=11)
        o = oracle_quadratic(p)
        rng = np.random.default_rng(44)
        for scale in (1e-12, 1.0, 1e8):
            X = o.y_star + scale * rng.standard_normal((30, 10))
            ref = np.mean(np.linalg.norm(X - o.y_star, axis=1)) / np.linalg.norm(o.y_star)
            assert error_e(X, o) == float(ref)
            assert max_node_error(X, o) == float(np.max(np.linalg.norm(X - o.y_star, axis=1)))
        assert "y_norm" in vars(o)
