import re
import warnings

import numpy as np
import pytest

from efix.penalty import (ChebyshevPlan, NonContractiveError, assemble, assemble_model,
                          chebyshev_plan, chebyshev_step,
                          contraction_estimate, dense_system, jor_step, penalty_gradient,
                          relaxation_bound, relaxed)
from efix.problems import (LogisticProblem, QuadraticProblem, constants_for,
                           generate_logistic, generate_quadratic)
from efix.topology import generate_geometric_graph, metropolis_weights


def dense_iteration_matrix(sub):
    """The dense JOR matrix M = q D^{-1} (D - A) + (1 - q) I of a relaxed subproblem."""
    A, _ = dense_system(sub)
    dinv = sub.dinv.reshape(-1)
    return np.eye(A.shape[0]) - sub.q * (dinv[:, None] * A)


def two_node_instance(q=1.0):
    """n=1, N=2, B=I, b=(0,2), theta=1, w12=1: A=[[2,-1],[-1,2]], c=(0,2)."""
    w = metropolis_weights(((1,), (0,)))
    p = QuadraticProblem(np.ones((2, 1, 1)), np.array([[0.0], [2.0]]))
    return relaxed(assemble(p.B, p.Bb, w, theta=1.0), q=q), p, w


def random_instance(seed, N=8, n=3, theta=None, q_frac=0.99):
    g = generate_geometric_graph(N, seed)
    w = metropolis_weights(g)
    p = generate_quadratic(N, n, seed + 100)
    ev = [np.linalg.eigvalsh(p.B[i]) for i in range(N)]
    L = max(e[-1] for e in ev)
    theta = theta if theta is not None else 2 * L
    q = q_frac * relaxation_bound(theta, L, w.w_bar)
    return relaxed(assemble(p.B, p.Bb, w, theta), q), p, w, L


class TestAssembly:
    def test_two_node_blocks(self):
        sub, _, _ = two_node_instance()
        np.testing.assert_array_equal(sub.A_self[0], [[2.0]])
        np.testing.assert_array_equal(sub.A_self[1], [[2.0]])
        np.testing.assert_array_equal(sub.d, [[2.0], [2.0]])
        np.testing.assert_array_equal(sub.M_self[0], [[0.0]])
        np.testing.assert_array_equal(sub.p, [[0.0], [1.0]])
        M = dense_iteration_matrix(sub)
        np.testing.assert_allclose(M, [[0.0, 0.5], [0.5, 0.0]], atol=0)

    def test_self_loop_row_reduces_to_hessian(self):
        # w_ii = 1 leaves A_ii = B_ii regardless of theta
        w = metropolis_weights(((1,), (0,)))
        object.__setattr__(w, "diag", np.array([1.0, 1.0]))
        p = QuadraticProblem(3.0 * np.ones((2, 1, 1)), np.zeros((2, 1)))
        sub = relaxed(assemble(p.B, p.Bb, w, theta=17.0), q=0.5)
        np.testing.assert_array_equal(sub.A_self[0], [[3.0]])

    def test_dense_assembly_matches_kron_form(self):
        for seed in range(5):
            sub, p, w, _ = random_instance(seed)
            A, c = dense_system(sub)
            N, n = p.node_count, p.dim
            Bblk = np.zeros((N * n, N * n))
            for i in range(N):
                Bblk[i * n:(i + 1) * n, i * n:(i + 1) * n] = p.B[i]
            Lap = np.kron(np.eye(N) - w.to_dense(), np.eye(n))
            np.testing.assert_allclose(A, Bblk + sub.theta * Lap, atol=1e-12)
            np.testing.assert_allclose(c, np.concatenate([p.B[i] @ p.b[i] for i in range(N)]),
                                       atol=0)

    def test_model_empty_node_block(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = LogisticProblem(X, np.array([1.0, -1.0]),
                            [np.array([0, 1]), np.array([], dtype=int)], 0.25)
        w = metropolis_weights(((1,), (0,)))
        sub = assemble_model(p, np.zeros((2, 2)), w, theta=2.0)
        # empty node: A_ii = mu I + theta (1 - w_ii) I
        np.testing.assert_allclose(sub.A_self[1], (0.25 + 2.0) * np.eye(2), atol=1e-15)

    def test_model_gradient_equals_penalty_gradient_at_expansion_point(self):
        # A_s x_prev - c_s = grad F(x_prev) + theta L x_prev
        p = generate_logistic(4, 40, 3, seed=2, mu=1e-2)
        g = generate_geometric_graph(4, 5)
        w = metropolis_weights(g)
        x = np.random.default_rng(1).standard_normal(12)
        X = x.reshape(4, 3)
        sub = assemble_model(p, X, w, theta=3.0)
        G, _ = penalty_gradient(sub, X)
        grads = np.concatenate([p.local_gradient(i, X[i]) for i in range(4)])
        Lap = np.kron(np.eye(4) - w.to_dense(), np.eye(3))
        np.testing.assert_allclose(G.reshape(-1), grads + 3.0 * (Lap @ x), atol=1e-10)

    def test_nonpositive_diagonal_rejected(self):
        w = metropolis_weights(((1,), (0,)))
        H = np.array([[[-5.0]], [[1.0]]])
        with pytest.raises(ValueError, match="diagonal"):
            assemble(H, np.zeros((2, 1)), w, theta=1.0)
        # the first offending block is named
        with pytest.raises(ValueError, match="block 1;"):
            assemble(H[::-1], np.zeros((2, 1)), w, theta=1.0)

    def test_blocks_equal_the_per_node_formulas(self):
        # A_ii = H_i + theta (1 - w_ii) I and M_ii = q D_i^{-1} (D_i - A_ii) + (1 - q) I
        for N, seed in ((7, 1), (30, 2)):
            w = metropolis_weights(generate_geometric_graph(N, seed))
            pq = generate_quadratic(N, 4, seed)
            pl = generate_logistic(N, 6 * N, 3, seed=seed, mu=1e-2)
            X = np.random.default_rng(seed).standard_normal((N, 3))
            for p, x in ((pq, None), (pl, X)):
                L = constants_for(p).L
                for theta in (2 * L, 1e4 * L):
                    sub = relaxed(assemble_model(p, x if x is not None else np.zeros((N, 4)),
                                                 w, theta), 0.7)
                    I = np.eye(p.dim)
                    for i in range(N):
                        H, _ = p.model_terms(i, None if x is None else x[i])
                        A = H + theta * (1.0 - w.diag[i]) * I
                        M = 0.7 * ((np.diag(np.diag(A)) - A) / np.diag(A)[:, None]) + (1.0 - 0.7) * I
                        assert np.array_equal(sub.A_self[i].view(np.int64), A.view(np.int64))
                        assert np.array_equal(sub.d[i], np.diag(A))
                        assert np.array_equal(sub.M_self[i].view(np.int64), M.view(np.int64))


class TestRelaxationBound:
    def test_theta_twice_L(self):
        # closed form 4(1 - w_bar)/5 at theta = 2L
        for L in (1.0, 2.0, 64.0):
            for w_bar in (0.0, 0.25, 0.5, 0.875):
                assert relaxation_bound(2 * L, L, w_bar) == 4 * (1 - w_bar) / 5

    def test_hand_value(self):
        assert relaxation_bound(2.0, 1.0, 0.5) == pytest.approx(0.4, abs=0)

    def test_monotone_in_theta(self):
        vals = [relaxation_bound(th, 1.0, 0.3) for th in (0.5, 1, 10, 100, 1e6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.7  # limit is 1 - w_bar

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            relaxation_bound(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            relaxation_bound(1.0, 1.0, 1.0)


class TestJorStep:
    def test_two_node_trajectory(self):
        sub, _, _ = two_node_instance()
        z1 = jor_step(np.zeros((2, 1)), sub)
        np.testing.assert_array_equal(z1, [[0.0], [1.0]])
        z2 = jor_step(z1, sub)
        np.testing.assert_array_equal(z2, [[0.5], [1.0]])
        # limit is the direct solve (2/3, 4/3)
        z = z2
        for _ in range(200):
            z = jor_step(z, sub)
        np.testing.assert_allclose(z, [[2 / 3], [4 / 3]], atol=1e-12)

    def test_fixed_point(self):
        sub, _, _, _ = random_instance(1)
        A, c = dense_system(sub)
        x_star = np.linalg.solve(A, c).reshape(sub.node_count, sub.dim)
        z = jor_step(x_star, sub)
        np.testing.assert_allclose(z, x_star, atol=1e-12)

    def test_diagonal_system_single_jacobi_step(self):
        # no neighbors contribute: q = 1 lands on D^{-1} c in one step
        w = metropolis_weights(((1,), (0,)))
        object.__setattr__(w, "off_diag", (np.array([0.0]), np.array([0.0])))
        object.__setattr__(w, "wt", np.zeros((2, 1)))
        object.__setattr__(w, "diag", np.array([1.0, 1.0]))
        p = QuadraticProblem(np.array([[[4.0]], [[5.0]]]), np.array([[2.0], [1.0]]))
        sub = relaxed(assemble(p.B, p.Bb, w, theta=3.0), q=1.0)
        z = jor_step(np.array([[7.0], [-7.0]]), sub)
        np.testing.assert_allclose(z, [[8.0 / 4.0], [5.0 / 5.0]], atol=0)

    def test_matches_dense_iteration(self):
        for seed in range(5):
            sub, _, _, _ = random_instance(seed)
            M = dense_iteration_matrix(sub)
            pvec = (sub.q * sub.c / sub.d).reshape(-1)
            z = np.random.default_rng(seed).standard_normal(M.shape[0])
            Z = z.reshape(sub.node_count, sub.dim)
            np.testing.assert_allclose(jor_step(Z, sub).reshape(-1), M @ z + pvec, atol=1e-12)

    def test_dimension_mismatch(self):
        sub, _, _ = two_node_instance()
        with pytest.raises(ValueError):
            jor_step(np.zeros((3, 1)), sub)


class TestPenaltyGradient:
    def test_zero_at_solution(self):
        sub, _, _, _ = random_instance(2)
        A, c = dense_system(sub)
        _, norm = penalty_gradient(sub, np.linalg.solve(A, c).reshape(sub.node_count, sub.dim))
        assert norm <= 1e-10

    def test_two_node_at_origin(self):
        sub, _, _ = two_node_instance()
        g, norm = penalty_gradient(sub, np.zeros((2, 1)))
        np.testing.assert_array_equal(g, [[0.0], [-2.0]])
        assert norm == 2.0

    def test_matches_dense(self):
        for seed in range(5):
            sub, _, _, _ = random_instance(seed)
            A, c = dense_system(sub)
            z = np.random.default_rng(seed).standard_normal(A.shape[0])
            g, _ = penalty_gradient(sub, z.reshape(sub.node_count, sub.dim))
            np.testing.assert_allclose(g.reshape(-1), A @ z - c, atol=1e-12)

    def test_equals_the_per_node_loop(self):
        for seed in range(5):
            sub, _, w, _ = random_instance(seed, N=12, n=4)
            Z = np.random.default_rng(seed).standard_normal((12, 4))
            g, _ = penalty_gradient(sub, Z)
            for i in range(12):
                acc = sub.A_self[i] @ Z[i]
                for k, j in enumerate(w.neighbor_lists[i]):
                    acc = acc - (sub.theta * w.off_diag[i][k]) * Z[j]
                assert np.array_equal(g[i], acc - sub.c[i])

    def test_coupling_weights_built_once_per_subproblem(self):
        sub, _, w, _ = random_instance(0, N=12, n=4)
        stack = sub.coupling_weights
        assert stack.shape == (w.idx.shape[1], 12, 4) and not stack.flags.writeable
        assert np.array_equal(stack, -(sub.theta * w.wt).T[:, :, None] * np.ones(4))
        penalty_gradient(sub, np.ones((12, 4)))
        assert sub.coupling_weights is stack


class TestContraction:
    def test_two_node_norm(self):
        sub, _, _ = two_node_instance()
        assert contraction_estimate(sub) == pytest.approx(0.5, abs=1e-14)

    def test_q_zero_not_contractive(self):
        # q = 0 degenerates M to the identity
        sub, _, _ = two_node_instance(q=0.0)
        with pytest.raises(NonContractiveError):
            contraction_estimate(sub)

    def test_estimate_approaches_one_as_q_vanishes(self):
        vals = [contraction_estimate(two_node_instance(q=q)[0]) for q in (0.5, 0.1, 0.01)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.99

    def test_zero_iteration_matrix_floors(self):
        w = metropolis_weights(((1,), (0,)))
        object.__setattr__(w, "off_diag", (np.array([0.0]), np.array([0.0])))
        object.__setattr__(w, "wt", np.zeros((2, 1)))
        object.__setattr__(w, "diag", np.array([1.0, 1.0]))
        p = QuadraticProblem(np.array([[[4.0]], [[5.0]]]), np.zeros((2, 1)))
        sub = relaxed(assemble(p.B, p.Bb, w, theta=1.0), q=1.0)
        assert contraction_estimate(sub) == 1e-12

    def test_spectral_radius_below_one_inside_interval(self):
        # JOR converges for q in the relaxation interval; check across sizes
        rng = np.random.default_rng(0)
        for seed in range(8):
            N = int(rng.integers(4, 12))
            n = int(rng.integers(1, 6))
            if N * n > 200:
                continue
            sub, _, _, _ = random_instance(seed, N=N, n=n,
                                           q_frac=float(rng.uniform(0.05, 0.99)))
            M = dense_iteration_matrix(sub)
            assert np.max(np.abs(np.linalg.eigvals(M))) < 1.0

    def test_linear_convergence_bound(self):
        # ||z_k - x*|| <= rho^k ||z_0 - x*|| across 20 instances
        for seed in range(20):
            sub, _, _, _ = random_instance(seed)
            rho = contraction_estimate(sub)
            A, c = dense_system(sub)
            x_star = np.linalg.solve(A, c).reshape(sub.node_count, sub.dim)
            z = x_star + np.random.default_rng(seed).standard_normal(x_star.shape)
            d0 = np.linalg.norm(z - x_star)
            for k in range(1, 30):
                z = jor_step(z, sub)
                assert np.linalg.norm(z - x_star) <= rho ** k * d0 * (1 + 1e-9)

    def test_radius_certifies_the_d_half_norm(self):
        # rho(M) is the norm of M in ||z||_{D^{1/2}} = ||D^{1/2} z||; the plain
        # 2-norm of the nonsymmetric M exceeds 1 on many of these instances
        for seed in range(6):
            L = random_instance(seed)[3]
            for mult in (2, 24, 240, 5040):
                sub, _, _, _ = random_instance(seed, theta=mult * L)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rho = contraction_estimate(sub)
                A, c = dense_system(sub)
                s = np.sqrt(sub.dinv.reshape(-1))
                lam = np.linalg.eigvalsh(s[:, None] * A * s)
                radius = np.max(np.abs(np.linalg.eigvals(dense_iteration_matrix(sub))))
                assert rho == pytest.approx(np.max(np.abs(1.0 - sub.q * lam)), rel=1e-12)
                assert rho == pytest.approx(radius, rel=1e-12)
                x_star = np.linalg.solve(A, c).reshape(sub.node_count, sub.dim)
                d_half = np.sqrt(sub.d)
                z = x_star + np.random.default_rng(seed).standard_normal(x_star.shape)
                d0 = np.linalg.norm(d_half * (z - x_star))
                for k in range(1, 31):
                    z = jor_step(z, sub)
                    assert np.linalg.norm(d_half * (z - x_star)) <= rho ** k * d0 * (1 + 1e-9)


class TestSystemBounds:
    def test_min_eigenvalue_and_norm(self):
        for seed in range(5):
            sub, p, w, L = random_instance(seed)
            A, _ = dense_system(sub)
            ev = np.linalg.eigvalsh(A)
            mu = min(np.linalg.eigvalsh(p.B[i])[0] for i in range(p.node_count))
            assert ev[0] >= mu - 1e-9
            assert ev[-1] <= L + 2 * sub.theta + 1e-9


def certificate_cases():
    """(subproblem, mu) pairs: quadratic and logistic-model, theta up to 1e4 L."""
    cases = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(4, 11))
        n = int(rng.integers(1, 5))
        w = metropolis_weights(generate_geometric_graph(N, seed + 40))
        pq = generate_quadratic(N, n, seed + 200)
        mu_q = min(np.linalg.eigvalsh(pq.B[i])[0] for i in range(N))
        L_q = max(np.linalg.eigvalsh(pq.B[i])[-1] for i in range(N))
        pl = generate_logistic(N, 6 * N, n, seed=seed + 300, mu=1e-2)
        X = rng.standard_normal((N, n))
        for mult in (float(rng.uniform(0.5, 4.0)), 100.0, 1e3, 1e4):
            q = 0.99 * relaxation_bound(mult * L_q, L_q, w.w_bar)
            cases.append((relaxed(assemble(pq.B, pq.Bb, w, mult * L_q), q), mu_q))
            theta = mult * (1 + pl.mu)
            cases.append((assemble_model(pl, X, w, theta), pl.mu))
    return cases


class TestChebyshevCertificate:
    def test_interval_contains_symmetric_spectrum(self):
        for sub, mu in certificate_cases():
            plan = chebyshev_plan(sub, mu)
            A, _ = dense_system(sub)
            s = 1.0 / np.sqrt(sub.d.reshape(-1))
            ev = np.linalg.eigvalsh(s[:, None] * A * s[None, :])
            assert 0 < plan.a <= ev[0] * (1 + 1e-12)
            assert ev[-1] <= plan.b * (1 + 1e-12)
            assert plan.C == pytest.approx(np.sqrt(sub.d.max() / sub.d.min()), rel=1e-15)

    def test_error_bound_over_sixty_rounds(self):
        # ||z_k - x*|| <= 2 C r^k ||z_0 - x*|| is what k(s) is planned from
        worst = 0.0
        for idx, (sub, mu) in enumerate(certificate_cases()):
            plan = chebyshev_plan(sub, mu)
            sweep = relaxed(sub, plan.q)
            A, c = dense_system(sub)
            x_star = np.linalg.solve(A, c).reshape(sub.node_count, sub.dim)
            z = x_star + np.random.default_rng(idx).standard_normal(x_star.shape)
            d0 = np.linalg.norm(z - x_star)
            z_prev = z
            for k in range(60):
                z, z_prev = chebyshev_step(z, z_prev, sweep, plan.weight(k)), z
                bound = 2 * plan.C * plan.rate ** (k + 1) * d0
                assert np.linalg.norm(z - x_star) <= bound * (1 + 1e-9)
                worst = max(worst, np.linalg.norm(z - x_star) / bound)
        assert worst > 0.1  # the bound is not vacuous on these instances

    def test_weights_follow_the_classical_recurrence(self):
        sub, _, _, L = random_instance(3, theta=50.0)
        plan = chebyshev_plan(sub, 1.0)
        rho = (plan.b - plan.a) / (plan.b + plan.a)
        omega = [1.0, 2.0 / (2.0 - rho ** 2)]
        while len(omega) < 40:
            omega.append(1.0 / (1.0 - rho ** 2 * omega[-1] / 4.0))
        np.testing.assert_allclose([plan.weight(k) for k in range(40)], omega, rtol=1e-12)
        assert 1.0 < plan.weight(39) < 2.0

    def test_weight_equals_the_uncached_formula(self):
        sub, _, _, _ = random_instance(3, theta=50.0)
        plans = [chebyshev_plan(sub, 1.0), chebyshev_plan(sub, 1e-3),
                 ChebyshevPlan(a=2.0, b=2.0, C=1.0), ChebyshevPlan(a=1e-6, b=1.9, C=3.0)]
        assert plans[2].rate == 1e-12  # a == b: the rate clamp
        for plan in plans:
            r = plan.rate
            for k in range(201):
                expect = 1.0 if k == 0 else (
                    (1.0 + r ** 2) * (1.0 + (r ** 2) ** k) / (1.0 + (r ** 2) ** (k + 1)))
                assert np.float64(plan.weight(k)).view(np.int64) == \
                    np.float64(expect).view(np.int64)

    def test_relaxed_equals_assembly_at_that_q(self):
        sub, p, w, L = random_instance(4)
        other = relaxed(sub, 0.37)
        direct = relaxed(assemble(p.B, p.Bb, w, sub.theta), 0.37)
        assert other.q == 0.37 and sub.q != 0.37
        np.testing.assert_array_equal(other.M_self, direct.M_self)
        np.testing.assert_array_equal(other.p, direct.p)
        np.testing.assert_array_equal(other.A_self, sub.A_self)

    def test_plan_needs_positive_mu(self):
        sub, _, _, _ = random_instance(5)
        with pytest.raises(ValueError):
            chebyshev_plan(sub, 0.0)

    def test_plan_refuses_a_rate_not_below_one(self):
        # at 1e300 the rate rounds to 1; at 1.7e308 b overflows and the rate is NaN
        _, p, w, _ = random_instance(5)
        for theta, rate in ((1e300, "1.0"), (1.7e308, "nan")):
            message = f"theta={theta:.6g} has no certified contraction rate below 1 (rate {rate})"
            with pytest.raises(ValueError, match=re.escape(message)):
                chebyshev_plan(assemble(p.B, p.Bb, w, theta), 1.0)


def network_cases():
    """(subproblem, local Hessians, mu) at network scale, theta in {2, 1e2, 1e4} L.

    The criterion-4 instance (N=30, n=10) and a logistic model (N=20,
    T=2000, n=20, mu=1e-2) built at a random point.
    """
    pq = generate_quadratic(30, 10, 1001)
    pl = generate_logistic(20, 2000, 20, seed=17, mu=1e-2)
    for p, w, X in ((pq, metropolis_weights(generate_geometric_graph(30, 1)), np.zeros((30, 10))),
                    (pl, metropolis_weights(generate_geometric_graph(20, 5)),
                     np.random.default_rng(9).standard_normal((20, 20)))):
        consts = constants_for(p)
        H = np.array([p.local_hessian(i, X[i]) for i in range(p.node_count)])
        for mult in (2.0, 1e2, 1e4):
            yield assemble_model(p, X, w, mult * consts.L), H, consts.mu


class TestNetworkScaleInterval:
    def test_consensus_bound_is_certified_and_never_below_rayleigh(self):
        active = inactive = 0
        for sub, H, mu in network_cases():
            plan = chebyshev_plan(sub, mu)
            A, _ = dense_system(sub)
            s = 1.0 / np.sqrt(sub.d.reshape(-1))
            assert plan.a <= np.linalg.eigvalsh(s[:, None] * A * s[None, :])[0]
            rayleigh = mu / float(sub.d.max())
            assert plan.a >= rayleigh
            # the 2x2 bound of the consensus split, from the Hessians themselves
            h_bar = np.linalg.eigvalsh(H.mean(axis=0))[0]
            eta = max(np.linalg.norm(Hi, 2) for Hi in H)
            g = mu + sub.theta * sub.w.gap
            lam = np.linalg.eigvalsh(np.array([[h_bar, -eta], [-eta, g]]))[0]
            if lam <= mu:
                assert plan.a == rayleigh
                inactive += 1
            else:
                assert plan.a > rayleigh
                active += 1
        assert active and inactive  # both branches are exercised
