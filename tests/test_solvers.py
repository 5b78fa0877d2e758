import functools
import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from efix import penalty
from efix.analysis import max_node_error, oracle_logistic, oracle_quadratic
from efix.penalty import (assemble_model, assemble_quadratic, chebyshev_plan,
                          chebyshev_step, penalty_gradient, relaxation_bound, relaxed)
from efix.problems import (QuadraticProblem, constants_for, generate_logistic,
                           generate_quadratic, quadratic_constants, stacked_gradient)
from efix.simnet import (CostLedger, NodeRuntime, apply_updates, collect_payloads,
                         deliver, gather_state, run_round)
from efix.solvers import (Budget, OuterRecord, Schedule, Trace, _diging_update_factory,
                          _efix_cheb_update, _efix_node_blocks, _emit, cbar, diging,
                          efix_g, efix_q, efix_q_stopping, epsilon_balance, inner_count)
from efix.topology import Graph, generate_geometric_graph, laplacian_apply, metropolis_weights


def path3_instance():
    p = QuadraticProblem(np.ones((3, 1, 1)), np.array([[0.0], [3.0], [6.0]]))
    w = metropolis_weights(Graph(3, ((1,), (0, 2), (1,))))
    return p, w


def random_setup(seed, N=8, n=3):
    p = generate_quadratic(N, n, seed)
    w = metropolis_weights(generate_geometric_graph(N, seed + 300))
    return p, w, constants_for(p)


class TestSchedule:
    def test_factorial_theta(self):
        s = Schedule(theta0=3.0)
        assert [s.theta_at(k) for k in range(5)] == [3.0, 3.0, 6.0, 18.0, 72.0]

    def test_linear_theta(self):
        s = Schedule(theta0=1.0, theta_rule="linear")
        assert [s.theta_at(k) for k in range(4)] == [1.0, 2.0, 3.0, 4.0]

    def test_reciprocal_eps(self):
        s = Schedule(theta0=4.0, eps_rule="reciprocal")
        consts = quadratic_constants(generate_quadratic(2, 2, 0))
        assert s.epsilon_at(0, consts, 0.5) == 4.0
        assert s.epsilon_at(1, consts, 0.5) == 4.0
        assert s.epsilon_at(4, consts, 0.5) == 1.0

    def test_unknown_rules(self):
        with pytest.raises(ValueError):
            Schedule(theta0=1.0, theta_rule="geometric").theta_at(0)


class TestEpsilonBalance:
    def consts(self, L=1.0, mu=1.0, J=1.0):
        kappa = mu * L / (mu + L)
        from efix.problems import ProblemConstants
        return ProblemConstants(L=L, mu=mu, kappa=kappa, J=J, f0=J * J / (2 * L))

    def test_hand_value(self):
        # mu=1, L=1 (kappa=1/2), J=1, lambda2=1/2, theta=2 -> 2 sqrt(3.5) + 1
        val = epsilon_balance(2.0, self.consts(), 0.5)
        assert val == pytest.approx(2 * math.sqrt(3.5) + 1, rel=1e-15)

    def test_zero_J(self):
        assert epsilon_balance(2.0, self.consts(J=0.0), 0.5) == 0.0

    def test_asymptotic_reciprocal_scaling(self):
        c = self.consts()
        for theta in (100 * c.kappa, 1000 * c.kappa):
            ratio = epsilon_balance(2 * theta, c, 0.5) / epsilon_balance(theta, c, 0.5)
            assert 0.49 < ratio < 0.51

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            epsilon_balance(2.0, self.consts(), 1.0)
        with pytest.raises(ValueError):
            epsilon_balance(0.2, self.consts(mu=2.0, L=3.0), 0.5)


class TestInnerCount:
    def test_hand_value(self):
        # mu=1, eps_target=0.1, L+2theta=10, gap=0.8+0.2=1.0, rho=0.5 -> 7
        k = inner_count(0.8, 0.1, theta=4.5, rho=0.5, cbar_sum=0.2, L=1.0, mu=1.0)
        assert k == 7

    def test_zero_work_boundary(self):
        k = inner_count(0.8, 10.0, theta=4.5, rho=0.5, cbar_sum=0.2, L=1.0, mu=1.0)
        assert k == 0

    def test_halving_rho(self):
        k = inner_count(0.8, 0.1, theta=4.5, rho=0.25, cbar_sum=0.2, L=1.0, mu=1.0)
        assert k == 4

    def test_solver_constant_inflates(self):
        base = inner_count(0.8, 0.1, theta=4.5, rho=0.5, cbar_sum=0.2, L=1.0, mu=1.0)
        slow = inner_count(0.8, 0.1, theta=4.5, rho=0.5, cbar_sum=0.2, L=1.0, mu=1.0,
                           solver_constant=4.0)
        assert slow == base + 2

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            inner_count(0.8, 0.1, theta=4.5, rho=1.0, cbar_sum=0.2, L=1.0, mu=1.0)


class TestCbar:
    def test_zero_shift(self):
        p = QuadraticProblem(np.stack([np.eye(2)] * 3), np.zeros((3, 2)))
        assert cbar(p) == 0.0

    def test_two_node_hand_value(self):
        p = QuadraticProblem(np.ones((2, 1, 1)), np.array([[0.0], [2.0]]))
        assert cbar(p) == 2.0

    def test_general_estimate(self):
        p = generate_logistic(30, 60, 2, seed=0, mu=1e-4)
        consts = constants_for(p)
        val = cbar(p, consts=consts)
        assert val == 3.0 * (1 + 1e-4) * math.sqrt(30)
        assert val == pytest.approx(16.433, abs=1e-3)


class TestEfixQ:
    def test_consensus_optimum_is_fixed_point(self):
        n = 3
        Bbar = np.diag([2.0, 1.0, 4.0])
        bbar = np.array([1.0, -2.0, 0.5])
        p = QuadraticProblem(np.stack([Bbar] * 4), np.tile(bbar, (4, 1)))
        w = metropolis_weights(generate_geometric_graph(4, 9))
        tr = efix_q(p, w, Schedule(theta0=2 * constants_for(p).L),
                    Budget(rounds=30), x0=np.tile(bbar, (4, 1)))
        for rec in tr.records:
            assert rec.error_e <= 1e-12

    def test_path_instance_converges(self):
        p, w = path3_instance()
        consts = constants_for(p)
        tr = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(outer=6))
        assert oracle_quadratic(p).y_star[0] == pytest.approx(3.0, abs=1e-14)
        assert tr.records[-1].error_e <= 1e-2
        assert tr.records[-1].error_e < tr.records[0].error_e
        errs = [o.error_max for o in tr.outer]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_stage_gradient_criterion_holds(self):
        # after each stage's planned rounds the stage subproblem meets its tolerance
        for seed in range(3):
            p, w, consts = random_setup(seed)
            tr = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(outer=4))
            for rec in tr.outer:
                assert rec.grad_norm <= rec.epsilon
                assert rec.k_run == rec.k_planned

    def test_consensus_feasibility_bound(self):
        p, w, consts = random_setup(5)
        tr = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(outer=4))
        # replay the stage-end iterates with the solver's own inner iteration:
        # Chebyshev rounds over the re-relaxed sweep, restarted every stage
        x = np.zeros(p.node_count * p.dim)
        for rec in tr.outer:
            sub = assemble_quadratic(p, w, rec.theta, rec.q)
            plan = chebyshev_plan(sub, consts.mu)
            sweep = relaxed(sub, plan.q)
            x_prev = x
            for k in range(rec.k_run):
                x, x_prev = chebyshev_step(x, x_prev, sweep, plan.weight(k)), x
            X = x.reshape(p.node_count, p.dim)
            lap_norm = np.linalg.norm(laplacian_apply(w, X))
            grad_norm = np.linalg.norm(stacked_gradient(p, X))
            assert lap_norm <= (grad_norm + rec.epsilon) / rec.theta + 1e-12
        # the replay is efix_q's trajectory, not a neighbouring one
        np.testing.assert_array_equal(x, tr.x_final)

    def test_relaxation_q_leaves_iterates_unchanged(self):
        p, w, consts = random_setup(8)
        a = efix_q(p, w, Schedule(theta0=2 * consts.L, q_safety=0.99), Budget(outer=3))
        b = efix_q(p, w, Schedule(theta0=2 * consts.L, q_safety=0.3), Budget(outer=3))
        assert a.records == b.records
        np.testing.assert_array_equal(a.x_final, b.x_final)
        # the stage records carry the relaxation the rounds swept with
        assert [o.q for o in a.outer] == [o.q for o in b.outer]
        for rec in a.outer:
            sub = assemble_quadratic(p, w, rec.theta, 0.5)
            assert rec.q == chebyshev_plan(sub, consts.mu).q

    def test_no_dense_operator_and_no_fallback_warning(self, monkeypatch):
        # six factorial stages reach theta = 240 L, where plain JOR's dense
        # 2-norm exceeds 1; the planned counts must not depend on it
        def forbidden(*args, **kwargs):
            raise AssertionError("solvers must not build the dense Nn x Nn operator")

        for name in ("dense_system", "dense_iteration_matrix", "contraction_estimate"):
            monkeypatch.setattr(penalty, name, forbidden)
        p, w, consts = random_setup(9)
        pl = generate_logistic(5, 40, 3, seed=9, mu=1e-2)
        wl = metropolis_weights(generate_geometric_graph(5, 69))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tq = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(outer=6),
                        record_rounds=False)
            tg = efix_g(pl, wl, Schedule(theta0=2 * constants_for(pl).L), Budget(outer=4),
                        record_rounds=False)
        assert len(tq.outer) == 6 and len(tg.outer) == 4
        assert all(rec.grad_norm <= rec.epsilon for rec in tq.outer + tg.outer)

    def test_budget_outer(self):
        p, w, consts = random_setup(1)
        tr = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(outer=2))
        assert len(tr.outer) == 2

    def test_budget_rounds_partial_trace(self):
        p, w, consts = random_setup(2)
        tr = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=17))
        assert tr.records[-1].round == 17
        assert not tr.diverged

    def test_budget_scalar_products(self):
        p, w, consts = random_setup(3)
        cap = 500
        tr = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(scalar_products=cap))
        sp_per_round = 2 * p.dim + 3
        assert tr.records[-1].cum_sp_max >= cap
        assert tr.records[-1].cum_sp_max <= cap + sp_per_round

    def test_budget_zero_rounds(self):
        p, w, consts = random_setup(4)
        tr = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=0))
        assert len(tr.records) == 1
        assert tr.records[0].round == 0

    def test_trace_row_structure(self):
        p, w, consts = random_setup(6)
        tr = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(outer=3))
        assert len(tr.records) == len(tr.outer) + sum(o.k_run for o in tr.outer)
        rounds = [r.round for r in tr.records]
        assert rounds == sorted(rounds)

    def test_deterministic_runs(self):
        p, w, consts = random_setup(7)
        a = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(outer=3))
        b = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(outer=3))
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb

    def test_rejects_logistic(self):
        p = generate_logistic(3, 12, 2, seed=0, mu=1e-2)
        w = metropolis_weights(generate_geometric_graph(3, 2))
        with pytest.raises(TypeError):
            efix_q(p, w, Schedule(theta0=2.0), Budget(rounds=2))

    def test_budget_requires_a_limit(self):
        with pytest.raises(ValueError):
            Budget()


class TestEfixQStopping:
    def test_rounds_never_exceed_planned(self):
        p, w = path3_instance()
        consts = constants_for(p)
        sched = Schedule(theta0=2 * consts.L)
        planned = efix_q(p, w, sched, Budget(outer=6))
        stopped = efix_q_stopping(p, w, sched, Budget(outer=6))
        assert stopped.centralized_reference and not planned.centralized_reference
        for ps, ss in zip(planned.outer, stopped.outer):
            assert ss.k_run <= ps.k_planned

    def test_huge_tolerance_means_zero_rounds(self):
        p, w = path3_instance()
        consts = constants_for(p)
        tr = efix_q_stopping(p, w, Schedule(theta0=2 * consts.L), Budget(outer=2))
        # balanced eps at theta0 far exceeds the initial gradient norm here
        assert tr.outer[0].k_run == 0
        assert tr.outer[0].epsilon >= tr.outer[0].grad_norm

    def test_same_accuracy_class_as_planned(self):
        # both land in the envelope max_i ||x_i - y*|| <= 2 eps_s / mu that the
        # balanced tolerance guarantees at each stage boundary
        p, w = path3_instance()
        consts = constants_for(p)
        sched = Schedule(theta0=2 * consts.L)
        planned = efix_q(p, w, sched, Budget(outer=6))
        stopped = efix_q_stopping(p, w, sched, Budget(outer=6))
        for tr in (planned, stopped):
            last = tr.outer[-1]
            assert last.error_max <= 2 * last.epsilon / consts.mu
        assert planned.records[-1].error_e <= 1e-2


class TestStageSetup:
    def test_assembly_leaves_the_splitting_unset(self):
        p, w, consts = random_setup(31)
        sub = assemble_model(p, np.zeros((p.node_count, p.dim)), w, 2 * consts.L)
        assert sub.q is None and sub.M_self is None and sub.p is None

    def test_each_stage_relaxes_once_at_the_chebyshev_q(self, monkeypatch):
        calls = []

        def counting(sub, q):
            calls.append(q)
            return relax(sub, q)

        relax = penalty.relaxed
        monkeypatch.setattr(penalty, "relaxed", counting)
        p, w, consts = random_setup(32)
        pl = generate_logistic(5, 40, 3, seed=32, mu=1e-2)
        wl = metropolis_weights(generate_geometric_graph(5, 72))
        sched = Schedule(theta0=2 * consts.L)
        for run in (lambda: efix_q(p, w, sched, Budget(outer=4)),
                    lambda: efix_q_stopping(p, w, sched, Budget(outer=4)),
                    lambda: efix_g(pl, wl, Schedule(theta0=2 * constants_for(pl).L),
                                   Budget(outer=4))):
            calls.clear()
            tr = run()
            assert len(tr.outer) == 4
            assert len(calls) == len(tr.outer)
            assert calls == [rec.q for rec in tr.outer]


class TestEfixG:
    def test_bitwise_parity_on_quadratic(self):
        p, w, consts = random_setup(11)
        sched = Schedule(theta0=2 * consts.L, q_mode="fixed")
        a = efix_q(p, w, sched, Budget(outer=3))
        b = efix_g(p, w, sched, Budget(outer=3))
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb
        for oa, ob in zip(a.outer, b.outer):
            assert (oa.k_planned, oa.grad_norm, oa.error_max) == \
                (ob.k_planned, ob.grad_norm, ob.error_max)

    def test_logistic_value_converges_to_newton_optimum(self):
        p = generate_logistic(5, 60, 3, seed=1, mu=1e-2)
        w = metropolis_weights(generate_geometric_graph(5, 41))
        consts = constants_for(p)
        o = oracle_logistic(p)
        tr = efix_g(p, w, Schedule(theta0=2 * consts.L, q_mode="per_stage"),
                    Budget(outer=4))
        assert tr.records[-1].error_v - o.f_star <= 1e-3
        assert tr.records[-1].error_v >= o.f_star

    def test_model_gradient_criterion_across_instances(self):
        violations = 0
        for seed in range(10):
            p = generate_logistic(5, 40, 3, seed=seed, mu=1e-2)
            w = metropolis_weights(generate_geometric_graph(5, seed + 60))
            consts = constants_for(p)
            tr = efix_g(p, w, Schedule(theta0=2 * consts.L, q_mode="per_stage"),
                        Budget(outer=3))
            violations += sum(rec.grad_norm > rec.epsilon for rec in tr.outer)
        assert violations == 0

    def test_boundary_cost_charged_each_stage(self):
        p = generate_logistic(4, 24, 3, seed=2, mu=1e-2)
        w = metropolis_weights(generate_geometric_graph(4, 13))
        consts = constants_for(p)
        tr = efix_g(p, w, Schedule(theta0=2 * consts.L), Budget(outer=2))
        n = p.dim
        sizes = np.array([len(J) for J in p.partition])
        rounds_total = sum(o.k_run for o in tr.outer)
        expected_max = max((2 * n + 3) * rounds_total + 2 * (len(J) + 2 * n)
                           for J in p.partition)
        assert tr.records[-1].cum_sp_max == expected_max


class TestDiging:
    def test_stationary_at_optimum(self):
        Bbar = np.diag([2.0, 3.0])
        ystar = np.array([1.5, -0.5])
        p = QuadraticProblem(np.stack([Bbar] * 3), np.tile(ystar, (3, 1)))
        w = metropolis_weights(Graph(3, ((1,), (0, 2), (1,))))
        tr = diging(p, w, alpha=0.05, budget=Budget(rounds=20),
                    x0=np.tile(ystar, (3, 1)))
        for rec in tr.records:
            assert rec.error_e <= 1e-14

    def test_first_step_from_origin(self):
        p = generate_quadratic(4, 3, seed=12)
        w = metropolis_weights(generate_geometric_graph(4, 14))
        alpha = 0.01
        tr = diging(p, w, alpha=alpha, budget=Budget(rounds=1))
        # replay the closed form for the first iterate
        expected = np.concatenate([alpha * (p.B[i] @ p.b[i]) for i in range(4)])
        # error_e of the trace row must match the replayed iterate
        from efix.analysis import error_e
        o = oracle_quadratic(p)
        assert tr.records[-1].error_e == pytest.approx(error_e(expected, o), rel=1e-15)

    def test_zero_step_is_pure_averaging(self):
        p = generate_quadratic(5, 2, seed=13)
        w = metropolis_weights(generate_geometric_graph(5, 15))
        X0 = np.random.default_rng(0).standard_normal((5, 2))
        tr = diging(p, w, alpha=0.0, budget=Budget(rounds=3), x0=X0)
        W = w.to_dense()
        X = X0.copy()
        o = oracle_quadratic(p)
        from efix.analysis import error_e
        for rec in tr.records[1:]:
            X = W @ X
            assert rec.error_e == pytest.approx(error_e(X.reshape(-1), o), rel=1e-12)
        with pytest.raises(ValueError):
            diging(p, w, alpha=-0.1, budget=Budget(rounds=1))

    def test_convergence_quadratic(self):
        p, w, consts = random_setup(16, N=6, n=3)
        tr = diging(p, w, alpha=1 / (20 * consts.L), budget=Budget(rounds=1500))
        assert tr.records[-1].error_e <= 1e-8

    def test_general_variant_on_logistic(self):
        p = generate_logistic(4, 32, 3, seed=3, mu=1e-2)
        w = metropolis_weights(generate_geometric_graph(4, 17))
        tr = diging(p, w, alpha=1 / (10 * (1 + 1e-2)), budget=Budget(rounds=1500))
        assert tr.records[-1].error_e < tr.records[0].error_e
        assert tr.records[-1].error_e <= 1e-2

    def test_divergence_flag(self):
        p, w, consts = random_setup(18, N=5, n=2)
        tr = diging(p, w, alpha=1e6, budget=Budget(rounds=5000))
        assert tr.diverged or tr.numerical_failure

    def test_outer_budget_rejected(self):
        p, w, consts = random_setup(19, N=4, n=2)
        with pytest.raises(ValueError):
            diging(p, w, alpha=0.01, budget=Budget(outer=3))

    def test_general_variant_takes_one_gradient_per_node_per_round(self, monkeypatch):
        p = generate_logistic(4, 32, 3, seed=3, mu=1e-2)
        w = metropolis_weights(generate_geometric_graph(4, 17))
        oracle = oracle_logistic(p)
        calls = []
        gradient = type(p).stacked_gradient

        def counted(self, X):
            G = gradient(self, X)
            calls.extend(range(len(G)))
            return G

        monkeypatch.setattr(type(p), "stacked_gradient", counted)
        diging(p, w, alpha=0.05, budget=Budget(rounds=25), oracle=oracle)
        assert len(calls) == 4 * (25 + 1)


class TestChebyshevRound:
    """The EFIX node update: locality, determinism and its message count."""

    def setup_nodes(self, N=12, n=4, seed=91):
        p = generate_quadratic(N, n, seed)
        w = metropolis_weights(generate_geometric_graph(N, seed + 1))
        consts = constants_for(p)
        theta = 48 * consts.L
        sub = assemble_quadratic(p, w, theta, 0.99 * relaxation_bound(theta, consts.L, w.w_bar))
        plan = chebyshev_plan(sub, consts.mu)
        sweep = relaxed(sub, plan.q)
        z0 = np.random.default_rng(seed + 2).standard_normal((N, n))

        def make_nodes():
            return [NodeRuntime(i, w.neighbor_lists[i],
                                {"z": z0[i].copy(), "z_prev": z0[i].copy()},
                                _efix_node_blocks(sweep, w, i)) for i in range(N)]
        return make_nodes, plan, sweep, w, z0

    def test_order_permutation_bitwise_and_stacked_equal(self):
        make_nodes, plan, sweep, w, z0 = self.setup_nodes()
        N, n = z0.shape
        rounds = 50
        orders = [list(range(N)), list(reversed(range(N))),
                  list(np.random.default_rng(7).permutation(N))]
        trajectories = []
        for order in orders:
            nodes = make_nodes()
            ledger = CostLedger(w.degrees())
            traj = []
            for k in range(rounds):
                update = functools.partial(_efix_cheb_update, omega=plan.weight(k))
                assert run_round(nodes, ("z",), update, ledger, 2 * n + 3, 1, order=order)
                traj.append(gather_state(nodes, "z"))
            trajectories.append(np.stack(traj))
            np.testing.assert_array_equal(ledger.sent, rounds * w.degrees())
            assert np.all(ledger.sp == rounds * (2 * n + 3))
        for t in trajectories[1:]:
            assert np.array_equal(trajectories[0], t)
        # the engine rounds are exactly the stacked reference iteration
        z, z_prev = z0.reshape(-1), z0.reshape(-1)
        for k in range(rounds):
            z, z_prev = chebyshev_step(z, z_prev, sweep, plan.weight(k)), z
            assert np.array_equal(z, trajectories[0][k])

    def test_nonneighbor_messages_never_read(self):
        make_nodes, plan, _, _, z0 = self.setup_nodes(seed=95)
        N, n = z0.shape
        nodes_clean = make_nodes()
        nodes_dirty = make_nodes()
        for k in range(20):
            update = functools.partial(_efix_cheb_update, omega=plan.weight(k))
            for nodes, tamper in ((nodes_clean, False), (nodes_dirty, True)):
                payloads = collect_payloads(nodes, ("z",))
                inboxes = deliver(nodes, payloads)
                if tamper:
                    for nd in nodes:
                        for j in range(N):
                            if j != nd.node_id and j not in nd.neighbors:
                                inboxes[nd.node_id][j] = {"z": np.full(n, 1e30),
                                                          "z_prev": np.full(n, 1e30)}
                apply_updates(nodes, inboxes, update)
        assert np.array_equal(gather_state(nodes_clean, "z"), gather_state(nodes_dirty, "z"))
        assert np.array_equal(gather_state(nodes_clean, "z_prev"),
                              gather_state(nodes_dirty, "z_prev"))

    def test_one_vector_per_neighbor(self):
        make_nodes, plan, _, _, z0 = self.setup_nodes(seed=97)
        nodes = make_nodes()
        payloads = collect_payloads(nodes, ("z",))
        inboxes = deliver(nodes, payloads)
        for nd in nodes:
            assert set(inboxes[nd.node_id]) == set(nd.neighbors)
            for msg in inboxes[nd.node_id].values():
                assert list(msg) == ["z"] and msg["z"].shape == (z0.shape[1],)
        # z_prev never travels: an inbox without it is all the update needs
        new = _efix_cheb_update(nodes[0], inboxes[0], plan.weight(3))
        assert set(new) == {"z", "z_prev"}
        np.testing.assert_array_equal(new["z_prev"], z0[0])


def engine_replay_efix(problem, w, trace, oracle, record_rounds=True):
    """An EFIX trace replayed stage by stage on the message engine.

    Each stage starts from the engine's own state and runs the trace's
    k_run rounds through ``run_round`` with the node update
    ``_efix_cheb_update``; rows and stage records are rebuilt from it.
    """
    N, n = problem.node_count, problem.dim
    consts = constants_for(problem)
    nodes = [NodeRuntime(i, w.neighbor_lists[i], {"z": np.zeros(n)}) for i in range(N)]
    ledger = CostLedger(w.degrees())
    ref = Trace(algo=trace.algo, problem_hash=trace.problem_hash, node_count=N, dim=n)
    W_dense = w.to_dense()
    for rec in trace.outer:
        X = gather_state(nodes, "z").reshape(N, n)
        sub = assemble_model(problem, X, w, rec.theta)
        if problem.family != "quadratic":
            ledger.charge_local(np.array([len(J) + 2 * n for J in problem.partition]))
        plan = chebyshev_plan(sub, consts.mu)
        sweep = relaxed(sub, plan.q)
        for i, nd in enumerate(nodes):
            nd.blocks = _efix_node_blocks(sweep, w, i)
            nd.state["z_prev"] = nd.state["z"]
        _emit(ref, ledger, X, rec.s, rec.theta, rec.epsilon, problem, oracle, W_dense)
        for k in range(rec.k_run):
            update = functools.partial(_efix_cheb_update, omega=plan.weight(k))
            assert run_round(nodes, ("z",), update, ledger, 2 * n + 3, 1)
            if record_rounds:
                _emit(ref, ledger, gather_state(nodes, "z").reshape(N, n), rec.s,
                      rec.theta, rec.epsilon, problem, oracle, W_dense)
        Xs = gather_state(nodes, "z")
        _, gn = penalty_gradient(sub, Xs)
        ref.outer.append(OuterRecord(
            s=rec.s, theta=rec.theta, epsilon=rec.epsilon, q=plan.q, rho=plan.rate,
            k_planned=rec.k_planned, k_run=rec.k_run, grad_norm=gn,
            error_max=max_node_error(Xs, oracle)))
    ref.x_final = gather_state(nodes, "z")
    return ref


def engine_replay_diging(problem, w, alpha, variant, trace, oracle):
    """A DIGing trace replayed round by round on the message engine."""
    N, n = problem.node_count, problem.dim
    nodes = []
    for i in range(N):
        blocks = {"w_self": float(w.diag[i]), "w_off": w.off_diag[i]}
        if variant == "quadratic":
            blocks["B"] = problem.B[i]
        x0 = np.zeros(n)
        nodes.append(NodeRuntime(i, w.neighbor_lists[i],
                                 {"x": x0, "u": problem.local_gradient(i, x0)}, blocks))
    ledger = CostLedger(w.degrees())
    ref = Trace(algo="diging", problem_hash=trace.problem_hash, node_count=N, dim=n)
    W_dense = w.to_dense()
    if problem.family == "quadratic":
        sp_round = 3 * n
    else:
        sp_round = np.array([3 * n + len(J) for J in problem.partition])
    update = _diging_update_factory(problem, alpha, variant)
    _emit(ref, ledger, np.zeros((N, n)), 0, None, None, problem, oracle, W_dense)
    for _ in range(len(trace.records) - 1):
        assert run_round(nodes, ("x", "u"), update, ledger, sp_round, 2)
        _emit(ref, ledger, gather_state(nodes, "x").reshape(N, n), 0, None, None,
              problem, oracle, W_dense)
    ref.x_final = gather_state(nodes, "x")
    return ref


class TestStackedRoundsEqualTheEngine:
    """The solvers' stacked rounds, bit for bit against the message engine.

    numpy does not promise that a batched matmul rounds like the per-node
    matrix-vector product, so these replays are what pin it.
    """

    def assert_same(self, trace, ref):
        assert np.array_equal(trace.x_final, ref.x_final)
        assert len(trace.records) == len(ref.records)
        for a, b in zip(trace.records, ref.records):
            assert np.array_equal(astuple(a), astuple(b))
        assert trace.outer == ref.outer

    @pytest.mark.parametrize("N, n, seed, budget", [
        (8, 3, 21, Budget(outer=4)),
        (30, 10, 22, Budget(rounds=400)),
    ])
    def test_efix_q(self, N, n, seed, budget):
        p, w, consts = random_setup(seed, N=N, n=n)
        oracle = oracle_quadratic(p)
        for record_rounds in (True, False):
            tr = efix_q(p, w, Schedule(theta0=2 * consts.L), budget, oracle=oracle,
                        record_rounds=record_rounds)
            self.assert_same(tr, engine_replay_efix(p, w, tr, oracle, record_rounds))

    def test_efix_q_stopping(self):
        p, w, consts = random_setup(23, N=20, n=4)
        oracle = oracle_quadratic(p)
        tr = efix_q_stopping(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=300),
                             oracle=oracle)
        # the budget ends the last stage; every earlier one ends on the test
        assert all(rec.grad_norm <= rec.epsilon for rec in tr.outer[:-1])
        assert tr.outer[-1].grad_norm > tr.outer[-1].epsilon
        self.assert_same(tr, engine_replay_efix(p, w, tr, oracle))

    def test_efix_g_logistic(self):
        p = generate_logistic(6, 48, 3, seed=24, mu=1e-2)
        w = metropolis_weights(generate_geometric_graph(6, 25))
        oracle = oracle_logistic(p)
        tr = efix_g(p, w, Schedule(theta0=2 * constants_for(p).L, q_mode="per_stage"),
                    Budget(outer=3), oracle=oracle)
        self.assert_same(tr, engine_replay_efix(p, w, tr, oracle))

    def test_diging(self):
        p, w, consts = random_setup(26, N=12, n=4)
        pl = generate_logistic(6, 48, 3, seed=27, mu=1e-2)
        wl = metropolis_weights(generate_geometric_graph(6, 28))
        for problem, net, variant, alpha in (
                (p, w, "quadratic", 1 / (10 * consts.L)),
                (p, w, "general", 1 / (10 * consts.L)),
                (pl, wl, "general", 1 / (10 * constants_for(pl).L))):
            oracle = (oracle_quadratic if problem is p else oracle_logistic)(problem)
            tr = diging(problem, net, alpha, Budget(rounds=150), variant=variant,
                        oracle=oracle)
            self.assert_same(tr, engine_replay_diging(problem, net, alpha, variant, tr, oracle))
