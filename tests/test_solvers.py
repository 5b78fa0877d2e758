import functools
import math
import warnings
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from efix import penalty
from efix.analysis import (TraceRecord, error_e, max_node_error, oracle_logistic,
                           oracle_quadratic)
from efix.penalty import (assemble, assemble_model, chebyshev_plan, chebyshev_step,
                          penalty_gradient, relaxation_bound, relaxed)
from efix.problems import (QuadraticProblem, constants_for, generate_logistic,
                           generate_quadratic)
from efix.simnet import (CostLedger, NodeRuntime, apply_updates, collect_payloads,
                         deliver, gather_state, run_round)
from efix import solvers
from efix.solvers import (DIVERGENCE_CEILING, Budget, OuterRecord, Schedule, Trace,
                          _diging_update_factory, _efix_cheb_update, _efix_node_blocks,
                          _round_fault, cbar, diging, efix_g, efix_q, efix_q_stopping,
                          epsilon_balance, inner_count)
from efix.topology import generate_geometric_graph, metropolis_weights


def path3_instance():
    p = QuadraticProblem(np.ones((3, 1, 1)), np.array([[0.0], [3.0], [6.0]]))
    w = metropolis_weights(((1,), (0, 2), (1,)))
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

    def test_unknown_rules(self):
        with pytest.raises(ValueError):
            Schedule(theta0=1.0, theta_rule="geometric").theta_at(0)

    @pytest.mark.parametrize("theta0", [float("nan"), float("inf"), 0.0, -1.0])
    def test_theta0_must_be_finite_and_positive(self, theta0):
        with pytest.raises(ValueError, match=f"theta0 must be finite and positive, got {theta0}"):
            Schedule(theta0=theta0)

    def test_stage_epsilon_is_the_balanced_tolerance(self):
        p, w, consts = random_setup(3)
        for rule in ("factorial", "linear"):
            sched = Schedule(theta0=2 * consts.L, theta_rule=rule)
            tr = efix_q(p, w, sched, Budget(outer=4))
            assert [rec.s for rec in tr.outer] == [0, 1, 2, 3]
            for rec in tr.outer:
                assert rec.theta == sched.theta_at(rec.s)
                assert rec.epsilon == epsilon_balance(sched.theta_at(rec.s), consts, w.gap)


class TestEpsilonBalance:
    def consts(self, L=1.0, mu=1.0, J=1.0):
        kappa = mu * L / (mu + L)
        from efix.problems import ProblemConstants
        return ProblemConstants(L=L, mu=mu, kappa=kappa, J=J, f0=J * J / (2 * L))

    def test_hand_value(self):
        # mu=1, L=1 (kappa=1/2), J=1, gap=1/2, theta=2 -> 2 sqrt(3.5) + 1
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
        # a W without a positive gap is refused where it is built (test_topology)
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
        val = cbar(p)
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
        x = np.zeros((p.node_count, p.dim))
        for rec in tr.outer:
            sub = relaxed(assemble(p.B, p.Bb, w, rec.theta), rec.q)
            plan = chebyshev_plan(sub, consts.mu)
            sweep = relaxed(sub, plan.q)
            x_prev = x
            for k in range(rec.k_run):
                x, x_prev = chebyshev_step(x, x_prev, sweep, plan.weight(k)), x
            lap_norm = np.linalg.norm(x - w.to_dense() @ x)
            grad_norm = np.linalg.norm(p.stacked_gradient(x))
            assert lap_norm <= (grad_norm + rec.epsilon) / rec.theta + 1e-12
        # the replay is efix_q's trajectory, not a neighbouring one
        np.testing.assert_array_equal(x, tr.x_final)

    def test_relaxation_q_leaves_iterates_unchanged(self):
        p, w, consts = random_setup(8)
        a = efix_q(p, w, Schedule(theta0=2 * consts.L, q_mode="fixed"), Budget(outer=3))
        b = efix_q(p, w, Schedule(theta0=2 * consts.L, q_mode="per_stage"), Budget(outer=3))
        assert a.records == b.records
        np.testing.assert_array_equal(a.x_final, b.x_final)
        # the stage records carry the relaxation the rounds swept with
        assert [o.q for o in a.outer] == [o.q for o in b.outer]
        for rec in a.outer:
            sub = relaxed(assemble(p.B, p.Bb, w, rec.theta), 0.5)
            assert rec.q == chebyshev_plan(sub, consts.mu).q

    def test_no_dense_operator_and_no_fallback_warning(self, monkeypatch):
        # six factorial stages reach theta = 240 L, where plain JOR's dense
        # 2-norm exceeds 1; the planned counts must not depend on it
        def forbidden(*args, **kwargs):
            raise AssertionError("solvers must not build the dense Nn x Nn operator")

        for name in ("dense_system", "contraction_estimate"):
            monkeypatch.setattr(penalty, name, forbidden)
        p, w, consts = random_setup(9)
        pl = generate_logistic(5, 40, 3, seed=9, mu=1e-2)
        wl = metropolis_weights(generate_geometric_graph(5, 69))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tq = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(outer=6),
                        record_rounds=False)
            ts = efix_q_stopping(p, w, Schedule(theta0=2 * consts.L), Budget(outer=6),
                                 record_rounds=False)
            tg = efix_g(pl, wl, Schedule(theta0=2 * constants_for(pl).L), Budget(outer=4),
                        record_rounds=False)
        assert len(tq.outer) == len(ts.outer) == 6 and len(tg.outer) == 4
        assert all(rec.grad_norm <= rec.epsilon for rec in tq.outer + ts.outer + tg.outer)

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

    @pytest.mark.parametrize("key", ["rounds", "outer", "scalar_products"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_budget_rejects_a_non_finite_limit(self, key, value):
        with pytest.raises(ValueError, match=f"budget limit {key} must be finite"):
            Budget(**{key: value})
        assert Budget(**{key: 10 ** 400}) and Budget(**{key: np.int64(3)})
        with pytest.raises(ValueError, match=f"budget limit {key} must be an integer, got 2.5"):
            Budget(**{key: 2.5})

    def test_constants_computed_once_per_problem(self, monkeypatch):
        calls = []
        real = solvers.problems.quadratic_constants
        monkeypatch.setattr(solvers.problems, "quadratic_constants",
                            lambda p: calls.append(p) or real(p))
        p, w = generate_quadratic(8, 3, 5), metropolis_weights(generate_geometric_graph(8, 305))
        L = constants_for(p).L
        efix_q(p, w, Schedule(theta0=2 * L), Budget(outer=3))
        efix_q_stopping(p, w, Schedule(theta0=2 * L), Budget(outer=2))
        diging(p, w, 1 / (10 * L), Budget(rounds=5))
        cbar(p)
        assert calls == [p]

    def test_criterion4_instance_reaches_1e4_within_40k_scalar_products(self):
        # guards the consensus-aware Chebyshev interval: the Rayleigh bound
        # alone first reached 1e-4 at 156,009 scalar products
        p = generate_quadratic(30, 10, 1001)
        w = metropolis_weights(generate_geometric_graph(30, 1))
        tr = efix_q(p, w, Schedule(theta0=2 * constants_for(p).L),
                    Budget(scalar_products=40_000))
        assert min(r.error_e for r in tr.records if r.cum_sp_max <= 40_000) <= 1e-4


class TestTwoNodeNetwork:
    """Every 2-node W has the eigenvalue -1 (lambda2 = 1) and the gap 2: EFIX runs on it."""

    @pytest.mark.parametrize("solver", [efix_q, efix_g, efix_q_stopping])
    def test_reaches_the_oracle(self, solver):
        p = generate_quadratic(2, 3, 2)
        w = metropolis_weights(((1,), (0,)))
        assert w.lambda2 == 1.0 and w.gap == 2.0
        tr = solver(p, w, Schedule(theta0=2 * constants_for(p).L),
                    Budget(scalar_products=200_000), record_rounds=False)
        assert not (tr.diverged or tr.numerical_failure)
        assert error_e(tr.x_final, oracle_quadratic(p)) <= 1e-6


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

    @pytest.mark.parametrize("solve, theta_rule, builds", [
        (efix_q, "factorial", 3), (efix_q, "linear", 4),
        (efix_q_stopping, "factorial", 3), (efix_g, "factorial", 4)])
    def test_stages_with_one_theta_share_their_setup(self, monkeypatch, solve, theta_rule,
                                                     builds):
        # theta_1 = theta_0 1! = theta_0 0!, and a quadratic's model is the same at any
        # iterate; a logistic model moves with it, so efix_g builds every stage
        calls = []

        def counted(name, fn, *args):
            calls.append(name)
            return fn(*args)

        for name in ("assemble_model", "chebyshev_plan"):
            monkeypatch.setattr(penalty, name, functools.partial(counted, name,
                                                                 getattr(penalty, name)))
        if solve is efix_g:
            p = generate_logistic(5, 40, 3, seed=32, mu=1e-2)
            w = metropolis_weights(generate_geometric_graph(5, 72))
        else:
            p, w, _ = random_setup(32)
        tr = solve(p, w, Schedule(theta0=2 * constants_for(p).L, theta_rule=theta_rule),
                   Budget(outer=4))
        assert len(tr.outer) == 4
        assert calls.count("assemble_model") == calls.count("chebyshev_plan") == builds


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
        w = metropolis_weights(((1,), (0, 2), (1,)))
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
        expected = np.stack([alpha * (p.B[i] @ p.b[i]) for i in range(4)])
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
            assert rec.error_e == pytest.approx(error_e(X, o), rel=1e-12)
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
        assert tr.diverged and not tr.numerical_failure

    @pytest.mark.parametrize("nbrs", [((1,), (0,)), ((1, 3), (0, 2), (1, 3), (0, 2))],
                             ids=["two-nodes", "four-cycle"])
    def test_refuses_w_with_lambda2_one(self, nbrs):
        # W has the eigenvalue -1 there, so DIGing's mixing never contracts
        p = generate_quadratic(len(nbrs), 2, 3)
        with pytest.raises(ValueError, match=r"DIGing needs lambda2 < 1, got lambda2=1\.0"):
            diging(p, metropolis_weights(nbrs), alpha=0.01, budget=Budget(rounds=5))

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


def two_checks(Z):
    """The round guard as two separate checks: finiteness, then the row-norm ceiling."""
    if not np.isfinite(Z).all():
        return "numerical_failure"
    if np.max(np.linalg.norm(Z, axis=1)) > DIVERGENCE_CEILING:
        return "diverged"
    return None


class TestRoundGuard:
    @np.errstate(over="ignore")
    def test_equals_the_two_checks(self):
        rng = np.random.default_rng(11)
        rows = [np.zeros(4), rng.standard_normal(4), np.full(4, 1e200),
                np.array([1e200, 0.0, 0.0, 0.0]), np.array([1e154, 1e154, 0.0, 0.0])]
        for bad in (np.nan, np.inf, -np.inf):
            for row in (np.zeros(4), np.full(4, 1e200)):
                row = row.copy()
                row[2] = bad
                rows.append(row)
        cases = [np.stack([rng.standard_normal(4), row]) for row in rows]
        # 10^4 rows drawn at ||row|| = 1e12 (1 +- 1e-15)
        seen = set()
        for _ in range(10_000):
            v = rng.standard_normal(4)
            v *= DIVERGENCE_CEILING * (1.0 + rng.uniform(-1e-15, 1e-15)) / np.linalg.norm(v)
            Z = np.stack([rng.standard_normal(4), v])
            assert _round_fault(Z) == two_checks(Z)
            seen.add(two_checks(Z))
        assert seen == {None, "diverged"}
        expected = [None, None, "diverged", "diverged", "diverged"] \
            + ["numerical_failure"] * 6
        assert [two_checks(Z) for Z in cases] == expected
        assert [_round_fault(Z) for Z in cases] == expected

    @staticmethod
    def edge_cases():
        """(N, 4) iterates around the one-dot-product bound and the ceiling."""
        rng = np.random.default_rng(12)
        cases = []
        for top in (DIVERGENCE_CEILING, np.nextafter(DIVERGENCE_CEILING, np.inf),
                    np.nextafter(DIVERGENCE_CEILING, 0.0)):
            Z = rng.standard_normal((6, 4))
            Z[3] = [0.0, top, 0.0, 0.0]
            cases.append(Z)
        # every row below the ceiling, the sum of squares just above 0.5e24 or at most it
        bound = 0.5 * DIVERGENCE_CEILING ** 2
        for N in (2, 8, 500):
            for scale in (1.0 + 1e-15, 1.0 + 1e-9, 1.5, 1.0, 1.0 - 1e-15):
                Z = rng.standard_normal((N, 4))
                Z *= math.sqrt(bound * scale) / np.linalg.norm(Z)
                cases.append(Z)
        # one row holds nearly the whole sum: a norm of 7.07e11, under the ceiling
        Z = np.zeros((3, 4))
        Z[1, 0] = math.sqrt(bound)
        cases.append(Z)
        for bad in (np.nan, np.inf, -np.inf, 1e200, 1e160, -1e155):
            Z = rng.standard_normal((6, 4))
            Z[4, 1] = bad
            cases.append(Z)
        Z = rng.standard_normal((6, 4))
        Z[0, 0], Z[5, 3] = np.inf, -np.inf
        cases.append(Z)
        # rows with finite squared norms 3.6e307 whose sum overflows
        Z = np.zeros((6, 4))
        Z[:, 0] = 6e153
        cases.append(Z)
        return cases

    @np.errstate(over="ignore")
    def test_edge_cases_equal_the_two_checks(self):
        cases = self.edge_cases()
        got = [_round_fault(Z) for Z in cases]
        assert got == [two_checks(Z) for Z in cases]
        assert got[:3] == [None, "diverged", None]
        assert set(got) == {None, "diverged", "numerical_failure"}

    @np.errstate(over="ignore")
    def test_tracker_check_equals_isfinite(self):
        cases = self.edge_cases()
        got = [solvers._all_finite(U) for U in cases]
        assert got == [bool(np.isfinite(U).all()) for U in cases]
        assert True in got and False in got

    def guarded_start(self, x0, solve=efix_q_stopping, logistic=False):
        p, w, consts = random_setup(21, N=5, n=2)
        if logistic:
            p = generate_logistic(5, 40, 2, seed=21, mu=1e-2)
            consts = constants_for(p)
        with np.errstate(over="ignore", invalid="ignore"):
            return solve(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=50), x0=x0)

    @pytest.mark.parametrize("solve, logistic", [(efix_q, False), (efix_g, False),
                                                 (efix_g, True)])
    def test_planned_variants_classify_the_start(self, solve, logistic):
        # k(0) is sized from the gradient norm at x0, so a planned run stops
        # on a bad start before stage 0 is set up, with no row and no stage
        nan_start = np.zeros((5, 2))
        nan_start[1, 1] = np.nan
        for x0, failed in ((nan_start, True), (np.full((5, 2), 1e200), False)):
            tr = self.guarded_start(x0, solve, logistic)
            assert (tr.numerical_failure, tr.diverged) == (failed, not failed)
            assert tr.records == [] and tr.outer == []
            np.testing.assert_array_equal(tr.x_final, x0)

    def test_nan_start_is_a_numerical_failure(self):
        x0 = np.zeros((5, 2))
        x0[1, 1] = np.nan
        tr = self.guarded_start(x0)
        assert tr.numerical_failure and not tr.diverged
        assert tr.records[-1].round == 1

    def test_overflowing_start_diverges(self):
        # finite iterate whose squared row norms overflow: the fallback branch
        tr = self.guarded_start(np.full((5, 2), 1e200))
        assert tr.diverged and not tr.numerical_failure
        assert tr.records[-1].round == 1
        assert np.isfinite(tr.x_final).all()
        with np.errstate(over="ignore"):
            assert np.isinf(tr.x_final * tr.x_final).any()

    # "tracker": X stays finite while U overflows, which only DIGing's own
    # isfinite(U) check reports as a numerical failure
    @pytest.mark.parametrize("run", ["diging", "tracker", "nan", "overflow"])
    def test_flags_the_same_round_as_the_two_checks(self, monkeypatch, run):
        p, w, consts = random_setup(18, N=5, n=2)

        def solve():
            if run == "diging":
                return diging(p, w, alpha=1e6, budget=Budget(rounds=5000))
            if run == "tracker":
                return diging(p, w, alpha=1.0, budget=Budget(rounds=10), x0=np.full((5, 2), 1e305))
            x0 = np.full((5, 2), 1e200 if run == "overflow" else np.nan)
            return efix_q_stopping(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=50),
                                   x0=x0)

        with np.errstate(over="ignore", invalid="ignore"):
            tr = solve()
        monkeypatch.setattr(solvers, "_round_fault", two_checks)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = solve()
        assert (tr.diverged, tr.numerical_failure) == (ref.diverged, ref.numerical_failure)
        assert tr.diverged or tr.numerical_failure
        if run == "tracker":
            assert tr.numerical_failure and np.isfinite(tr.x_final).all()
        # repr: the rows hold NaNs, and repr tells every float apart
        assert repr([astuple(r) for r in tr.records]) == repr([astuple(r) for r in ref.records])
        assert np.array_equal(tr.x_final, ref.x_final, equal_nan=True)


class TestIterateLayout:
    """Every solver takes ``x0`` and returns ``x_final`` as (N, n) node blocks."""

    @staticmethod
    def solve(solver, x0=None):
        p, w, consts = random_setup(29, N=6, n=2)
        if solver is diging:
            return diging(p, w, 1 / (10 * consts.L), Budget(rounds=40), x0=x0)
        return solver(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=40), x0=x0)

    @pytest.mark.parametrize("solver", [efix_q, efix_g, efix_q_stopping, diging])
    def test_x_final_is_the_last_emitted_iterate(self, monkeypatch, solver):
        emitted = []
        monkeypatch.setattr(solvers, "_emit", lambda run, X, *args: emitted.append(X.copy()))
        tr = self.solve(solver)
        assert tr.x_final.shape == (6, 2)
        assert np.array_equal(tr.x_final, emitted[-1])

    @pytest.mark.parametrize("solver", [efix_q, efix_g, efix_q_stopping, diging])
    def test_flat_x0_is_rejected(self, solver):
        expected = r"x0 must be \(6, 2\) node blocks, got shape \(12,\)"
        with pytest.raises(ValueError, match=expected):
            self.solve(solver, x0=np.zeros(12))


class TestStageBuffers:
    """``_stage`` writes its rounds into buffers of its own, which no caller holds."""

    @pytest.mark.parametrize("solver", [efix_q, efix_g, efix_q_stopping])
    def test_caller_x0_is_unchanged(self, solver):
        p, w, consts = random_setup(29, N=6, n=2)
        # far from the optimum, so that efix_q_stopping's first stage runs rounds too
        x0 = 1e3 * np.random.default_rng(3).standard_normal((6, 2))
        kept = x0.copy()
        tr = solver(p, w, Schedule(theta0=2 * consts.L), Budget(outer=3), x0=x0)
        assert len(tr.outer) == 3 and tr.outer[0].k_run >= 3
        assert np.array_equal(x0, kept)

    def test_x_final_outlives_later_runs(self):
        p, w, consts = random_setup(29, N=6, n=2)
        sched = Schedule(theta0=2 * consts.L)
        first = efix_q(p, w, sched, Budget(rounds=40))
        kept = first.x_final.copy()
        efix_q(p, w, sched, Budget(rounds=40), x0=first.x_final)
        efix_q(p, w, sched, Budget(rounds=45))
        assert np.array_equal(first.x_final, kept)

    @pytest.mark.parametrize("N", [30, 100])
    def test_rounds_equal_an_allocating_loop(self, monkeypatch, N):
        p, w, consts = random_setup(31, N=N, n=10)
        x0 = np.random.default_rng(4).standard_normal((N, 10))
        budget = Budget(rounds=500)
        run = solvers._Run(p, w, "efix-q", None, x0, True, {})
        st = next(solvers._stages(run, consts, Schedule(theta0=2 * consts.L), budget))
        emitted = []
        monkeypatch.setattr(solvers, "_emit", lambda run, X, *args: emitted.append(X.copy()))
        solvers._stage(run, budget, st, lambda k, Z: False)
        assert run.fault is None and len(emitted) == 501
        sweep = relaxed(st.sub, st.plan.q)
        Z = Z_prev = x0
        for k, X in enumerate(emitted):
            assert np.array_equal(X, Z)
            Z, Z_prev = chebyshev_step(Z, Z_prev, sweep, st.plan.weight(k)), Z


class TestChebyshevRound:
    """The EFIX node update: locality, determinism and its message count."""

    def setup_nodes(self, N=12, n=4, seed=91):
        p = generate_quadratic(N, n, seed)
        w = metropolis_weights(generate_geometric_graph(N, seed + 1))
        consts = constants_for(p)
        theta = 48 * consts.L
        sub = relaxed(assemble(p.B, p.Bb, w, theta),
                      0.99 * relaxation_bound(theta, consts.L, w.w_bar))
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
        z, z_prev = z0, z0
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


def reference_row(run, X, s=0, theta=None, eps=None):
    """Append X's trace row by the per-row formulas, independent of ``_flush``'s stacked ones.

    The dense residual ``||X - W X||``, ``np.linalg.norm(..., axis=1)`` and
    ``np.mean`` for ``error_e``, and ``error_v`` in its margins-then-labels form.
    """
    problem, oracle = run.problem, run.oracle
    if problem.family == "quadratic":
        H, r, f0 = problem.expanded_objective
        vals = 0.5 * ((X @ H) * X).sum(axis=1) - X @ r + f0
    else:
        t = problem.features @ X.T
        vals = (np.maximum(t * -problem.labels[:, None], 0.0)
                + np.log1p(np.exp(-np.abs(t)))).sum(axis=0) \
            + problem.node_count * 0.5 * problem.mu * (X * X).sum(axis=1)
    run.trace.records.append(TraceRecord(
        round=run.ledger.rounds, outer_s=s, theta=theta, epsilon=eps,
        error_e=float(np.mean(np.linalg.norm(X - oracle.y_star, axis=1))
                      / np.linalg.norm(oracle.y_star)),
        error_v=float(np.mean(vals)),
        consensus_residual=float(np.linalg.norm(X - run.W_dense @ X)),
        cum_sp_max=run.ledger.max_sp, cum_vectors_sent=run.ledger.total_sent))


def replay_run(problem, w, oracle, trace):
    """What ``reference_row`` reads of a run, built without the solvers' run set-up."""
    return SimpleNamespace(problem=problem, oracle=oracle, W_dense=w.to_dense(),
                           ledger=CostLedger(w.degrees()),
                           trace=Trace(algo=trace.algo, problem_hash=trace.problem_hash,
                                       node_count=problem.node_count, dim=problem.dim))


def engine_replay_efix(problem, w, trace, oracle, record_rounds=True):
    """An EFIX trace replayed stage by stage on the message engine.

    Each stage starts from the engine's own state, assembles its blocks
    from the per-node ``model_terms`` (no stage-setup code shared with the
    solver) and runs the trace's k_run rounds through ``run_round`` with
    the node update ``_efix_cheb_update``; rows and stage records are
    rebuilt from it.
    """
    N, n = problem.node_count, problem.dim
    consts = constants_for(problem)
    nodes = [NodeRuntime(i, w.neighbor_lists[i], {"z": np.zeros(n)}) for i in range(N)]
    run = replay_run(problem, w, oracle, trace)
    ledger, ref = run.ledger, run.trace
    for rec in trace.outer:
        X = gather_state(nodes, "z")
        H, c = zip(*(problem.model_terms(i, X[i]) for i in range(N)))
        sub = assemble(H, c, w, rec.theta)
        if problem.family != "quadratic":
            ledger.charge_local(np.array([len(J) + 2 * n for J in problem.partition]))
        plan = chebyshev_plan(sub, consts.mu)
        sweep = relaxed(sub, plan.q)
        for i, nd in enumerate(nodes):
            nd.blocks = _efix_node_blocks(sweep, w, i)
            nd.state["z_prev"] = nd.state["z"]
        reference_row(run, X, rec.s, rec.theta, rec.epsilon)
        for k in range(rec.k_run):
            update = functools.partial(_efix_cheb_update, omega=plan.weight(k))
            assert run_round(nodes, ("z",), update, ledger, 2 * n + 3, 1)
            if record_rounds:
                reference_row(run, gather_state(nodes, "z"), rec.s, rec.theta, rec.epsilon)
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
    run = replay_run(problem, w, oracle, trace)
    ledger, ref = run.ledger, run.trace
    if problem.family == "quadratic":
        sp_round = 3 * n
    else:
        sp_round = np.array([3 * n + len(J) for J in problem.partition])
    update = _diging_update_factory(problem, alpha, variant)
    reference_row(run, np.zeros((N, n)))
    for _ in range(len(trace.records) - 1):
        assert run_round(nodes, ("x", "u"), update, ledger, sp_round, 2)
        reference_row(run, gather_state(nodes, "x"))
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
        for record_rounds in (True, False):
            tr = efix_q_stopping(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=300),
                                 oracle=oracle, record_rounds=record_rounds)
            # the budget ends the last stage; every earlier one ends on the test
            assert all(rec.grad_norm <= rec.epsilon for rec in tr.outer[:-1])
            assert tr.outer[-1].grad_norm > tr.outer[-1].epsilon
            self.assert_same(tr, engine_replay_efix(p, w, tr, oracle, record_rounds))

    def test_efix_g_logistic(self):
        p = generate_logistic(6, 48, 3, seed=24, mu=1e-2)
        w = metropolis_weights(generate_geometric_graph(6, 25))
        oracle = oracle_logistic(p)
        for budget in (Budget(outer=3), Budget(scalar_products=1000)):
            tr = efix_g(p, w, Schedule(theta0=2 * constants_for(p).L, q_mode="per_stage"),
                        budget, oracle=oracle)
            if budget.scalar_products:
                # the cap ends a later stage mid-way, after its re-linearization charge
                last = tr.outer[-1]
                assert len(tr.outer) >= 2 and 0 < last.k_run < last.k_planned
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


class TestRowRing:
    """``_emit`` queues rows in a ring that ``_flush`` evaluates a block at a time.

    Each run's records must equal, bit for bit, the same run with every row
    evaluated by ``reference_row`` as it is emitted.
    """

    R = solvers.ROW_RING

    def assert_rows_as_the_reference(self, monkeypatch, solve):
        with np.errstate(over="ignore", invalid="ignore"):
            tr = solve()
        with monkeypatch.context() as m:
            m.setattr(solvers, "_emit", reference_row)
            with np.errstate(over="ignore", invalid="ignore"):
                ref = solve()
        assert len(tr.records) == len(ref.records) > 0
        # repr: the rows may hold NaNs, and repr tells every float apart
        assert repr([astuple(r) for r in tr.records]) == repr([astuple(r) for r in ref.records])
        assert (tr.diverged, tr.numerical_failure) == (ref.diverged, ref.numerical_failure)
        return tr

    def test_a_stage_returns_with_its_rows_recorded(self):
        # _stage flushes the ring before it returns, whatever the ring holds
        p, w, consts = random_setup(45, N=7, n=3)
        budget = Budget(rounds=self.R + 4)
        run = solvers._Run(p, w, "efix-q", None, None, True, {})
        st = next(solvers._stages(run, consts, Schedule(theta0=2 * consts.L), budget))
        solvers._stage(run, budget, st, lambda k, Z: False)
        assert [r.round for r in run.trace.records] == list(range(self.R + 5))
        assert run.queued == []

    @pytest.mark.parametrize("rows", [1, 2, R - 1, R, R + 1, 2 * R + 3])
    def test_diging_rows_across_the_ring(self, monkeypatch, rows):
        p, w, consts = random_setup(41, N=7, n=3)
        tr = self.assert_rows_as_the_reference(
            monkeypatch, lambda: diging(p, w, 1 / (10 * consts.L), Budget(rounds=rows - 1)))
        assert len(tr.records) == rows

    @pytest.mark.parametrize("solver", [efix_q, efix_g, efix_q_stopping])
    @pytest.mark.parametrize("rounds", [0, 1, R - 2, R - 1, R, 2 * R + 2, 100])
    def test_efix_rows_across_the_ring(self, monkeypatch, solver, rounds):
        p, w, consts = random_setup(42, N=7, n=3)
        for record_rounds in (True, False):
            self.assert_rows_as_the_reference(
                monkeypatch, lambda: solver(p, w, Schedule(theta0=2 * consts.L),
                                            Budget(rounds=rounds), record_rounds=record_rounds))

    def test_logistic_rows(self, monkeypatch):
        p = generate_logistic(6, 48, 3, seed=43, mu=1e-2)
        w = metropolis_weights(generate_geometric_graph(6, 44))
        L = constants_for(p).L
        self.assert_rows_as_the_reference(
            monkeypatch, lambda: efix_g(p, w, Schedule(theta0=2 * L), Budget(rounds=2 * self.R + 5)))
        self.assert_rows_as_the_reference(
            monkeypatch, lambda: diging(p, w, 1 / (10 * L), Budget(rounds=self.R + 3)))

    @pytest.mark.parametrize("run", ["nan", "overflow", "diging"])
    def test_a_fault_inside_a_ring_block(self, monkeypatch, run):
        p, w, consts = random_setup(18, N=5, n=2)

        def solve():
            if run == "diging":
                return diging(p, w, alpha=1e6, budget=Budget(rounds=5000))
            x0 = np.full((5, 2), 1e200 if run == "overflow" else np.nan)
            return efix_q_stopping(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=50),
                                   x0=x0)

        tr = self.assert_rows_as_the_reference(monkeypatch, solve)
        assert tr.diverged or tr.numerical_failure
        # the faulted run stops before its ring fills
        assert len(tr.records) % self.R != 0
