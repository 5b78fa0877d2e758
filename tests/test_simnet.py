import numpy as np
import pytest

from efix import solvers
from efix.penalty import assemble, relaxation_bound, relaxed
from efix.problems import generate_logistic, generate_quadratic
from efix.simnet import (CostLedger, NodeRuntime, apply_updates, collect_payloads,
                         communication_ratio, deliver, gather_state, run_round)
from efix.solvers import Budget, Schedule, _efix_node_blocks, _efix_update
from efix.topology import generate_geometric_graph, metropolis_weights
from test_penalty import dense_iteration_matrix


def efix_nodes(N=6, n=4, seed=0, theta=None):
    g = generate_geometric_graph(N, seed)
    w = metropolis_weights(g)
    p = generate_quadratic(N, n, seed + 50)
    consts = solvers.problems.constants_for(p)
    theta = theta or 2 * consts.L
    q = 0.99 * relaxation_bound(theta, consts.L, w.w_bar)
    sub = relaxed(assemble(p.B, p.Bb, w, theta), q)
    rng = np.random.default_rng(seed)
    nodes = [NodeRuntime(i, w.neighbor_lists[i], {"z": rng.standard_normal(n)},
                         _efix_node_blocks(sub, w, i))
             for i in range(N)]
    return nodes, sub, w, p


class TestLedger:
    def test_efix_round_cost(self):
        n = 10
        nodes, sub, w, _ = efix_nodes(N=5, n=n, seed=1)
        ledger = CostLedger(w.degrees())
        run_round(nodes, ("z",), _efix_update, ledger, 2 * n + 3, 1)
        assert np.all(ledger.sp == 23)
        np.testing.assert_array_equal(ledger.sent, w.degrees())
        assert ledger.rounds == 1

    def test_diging_quadratic_round_cost(self):
        n = 10
        nodes, _, w, _ = efix_nodes(N=5, n=n, seed=2)
        ledger = CostLedger(w.degrees())
        run_round(nodes, ("z",), lambda nd, inbox: {"z": nd.state["z"]},
                  ledger, 3 * n, 2)
        assert np.all(ledger.sp == 30)
        np.testing.assert_array_equal(ledger.sent, 2 * w.degrees())

    def test_diging_logistic_round_cost(self):
        # per node 3n + |J_i|; n=10 with 5 local samples -> 35
        n = 10
        p = generate_logistic(4, 20, n, seed=3, mu=1e-3)
        sizes = np.array([len(J) for J in p.partition])
        g = generate_geometric_graph(4, 3)
        w = metropolis_weights(g)
        nodes = [NodeRuntime(i, w.neighbor_lists[i], {"x": np.zeros(n)}) for i in range(4)]
        ledger = CostLedger(w.degrees())
        run_round(nodes, ("x",), lambda nd, inbox: {"x": nd.state["x"]},
                  ledger, 3 * n + sizes, 2)
        np.testing.assert_array_equal(ledger.sp, 30 + sizes)
        assert sizes[0] == 5 and ledger.sp[0] == 35

    def test_counts_nondecreasing_and_local_charge(self):
        nodes, _, w, _ = efix_nodes()
        ledger = CostLedger(w.degrees())
        for _ in range(3):
            before = ledger.sp.copy()
            run_round(nodes, ("z",), _efix_update, ledger, 5, 1)
            assert np.all(ledger.sp >= before)
        ledger.charge_local(np.arange(len(nodes)))
        assert ledger.rounds == 3

    def test_fractional_charges_raise(self):
        ledger = CostLedger([1, 2, 3])
        for charge in (2.5, np.array([1.0, 2.0, 3.5])):
            with pytest.raises(TypeError):
                ledger.charge_round(charge, 1)
            with pytest.raises(TypeError):
                ledger.charge_local(charge)
        assert ledger.rounds == 0
        assert not ledger.sp.any() and not ledger.sent.any()

    def test_int_and_per_node_charges_are_exact(self):
        ledger = CostLedger([1, 2, 3])
        ledger.charge_round(7, 2)
        ledger.charge_round(np.array([1, 2, 3], dtype=np.int64), 1)
        ledger.charge_local(np.int64(4))
        ledger.charge_local(np.array([10, 0, 5], dtype=np.int64))
        assert ledger.sp.dtype == np.int64
        np.testing.assert_array_equal(ledger.sp, [22, 13, 19])
        np.testing.assert_array_equal(ledger.sent, [3, 6, 9])
        assert ledger.rounds == 2 and ledger.max_sp == 22 and ledger.total_sent == 18

    def test_max_sp_follows_mixed_charges(self):
        ledger = CostLedger([1, 2, 3, 4])
        assert ledger.max_sp == 0
        charges = [7, np.array([0, 9, 1, 2], dtype=np.int64), np.int64(3),
                   np.array([20, 0, 0, 5], dtype=np.int64), 0, 11,
                   np.array([0, 0, 40, 0], dtype=np.int64)]
        for k, charge in enumerate(charges):
            if k % 2:
                ledger.charge_local(charge)
            else:
                ledger.charge_round(charge, 1)
            assert type(ledger.max_sp) is int
            assert ledger.max_sp == int(ledger.sp.max())
        assert ledger.max_sp == 62

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_an_eager_int64_ledger(self, seed):
        rng = np.random.default_rng(seed)
        degrees = rng.integers(1, 6, size=7)
        ledger = CostLedger(degrees)
        # the reference: every charge added at once to int64 per-node arrays
        sp = np.zeros(7, dtype=np.int64)
        sent = np.zeros(7, dtype=np.int64)
        rounds = 0
        for _ in range(200):
            kind = rng.integers(4)
            if kind == 0:
                charge = int(rng.integers(0, 50))
            elif kind == 1:
                charge = np.int64(rng.integers(0, 50))
            else:
                charge = rng.integers(0, 50, size=7, dtype=np.int64)
            if rng.integers(3):
                vectors = int(rng.integers(1, 3))
                ledger.charge_round(charge, vectors)
                sent += vectors * degrees
                rounds += 1
            else:
                ledger.charge_local(charge)
            sp += charge
            np.testing.assert_array_equal(ledger.sp, sp)
            np.testing.assert_array_equal(ledger.sent, sent)
            assert type(ledger.max_sp) is int and ledger.max_sp == int(sp.max())
            assert type(ledger.total_sent) is int and ledger.total_sent == int(sent.sum())
            assert ledger.rounds == rounds
        # the counts are read-only views of the ledger: writing to one changes nothing
        ledger.sp[:] = 0
        np.testing.assert_array_equal(ledger.sp, sp)
        with pytest.raises(TypeError):
            ledger.charge_round(np.full(7, 0.5), 1)
        np.testing.assert_array_equal(ledger.sp, sp)
        assert ledger.rounds == rounds
        # a vector count is an integer too, and a refused round charges nothing
        with pytest.raises(TypeError):
            ledger.charge_round(1, 1.5)
        np.testing.assert_array_equal(ledger.sp, sp)
        np.testing.assert_array_equal(ledger.sent, sent)
        assert ledger.max_sp == int(sp.max()) and ledger.rounds == rounds


class TestGather:
    def test_concatenation_order(self):
        # row i is node i's vector
        nodes = [NodeRuntime(0, (1,), {"x": np.array([1.0, 2.0])}),
                 NodeRuntime(1, (0, 2), {"x": np.array([3.0, 4.0])}),
                 NodeRuntime(2, (1,), {"x": np.array([5.0, 6.0])})]
        np.testing.assert_array_equal(gather_state(nodes, "x"),
                                      [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_initial_condition_before_rounds(self):
        nodes, _, _, _ = efix_nodes(seed=4)
        z0 = gather_state(nodes, "z")
        np.testing.assert_array_equal(z0, gather_state(nodes, "z"))

    def test_side_effect_free(self):
        nodes, _, w, _ = efix_nodes(seed=5)
        a = gather_state(nodes, "z")
        a[:] = 0  # mutating the copy must not reach node state
        b = gather_state(nodes, "z")
        assert not np.array_equal(a, b)


class TestRoundSemantics:
    def test_unfolded_equivalence_with_dense_iteration(self):
        nodes, sub, w, _ = efix_nodes(seed=6)
        M = dense_iteration_matrix(sub)
        pvec = (sub.q * sub.c / sub.d).reshape(-1)
        z = gather_state(nodes, "z").reshape(-1)
        ledger = CostLedger(w.degrees())
        for _ in range(25):
            run_round(nodes, ("z",), _efix_update, ledger, 1, 1)
            z = M @ z + pvec
            np.testing.assert_allclose(gather_state(nodes, "z").reshape(-1), z, atol=1e-12)

    def test_order_independence_bitwise(self):
        nodes_a, _, w, _ = efix_nodes(seed=7)
        nodes_b, _, _, _ = efix_nodes(seed=7)
        ledger_a = CostLedger(w.degrees())
        ledger_b = CostLedger(w.degrees())
        order = list(reversed(range(len(nodes_a))))
        for _ in range(10):
            run_round(nodes_a, ("z",), _efix_update, ledger_a, 1, 1)
            run_round(nodes_b, ("z",), _efix_update, ledger_b, 1, 1, order=order)
        assert np.array_equal(gather_state(nodes_a, "z"), gather_state(nodes_b, "z"))

    def test_locality_corrupted_nonneighbor_messages_ignored(self):
        nodes_a, _, _, _ = efix_nodes(seed=8)
        nodes_b, _, _, _ = efix_nodes(seed=8)

        payloads = collect_payloads(nodes_a, ("z",))
        inboxes = deliver(nodes_a, payloads)
        apply_updates(nodes_a, inboxes, _efix_update)

        payloads = collect_payloads(nodes_b, ("z",))
        inboxes = deliver(nodes_b, payloads)
        for nd in nodes_b:  # inject garbage from every non-neighbor
            for j in range(len(nodes_b)):
                if j != nd.node_id and j not in nd.neighbors:
                    inboxes[nd.node_id][j] = {"z": np.full_like(nd.state["z"], 1e30)}
        apply_updates(nodes_b, inboxes, _efix_update)

        assert np.array_equal(gather_state(nodes_a, "z"), gather_state(nodes_b, "z"))

    def test_nodes_hold_no_cross_references(self):
        nodes, _, _, _ = efix_nodes(seed=9)
        for nd in nodes:
            for container in (nd.state, nd.blocks):
                for v in container.values():
                    assert not isinstance(v, NodeRuntime)

    def test_nonfinite_detection(self):
        nodes, _, w, _ = efix_nodes(seed=10)
        ledger = CostLedger(w.degrees())

        def poison(nd, inbox):
            z = nd.state["z"].copy()
            if nd.node_id == 0:
                z[0] = np.nan
            return {"z": z}

        assert run_round(nodes, ("z",), poison, ledger, 1, 1) is False

        # entries that are never sent are checked too
        nodes, _, _, _ = efix_nodes(seed=10)

        def poison_local(nd, inbox):
            z = nd.state["z"].copy()
            return {"z": z, "z_prev": np.full_like(z, np.inf if nd.node_id == 3 else 0.0)}

        assert run_round(nodes, ("z",), poison_local, ledger, 1, 1) is False

        def heal(nd, inbox):
            return {"z": nd.state["z"], "z_prev": nd.state["z"]}

        assert run_round(nodes, ("z",), heal, ledger, 1, 1) is True


class TestCommunicationRatio:
    def test_efix_vs_diging_equal_rounds(self):
        p = generate_quadratic(5, 3, seed=20)
        w = metropolis_weights(generate_geometric_graph(5, 20))
        consts = solvers.problems.constants_for(p)
        sched = Schedule(theta0=2 * consts.L)
        rounds = 40
        tq = solvers.efix_q(p, w, sched, Budget(rounds=rounds))
        td = solvers.diging(p, w, alpha=1 / (10 * consts.L), budget=Budget(rounds=rounds))
        assert tq.records[-1].round == td.records[-1].round == rounds
        assert communication_ratio(tq, td) == 0.5

    def test_trace_against_itself(self):
        p = generate_quadratic(4, 2, seed=21)
        w = metropolis_weights(generate_geometric_graph(4, 21))
        consts = solvers.problems.constants_for(p)
        t = solvers.efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=10))
        assert communication_ratio(t, t) == 1.0

    def test_halved_rounds_balance(self):
        p = generate_quadratic(4, 2, seed=22)
        w = metropolis_weights(generate_geometric_graph(4, 22))
        consts = solvers.problems.constants_for(p)
        tq = solvers.efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=100))
        td = solvers.diging(p, w, alpha=1 / (10 * consts.L), budget=Budget(rounds=50))
        assert communication_ratio(tq, td) == 1.0

    def test_zero_denominator(self):
        p = generate_quadratic(4, 2, seed=23)
        w = metropolis_weights(generate_geometric_graph(4, 23))
        consts = solvers.problems.constants_for(p)
        t0 = solvers.efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=0))
        t1 = solvers.efix_q(p, w, Schedule(theta0=2 * consts.L), Budget(rounds=5))
        with pytest.raises(ZeroDivisionError):
            communication_ratio(t1, t0)
