"""Synchronous round-based message-passing engine.

Nodes hold only their own state plus an inbox of neighbor messages; they
have no reference to other nodes, so locality is enforced by construction.
A round has two phases: every node's outgoing payload is snapshotted and
delivered, then every node updates from its own state and its inbox.
Because updates read only round-start snapshots, results are independent
of the order in which node updates execute.  The solvers run the same
rounds on stacked arrays; this engine is the reference that they are
tested against, bit for bit.

The ledger meters the abstract cost model: computation in scalar products
(one inner product of length-n vectors) and communication in vectors of
length n sent per edge per direction.
"""

import numpy as np


class NodeRuntime:
    """Local state container for one simulated node."""

    __slots__ = ("node_id", "neighbors", "state", "blocks")

    def __init__(self, node_id, neighbors, state=None, blocks=None):
        self.node_id = node_id
        self.neighbors = tuple(neighbors)
        self.state = dict(state or {})
        self.blocks = dict(blocks or {})


class CostLedger:
    """Nondecreasing per-node scalar-product and vectors-sent counters."""

    def __init__(self, degrees):
        self.degrees = np.asarray(degrees, dtype=np.int64)
        self.sp = np.zeros(len(self.degrees), dtype=np.int64)
        self.sent = np.zeros(len(self.degrees), dtype=np.int64)
        self.rounds = 0

    def charge_round(self, sp_per_node, vectors_per_neighbor):
        self.sp += np.broadcast_to(np.asarray(sp_per_node, dtype=np.int64), self.sp.shape)
        self.sent += vectors_per_neighbor * self.degrees
        self.rounds += 1

    def charge_local(self, sp_per_node):
        """Computation outside rounds (e.g. re-linearization at an outer step)."""
        self.sp += np.broadcast_to(np.asarray(sp_per_node, dtype=np.int64), self.sp.shape)

    @property
    def max_sp(self):
        return int(self.sp.max())

    @property
    def total_sent(self):
        return int(self.sent.sum())


def collect_payloads(nodes, keys):
    """Snapshot each node's outgoing message (copies, as if serialized)."""
    return {nd.node_id: {k: nd.state[k].copy() for k in keys} for nd in nodes}


def deliver(nodes, payloads):
    """Inbox per node: neighbor id -> that neighbor's payload."""
    return {nd.node_id: {j: payloads[j] for j in nd.neighbors} for nd in nodes}


def apply_updates(nodes, inboxes, update_fn, order=None):
    """Advance every node one step from the delivered snapshots.

    ``update_fn(node, inbox) -> dict`` must return fresh state arrays and
    may read only the node's own state/blocks and its inbox.  ``order``
    permutes execution for determinism checks; results cannot depend on it.
    """
    order = range(len(nodes)) if order is None else order
    staged = {}
    for idx in order:
        nd = nodes[idx]
        staged[idx] = update_fn(nd, inboxes[nd.node_id])
    for idx, new_state in staged.items():
        nodes[idx].state.update(new_state)


def run_round(nodes, payload_keys, update_fn, ledger, sp_per_node,
              vectors_per_neighbor, order=None):
    """Execute one synchronous round and meter its cost.

    Returns False when a non-finite value appears in any node state
    (numerical failure), True otherwise.
    """
    payloads = collect_payloads(nodes, payload_keys)
    inboxes = deliver(nodes, payloads)
    apply_updates(nodes, inboxes, update_fn, order=order)
    ledger.charge_round(sp_per_node, vectors_per_neighbor)
    # one check over every state entry: per-entry checks cost more than the sweep
    values = [v for nd in nodes for v in nd.state.values()]
    return bool(np.isfinite(np.concatenate(values, axis=None)).all())


def gather_state(nodes, key="x"):
    """Stacked read-only view of all node vectors, in node order.

    Harness-side access for metrics and oracles only; never fed back to
    the nodes.
    """
    return np.concatenate([np.array(nd.state[key], copy=True) for nd in nodes])


def communication_ratio(trace_a, trace_b):
    """Ratio of total vectors sent between two finished traces."""
    sent_a = trace_a.records[-1].cum_vectors_sent
    sent_b = trace_b.records[-1].cum_vectors_sent
    if sent_b == 0:
        raise ZeroDivisionError("second trace sent no vectors")
    return sent_a / sent_b
