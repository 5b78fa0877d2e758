"""Layer spans recorded from outside the library.

Each traced layer is a module-level function (or a class method) of
``efix`` that the solver loop reaches through a module or class
attribute.  ``Tracer.installed()`` swaps those attributes for timing
wrappers and puts the originals back on exit, so untraced runs execute
the library exactly as shipped.

A span is one call of a wrapped function.  Spans nest through a stack:
a span's self time is its duration minus the durations of its direct
child spans.  Spans are aggregated in memory as they close (per name:
calls, inclusive seconds, self seconds) instead of being stored one by
one, because a single run opens hundreds of thousands of them.  The
simulator is a synchronous single-process program, so there is no
waiting time to record.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

from efix import analysis, cli, penalty, problems, simnet, solvers, topology

# (layer name, owner, attribute).  Two attributes may share one layer name.
TARGETS = (
    ("simnet.run_round", simnet, "run_round"),
    ("simnet.gather_state", simnet, "gather_state"),
    ("simnet.charge_round", simnet.CostLedger, "charge_round"),
    ("penalty.jor_local_update", penalty, "jor_local_update"),
    ("penalty.contraction_estimate", penalty, "contraction_estimate"),
    ("penalty.assemble_model", penalty, "assemble_model"),
    ("penalty.penalty_gradient", penalty, "penalty_gradient"),
    ("analysis.error_v", analysis, "error_v"),
    ("analysis.error_e", analysis, "error_e"),
    ("solvers.emit", solvers, "_emit"),
    ("problems.local_gradient", problems.LogisticProblem, "local_gradient"),
    ("problems.model_terms", problems.LogisticProblem, "model_terms"),
    ("topology.generate_geometric_graph", topology, "generate_geometric_graph"),
    ("topology.metropolis_weights", topology, "metropolis_weights"),
    ("problems.generate", problems, "generate_quadratic"),
    ("problems.generate", problems, "generate_logistic"),
    ("problems.constants_for", problems, "constants_for"),
    ("analysis.solve_reference", analysis, "solve_reference"),
    ("cli.write_trace_csv", cli, "write_trace_csv"),
    ("cli.write_sidecar", cli, "write_sidecar"),
    ("solvers.run", solvers, "efix_q"),
    ("solvers.run", solvers, "diging"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    """Span stack plus per-name totals; one instance per traced job."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        # inclusive seconds of each name inside each root span, for shares
        self.within = defaultdict(float)
        self._stack = []  # [name, root, child seconds]

    def _open(self, name):
        root = self._stack[0][0] if self._stack else name
        frame = [name, root, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, dur):
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += dur
        name, root, child = frame
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        self.within[(root, name)] += dur

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            frame = self._open(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, time.perf_counter() - t0)
        return traced

    @contextmanager
    def span(self, name):
        """A span around benchmark code, e.g. the root of a job phase."""
        frame = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, time.perf_counter() - t0)

    @contextmanager
    def installed(self):
        """Replace every target with its traced wrapper for the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in TARGETS]
        try:
            for name, owner, attr in TARGETS:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def share(self, root, names):
        """Inclusive seconds of ``names`` inside ``root`` over the root's duration.

        Only meaningful for names that never nest inside one another.
        """
        base = self.total_s[root]
        return sum(self.within[(root, n)] for n in names) / base if base else 0.0
