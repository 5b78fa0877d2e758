"""Exact penalty fixed-point methods for distributed consensus optimization."""

from .topology import (Graph, MixingMatrix, generate_geometric_graph,
                       metropolis_weights, laplacian_quadratic,
                       network_to_json, graph_from_json, mixing_from_json)
from .problems import (QuadraticProblem, LogisticProblem, ProblemConstants,
                       generate_quadratic, quadratic_constants, logistic_constants,
                       constants_for, load_libsvm, scale_features, partition_data,
                       generate_logistic)
from .penalty import (PenaltySubproblem, assemble_quadratic, assemble_model,
                      relaxation_bound, jor_step, penalty_gradient,
                      contraction_estimate, NonContractiveError,
                      ChebyshevPlan, chebyshev_plan, relaxed)
from .simnet import NodeRuntime, CostLedger, run_round, gather_state, communication_ratio
from .solvers import (Schedule, Budget, Trace, OuterRecord, epsilon_balance,
                      inner_count, cbar, efix_q, efix_g, efix_q_stopping, diging)
from .analysis import (OracleSolution, TraceRecord, oracle_quadratic, oracle_logistic,
                       solve_reference, error_e, error_v, slope_fit, loglog_slope)

__all__ = [name for name in dir() if not name.startswith("_")]
