"""Transactive home energy scheduling with replicated coordination.

Homes schedule HVAC, shiftable and curtailable loads, rooftop supply
and an EV battery against grid tariffs, feed-in, demand-response and
peer-to-peer trading rewards.  The joint convex program can be solved
directly or by per-home decomposition, and the coordination state of
the decomposed solve can live either in process or inside a contract
replicated by a small fault-tolerant validator network.
"""

from .scenario import (GridTariff, Scenario, ScenarioError, TimeGrid,
                       TransactivePrices, UserScenario, generate_synthetic,
                       load_scenario, validate_scenario, write_scenario)
from .energy_model import (CostBreakdown, Mode, Schedule, VariableLayout,
                           build_user_constraints, build_user_objective,
                           check_schedule, combine_costs, home_cost_terms,
                           reward_terms, schedule_from_x, user_layout)
from .qp import (Duals, KktResiduals, Polish, QpProblem, QpSolution,
                 QpStatus, grid_oracle, kkt_residuals, solve_qp)
from .tem import (AdmmParams, DualState, IterationRecord, Outcome, RhoKind,
                  RhoSchedule, SolveFailed, Transport,
                  advance_iteration, assemble_problem, assemble_ult,
                  dual_state_digest, has_converged, new_dual_state,
                  run_distributed, sct_step, solve_centralized)
from .netsim import LivenessTimeout, NetConfig, Network, TraceEvent
from .chain_transport import ChainTransport, committed_tx_bytes

__version__ = "0.1.0"

__all__ = [
    "AdmmParams", "ChainTransport", "CostBreakdown", "DualState", "Duals",
    "GridTariff", "IterationRecord", "KktResiduals",
    "LivenessTimeout", "Mode", "NetConfig", "Network", "Outcome", "Polish",
    "QpProblem", "QpSolution", "QpStatus", "RhoKind", "RhoSchedule",
    "Scenario", "ScenarioError", "Schedule", "SolveFailed", "TimeGrid",
    "TraceEvent", "TransactivePrices", "Transport", "UserScenario",
    "VariableLayout", "advance_iteration", "assemble_problem",
    "assemble_ult", "build_user_constraints", "build_user_objective",
    "check_schedule", "combine_costs", "committed_tx_bytes",
    "dual_state_digest", "generate_synthetic", "grid_oracle",
    "has_converged", "home_cost_terms", "kkt_residuals", "load_scenario",
    "new_dual_state", "reward_terms", "run_distributed", "schedule_from_x",
    "sct_step", "solve_centralized", "solve_qp", "user_layout",
    "validate_scenario", "write_scenario", "__version__",
]
