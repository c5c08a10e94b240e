"""Semantics-aware transmission scheduling for energy-harvesting status
updates: metrics, average-cost MDP solver, simulator, experiments.
"""

__version__ = "0.1.0"

from .core import (
    Action,
    AgentState,
    ConfigError,
    MetricKind,
    SystemParams,
    load_config,
    parse_config,
    params_stamp,
    validate_params,
)
from .metrics import SlotEvents, evolve_trace, stage_cost, step_aoi, step_vaoi
from .mdp import SolveResult, evaluate_policy_exact, rvia_solve
from .policies import (
    PolicyTable,
    ThresholdPolicy,
    extract_thresholds,
    greedy_policy,
)
from .sim import SimConfig, SimSummary, replicate, simulate

__all__ = [
    "Action",
    "AgentState",
    "ConfigError",
    "MetricKind",
    "PolicyTable",
    "SimConfig",
    "SimSummary",
    "SlotEvents",
    "SolveResult",
    "SystemParams",
    "ThresholdPolicy",
    "evaluate_policy_exact",
    "evolve_trace",
    "extract_thresholds",
    "greedy_policy",
    "load_config",
    "params_stamp",
    "parse_config",
    "replicate",
    "rvia_solve",
    "simulate",
    "stage_cost",
    "step_aoi",
    "step_vaoi",
    "validate_params",
]
