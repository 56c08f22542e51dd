"""Forward-trading energy exchange: market clearing, ledger, simulation."""

from .controller import (
    AffineResourceModel,
    ControllerState,
    ResourceSignal,
    handle_resource_event,
    low_level_update,
    reset_max_lookahead,
    top_level_update,
)
from .ledger import (
    Contract,
    ContractError,
    ContractState,
    EventKind,
    LedgerEvent,
    Role,
    read_events_jsonl,
    replay_events,
    verify_log,
    write_events_jsonl,
)
from .market import (
    Feeder,
    FeasibilityReport,
    GridModel,
    Offer,
    PinnedTrades,
    Side,
    Solution,
    check_feasibility,
    matchable,
    objective,
)
from .metrics import Metrics, compute_metrics, export_report, metrics_from_totals
from .sim import FailureSpec, SimConfig, SimReport, Simulation, run
from .solver import LpInstance, SolverAgent, SolverConfig, assign_prices, build_lp, solve
from .traces import ProsumerTrace, ingest_traces, synthesize_traces

__version__ = "0.1.0"

__all__ = [
    "AffineResourceModel",
    "Contract",
    "ContractError",
    "ContractState",
    "ControllerState",
    "EventKind",
    "FailureSpec",
    "FeasibilityReport",
    "Feeder",
    "GridModel",
    "LedgerEvent",
    "LpInstance",
    "Metrics",
    "Offer",
    "PinnedTrades",
    "ProsumerTrace",
    "ResourceSignal",
    "Role",
    "Side",
    "SimConfig",
    "SimReport",
    "Simulation",
    "Solution",
    "SolverAgent",
    "SolverConfig",
    "assign_prices",
    "build_lp",
    "check_feasibility",
    "compute_metrics",
    "export_report",
    "handle_resource_event",
    "ingest_traces",
    "low_level_update",
    "matchable",
    "metrics_from_totals",
    "objective",
    "read_events_jsonl",
    "replay_events",
    "reset_max_lookahead",
    "run",
    "solve",
    "synthesize_traces",
    "top_level_update",
    "verify_log",
    "write_events_jsonl",
]
