"""Forward-trading energy exchange: market clearing, ledger, simulation.

The names below are imported from their modules on first use (PEP 562), so
``import gridtrade.ledger`` loads neither the solver nor SciPy's optimizer.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "controller": ("AffineResourceModel", "ControllerState", "ResourceSignal",
                   "low_level_update", "reset_max_lookahead", "top_level_update"),
    "ledger": ("Contract", "ContractError", "ContractState", "EventKind", "LedgerEvent",
               "Role", "read_events_jsonl", "replay_events", "verify_log",
               "write_events_jsonl"),
    "market": ("Feeder", "FeasibilityReport", "GridModel", "Offer", "PinnedTrades", "Side",
               "Solution", "check_feasibility", "matchable", "objective"),
    "metrics": ("Metrics", "compute_metrics", "export_report"),
    "sim": ("FailureSpec", "SimConfig", "SimReport", "Simulation", "run"),
    "solver": ("LpInstance", "SolverAgent", "SolverConfig", "build_lp", "solve"),
    "traces": ("ProsumerTrace", "ingest_traces", "synthesize_traces"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
