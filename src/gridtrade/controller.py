"""Hierarchical lookahead control for solver agents.

Two layers share one state record. The top level is a ratchet: whenever a
resource signal crosses its threshold it lowers the ceiling on the lookahead
window by one interval, and never raises it (a manual reset re-arms it).
The low level is a proportional controller tracking a solve-time set point,
free to move the lookahead anywhere between the clearing lead and the
current ceiling.

Everything here is pure: updates return new state records, so agents can
log every transition and tests can replay sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol


@dataclass(frozen=True)
class ResourceSignal:
    """A snapshot of the solver host's resource usage."""

    cpu_fraction: float = 0.0
    mem_bytes: float = 0.0
    solve_time: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_fraction <= 1.0:
            raise ValueError("cpu_fraction must be within [0, 1]")
        if min(self.mem_bytes, self.solve_time) < 0:
            raise ValueError("resource signals must be non-negative")


@dataclass(frozen=True)
class ControllerState:
    clearing_lead: int
    max_lookahead: int
    lookahead: int
    kp: float = 2.0  # intervals per second of solve-time error
    setpoint: float = 0.5  # seconds
    cpu_threshold: float = 0.30
    mem_threshold: float = math.inf

    def __post_init__(self) -> None:
        if self.clearing_lead < 1:
            raise ValueError("clearing_lead must be at least 1")
        if not self.clearing_lead <= self.lookahead <= self.max_lookahead:
            raise ValueError("lookahead must lie within [clearing_lead, max_lookahead]")


def _round_half_away(value: float) -> int:
    return int(math.floor(value + 0.5)) if value >= 0 else int(math.ceil(value - 0.5))


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def top_level_update(state: ControllerState, signal: ResourceSignal) -> ControllerState:
    """Lower the lookahead ceiling when CPU or memory pressure is seen."""
    if signal.cpu_fraction <= state.cpu_threshold and signal.mem_bytes <= state.mem_threshold:
        return state
    ceiling = max(state.clearing_lead, state.max_lookahead - 1)
    return replace(state, max_lookahead=ceiling,
                   lookahead=_clamp(state.lookahead, state.clearing_lead, ceiling))


def low_level_update(state: ControllerState, solve_time: float) -> ControllerState:
    """Proportional step toward the solve-time set point."""
    if solve_time < 0:
        raise ValueError("solve_time must be non-negative")
    target = state.lookahead + state.kp * (state.setpoint - solve_time)
    return replace(state, lookahead=_clamp(
        _round_half_away(target), state.clearing_lead, state.max_lookahead))


def reset_max_lookahead(state: ControllerState, max_lookahead: int) -> ControllerState:
    """Re-arm the ratchet after pressure has subsided."""
    if max_lookahead < state.clearing_lead:
        raise ValueError("max_lookahead must be at least the clearing lead")
    return replace(state, max_lookahead=max_lookahead,
                   lookahead=_clamp(state.lookahead, state.clearing_lead, max_lookahead))


class ResourceModel(Protocol):
    """Injectable source of resource signals for solver agents."""

    def solve_time(self, n_variables: int) -> float: ...

    def signal(self, n_variables: int, solve_period: float) -> ResourceSignal: ...


@dataclass(frozen=True)
class AffineResourceModel:
    """Deterministic synthetic resource meter, affine in LP size."""

    base_seconds: float = 0.02
    seconds_per_variable: float = 2e-4
    mem_base_bytes: float = 32e6
    mem_bytes_per_variable: float = 4e3

    def solve_time(self, n_variables: int) -> float:
        return self.base_seconds + self.seconds_per_variable * n_variables

    def signal(self, n_variables: int, solve_period: float) -> ResourceSignal:
        solve_time = self.solve_time(n_variables)
        cpu = min(1.0, solve_time / solve_period) if solve_period > 0 else 1.0
        return ResourceSignal(
            cpu_fraction=cpu,
            mem_bytes=self.mem_base_bytes + self.mem_bytes_per_variable * n_variables,
            solve_time=solve_time,
        )
