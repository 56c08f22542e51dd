"""Hierarchical lookahead control for solver agents.

Two layers share one state record. The top level is a ratchet: whenever a
resource signal crosses its threshold it lowers the ceiling on the lookahead
window by one interval, and never raises it. The low level is a
proportional controller tracking a solve-time set point, free to move the
lookahead anywhere between the clearing lead and the current ceiling.

Everything here is pure: updates return new state records, so agents can
log every transition and tests can replay sequences. The records are
immutable tuple records, each equal to a plain tuple of its fields. A signal
and a state check their values in ``__new__``, which ``_make``, ``_replace``,
copies and pickles go through too (see :class:`~.market.CheckedRecord`).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Protocol

from .market import CheckedRecord, count, number


class _SignalRecord(NamedTuple):
    cpu_fraction: float = 0.0
    mem_bytes: float = 0.0
    solve_time: float = 0.0


class ResourceSignal(CheckedRecord, _SignalRecord):
    """A snapshot of the solver host's resource usage."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ResourceSignal":
        signal = super().__new__(cls, *args, **kwargs)
        if number("cpu_fraction", signal.cpu_fraction, 0.0) > 1.0:
            raise ValueError(f"cpu_fraction must be within [0, 1], got {signal.cpu_fraction!r}")
        number("mem_bytes", signal.mem_bytes, 0.0)
        number("solve_time", signal.solve_time, 0.0)
        return signal


class _StateRecord(NamedTuple):
    clearing_lead: int
    max_lookahead: int
    lookahead: int
    kp: float = 2.0  # intervals per second of solve-time error
    setpoint: float = 0.5  # seconds
    cpu_threshold: float = 0.30
    mem_threshold: float = math.inf  # inf: memory never lowers the ceiling


class ControllerState(CheckedRecord, _StateRecord):
    """Both layers' state: the lookahead, its ceiling and the gains."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ControllerState":
        state = super().__new__(cls, *args, **kwargs)
        count("clearing_lead", state.clearing_lead, 1)
        count("lookahead", state.lookahead, state.clearing_lead)
        count("max_lookahead", state.max_lookahead, state.lookahead)
        for name in ("kp", "setpoint", "cpu_threshold"):
            number(name, getattr(state, name), 0.0)
        if state.mem_threshold != math.inf:
            number("mem_threshold", state.mem_threshold, 0.0)
        return state


def _round_half_away(value: float) -> int:
    return int(math.floor(value + 0.5)) if value >= 0 else int(math.ceil(value - 0.5))


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def top_level_update(state: ControllerState, signal: ResourceSignal) -> ControllerState:
    """Lower the lookahead ceiling when CPU or memory pressure is seen."""
    if signal.cpu_fraction <= state.cpu_threshold and signal.mem_bytes <= state.mem_threshold:
        return state
    ceiling = max(state.clearing_lead, state.max_lookahead - 1)
    return state._replace(max_lookahead=ceiling,
                          lookahead=_clamp(state.lookahead, state.clearing_lead, ceiling))


def low_level_update(state: ControllerState, solve_time: float) -> ControllerState:
    """Proportional step toward the solve-time set point."""
    number("solve_time", solve_time, 0.0)
    target = state.lookahead + state.kp * (state.setpoint - solve_time)
    return state._replace(lookahead=_clamp(
        _round_half_away(target), state.clearing_lead, state.max_lookahead))


class ResourceModel(Protocol):
    """Injectable source of resource signals for solver agents."""

    def solve_time(self, n_variables: int) -> float: ...

    def signal(self, n_variables: int, solve_period: float) -> ResourceSignal: ...


class AffineResourceModel(NamedTuple):
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
