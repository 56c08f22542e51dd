"""Deterministic multi-agent simulation of the trading protocol.

Prosumer, solver, and operator agents share a logical clock and interact
only through the ledger contract. Each interval: prosumers post offers for
their prediction window, solvers periodically re-solve and submit strictly
better solutions, and the operator finalizes the next deliverable interval
at the interval boundary. A failure schedule can silence any participant;
after a notification latency its non-finalized trades are withdrawn.

There is no wall-clock anywhere: identical configuration and traces give
an identical event log, byte for byte.

The records (a failure, a configuration, a failure's logged phase, a
report) are immutable tuple records, each equal to a plain tuple of its
fields. A failure and a configuration check their values in ``__new__``,
which ``_make``, ``_replace``, copies and pickles go through too (see
:class:`~.market.CheckedRecord`).
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections.abc import Callable
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .controller import ControllerState
from .ledger import Contract, ContractState, LedgerEvent, Role, StaleInterval
from .market import (BUYING, SELLING, CheckedRecord, GridModel, Offer, Side, Solution,
                     TradeKey, count, name, number)
from .metrics import Metrics, compute_metrics
from .solver import ControllerRow, SolveRecord, SolverAgent, SolverConfig
from .traces import ProsumerTrace

DSO_ID = "dso"


class ConfigError(ValueError):
    pass


class SimulationError(Exception):
    pass


class UnknownParticipantError(ConfigError):
    """A failure names no agent of the day: a prosumer, solver or adversary."""


class _FailureRecord(NamedTuple):
    participant: str
    fail_time: float
    recover_time: float | None = None


class FailureSpec(CheckedRecord, _FailureRecord):
    """A participant that fails at ``fail_time`` and, unless
    ``recover_time`` is None, recovers at that later time (seconds)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FailureSpec":
        spec = super().__new__(cls, *args, **kwargs)
        participant, fail_time, recover_time = spec
        try:
            name("participant", participant)
            number(f"{participant}: fail_time", fail_time, 0.0)
            if recover_time is not None:
                number(f"{participant}: recover_time", recover_time, fail_time, above=True)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return spec


class _ConfigRecord(NamedTuple):
    grid: GridModel
    horizon: int
    seconds_per_interval: float = 4.0
    prediction_window: int = 3
    solver_period: float = 1.0
    lookahead: int = 5
    n_solvers: int = 1
    n_adversaries: int = 0
    seed: int = 0
    price_cap: float = 1.0
    failures: tuple[FailureSpec, ...] = ()
    detect_latency: float = 0.14
    notify_latency: float = 1.88
    reactivate_latency: float = 6.52
    confirmation_delay: float = 0.0
    adaptive: bool = False


class SimConfig(CheckedRecord, _ConfigRecord):
    """A day's settings: the grid, the horizon in intervals, the timing, the
    participants and the failure schedule. A bad value raises
    ``ConfigError``, an ``adaptive`` that is not a ``bool``, a failure that
    is not a :class:`FailureSpec` and a schedule whose down windows overlap
    among them; ``failures`` is made a tuple, so a config hashes."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SimConfig":
        config = super().__new__(cls, *args, **kwargs)
        grid = config.grid
        if not isinstance(grid, GridModel):
            raise ConfigError(f"grid must be a GridModel, got {grid!r}")
        try:
            for field, minimum in (("horizon", 1), ("prediction_window", 2),
                                   ("lookahead", grid.clearing_lead), ("n_solvers", 0),
                                   ("n_adversaries", 0), ("seed", 0)):
                count(field, getattr(config, field), minimum)
            for field in ("seconds_per_interval", "solver_period"):
                number(field, getattr(config, field), 0.0, above=True)
            for field in ("price_cap", "detect_latency", "notify_latency", "reactivate_latency",
                          "confirmation_delay"):
                number(field, getattr(config, field), 0.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if config.prediction_window < grid.clearing_lead:  # prosumers would post nothing
            raise ConfigError(f"prediction_window {config.prediction_window} is below "
                              f"clearing_lead {grid.clearing_lead}")
        if type(config.adaptive) is not bool:  # a truthy "no" must not turn control on
            raise ConfigError(f"adaptive must be a bool, got {config.adaptive!r}")
        failures = config.failures
        if not (isinstance(failures, (list, tuple))
                and all(isinstance(f, FailureSpec) for f in failures)):
            raise ConfigError(f"failures must be a sequence of FailureSpec, got {failures!r}")
        if config.seconds_per_interval > grid.interval_hours * 3600.0:
            raise ConfigError("simulated interval cannot exceed the real interval")
        if type(failures) is not tuple:
            return config._replace(failures=tuple(failures))  # checked again as a tuple
        windows: dict[str, list[tuple[float, float]]] = {}  # by participant
        for spec in failures:
            # Down from the failure until the later of its removal and its
            # reactivation, or for good with no recovery.
            times = {phase: time for time, phase in config.failure_phases(spec)}
            down = (spec.fail_time, max(times["removed"], times.get("recovered", math.inf)))
            earlier = windows.setdefault(spec.participant, [])
            if any(down[0] < up and start < down[1] for start, up in earlier):
                raise ConfigError(f"failures: {spec.participant}: the failure at "
                                  f"{spec.fail_time} overlaps an earlier one of its own")
            earlier.append(down)
        return config

    def failure_phases(self, spec: FailureSpec) -> list[tuple[float, str]]:
        """``(time, phase)`` for each phase of ``spec`` the day schedules, in
        the order it pushes them: ``failed``, ``detected`` and ``removed``
        after their latencies, and ``recovered`` if ``spec`` recovers."""
        at = spec.fail_time
        phases = [(at, "failed"), (at + self.detect_latency, "detected"),
                  (at + self.notify_latency, "removed")]
        if spec.recover_time is not None:
            phases.append((spec.recover_time + self.reactivate_latency, "recovered"))
        return phases


class ProsumerAgent:
    """Posts one offer per surplus or deficit interval, never twice.

    Each interval's offer, ``(side, start, end, energy_kwh)`` or None, is
    worked out from the trace once. ``offered_through`` is the last interval
    considered for an offer: the windows considered only move forward, so
    none up to it comes again.
    """

    def __init__(self, trace: ProsumerTrace, horizon: int):
        self.active = True
        self.offered_through = -1
        spread = trace.flex_window - 1 if trace.flexible else 0
        self._offers: list[tuple[Side, int, int, float] | None] = [None] * horizon
        for t in range(horizon):  # the trace covers it: see Simulation._validate
            net = trace.net(t)
            if net > 1e-12:  # a surplus sells over the flexible window
                self._offers[t] = (SELLING, t, min(t + spread, horizon - 1), net)
            elif net < -1e-12:
                self._offers[t] = (BUYING, t, t, -net)

    def offers_for(self, now: int, clearing_lead: int,
                   prediction_window: int) -> list[tuple[Side, int, int, float]]:
        first = max(now + clearing_lead, self.offered_through + 1)
        last = min(now + prediction_window, len(self._offers) - 1)
        if first > last:
            return []
        self.offered_through = last
        return [offer for offer in self._offers[first:last + 1] if offer is not None]

    def forget_future_offers(self, current_interval: int) -> None:
        """After recovery, allow re-posting for still-open intervals."""
        self.offered_through = min(self.offered_through, current_interval)


class AdversaryAgent:
    """Submits randomly perturbed and deliberately unsafe solutions."""

    def __init__(self, agent_id: str, seed: int):
        self.id = agent_id
        self.rng = np.random.default_rng(seed)
        self.active = True
        # Every pinned trade key seen so far, sorted, and the last interval
        # whose pins they include.
        self._pinned_keys: list[TradeKey] = []
        self._pinned_through = -1
        # Each side of the book as last seen (see _book_sides).
        self._book_state = None
        self._retired_seen = 0
        self._sells: list[Offer] = []
        self._buys: list[Offer] = []

    def make_submission(self, state) -> Solution | None:
        strategy = int(self.rng.integers(0, 4))
        if strategy == 0:
            return self._perturbed_candidate(state)
        if strategy == 1:
            return self._oversized_random_trade(state)
        if strategy == 2:
            return self._closed_interval_trade(state)
        return self._scaled_candidate(state)

    def _perturbed_candidate(self, state) -> Solution | None:
        if not len(state.candidate):
            return None
        # One draw of all the factors gives the values, and leaves the
        # generator in the state, that one draw per trade would.
        factors = self.rng.uniform(0.2, 2.5, size=len(state.candidate)).tolist()
        return Solution({k: (p * factor, pi)
                         for (k, (p, pi)), factor in zip(state.candidate.items(), factors)})

    def _book_sides(self, state) -> tuple[list[Offer], list[Offer]]:
        """Each side of ``state.book`` in posting order. The book grows only
        at its tail until a removal retires offers, so the lists are extended
        from the tail and rebuilt only when ``retired`` has grown."""
        book = state.book
        if state is not self._book_state or len(state.retired) != self._retired_seen:
            self._book_state, self._retired_seen = state, len(state.retired)
            self._sells, self._buys = [], []
        fresh = list(islice(reversed(book.values()),
                            len(book) - len(self._sells) - len(self._buys)))
        for offer in reversed(fresh):
            (self._sells if offer.side is SELLING else self._buys).append(offer)
        return self._sells, self._buys

    def _oversized_random_trade(self, state) -> Solution | None:
        sells, buys = self._book_sides(state)
        if not sells or not buys:
            return None
        sell = sells[int(self.rng.integers(0, len(sells)))]
        buy = buys[int(self.rng.integers(0, len(buys)))]
        t = int(self.rng.integers(min(sell.start, buy.start), max(sell.end, buy.end) + 1))
        power = float(self.rng.uniform(1.0, 100.0)) * (1.0 + sell.energy_kwh)
        return Solution({(sell.id, buy.id, t): (power, 0.5)})

    def _closed_interval_trade(self, state) -> Solution | None:
        """The candidate plus a raised copy of a finalized trade."""
        pinned = state.pinned
        for t in range(self._pinned_through + 1, pinned.finalized_through + 1):
            for s_id, b_id in pinned.entries(t):
                insort(self._pinned_keys, (s_id, b_id, t))
        self._pinned_through = pinned.finalized_through
        if not self._pinned_keys:
            return None
        entries = dict(state.candidate.items())
        key = self._pinned_keys[int(self.rng.integers(0, len(self._pinned_keys)))]
        power, price = pinned.entries(key[2])[key[:2]]
        entries[key] = (power + float(self.rng.uniform(0.5, 5.0)), price)
        return Solution(entries)

    def _scaled_candidate(self, state) -> Solution | None:
        if not len(state.candidate):
            return None
        factor = float(self.rng.uniform(0.1, 0.9))
        return Solution({k: (p * factor, pi) for k, (p, pi) in state.candidate.items()})


class FailureRow(NamedTuple):
    """One phase of a scheduled failure as the simulation played it:
    ``failed``, ``detected``, ``removed`` or ``recovered``."""

    time: float
    participant: str
    phase: str


class SimReport(NamedTuple):
    """A finished day: its config, events, metrics and the agents' records.
    The export reads the grid, horizon and price cap from ``config``, the
    :class:`SimConfig` the day ran."""

    config: SimConfig
    events: list[LedgerEvent]
    metrics: Metrics
    solver_records: list[SolveRecord]
    controller_rows: list[ControllerRow]
    failure_log: list[FailureRow]
    final_state: ContractState
    intervals_finalized: int


# Priorities at equal timestamps: finalize the elapsed interval first, then
# prosumer postings, then fault handling, then the round of solvers and
# adversaries.
_PRI_FINALIZE = 0
_PRI_PROSUMER = 1
_PRI_FAULT = 2
_PRI_ROUND = 3


class Simulation:
    """Event-queue driver; see module docstring for the protocol."""

    def __init__(self, config: SimConfig, traces: list[ProsumerTrace]):
        self.config = config
        self.traces = list(traces)
        self._validate()

        self.contract = Contract(config.grid, require_dso_finalize=True)
        self.time = 0.0
        # (time, priority, push seq, handler, args); ties run in push order.
        self._heap: list[tuple[float, int, int, Callable[..., None], tuple]] = []
        self._push_seq = 0
        self.failure_log: list[FailureRow] = []
        self._shared: dict = {}  # the day's shared solves (see SolverAgent.step)

        self.contract.register(DSO_ID, Role.DSO, time=0.0)
        self.prosumers: dict[str, ProsumerAgent] = {}
        for trace in sorted(self.traces, key=lambda tr: tr.participant):
            self.contract.register(trace.participant, Role.PROSUMER, trace.feeder, time=0.0)
            self.prosumers[trace.participant] = ProsumerAgent(trace, config.horizon)

        self.solvers: dict[str, SolverAgent] = {}
        for i in range(config.n_solvers):
            sid = f"solver-{i + 1}"
            self.contract.register(sid, Role.SOLVER, time=0.0)
            controller = None
            if config.adaptive:
                controller = ControllerState(
                    clearing_lead=config.grid.clearing_lead,
                    max_lookahead=config.lookahead,
                    lookahead=config.lookahead)
            solver_config = SolverConfig(
                lookahead=config.lookahead, solve_period=config.solver_period,
                price_cap=config.price_cap)
            self.solvers[sid] = SolverAgent(sid, solver_config, controller=controller)

        self.adversaries: dict[str, AdversaryAgent] = {}
        for i in range(config.n_adversaries):
            aid = f"adversary-{i + 1}"
            self.contract.register(aid, Role.SOLVER, time=0.0)
            self.adversaries[aid] = AdversaryAgent(aid, config.seed + 1000 + i)
        self._agents = {**self.prosumers, **self.solvers, **self.adversaries}
        for spec in config.failures:  # the DSO is no agent: it cannot fail
            if spec.participant not in self._agents:
                raise UnknownParticipantError(f"failures: no agent named {spec.participant!r}")

        dt = config.seconds_per_interval
        for k in range(config.horizon):
            self._push(k * dt, _PRI_PROSUMER, self._prosumer_phase, k)
            self._push((k + 1) * dt, _PRI_FINALIZE, self._finalize, k)
        if self.solvers or self.adversaries:
            self._push(0.0, _PRI_ROUND, self._round, 0)
        for spec in config.failures:
            for at, phase in config.failure_phases(spec):
                self._push(at, _PRI_FAULT, self._failure_phase, spec.participant, phase)

    def _validate(self) -> None:
        ids = [t.participant for t in self.traces]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate participant ids in traces")
        feeders = self.config.grid.feeder_limits()
        for trace in self.traces:
            if trace.feeder not in feeders:
                raise ConfigError(f"{trace.participant}: unknown feeder {trace.feeder!r}")
            if len(trace) < self.config.horizon:
                raise ConfigError(
                    f"{trace.participant}: trace covers {len(trace)} intervals, "
                    f"horizon needs {self.config.horizon}")

    @property
    def end_time(self) -> float:
        return self.config.horizon * self.config.seconds_per_interval

    def _push(self, time: float, priority: int, handler: Callable[..., None],
              *args) -> None:
        self._push_seq += 1
        heapq.heappush(self._heap, (time, priority, self._push_seq, handler, args))

    def _confirmed(self, handler: Callable[..., None], *args) -> None:
        """Call ``handler(*args)`` now, or after the confirmation delay."""
        delay = self.config.confirmation_delay
        if delay > 0:
            self._push(self.time + delay, _PRI_FAULT, handler, *args)
        else:
            handler(*args)

    def advance_clock(self) -> float:
        """Process every event at the next timestamp; strictly advances time."""
        if not self._heap:
            return self.time
        next_time = self._heap[0][0]
        self.time = next_time
        while self._heap and self._heap[0][0] == next_time:
            _, _, _, handler, args = heapq.heappop(self._heap)
            handler(*args)
        return self.time

    def run(self) -> SimReport:
        """Play the day to its end: the last interval's finalization.

        The finalization of the horizon's last interval empties the queue, so
        nothing scheduled after it runs, not even at the same instant: a
        failure, detection, removal or recovery past the day's end, or a
        confirmation still delayed, is not handled, and the log ends with
        that ``IntervalAdvanced``.
        """
        while self._heap:
            self.advance_clock()
        return self._report()

    # -- event handlers -----------------------------------------------------

    def _finalize(self, interval: int) -> None:
        self.contract.finalize(DSO_ID, interval, time=self.time)
        if interval == self.config.horizon - 1:  # the day ends here
            self._heap.clear()

    def _failure_phase(self, participant: str, phase: str) -> None:
        """Play one phase of a failure (see :meth:`SimConfig.failure_phases`)
        and log it."""
        agent = self._agents[participant]
        if phase == "failed":
            agent.active = False
        elif phase == "removed":
            self.contract.remove_participant_trades(participant, time=self.time)
        elif phase == "recovered":
            agent.active = True
            if isinstance(agent, ProsumerAgent):
                agent.forget_future_offers(self.contract.state.current_interval)
        self.failure_log.append(FailureRow(self.time, participant, phase))

    def _prosumer_phase(self, now: int) -> None:
        lead, window = self.config.grid.clearing_lead, self.config.prediction_window
        for pid, agent in self.prosumers.items():  # built in participant order
            if agent.active:
                for offer in agent.offers_for(now, lead, window):
                    self._confirmed(self._post_offer, pid, offer)

    def _post_offer(self, participant: str, offer: tuple[Side, int, int, float]) -> None:
        try:
            self.contract.post_offer(participant, *offer, time=self.time)
        except StaleInterval:
            pass  # a delayed offer for an interval finalized meanwhile is refused

    def _submit(self, participant: str, solution: Solution) -> None:
        self.contract.submit_solution(participant, solution, time=self.time)

    def _round(self, tick: int) -> None:
        """The ``tick``-th solver period: each active solver steps, then each
        active adversary submits, each in id order."""
        at = (tick + 1) * self.config.solver_period
        if at < self.end_time:
            self._push(at, _PRI_ROUND, self._round, tick + 1)
        for sid in sorted(self.solvers):
            agent = self.solvers[sid]
            if agent.active:
                submission = agent.step(self.contract.state, self._shared, time=self.time)
                if submission is not None:  # the agent reads its outcome next round
                    self._confirmed(self._submit, sid, submission)
        for aid in sorted(self.adversaries):
            agent = self.adversaries[aid]
            if agent.active:
                submission = agent.make_submission(self.contract.state)
                if submission is not None:
                    self._submit(aid, submission)

    # -- reporting ----------------------------------------------------------

    def _report(self) -> SimReport:
        events = self.contract.events
        finalized = self.contract.state.current_interval  # one per IntervalAdvanced
        if finalized != self.config.horizon:
            raise SimulationError(
                f"finalized {finalized} intervals, expected {self.config.horizon}")
        metrics = compute_metrics(events, self.config.grid.interval_hours,
                                  horizon=self.config.horizon)
        records: list[SolveRecord] = []
        controller_rows: list[ControllerRow] = []
        for sid in sorted(self.solvers):
            records.extend(self.solvers[sid].records)
            controller_rows.extend(self.solvers[sid].controller_trace)
        by_time_and_solver = itemgetter(0, 1)  # both records lead with (time, solver)
        records.sort(key=by_time_and_solver)
        controller_rows.sort(key=by_time_and_solver)
        return SimReport(
            config=self.config,
            events=events,
            metrics=metrics,
            solver_records=records,
            controller_rows=controller_rows,
            failure_log=self.failure_log,
            final_state=self.contract.state,
            intervals_finalized=finalized,
        )


def run(config: SimConfig, traces: list[ProsumerTrace]) -> SimReport:
    """Run a complete simulation; pure function of (config, traces)."""
    return Simulation(config, traces).run()
