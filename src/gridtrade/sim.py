"""Deterministic multi-agent simulation of the trading protocol.

Prosumer, solver, and operator agents share a logical clock and interact
only through the ledger contract. Each interval: prosumers post offers for
their prediction window, solvers periodically re-solve and submit strictly
better solutions, and the operator finalizes the next deliverable interval
at the interval boundary. A failure schedule can silence any participant;
after a notification latency its non-finalized trades are withdrawn.

There is no wall-clock anywhere: identical configuration and traces give
an identical event log, byte for byte.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .controller import AffineResourceModel, ControllerState
from .ledger import Contract, ContractError, ContractState, LedgerEvent, Role
from .market import BUYING, SELLING, GridModel, Offer, Solution, TradeKey, count, number
from .metrics import Metrics, compute_metrics
from .solver import SolveRecord, SolverAgent, SolverConfig
from .traces import ProsumerTrace

DSO_ID = "dso"


class ConfigError(Exception):
    pass


class SimulationError(Exception):
    pass


class UnknownParticipantError(Exception):
    pass


@dataclass(frozen=True)
class FailureSpec:
    participant: str
    fail_time: float
    recover_time: float | None = None

    def __post_init__(self) -> None:
        if type(self.participant) is not str:
            raise ConfigError(f"participant must be a str, got {self.participant!r}")
        try:
            number(f"{self.participant}: fail_time", self.fail_time, 0.0)
            if self.recover_time is not None:
                number(f"{self.participant}: recover_time", self.recover_time, self.fail_time,
                       above=True)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class SimConfig:
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

    def __post_init__(self) -> None:
        if not isinstance(self.grid, GridModel):
            raise ConfigError(f"grid must be a GridModel, got {self.grid!r}")
        try:
            for name, minimum in (("horizon", 1), ("prediction_window", 2),
                                  ("lookahead", self.grid.clearing_lead), ("n_solvers", 0),
                                  ("n_adversaries", 0), ("seed", 0)):
                count(name, getattr(self, name), minimum)
            for name in ("seconds_per_interval", "solver_period"):
                number(name, getattr(self, name), 0.0, above=True)
            for name in ("price_cap", "detect_latency", "notify_latency", "reactivate_latency",
                         "confirmation_delay"):
                number(name, getattr(self, name), 0.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if type(self.adaptive) is not bool:  # a truthy "no" must not turn control on
            raise ConfigError(f"adaptive must be a bool, got {self.adaptive!r}")
        if not (isinstance(self.failures, (list, tuple))
                and all(isinstance(f, FailureSpec) for f in self.failures)):
            raise ConfigError(f"failures must be a sequence of FailureSpec, got {self.failures!r}")
        object.__setattr__(self, "failures", tuple(self.failures))  # a tuple, so the config hashes
        if self.seconds_per_interval > self.grid.interval_hours * 3600.0:
            raise ConfigError("simulated interval cannot exceed the real interval")


class ProsumerAgent:
    """Posts one offer per surplus or deficit interval, never twice.

    ``offered_through`` is the last interval considered for an offer: the
    windows considered only move forward, so none up to it comes again.
    """

    def __init__(self, trace: ProsumerTrace, horizon: int):
        self.trace = trace
        self.horizon = horizon
        self.active = True
        self.offered_through = -1

    def offers_for(self, now: int, clearing_lead: int, prediction_window: int) -> list[dict]:
        out: list[dict] = []
        last = min(now + prediction_window, self.horizon - 1, len(self.trace) - 1)
        for t in range(max(now + clearing_lead, self.offered_through + 1), last + 1):
            self.offered_through = t
            net = self.trace.net(t)
            if net > 1e-12:
                end = t
                if self.trace.flexible:
                    end = min(t + self.trace.flex_window - 1, self.horizon - 1)
                out.append({"side": SELLING, "start": t, "end": end,
                            "energy_kwh": net})
            elif net < -1e-12:
                out.append({"side": BUYING, "start": t, "end": t,
                            "energy_kwh": -net})
        return out

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


@dataclass
class SimReport:
    config: SimConfig
    events: list[LedgerEvent]
    metrics: Metrics
    solver_records: list[SolveRecord]
    controller_rows: list[dict]
    failure_log: list[dict]
    final_state: ContractState
    intervals_finalized: int
    max_variables: int = 0  # the largest LP's columns (see SolveRecord)


# Priorities at equal timestamps: finalize the elapsed interval first, then
# prosumer postings, then fault handling, then solver and adversary ticks.
_PRI_FINALIZE = 0
_PRI_PROSUMER = 1
_PRI_FAULT = 2
_PRI_SOLVER = 3
_PRI_ADVERSARY = 4


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
        self.failure_log: list[dict] = []

        self.contract.register(DSO_ID, Role.DSO, time=0.0)
        self.prosumers: dict[str, ProsumerAgent] = {}
        for trace in sorted(self.traces, key=lambda tr: tr.participant):
            self.contract.register(trace.participant, Role.PROSUMER, trace.feeder, time=0.0)
            self.prosumers[trace.participant] = ProsumerAgent(trace, config.horizon)

        model = AffineResourceModel()
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
            self.solvers[sid] = SolverAgent(
                sid, self.contract.grid, solver_config,
                controller=controller, resource_model=model)

        self.adversaries: dict[str, AdversaryAgent] = {}
        for i in range(config.n_adversaries):
            aid = f"adversary-{i + 1}"
            self.contract.register(aid, Role.SOLVER, time=0.0)
            self.adversaries[aid] = AdversaryAgent(aid, config.seed + 1000 + i)
        self._agents = {**self.prosumers, **self.solvers, **self.adversaries}

        dt = config.seconds_per_interval
        for k in range(config.horizon):
            self._push(k * dt, _PRI_PROSUMER, self._prosumer_phase, k)
            self._push((k + 1) * dt, _PRI_FINALIZE, self._finalize, k)
        for sid in sorted(self.solvers):
            self._schedule_tick(_PRI_SOLVER, self._solver_tick, sid, 0)
        for aid in sorted(self.adversaries):
            self._schedule_tick(_PRI_ADVERSARY, self._adversary_tick, aid, 0)
        for spec in config.failures:
            self.inject_failure(spec.participant, spec.fail_time, spec.recover_time)

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

    def _schedule_tick(self, priority: int, handler: Callable[[str, int], None],
                       agent_id: str, tick: int) -> None:
        """Schedule an agent's ``tick``-th period, if it starts before the end."""
        at = tick * self.config.solver_period
        if at < self.end_time:
            self._push(at, priority, handler, agent_id, tick)

    def _confirmed(self, handler: Callable[..., None], *args) -> None:
        """Call ``handler(*args)`` now, or after the confirmation delay."""
        delay = self.config.confirmation_delay
        if delay > 0:
            self._push(self.time + delay, _PRI_FAULT, handler, *args)
        else:
            handler(*args)

    def inject_failure(self, participant: str, at_time: float,
                       recover_time: float | None = None) -> None:
        """Silence a participant at ``at_time``; peers react after latency."""
        if participant not in self._agents:
            raise UnknownParticipantError(f"no agent named {participant!r}")
        cfg = self.config
        self._push(at_time, _PRI_FAULT, self._fail, participant)
        self._push(at_time + cfg.detect_latency, _PRI_FAULT, self._log_failure,
                   participant, "detected")
        self._push(at_time + cfg.notify_latency, _PRI_FAULT, self._remove, participant)
        if recover_time is not None:
            self._push(recover_time + cfg.reactivate_latency, _PRI_FAULT,
                       self._recover, participant)

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
        while self._heap:
            self.advance_clock()
        return self._report()

    # -- event handlers -----------------------------------------------------

    def _finalize(self, interval: int) -> None:
        self.contract.finalize(DSO_ID, interval, time=self.time)

    def _fail(self, participant: str) -> None:
        self._agents[participant].active = False
        self._log_failure(participant, "failed")

    def _remove(self, participant: str) -> None:
        self.contract.remove_participant_trades(participant, time=self.time)
        self._log_failure(participant, "removed")

    def _recover(self, participant: str) -> None:
        agent = self._agents[participant]
        agent.active = True
        if isinstance(agent, ProsumerAgent):
            agent.forget_future_offers(self.contract.state.current_interval)
        self._log_failure(participant, "recovered")

    def _log_failure(self, participant: str, phase: str) -> None:
        self.failure_log.append(
            {"time": self.time, "participant": participant, "phase": phase})

    def _prosumer_phase(self, now: int) -> None:
        cfg = self.config
        for pid in sorted(self.prosumers):
            agent = self.prosumers[pid]
            if not agent.active:
                continue
            for offer in agent.offers_for(now, cfg.grid.clearing_lead,
                                          cfg.prediction_window):
                self._confirmed(self._post_offer, pid, offer)

    def _post_offer(self, participant: str, offer: dict) -> None:
        try:
            self.contract.post_offer(participant, time=self.time, **offer)
        except ContractError:
            pass  # a delayed offer for an interval finalized meanwhile is refused

    def _submit(self, participant: str, solution: Solution) -> None:
        self.contract.submit_solution(participant, solution, time=self.time)

    def _solver_tick(self, sid: str, tick: int) -> None:
        self._schedule_tick(_PRI_SOLVER, self._solver_tick, sid, tick + 1)
        agent = self.solvers[sid]
        if not agent.active:
            return
        events = self.contract.events_since(agent.last_seq)
        submission = agent.step(events, time=self.time)
        if submission is not None:  # the agent observes its outcome on its next tick
            self._confirmed(self._submit, sid, submission)

    def _adversary_tick(self, aid: str, tick: int) -> None:
        self._schedule_tick(_PRI_ADVERSARY, self._adversary_tick, aid, tick + 1)
        agent = self.adversaries[aid]
        if not agent.active:
            return
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
        controller_rows: list[dict] = []
        for sid in sorted(self.solvers):
            records.extend(self.solvers[sid].records)
            controller_rows.extend(self.solvers[sid].controller_trace)
        records.sort(key=lambda r: (r.time, r.solver))
        controller_rows.sort(key=lambda r: (r["time"], r["solver"]))
        return SimReport(
            config=self.config,
            events=events,
            metrics=metrics,
            solver_records=records,
            controller_rows=controller_rows,
            failure_log=self.failure_log,
            final_state=self.contract.state,
            intervals_finalized=finalized,
            max_variables=max((r.variables for r in records), default=0),
        )


def run(config: SimConfig, traces: list[ProsumerTrace]) -> SimReport:
    """Run a complete simulation; pure function of (config, traces)."""
    return Simulation(config, traces).run()
