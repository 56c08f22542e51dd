"""Simulated distributed-ledger contract for the exchange.

The contract is an event-sourced state machine: every public operation
validates its inputs, emits one or more totally ordered events, and applies
them. Replaying the event stream from an empty state reconstructs the
contract exactly, which is what the audit tooling relies on. ``verify_log``
re-executes a log through a fresh contract, so the market rules are stated
once, here and in ``market``; it reports the first divergence only.

The contract tracks the registry, both offer books, the best feasible
candidate solution seen so far, and the finalized (pinned) trades. The
candidate covers only open intervals: finalizing an interval moves its trades
from the candidate into the pins. The contract never accepts a solution that
violates the market constraints, so finalization can only ever draw from
safe candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real
from pathlib import Path
from typing import Iterable, Mapping

from .market import (
    GridModel,
    MarketError,
    Offer,
    PinnedTrades,
    Side,
    Solution,
    VIOLATION_KINDS,
    check_feasibility,
    objective,
)

IMPROVEMENT_MARGIN = 1e-9

# Version 2 logs record solutions over open intervals only; version 1 logs
# restated every finalized trade in each accepted solution.
LOG_VERSION = 2


class ContractError(Exception):
    """Base class for contract protocol errors."""


class DuplicateRegistration(ContractError):
    pass


class UnknownFeeder(ContractError):
    pass


class NotRegistered(ContractError):
    pass


class StaleInterval(ContractError):
    pass


class InvalidQuantity(ContractError):
    pass


class AlreadyFinalized(ContractError):
    pass


class NotAuthorized(ContractError):
    pass


class Role(str, Enum):
    PROSUMER = "prosumer"
    SOLVER = "solver"
    DSO = "dso"


class EventKind(str, Enum):
    PROSUMER_REGISTERED = "ProsumerRegistered"
    OFFER_POSTED = "OfferPosted"
    SOLUTION_ACCEPTED = "SolutionAccepted"
    SOLUTION_REJECTED = "SolutionRejected"
    TRADE_FINALIZED = "TradeFinalized"
    INTERVAL_ADVANCED = "IntervalAdvanced"
    PARTICIPANT_REMOVED = "ParticipantRemoved"


@dataclass(frozen=True, slots=True)
class LedgerEvent:
    seq: int
    time: float
    kind: str
    payload: dict
    # The parsed payload: the Offer of an OfferPosted event or the Solution of
    # a SolutionAccepted event; see ``offer`` and ``solution``. A slot rather
    # than a cached_property, so that caching adds no per-event __dict__, and
    # one slot for both kinds, as each field costs every event's construction.
    _parsed: Offer | Solution | None = field(default=None, init=False, repr=False,
                                              compare=False)

    @property
    def offer(self) -> Offer:
        """The offer an ``OfferPosted`` event posts.

        ``Contract.post_offer`` sets it as it appends the event; an event
        read from a log parses its payload on first use, with the checks
        ``Offer`` makes. Every state that applies the event (the contract
        and each mirror) shares this one frozen ``Offer``. The cache takes no
        part in equality or in the record.
        """
        if self._parsed is None:
            p = self.payload
            object.__setattr__(self, "_parsed", _new_offer(
                int(p["offer_id"]), p["side"], str(p["participant"]), str(p["feeder"]),
                p["energy_kwh"], p["start"], p["end"], p.get("reservation_price")))
        return self._parsed

    @property
    def solution(self) -> Solution:
        """The solution a ``SolutionAccepted`` event accepts.

        ``Contract.submit_solution`` sets it to the solution it validated;
        an event read from a log parses ``payload["trades"]`` on first use.
        As with ``offer``, the contract, each mirror and ``verify_log``
        share this one object, and it takes no part in equality or in the
        record.
        """
        if self._parsed is None:
            object.__setattr__(self, "_parsed", Solution.from_payload(self.payload["trades"]))
        return self._parsed

    def to_record(self) -> dict:
        return {"record": "event", "seq": self.seq, "time": self.time,
                "kind": self.kind, "payload": self.payload}

    @classmethod
    def from_record(cls, record: Mapping) -> "LedgerEvent":
        payload = record["payload"]
        if type(payload) is not dict:
            raise TypeError(f"payload is a {type(payload).__name__}, not an object")
        return cls(int(record["seq"]), float(record["time"]), str(record["kind"]), payload)


class ContractState:
    """Mutable contract state; every mutation goes through ``apply``.

    ``book`` holds every offer not withdrawn, in posting order, and is
    ``selling`` and ``buying`` together. ``open_offers`` is the part of the
    book that can still trade: offers whose window ends after
    ``pinned.finalized_through``. Both are kept up to date by ``apply``, so
    neither is rebuilt from the day's history.
    """

    def __init__(self, grid: GridModel):
        self.grid = grid
        self.participants: dict[str, dict] = {}
        self.book: dict[int, Offer] = {}
        self.selling: dict[int, Offer] = {}
        self.buying: dict[int, Offer] = {}
        self.open_offers: dict[int, Offer] = {}
        self.retired: dict[int, Offer] = {}
        self.candidate: Solution = Solution.empty()
        self.candidate_objective: float = 0.0
        self.pinned = PinnedTrades(grid.clearing_lead - 1)
        self.current_interval: int = 0
        self.next_offer_id: int = 1
        self._pending_pins: dict[tuple[int, int], tuple[float, float]] = {}

    def apply(self, event: LedgerEvent) -> None:
        payload = event.payload
        kind = event.kind
        if kind == EventKind.PROSUMER_REGISTERED:
            self.participants[payload["participant"]] = {
                "role": payload["role"], "feeder": payload["feeder"]}
        elif kind == EventKind.OFFER_POSTED:
            offer = event.offer
            target = self.selling if offer.side is Side.SELLING else self.buying
            target[offer.id] = offer
            self.book[offer.id] = offer
            if offer.end > self.pinned.finalized_through:
                self.open_offers[offer.id] = offer
            self.next_offer_id = max(self.next_offer_id, offer.id + 1)
        elif kind == EventKind.SOLUTION_ACCEPTED:
            self.candidate = event.solution
            self.candidate_objective = float(payload["objective"])
        elif kind == EventKind.SOLUTION_REJECTED:
            pass
        elif kind == EventKind.TRADE_FINALIZED:
            key = (int(payload["sell_offer"]), int(payload["buy_offer"]))
            self._pending_pins[key] = (float(payload["power_kw"]), float(payload["price"]))
        elif kind == EventKind.INTERVAL_ADVANCED:
            fin = int(payload["finalized_interval"])
            self.pinned.pin(fin, self._pending_pins)
            self._pending_pins = {}
            self.candidate = self.candidate.after(fin)
            self.candidate_objective = objective(self.candidate)
            self.open_offers = {oid: offer for oid, offer in self.open_offers.items()
                                if offer.end > fin}
            self.current_interval = int(payload["interval"])
        elif kind == EventKind.PARTICIPANT_REMOVED:
            removed = {int(oid) for oid in payload["removed_offers"]}
            for oid in sorted(removed):
                offer = self.book.pop(oid, None)
                if offer is not None:
                    del (self.selling if offer.side is Side.SELLING else self.buying)[oid]
                    self.open_offers.pop(oid, None)
                    self.retired[oid] = offer
            self.candidate = self.candidate.without_offers(removed)
            self.candidate_objective = float(payload["candidate_objective"])
        else:
            raise ValueError(f"unknown event kind {kind!r}")

    def feasibility(self, solution: Solution):
        return check_feasibility(solution, self.book, self.grid, self.pinned)

    def snapshot(self) -> dict:
        """Canonical JSON-able view used for exact state comparison."""
        return {
            "participants": {pid: dict(info) for pid, info in sorted(self.participants.items())},
            "selling": {str(oid): _offer_payload(o) for oid, o in sorted(self.selling.items())},
            "buying": {str(oid): _offer_payload(o) for oid, o in sorted(self.buying.items())},
            "retired": {str(oid): _offer_payload(o) for oid, o in sorted(self.retired.items())},
            "candidate": self.candidate.to_payload(),
            "candidate_objective": self.candidate_objective,
            "pinned": self.pinned.snapshot(),
            "current_interval": self.current_interval,
            "next_offer_id": self.next_offer_id,
        }


def _new_offer(offer_id: int, side, participant: str, feeder: str, energy_kwh, start, end,
               reservation_price) -> Offer:
    """An offer from posted values; ``Offer`` refuses bad ones with ``InvalidQuantity``."""
    try:
        return Offer(offer_id, side, participant, feeder, energy_kwh, start, end,
                     reservation_price)
    except ValueError as exc:
        raise InvalidQuantity(str(exc)) from None


def _offer_payload(offer: Offer) -> dict:
    return {
        "offer_id": offer.id,
        "participant": offer.prosumer,
        "side": offer.side.value,
        "feeder": offer.feeder,
        "energy_kwh": offer.energy_kwh,
        "start": offer.start,
        "end": offer.end,
        "reservation_price": offer.reservation_price,
    }


class Contract:
    """Validating writer around :class:`ContractState`.

    All mutating calls are serialized through this object; each appends
    events with gapless sequence numbers. Readers may take ``state``
    snapshots or poll ``events_since``.
    """

    def __init__(self, grid: GridModel, *, require_dso_finalize: bool = True):
        self.state = ContractState(grid)
        self.require_dso_finalize = require_dso_finalize
        self._events: list[LedgerEvent] = []

    @property
    def events(self) -> list[LedgerEvent]:
        return list(self._events)

    @property
    def grid(self) -> GridModel:
        return self.state.grid

    def events_since(self, seq: int) -> list[LedgerEvent]:
        """All events with sequence number greater than ``seq``, in order."""
        if seq < 0:
            raise ValueError("seq must be non-negative")
        return self._events[seq:]

    def _append(self, kind: EventKind, payload: dict, time: float,
                parsed: Offer | Solution | None = None) -> LedgerEvent:
        if not ((type(time) is float or isinstance(time, Real)) and math.isfinite(time)):
            raise InvalidQuantity(f"time must be a finite number, got {time}")
        event = LedgerEvent(len(self._events) + 1, float(time), kind.value, payload)
        if parsed is not None:
            object.__setattr__(event, "_parsed", parsed)
        self.state.apply(event)
        self._events.append(event)
        return event

    def register(self, participant: str, role: Role | str, feeder: str | None = None,
                 *, time: float = 0.0) -> LedgerEvent:
        """A prosumer names its feeder; others may. A named feeder must exist."""
        try:
            role = Role(role)
        except ValueError:
            raise ContractError(f"role must be prosumer, solver or dso, got {role!r}") from None
        if participant in self.state.participants:
            raise DuplicateRegistration(f"{participant} is already registered")
        if feeder is None:
            if role is Role.PROSUMER:
                raise UnknownFeeder("prosumers must register with a feeder")
        elif feeder not in self.state.grid.feeder_limits():
            raise UnknownFeeder(f"feeder {feeder!r} does not exist")
        return self._append(EventKind.PROSUMER_REGISTERED, {
            "participant": participant, "role": role.value, "feeder": feeder}, time)

    def post_offer(self, participant: str, side: Side | str, start: int, end: int,
                   energy_kwh: float, reservation_price: float | None = None,
                   *, time: float = 0.0) -> LedgerEvent:
        info = self.state.participants.get(participant)
        if info is None:
            raise NotRegistered(f"{participant} is not registered")
        if info["role"] != Role.PROSUMER:
            raise NotAuthorized(f"{participant} is a {info['role']}; only prosumers post offers")
        offer = _new_offer(self.state.next_offer_id, side, participant, info["feeder"],
                           energy_kwh, start, end, reservation_price)
        earliest = self.state.current_interval + self.state.grid.clearing_lead
        if offer.start < earliest:
            raise StaleInterval(
                f"start {offer.start} precedes earliest open interval {earliest}")
        return self._append(EventKind.OFFER_POSTED, _offer_payload(offer), time, offer)

    def submit_solution(self, participant: str, solution: Solution,
                        *, time: float = 0.0) -> LedgerEvent:
        if participant not in self.state.participants:
            raise NotRegistered(f"{participant} is not registered")
        try:
            report = self.state.feasibility(solution)
            value = objective(solution)
        except MarketError as exc:
            return self._append(EventKind.SOLUTION_REJECTED, {
                "participant": participant, "reason": f"invalid: {exc}"}, time)
        if not math.isfinite(value):  # finite trades whose sum overflows
            return self._append(EventKind.SOLUTION_REJECTED, {
                "participant": participant, "reason": "invalid: objective is not finite"}, time)
        if not report.ok:
            kinds = sorted({v.kind for v in report.violations})
            return self._append(EventKind.SOLUTION_REJECTED, {
                "participant": participant,
                "reason": "infeasible: " + ", ".join(kinds),
                "objective": value}, time)
        if value <= self.state.candidate_objective + IMPROVEMENT_MARGIN:
            return self._append(EventKind.SOLUTION_REJECTED, {
                "participant": participant, "reason": "not-better",
                "objective": value}, time)
        # The accepted object becomes the candidate, so its keys must be the
        # ints a replay parses from the log, not just equal to them.
        if not all(type(s) is type(b) is type(t) is int for s, b, t in solution.keys()):
            return self._append(EventKind.SOLUTION_REJECTED, {
                "participant": participant,
                "reason": "invalid: offer ids and intervals must be integers"}, time)
        return self._append(EventKind.SOLUTION_ACCEPTED, {
            "participant": participant, "objective": value,
            "trades": solution.to_payload()}, time, solution)

    def finalize(self, caller: str | None, interval: int,
                 *, time: float = 0.0) -> list[LedgerEvent]:
        """Pin the trades for ``interval + clearing_lead`` from the candidate."""
        if self.require_dso_finalize:
            info = self.state.participants.get(caller) if caller else None
            if info is None or info["role"] != Role.DSO.value:
                raise NotAuthorized("finalization requires the grid operator")
        if interval < self.state.current_interval:
            raise AlreadyFinalized(f"interval {interval} was already finalized")
        if interval > self.state.current_interval:
            raise ContractError(
                f"interval {interval} is not current ({self.state.current_interval})")

        fin = interval + self.state.grid.clearing_lead
        events = []
        for (s_id, b_id, t), (power, price) in self.state.candidate.items():
            if t == fin and power > 0.0:
                events.append(self._append(EventKind.TRADE_FINALIZED, {
                    "buy_offer": b_id, "sell_offer": s_id, "interval": t,
                    "power_kw": power, "price": price}, time))
        events.append(self._append(EventKind.INTERVAL_ADVANCED, {
            "interval": interval + 1, "finalized_interval": fin,
            "trade_count": len(events)}, time))
        return events

    def remove_participant_trades(self, participant: str,
                                  *, time: float = 0.0) -> list[LedgerEvent]:
        """Withdraw a failed participant's offers and non-finalized trades."""
        if participant not in self.state.participants:
            raise NotRegistered(f"{participant} is not registered")
        removed = sorted(
            oid for oid, offer in self.state.book.items() if offer.prosumer == participant)
        stripped = self.state.candidate.without_offers(set(removed))
        event = self._append(EventKind.PARTICIPANT_REMOVED, {
            "participant": participant,
            "removed_offers": removed,
            "candidate_objective": objective(stripped)}, time)
        return [event]


class _Divergence(Exception):
    """The log parts from its re-execution: ``(seq, detail)``."""


class _Replay(Contract):
    """A contract that re-executes a recorded log: each event an operation
    would append must equal the next recorded one in seq, kind, time and
    payload, and the recorded event is applied with the offer or solution parsed."""

    def run(self, events: Iterable[LedgerEvent]) -> list[str]:
        self.recorded, self.pos, last_time = list(events), 0, -math.inf
        try:
            while self.pos < len(self.recorded):
                event = self.recorded[self.pos]
                payload, kind, time = event.payload, event.kind, event.time
                if event.seq != self.pos + 1:
                    raise _Divergence(event.seq, f"expected {self.pos + 1}")
                if not (math.isfinite(time) and time >= last_time):
                    raise _Divergence(event.seq, f"time {time} went backwards or is not finite")
                last_time = time
                if kind == EventKind.OFFER_POSTED:
                    self.post_offer(payload["participant"], payload["side"], payload["start"],
                                    payload["end"], payload["energy_kwh"],
                                    payload["reservation_price"], time=time)
                elif kind == EventKind.SOLUTION_REJECTED:
                    self._check_rejection(event)
                elif kind == EventKind.TRADE_FINALIZED or kind == EventKind.INTERVAL_ADVANCED:
                    self.finalize(None, self.state.current_interval, time=time)
                elif kind == EventKind.SOLUTION_ACCEPTED:
                    self.submit_solution(payload["participant"], event.solution, time=time)
                elif kind == EventKind.PROSUMER_REGISTERED:
                    self.register(payload["participant"], payload["role"], payload["feeder"],
                                  time=time)
                elif kind == EventKind.PARTICIPANT_REMOVED:
                    self.remove_participant_trades(payload["participant"], time=time)
                else:
                    raise _Divergence(event.seq, f"unknown event kind {kind!r}")
        except _Divergence as exc:
            return ["seq {}: {}".format(*exc.args)]
        except (ContractError, MarketError, AttributeError, KeyError, TypeError,
                ValueError) as exc:  # the operation refused the recorded values
            return [f"seq {event.seq}: {event.kind} refused ({type(exc).__name__}: {exc})"]
        return []

    def _append(self, kind: EventKind, payload: dict, time: float,
                parsed: Offer | Solution | None = None) -> LedgerEvent:
        if self.pos == len(self.recorded):
            raise _Divergence(self.pos + 1, f"the log ends; the contract records {kind.value}")
        event = self.recorded[self.pos]
        self.pos += 1
        if event.seq != self.pos or event.kind != kind or event.time != time:
            detail = f" ({payload['reason']})" if "reason" in payload else ""
            raise _Divergence(event.seq, f"{event.kind} at {event.time}; the contract records "
                                         f"{kind.value} at {time}{detail}")
        if event.payload != payload:
            field = next(key for key in {**event.payload, **payload}
                         if event.payload.get(key, ...) != payload.get(key, ...))
            raise _Divergence(event.seq, f"{event.kind} {field} is {event.payload.get(field)!r}, "
                                         f"the contract records {payload.get(field)!r}")
        if parsed is not None:
            object.__setattr__(event, "_parsed", parsed)
        self.state.apply(event)
        return event

    def _check_rejection(self, event: LedgerEvent) -> None:
        """A rejection records no solution, so it is checked, not re-executed."""
        payload = event.payload
        reason, value = payload["reason"], payload.get("objective")
        kinds = reason.removeprefix("infeasible: ").split(", ")  # listed once each, sorted
        scored = reason == "not-better" or (
            reason.startswith("infeasible: ")
            and kinds == sorted(VIOLATION_KINDS.intersection(kinds)))
        if payload["participant"] not in self.state.participants:
            problem = "participant is not registered"
        elif not (scored or reason.startswith("invalid: ")):
            problem = "reason is not one the contract gives"
        elif len(payload) != 2 + scored or scored and not (
                type(value) in (int, float) and math.isfinite(value)):
            problem = "objective does not fit the reason"
        elif reason == "not-better" and value > self.state.candidate_objective + IMPROVEMENT_MARGIN:
            problem = "not-better objective beats the candidate"
        else:
            self.pos += 1
            return
        raise _Divergence(event.seq, f"SolutionRejected {problem}")


def replay_events(grid: GridModel, events: Iterable[LedgerEvent]) -> ContractState:
    """Rebuild contract state by applying events in order."""
    state = ContractState(grid)
    for event in events:
        state.apply(event)
    return state


def verify_log(grid: GridModel, events: Iterable[LedgerEvent],
               *, price_cap: float = 1.0) -> list[str]:
    """Check an event log by re-executing it through a fresh contract.

    Each event's operation (``register``, ``post_offer``, ``submit_solution``,
    ``finalize`` for an interval's ``TradeFinalized`` run and
    ``IntervalAdvanced``, ``remove_participant_trades``) runs again, and each
    event it appends must equal the recorded one. A ``SolutionRejected``
    records no solution, so its participant, reason and objective are checked
    against what the contract can reject with. Times must not go backwards.
    The finalizer is not re-authorized: the log does not name it.

    Returns ``[]`` or the first divergence, ``["seq N: ..."]``; past it the
    re-executed state is not the log's. ``price_cap`` is ignored; callers
    pass the log header's value.
    """
    return _Replay(grid, require_dso_finalize=False).run(events)


def write_events_jsonl(path: str | Path, events: Iterable[LedgerEvent],
                       grid: GridModel, *, price_cap: float = 1.0) -> Path:
    """Write the audit log: a header record then one event per line.

    Each line is the record's canonical spelling: sorted keys, no spaces,
    floats in their shortest round-trip form, NumPy scalars as the numbers
    they hold. The contract refuses non-finite times and objectives, so no
    value reaches here that JSON cannot spell.
    """
    import orjson  # on first use, so that importing the ledger stays cheap

    if not math.isfinite(price_cap):
        raise ValueError(f"price_cap must be finite, got {price_cap}")
    path = Path(path)
    header = {"record": "header", "format": "gridtrade-events", "version": LOG_VERSION,
              "grid": grid.to_payload(), "price_cap": price_cap}
    dumps = orjson.dumps
    option = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY
    path.write_bytes(b"".join([dumps(header, option=option),
                               *(dumps(event.to_record(), option=option) for event in events)]))
    return path


def read_events_jsonl(path: str | Path) -> tuple[dict, list[LedgerEvent]]:
    """Read an audit log; a line that is not a JSON object (NaN and Infinity
    are not JSON), or a header that is not the first record or not the only
    one, raises ``ValueError`` naming its ``path:line``."""
    import orjson

    path = Path(path)
    events: list[LedgerEvent] = []
    header: dict | None = None
    with path.open("rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                record = orjson.loads(line)
            except orjson.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON ({exc})") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{line_no}: record is not an object")
            if record.get("record") == "header":
                if header is not None:
                    raise ValueError(f"{path}:{line_no}: second header record")
                if record.get("version") != LOG_VERSION:
                    raise ValueError(
                        f"{path}: log version {record.get('version')} is not supported; "
                        f"this reader reads version {LOG_VERSION}")
                header = record
            elif header is None:
                raise ValueError(f"{path}:{line_no}: record before the header")
            elif record.get("record") == "event":
                try:
                    events.append(LedgerEvent.from_record(record))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{line_no}: malformed event ({exc!r})") from None
            else:
                raise ValueError(f"{path}:{line_no}: unknown record type")
    if header is None:
        raise ValueError(f"{path}: missing header record")
    return header, events
