"""Simulated distributed-ledger contract for the exchange.

The contract is an event-sourced state machine: every public operation
validates its inputs, emits one or more totally ordered events, and applies
them. A log becomes state one way: it is re-executed through a fresh
contract, so the market rules are stated once, here and in ``market``.
``verify_log`` reports the first divergence; ``replay_events`` returns the
rebuilt state, or raises at that divergence.

The contract tracks the registry, the offer book, the best feasible
candidate solution seen so far, and the finalized (pinned) trades. The
candidate covers only open intervals: finalizing an interval moves its trades
from the candidate into the pins. The contract never accepts a solution that
violates the market constraints, so finalization can only ever draw from
safe candidates.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .market import (
    BUYING,
    SELLING,
    GridModel,
    MarketError,
    Offer,
    PinnedTrades,
    Side,
    Solution,
    VIOLATION_KINDS,
    check_feasibility,
    count,
    number,
    objective,
    whole_interval,
)

IMPROVEMENT_MARGIN = 1e-9

# Version 2 logs record solutions over open intervals only; version 1 logs
# restated every finalized trade in each accepted solution.
LOG_VERSION = 2
LOG_FORMAT = "gridtrade-events"
_HEADER_FIELDS = frozenset({"record", "format", "version", "grid", "price_cap"})


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


class InvalidArgument(ContractError):
    """A call argument of the wrong type: a participant name that is not a
    ``str`` or a submission that is not a ``Solution``."""


class LogFormatError(ValueError):
    """A line of an audit log that the reader refuses; names its ``path:line``."""


class Role(str, Enum):
    PROSUMER = "prosumer"
    SOLVER = "solver"
    DSO = "dso"


PROSUMER, DSO = Role.PROSUMER.value, Role.DSO.value  # as a registration records them


class EventKind(str, Enum):
    PROSUMER_REGISTERED = "ProsumerRegistered"
    OFFER_POSTED = "OfferPosted"
    SOLUTION_ACCEPTED = "SolutionAccepted"
    SOLUTION_REJECTED = "SolutionRejected"
    TRADE_FINALIZED = "TradeFinalized"
    INTERVAL_ADVANCED = "IntervalAdvanced"
    PARTICIPANT_REMOVED = "ParticipantRemoved"


# The kinds as plain strings, for the code that runs once an event: looking up
# an Enum member costs about ten times as much as a module global.
PROSUMER_REGISTERED = EventKind.PROSUMER_REGISTERED.value
OFFER_POSTED = EventKind.OFFER_POSTED.value
SOLUTION_ACCEPTED = EventKind.SOLUTION_ACCEPTED.value
SOLUTION_REJECTED = EventKind.SOLUTION_REJECTED.value
TRADE_FINALIZED = EventKind.TRADE_FINALIZED.value
INTERVAL_ADVANCED = EventKind.INTERVAL_ADVANCED.value
PARTICIPANT_REMOVED = EventKind.PARTICIPANT_REMOVED.value


class LedgerEvent(NamedTuple):
    """One appended event: an immutable tuple record.

    ``parsed`` is the outcome the contract decided, set by the contract that
    appends the event: the Offer of an OfferPosted event, the Solution of a
    SolutionAccepted event, the stripped candidate of a ParticipantRemoved
    event, or the pins and kept candidate of an IntervalAdvanced event; None
    for every other event and for events read from a log. The contract and
    each mirror that applies the event share this one object. It takes no
    part in equality or in the record: events are equal when their seq,
    time, kind and payload are.
    """

    seq: int
    time: float
    kind: str
    payload: dict
    parsed: Offer | Solution | tuple[dict, Solution] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LedgerEvent):
            return NotImplemented
        return self[:4] == other[:4]

    def __ne__(self, other: object) -> bool:  # tuple's own ``!=`` would compare ``parsed``
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def to_record(self) -> dict:
        return {"record": "event", "seq": self.seq, "time": self.time,
                "kind": self.kind, "payload": self.payload}

    @classmethod
    def from_record(cls, record: Mapping) -> "LedgerEvent":
        seq, time, payload = record["seq"], record["time"], record["payload"]
        if type(seq) is not int:
            raise TypeError(f"seq is {seq!r}, not an integer")
        if type(time) is not float:
            time = number("time", time)
        if type(payload) is not dict:
            raise TypeError(f"payload is a {type(payload).__name__}, not an object")
        kind = record["kind"]
        if type(kind) is not str:
            kind = str(kind)
        return tuple.__new__(cls, (seq, time, kind, payload, None))  # no second pass over them


class ContractState:
    """Mutable contract state; every mutation goes through ``apply``.

    ``book`` holds every offer not withdrawn, in posting order: the one
    offer store. ``open_offers`` is the part of the book that can still
    trade: offers whose window ends after ``pinned.finalized_through``. Both
    are kept up to date by ``apply``, so neither is rebuilt from the day's
    history. ``retired`` holds the withdrawn offers.

    ``apply`` takes the events a contract appends, which carry the outcome
    the contract decided (``LedgerEvent.parsed``), and applies it as decided:
    nothing is parsed, split or recomputed here. Each handler reports whether
    the event changed what an LP reads (the open offers, the pins or the
    interval; a removal that withdraws no open offer does not), and
    ``lp_head`` is the last event that did, or a marker of this state's own
    before any. A log read from disk becomes state only by re-execution,
    through ``replay_events``.
    """

    def __init__(self, grid: GridModel):
        self.grid = grid
        self.participants: dict[str, dict] = {}
        self.book: dict[int, Offer] = {}
        self.open_offers: dict[int, Offer] = {}
        self.retired: dict[int, Offer] = {}
        self.candidate: Solution = Solution.empty()
        self.candidate_objective: float = 0.0
        self.pinned = PinnedTrades(grid.clearing_lead - 1)
        self.current_interval: int = 0
        self.next_offer_id: int = 1
        self.lp_head: object = object()

    def apply(self, event: LedgerEvent) -> None:
        self._apply(event, event.kind, event.payload, event.parsed)

    def _apply(self, event: LedgerEvent, kind: str, payload: dict,
               parsed: Offer | Solution | tuple[dict, Solution] | None) -> None:
        try:
            handler = self._HANDLERS[kind]
        except (KeyError, TypeError):  # TypeError: a kind that is not even hashable
            raise ValueError(f"unknown event kind {kind!r}") from None
        if handler(self, payload, parsed):
            self.lp_head = event

    def improves(self, value: float) -> bool:
        """The one rule for when a solution of objective ``value`` beats the candidate."""
        return value > self.candidate_objective + IMPROVEMENT_MARGIN

    def _registered(self, payload: dict, parsed: None) -> bool:
        self.participants[payload["participant"]] = {
            "role": payload["role"], "feeder": payload["feeder"]}
        return False

    def _offer_posted(self, payload: dict, offer: Offer) -> bool:
        oid = offer.id
        self.book[oid] = offer
        if oid >= self.next_offer_id:
            self.next_offer_id = oid + 1
        if offer.end > self.pinned.finalized_through:
            self.open_offers[oid] = offer
            return True
        return False

    def _solution_accepted(self, payload: dict, solution: Solution) -> bool:
        self.candidate = solution
        self.candidate_objective = float(payload["objective"])
        return False

    def _unchanged(self, payload: dict, parsed: None) -> bool:
        """A rejection changes nothing, and a ``TradeFinalized`` records a
        trade that its interval's ``IntervalAdvanced`` pins."""
        return False

    def _interval_advanced(self, payload: dict, decided: tuple[dict, Solution]) -> bool:
        fin = payload["finalized_interval"]
        due, self.candidate = decided
        self.pinned.pin(fin, due)
        self.candidate_objective = objective(self.candidate)
        self.open_offers = {oid: offer for oid, offer in self.open_offers.items()
                            if offer.end > fin}
        self.current_interval = payload["interval"]
        return True

    def _participant_removed(self, payload: dict, stripped: Solution) -> bool:
        withdrew = False
        for oid in payload["removed_offers"]:
            withdrew |= self.open_offers.pop(oid, None) is not None
            self.retired[oid] = self.book.pop(oid)
        self.candidate = stripped
        self.candidate_objective = float(payload["candidate_objective"])
        return withdrew

    _HANDLERS = {
        PROSUMER_REGISTERED: _registered,
        OFFER_POSTED: _offer_posted,
        SOLUTION_ACCEPTED: _solution_accepted,
        SOLUTION_REJECTED: _unchanged,
        TRADE_FINALIZED: _unchanged,
        INTERVAL_ADVANCED: _interval_advanced,
        PARTICIPANT_REMOVED: _participant_removed,
    }

    @property
    def selling(self) -> dict[int, Offer]:
        """The selling offers of ``book``, in posting order, as a new dict.
        Besides ``snapshot``, only the benchmark's fuzz reads this view; it
        goes when the benchmark harness is ported to ``book``."""
        return {oid: o for oid, o in self.book.items() if o.side is SELLING}

    @property
    def buying(self) -> dict[int, Offer]:
        """The buying offers of ``book``, in posting order, as a new dict.
        Besides ``snapshot``, only the benchmark's fuzz reads this view; it
        goes when the benchmark harness is ported to ``book``."""
        return {oid: o for oid, o in self.book.items() if o.side is BUYING}

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


def _offer_payload(offer: Offer) -> dict:
    return {
        "offer_id": offer.id,
        "participant": offer.prosumer,
        "side": offer.side._value_,  # ``.value`` is a property, several times slower
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
        """All events with sequence number greater than ``seq``, in order.

        ``seq`` is an integer of at least 0 (NumPy's included, a ``bool`` or
        ``1.0`` not); anything else raises ``ValueError``.
        """
        if type(seq) is not int or seq < 0:  # an exact int of at least 0 is the common case
            seq = count("seq", seq, 0)
        return self._events[seq:]

    def _append(self, kind: str, payload: dict, time: float,
                parsed: Offer | Solution | tuple[dict, Solution] | None = None) -> LedgerEvent:
        if not (type(time) is float and math.isfinite(time)):
            try:
                time = number("time", time)
            except ValueError as exc:
                raise InvalidQuantity(str(exc)) from None
        event = LedgerEvent(len(self._events) + 1, time, kind, payload, parsed)
        self.state.apply(event)
        self._events.append(event)
        return event

    def _registration(self, participant: str) -> dict | None:
        """``participant``'s registration or None; a non-``str`` name raises ``InvalidArgument``."""
        if not isinstance(participant, str):
            raise InvalidArgument(f"participant must be a str, got {participant!r}")
        return self.state.participants.get(participant)

    def register(self, participant: str, role: Role | str, feeder: str | None = None,
                 *, time: float = 0.0) -> LedgerEvent:
        """A prosumer names its feeder; others may. A named feeder must exist."""
        if self._registration(participant) is not None:
            raise DuplicateRegistration(f"{participant} is already registered")
        try:
            role = Role(role)
        except ValueError:
            raise ContractError(f"role must be prosumer, solver or dso, got {role!r}") from None
        if feeder is None:
            if role is Role.PROSUMER:
                raise UnknownFeeder("prosumers must register with a feeder")
        elif feeder not in self.state.grid.feeder_limits():
            raise UnknownFeeder(f"feeder {feeder!r} does not exist")
        return self._append(PROSUMER_REGISTERED, {
            "participant": participant, "role": role.value, "feeder": feeder}, time)

    def post_offer(self, participant: str, side: Side | str, start: int, end: int,
                   energy_kwh: float, reservation_price: float | None = None,
                   *, time: float = 0.0) -> LedgerEvent:
        info = self._registration(participant)
        if info is None:
            raise NotRegistered(f"{participant} is not registered")
        if info["role"] != PROSUMER:
            raise NotAuthorized(f"{participant} is a {info['role']}; only prosumers post offers")
        try:
            offer = Offer(self.state.next_offer_id, side, participant, info["feeder"],
                          energy_kwh, start, end, reservation_price)
        except ValueError as exc:
            raise InvalidQuantity(str(exc)) from None
        earliest = self.state.current_interval + self.state.grid.clearing_lead
        if offer.start < earliest:
            raise StaleInterval(
                f"start {offer.start} precedes earliest open interval {earliest}")
        return self._append(OFFER_POSTED, _offer_payload(offer), time, offer)

    def submit_solution(self, participant: str, solution: Solution,
                        *, time: float = 0.0) -> LedgerEvent:
        if self._registration(participant) is None:
            raise NotRegistered(f"{participant} is not registered")
        if type(solution) is not Solution:  # only its constructor checks trade values
            raise InvalidArgument(
                f"a submission must be a Solution, got a {type(solution).__name__}")
        try:
            report = self.state.feasibility(solution)
            value = objective(solution)
        except MarketError as exc:
            return self._append(SOLUTION_REJECTED, {
                "participant": participant, "reason": f"invalid: {exc}"}, time)
        if not math.isfinite(value):  # finite trades whose sum overflows
            return self._append(SOLUTION_REJECTED, {
                "participant": participant, "reason": "invalid: objective is not finite"}, time)
        if not report.ok:
            kinds = sorted({v.kind for v in report.violations})
            return self._append(SOLUTION_REJECTED, {
                "participant": participant,
                "reason": "infeasible: " + ", ".join(kinds),
                "objective": value}, time)
        if not self.state.improves(value):
            return self._append(SOLUTION_REJECTED, {
                "participant": participant, "reason": "not-better",
                "objective": value}, time)
        return self._append(SOLUTION_ACCEPTED, {
            "participant": participant, "objective": value,
            "trades": solution.to_payload()}, time, solution)

    def finalize(self, caller: str | None, interval: int,
                 *, time: float = 0.0) -> list[LedgerEvent]:
        """Pin the trades for ``interval + clearing_lead`` from the candidate,
        split once here: the ``IntervalAdvanced`` event carries the split.

        ``interval`` is taken as an offer's window is: a whole number, made
        an ``int``; a ``bool``, a fraction or a non-number is refused.
        """
        if self.require_dso_finalize:
            info = None if caller is None else self._registration(caller)
            if info is None or info["role"] != DSO:
                raise NotAuthorized("finalization requires the grid operator")
        if type(interval) is not int:
            try:
                interval = whole_interval("finalize: interval", interval)
            except ValueError as exc:
                raise InvalidQuantity(str(exc)) from None
        if interval < self.state.current_interval:
            raise AlreadyFinalized(f"interval {interval} was already finalized")
        if interval > self.state.current_interval:
            raise ContractError(
                f"interval {interval} is not current ({self.state.current_interval})")

        fin = interval + self.state.grid.clearing_lead
        due, kept = self.state.candidate.split(fin)
        events = [self._append(TRADE_FINALIZED, {
            "buy_offer": b_id, "sell_offer": s_id, "interval": fin,
            "power_kw": power, "price": price}, time)
            for (s_id, b_id), (power, price) in due.items() if power > 0.0]
        events.append(self._append(INTERVAL_ADVANCED, {
            "interval": interval + 1, "finalized_interval": fin,
            "trade_count": len(events)}, time, (due, kept)))
        return events

    def remove_participant_trades(self, participant: str,
                                  *, time: float = 0.0) -> list[LedgerEvent]:
        """Withdraw a failed participant's offers and non-finalized trades."""
        if self._registration(participant) is None:
            raise NotRegistered(f"{participant} is not registered")
        removed = sorted(
            oid for oid, offer in self.state.book.items() if offer.prosumer == participant)
        stripped = self.state.candidate.without_offers(set(removed))
        return [self._append(PARTICIPANT_REMOVED, {
            "participant": participant,
            "removed_offers": removed,
            "candidate_objective": objective(stripped)}, time, stripped)]


class _Divergence(Exception):
    """The log parts from its re-execution: ``(seq, detail)``."""


class _Replay(Contract):
    """A contract that re-executes a recorded log: each event an operation
    would append must equal the next recorded one in seq, kind, time and
    payload. The state applies the contract's own payload and the outcome the
    operation decided; the recorded events are left as they are.
    The log is consumed one event at a time: ``head`` is the next recorded
    event (None past the end), read as the one before it matches."""

    def run(self, events: Iterable[LedgerEvent]) -> list[str]:
        self.rest, self.pos, last_time = iter(events), 0, -math.inf
        self.head = next(self.rest, None)
        try:
            while (event := self.head) is not None:
                time = event.time
                if event.seq != self.pos + 1:
                    raise _Divergence(event.seq, f"expected {self.pos + 1}")
                if not (math.isfinite(time) and time >= last_time):
                    raise _Divergence(event.seq, f"time {time} went backwards or is not finite")
                last_time = time
                try:
                    operation = self._OPERATIONS[event.kind]
                except (KeyError, TypeError):  # TypeError: a kind that is not even hashable
                    raise _Divergence(event.seq, f"unknown event kind {event.kind!r}") from None
                operation(self, event.payload, time)
        except LogFormatError:
            raise
        except _Divergence as exc:
            return ["seq {}: {}".format(*exc.args)]
        except (ContractError, MarketError, AttributeError, KeyError, TypeError,
                ValueError) as exc:  # the operation refused the recorded values
            return [f"seq {event.seq}: {event.kind} refused ({type(exc).__name__}: {exc})"]
        finally:
            close = getattr(self.rest, "close", None)  # a log's file closes when verify stops
            if close is not None:
                close()
        return []

    # The operation that appends each kind of event, run on the recorded payload.

    def _post(self, payload: dict, time: float) -> None:
        self.post_offer(payload["participant"], payload["side"], payload["start"],
                        payload["end"], payload["energy_kwh"], payload["reservation_price"],
                        time=time)

    def _submit(self, payload: dict, time: float) -> None:
        self.submit_solution(payload["participant"], Solution.from_payload(payload["trades"]),
                             time=time)

    def _finalize(self, payload: dict, time: float) -> None:
        self.finalize(None, self.state.current_interval, time=time)

    def _register(self, payload: dict, time: float) -> None:
        self.register(payload["participant"], payload["role"], payload["feeder"], time=time)

    def _remove(self, payload: dict, time: float) -> None:
        self.remove_participant_trades(payload["participant"], time=time)

    def _advance(self) -> None:
        self.pos += 1
        self.head = next(self.rest, None)

    def _append(self, kind: str, payload: dict, time: float,
                parsed: Offer | Solution | tuple[dict, Solution] | None = None) -> LedgerEvent:
        event = self.head
        if event is None:
            raise _Divergence(self.pos + 1, f"the log ends; the contract records {kind}")
        if event.seq != self.pos + 1 or event.kind != kind or event.time != time:
            detail = f" ({payload['reason']})" if "reason" in payload else ""
            raise _Divergence(event.seq, f"{event.kind} at {event.time}; the contract records "
                                         f"{kind} at {time}{detail}")
        if event.payload != payload:
            field = next(key for key in {**event.payload, **payload}
                         if event.payload.get(key, ...) != payload.get(key, ...))
            raise _Divergence(event.seq, f"{event.kind} {field} is {event.payload.get(field)!r}, "
                                         f"the contract records {payload.get(field)!r}")
        self.state._apply(event, kind, payload, parsed)
        self._advance()
        return event

    def _check_rejection(self, payload: dict, time: float) -> None:
        """A rejection records no solution, so it is checked, not re-executed."""
        event = self.head
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
        elif reason == "not-better" and self.state.improves(value):
            problem = "not-better objective beats the candidate"
        else:
            self._advance()
            return
        raise _Divergence(event.seq, f"SolutionRejected {problem}")

    _OPERATIONS = {
        PROSUMER_REGISTERED: _register,
        OFFER_POSTED: _post,
        SOLUTION_ACCEPTED: _submit,
        SOLUTION_REJECTED: _check_rejection,
        TRADE_FINALIZED: _finalize,
        INTERVAL_ADVANCED: _finalize,
        PARTICIPANT_REMOVED: _remove,
    }


def replay_events(grid: GridModel, events: Iterable[LedgerEvent]) -> ContractState:
    """Rebuild contract state by re-executing a log, as ``verify_log`` does.

    Raises ``ValueError`` naming the first divergence, or the reader's
    ``LogFormatError`` for a line it refuses.
    """
    replay = _Replay(grid, require_dso_finalize=False)
    problems = replay.run(events)
    if problems:
        raise ValueError(problems[0])
    return replay.state


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
    re-executed state is not the log's. A line the reader refuses raises its
    ``LogFormatError``. ``events`` is consumed one event at a time and closed
    (if it can be) when verification stops. ``price_cap`` is ignored; callers
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

    number("price_cap", price_cap, 0.0)
    path = Path(path)
    header = {"record": "header", "format": LOG_FORMAT, "version": LOG_VERSION,
              "grid": grid.to_payload(), "price_cap": price_cap}
    dumps = orjson.dumps
    option = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY
    # Each line goes out as it is made: orjson reserves about 1 KB for every
    # bytes object it returns, so joining the lines would hold 1 KB an event.
    # Renaming the whole log over ``path`` leaves no partial log there.
    partial = path.with_name(path.name + ".partial")
    try:
        with partial.open("wb") as fh:
            fh.write(dumps(header, option=option))
            for event in events:
                fh.write(dumps(event.to_record(), option=option))
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return path


def _check_header(where: str, header: dict) -> None:
    """Refuse a header the writer would not write, naming ``where`` it is."""
    if header.keys() != _HEADER_FIELDS:
        problem = f"header fields are {sorted(header)}, not {sorted(_HEADER_FIELDS)}"
    elif type(header["version"]) is not int:  # 2.0 equals the version but is not its spelling
        problem = f"version is {header['version']!r}, not {LOG_VERSION}"
    elif header["format"] != LOG_FORMAT:
        problem = f"format is {header['format']!r}, not {LOG_FORMAT!r}"
    else:
        try:
            number("price_cap", header["price_cap"], 0.0)
            GridModel.from_payload(header["grid"])
            return
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"price_cap or grid refused ({type(exc).__name__}: {exc})"
    raise LogFormatError(f"{where}: {problem}")


def read_events_jsonl(path: str | Path) -> tuple[dict, Iterator[LedgerEvent]]:
    """Read an audit log: the header, which must be the first record, now;
    each event as the iteration reaches its line. The header must be the
    writer's: its five fields, this format and version, a price cap
    ``write_events_jsonl`` takes and a grid ``GridModel.from_payload``
    takes. A line that is not a JSON object (NaN and Infinity are not
    JSON), a header that is not the writer's, an event with other fields
    than the writer's or malformed ones, or a second header raises
    ``LogFormatError`` naming its ``path:line``. The file closes when the
    events run out, when the iterator is closed (as ``verify_log`` and
    ``replay_events`` do when they stop) or dropped.
    """
    records = _records(Path(path))
    return next(records), records


def _records(path: Path) -> Iterator[dict | LedgerEvent]:
    """The header record, then each event; the file is open until this ends."""
    import orjson

    loads, from_record = orjson.loads, LedgerEvent.from_record
    header: dict | None = None
    with path.open("rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                record = loads(line)
            except orjson.JSONDecodeError as exc:
                raise LogFormatError(f"{path}:{line_no}: not valid JSON ({exc})") from None
            if type(record) is not dict:
                raise LogFormatError(f"{path}:{line_no}: record is not an object")
            kind = record.get("record")
            if kind == "event" and header is not None:  # every line after the header
                if len(record) != 5:  # "record" and the four from_record reads, no more
                    raise LogFormatError(f"{path}:{line_no}: event fields are {sorted(record)}, "
                                         "not record, seq, time, kind and payload")
                try:
                    event = from_record(record)
                except (KeyError, TypeError, ValueError) as exc:
                    raise LogFormatError(f"{path}:{line_no}: malformed event ({exc!r})") from None
                yield event
            elif header is None:
                if kind != "header":
                    raise LogFormatError(f"{path}:{line_no}: record before the header")
                if record.get("version") != LOG_VERSION:
                    raise LogFormatError(
                        f"{path}: log version {record.get('version')} is not supported; "
                        f"this reader reads version {LOG_VERSION}")
                _check_header(f"{path}:{line_no}", record)
                header = record
                yield header
            elif kind == "header":
                raise LogFormatError(f"{path}:{line_no}: second header record")
            else:
                raise LogFormatError(f"{path}:{line_no}: unknown record type")
    if header is None:
        raise LogFormatError(f"{path}: missing header record")

