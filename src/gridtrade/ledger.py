"""Simulated distributed-ledger contract for the exchange.

The contract is an event-sourced state machine: every public operation
validates its inputs, emits one or more totally ordered events, and applies
them. A log becomes state one way: it is re-executed through a fresh
contract, so the market rules are stated once, here and in ``market``.
``verify_log`` reports the first divergence; ``replay_events`` returns the
rebuilt state, or raises at that divergence.

The contract tracks the registry, both offer books, the best feasible
candidate solution seen so far, and the finalized (pinned) trades. The
candidate covers only open intervals: finalizing an interval moves its trades
from the candidate into the pins. The contract never accepts a solution that
violates the market constraints, so finalization can only ever draw from
safe candidates.
"""

from __future__ import annotations

import math
from enum import Enum
from numbers import Real
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .market import (
    SELLING,
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
    SolutionAccepted event, or the stripped candidate of a
    ParticipantRemoved event; None for every other event and for events read
    from a log. The contract and each mirror that applies the event share
    this one object. It takes no part in equality or in the record: events
    are equal when their seq, time, kind and payload are.
    """

    seq: int
    time: float
    kind: str
    payload: dict
    parsed: Offer | Solution | None = None

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
        if type(time) is not float and type(time) is not int:  # a bool is no time
            raise TypeError(f"time is {time!r}, not a number")
        if type(payload) is not dict:
            raise TypeError(f"payload is a {type(payload).__name__}, not an object")
        return cls(seq, float(time), str(record["kind"]), payload)


class ContractState:
    """Mutable contract state; every mutation goes through ``apply``.

    ``book`` holds every offer not withdrawn, in posting order, and is
    ``selling`` and ``buying`` together. ``open_offers`` is the part of the
    book that can still trade: offers whose window ends after
    ``pinned.finalized_through``. Both are kept up to date by ``apply``, so
    neither is rebuilt from the day's history.

    ``apply`` takes the events a contract appends, which carry the offer,
    solution or stripped candidate the contract decided on, and applies it as
    decided: nothing is parsed or recomputed here. An ``IntervalAdvanced``
    pins the candidate's trades at the finalized interval in the pass that
    keeps the rest; ``TradeFinalized`` changes nothing. A log read from disk
    becomes state only by re-execution, through ``replay_events``.
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

    def apply(self, event: LedgerEvent) -> None:
        self._apply(event.kind, event.payload, event.parsed)

    def _apply(self, kind: str, payload: dict, parsed: Offer | Solution | None) -> None:
        try:
            handler = self._HANDLERS[kind]
        except (KeyError, TypeError):  # TypeError: a kind that is not even hashable
            raise ValueError(f"unknown event kind {kind!r}") from None
        handler(self, payload, parsed)

    def _registered(self, payload: dict, parsed: None) -> None:
        self.participants[payload["participant"]] = {
            "role": payload["role"], "feeder": payload["feeder"]}

    def _offer_posted(self, payload: dict, offer: Offer) -> None:
        oid = offer.id
        (self.selling if offer.side is SELLING else self.buying)[oid] = offer
        self.book[oid] = offer
        if offer.end > self.pinned.finalized_through:
            self.open_offers[oid] = offer
        if oid >= self.next_offer_id:
            self.next_offer_id = oid + 1

    def _solution_accepted(self, payload: dict, solution: Solution) -> None:
        self.candidate = solution
        self.candidate_objective = float(payload["objective"])

    def _unchanged(self, payload: dict, parsed: None) -> None:
        """A rejection changes nothing, and a ``TradeFinalized`` records a
        trade that its interval's ``IntervalAdvanced`` pins."""

    def _interval_advanced(self, payload: dict, parsed: None) -> None:
        fin = payload["finalized_interval"]
        due, self.candidate = self.candidate.split(fin)
        self.pinned.pin(fin, due)
        self.candidate_objective = objective(self.candidate)
        self.open_offers = {oid: offer for oid, offer in self.open_offers.items()
                            if offer.end > fin}
        self.current_interval = payload["interval"]

    def _participant_removed(self, payload: dict, stripped: Solution) -> None:
        for oid in payload["removed_offers"]:
            offer = self.book.pop(oid)
            del (self.selling if offer.side is SELLING else self.buying)[oid]
            self.open_offers.pop(oid, None)
            self.retired[oid] = offer
        self.candidate = stripped
        self.candidate_objective = float(payload["candidate_objective"])

    _HANDLERS = {
        PROSUMER_REGISTERED: _registered,
        OFFER_POSTED: _offer_posted,
        SOLUTION_ACCEPTED: _solution_accepted,
        SOLUTION_REJECTED: _unchanged,
        TRADE_FINALIZED: _unchanged,
        INTERVAL_ADVANCED: _interval_advanced,
        PARTICIPANT_REMOVED: _participant_removed,
    }

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
        """All events with sequence number greater than ``seq``, in order."""
        if seq < 0:
            raise ValueError("seq must be non-negative")
        return self._events[seq:]

    def _append(self, kind: str, payload: dict, time: float,
                parsed: Offer | Solution | None = None) -> LedgerEvent:
        if not ((type(time) is float or isinstance(time, Real)) and math.isfinite(time)):
            raise InvalidQuantity(f"time must be a finite number, got {time}")
        event = LedgerEvent(len(self._events) + 1, float(time), kind, payload, parsed)
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
        return self._append(PROSUMER_REGISTERED, {
            "participant": participant, "role": role.value, "feeder": feeder}, time)

    def post_offer(self, participant: str, side: Side | str, start: int, end: int,
                   energy_kwh: float, reservation_price: float | None = None,
                   *, time: float = 0.0) -> LedgerEvent:
        info = self.state.participants.get(participant)
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
        if participant not in self.state.participants:
            raise NotRegistered(f"{participant} is not registered")
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
        if value <= self.state.candidate_objective + IMPROVEMENT_MARGIN:
            return self._append(SOLUTION_REJECTED, {
                "participant": participant, "reason": "not-better",
                "objective": value}, time)
        return self._append(SOLUTION_ACCEPTED, {
            "participant": participant, "objective": value,
            "trades": solution.to_payload()}, time, solution)

    def finalize(self, caller: str | None, interval: int,
                 *, time: float = 0.0) -> list[LedgerEvent]:
        """Pin the trades for ``interval + clearing_lead`` from the candidate."""
        if self.require_dso_finalize:
            info = self.state.participants.get(caller) if caller else None
            if info is None or info["role"] != DSO:
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
                events.append(self._append(TRADE_FINALIZED, {
                    "buy_offer": b_id, "sell_offer": s_id, "interval": t,
                    "power_kw": power, "price": price}, time))
        events.append(self._append(INTERVAL_ADVANCED, {
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
                parsed: Offer | Solution | None = None) -> LedgerEvent:
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
        self.state._apply(kind, payload, parsed)
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
        elif reason == "not-better" and value > self.state.candidate_objective + IMPROVEMENT_MARGIN:
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

    if not _is_price_cap(price_cap):
        raise ValueError(f"price_cap must be a non-negative finite number, got {price_cap!r}")
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


def _is_price_cap(value) -> bool:
    """True for a non-negative finite number; a ``bool`` is not one."""
    return isinstance(value, Real) and type(value) is not bool and 0 <= value < math.inf


def _check_header(where: str, header: dict) -> None:
    """Refuse a header the writer would not write, naming ``where`` it is."""
    if header.keys() != _HEADER_FIELDS:
        problem = f"header fields are {sorted(header)}, not {sorted(_HEADER_FIELDS)}"
    elif type(header["version"]) is not int:  # 2.0 equals the version but is not its spelling
        problem = f"version is {header['version']!r}, not {LOG_VERSION}"
    elif header["format"] != LOG_FORMAT:
        problem = f"format is {header['format']!r}, not {LOG_FORMAT!r}"
    elif not _is_price_cap(header["price_cap"]):
        problem = f"price_cap is {header['price_cap']!r}, not a non-negative finite number"
    else:
        try:
            GridModel.from_payload(header["grid"])
            return
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"grid refused ({type(exc).__name__}: {exc})"
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

    header: dict | None = None
    with path.open("rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                record = orjson.loads(line)
            except orjson.JSONDecodeError as exc:
                raise LogFormatError(f"{path}:{line_no}: not valid JSON ({exc})") from None
            if not isinstance(record, dict):
                raise LogFormatError(f"{path}:{line_no}: record is not an object")
            kind = record.get("record")
            if header is None:
                if kind != "header":
                    raise LogFormatError(f"{path}:{line_no}: record before the header")
                if record.get("version") != LOG_VERSION:
                    raise LogFormatError(
                        f"{path}: log version {record.get('version')} is not supported; "
                        f"this reader reads version {LOG_VERSION}")
                _check_header(f"{path}:{line_no}", record)
                header = record
                yield header
            elif kind == "event":
                if len(record) != 5:  # "record" and the four from_record reads, no more
                    raise LogFormatError(f"{path}:{line_no}: event fields are {sorted(record)}, "
                                         "not record, seq, time, kind and payload")
                try:
                    event = LedgerEvent.from_record(record)
                except (KeyError, TypeError, ValueError) as exc:
                    raise LogFormatError(f"{path}:{line_no}: malformed event ({exc!r})") from None
                yield event
            elif kind == "header":
                raise LogFormatError(f"{path}:{line_no}: second header record")
            else:
                raise LogFormatError(f"{path}:{line_no}: unknown record type")
    if header is None:
        raise LogFormatError(f"{path}: missing header record")

