"""Simulated distributed-ledger contract for the exchange.

The contract is an event-sourced state machine: every public operation
validates its inputs, emits one or more totally ordered events, and applies
them. Replaying the event stream from an empty state reconstructs the
contract exactly, which is what the audit tooling relies on.

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
    Feeder,
    MarketError,
    Offer,
    PinnedTrades,
    Side,
    Solution,
    check_feasibility,
    objective,
)

IMPROVEMENT_MARGIN = 1e-9

# Version 2 logs record solutions over open intervals only; version 1 logs
# restated every finalized trade in each accepted solution.
LOG_VERSION = 2

OPERATOR_FEEDER_ID = "__operator__"
OPERATOR_FEEDER = Feeder(OPERATOR_FEEDER_ID, 1e12, 1e12)


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
        ``post_offer`` makes on its quantities and window. Every state that
        applies the event (the contract and each mirror) shares this one
        frozen ``Offer``. The cache takes no part in equality or in the
        record.
        """
        if self._parsed is not None:
            return self._parsed
        payload = self.payload
        offer = Offer(
            id=int(payload["offer_id"]),
            side=Side(payload["side"]),
            prosumer=str(payload["participant"]),
            feeder=str(payload["feeder"]),
            energy_kwh=_energy(payload["energy_kwh"]),
            start=_interval("start", payload["start"]),
            end=_interval("end", payload["end"]),
            reservation_price=_price(payload.get("reservation_price")),
        )
        object.__setattr__(self, "_parsed", offer)
        return offer

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
        return cls(int(record["seq"]), float(record["time"]),
                   str(record["kind"]), dict(record["payload"]))


class ContractState:
    """Mutable contract state; every mutation goes through ``apply``.

    ``book`` holds every offer not withdrawn, in posting order, and is
    ``selling`` and ``buying`` together. ``open_offers`` is the part of the
    book that can still trade: offers whose window ends after
    ``pinned.finalized_through``. Both are kept up to date by ``apply``, so
    neither is rebuilt from the day's history.
    """

    def __init__(self, grid: GridModel, *, price_cap: float = 1.0):
        self.grid = grid.with_feeder(OPERATOR_FEEDER)
        self.price_cap = price_cap
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


def _interval(name: str, value) -> int:
    """``value`` as an interval index; refuses NaN, inf and fractions."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidQuantity(f"{name} must be a whole interval, got {value}")


def _energy(value) -> float:
    """``value`` as an offer's energy; refuses non-numbers, NaN, inf and <= 0.

    A float is let through before the ``Real`` check, which costs several
    times more and runs for every offer a log holds.
    """
    if not ((type(value) is float or isinstance(value, Real)) and 0 < value < math.inf):
        raise InvalidQuantity(f"energy must be positive and finite, got {value}")
    return float(value)


def _price(value) -> float | None:
    """``value`` as a reservation price; None means any price."""
    if value is None:
        return None
    if not ((type(value) is float or isinstance(value, Real)) and 0 <= value < math.inf):
        raise InvalidQuantity(
            f"reservation price must be non-negative and finite, got {value}")
    return float(value)


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

    def __init__(self, grid: GridModel, *, price_cap: float = 1.0,
                 require_dso_finalize: bool = True):
        self.state = ContractState(grid, price_cap=price_cap)
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
        role = Role(role)
        if participant in self.state.participants:
            raise DuplicateRegistration(f"{participant} is already registered")
        if feeder is None:
            if role is Role.PROSUMER:
                raise UnknownFeeder("prosumers must register with a feeder")
            feeder = OPERATOR_FEEDER_ID
        if feeder not in self.state.grid.feeder_limits():
            raise UnknownFeeder(f"feeder {feeder!r} does not exist")
        return self._append(EventKind.PROSUMER_REGISTERED, {
            "participant": participant, "role": role.value, "feeder": feeder}, time)

    def post_offer(self, participant: str, side: Side | str, start: int, end: int,
                   energy_kwh: float, reservation_price: float | None = None,
                   *, time: float = 0.0) -> LedgerEvent:
        try:
            side = Side(side)
        except ValueError:
            raise InvalidQuantity(f"side must be buying or selling, got {side!r}") from None
        info = self.state.participants.get(participant)
        if info is None:
            raise NotRegistered(f"{participant} is not registered")
        energy = _energy(energy_kwh)
        start, end = _interval("start", start), _interval("end", end)
        if start > end:
            raise InvalidQuantity(f"start {start} exceeds end {end}")
        price = _price(reservation_price)
        earliest = self.state.current_interval + self.state.grid.clearing_lead
        if start < earliest:
            raise StaleInterval(
                f"start {start} precedes earliest open interval {earliest}")
        offer = Offer(self.state.next_offer_id, side, participant, info["feeder"],
                      energy, start, end, price)
        payload = {
            "offer_id": offer.id,
            "participant": participant,
            "side": side.value,
            "feeder": offer.feeder,
            "energy_kwh": offer.energy_kwh,
            "start": start,
            "end": end,
            "reservation_price": price,
        }
        return self._append(EventKind.OFFER_POSTED, payload, time, offer)

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


def replay_events(grid: GridModel, events: Iterable[LedgerEvent],
                  *, price_cap: float = 1.0) -> ContractState:
    """Rebuild contract state by applying events in order."""
    state = ContractState(grid, price_cap=price_cap)
    for event in events:
        state.apply(event)
    return state


def verify_log(grid: GridModel, events: Iterable[LedgerEvent],
               *, price_cap: float = 1.0) -> list[str]:
    """Re-validate every transition in an event log.

    Returns a list of problems; an empty list means the log is a valid
    history: gapless sequence, offers posted in open intervals, accepted
    solutions feasible, strictly improving and covering open intervals
    only, finalized trades drawn exactly from the candidate, and each
    interval advance counting the trades it finalized.
    """
    problems: list[str] = []
    state = ContractState(grid, price_cap=price_cap)
    expected_seq = 1
    last_time = float("-inf")
    pending_fin: dict[tuple[int, int], tuple[float, float]] = {}
    finalized_count = 0

    for event in events:
        if event.seq != expected_seq:
            problems.append(f"seq {event.seq}: expected {expected_seq}")
        expected_seq = event.seq + 1
        if event.time < last_time:
            problems.append(f"seq {event.seq}: time went backwards")
        last_time = event.time
        payload = event.payload

        try:  # a payload field of the wrong type, such as a string objective
            if event.kind == EventKind.PROSUMER_REGISTERED:
                if payload["participant"] in state.participants:
                    problems.append(f"seq {event.seq}: duplicate registration")
                if payload["feeder"] not in state.grid.feeder_limits():
                    problems.append(f"seq {event.seq}: unknown feeder")
            elif event.kind == EventKind.OFFER_POSTED:
                try:
                    offer = event.offer
                except Exception as exc:  # a malformed payload, such as a string energy
                    problems.append(f"seq {event.seq}: malformed offer ({exc})")
                    break
                if offer.prosumer not in state.participants:
                    problems.append(f"seq {event.seq}: offer from unregistered participant")
                if payload["offer_id"] != state.next_offer_id:
                    problems.append(f"seq {event.seq}: offer id out of order")
                if offer.start < state.current_interval + state.grid.clearing_lead:
                    problems.append(f"seq {event.seq}: offer for closed interval")
            elif event.kind == EventKind.SOLUTION_ACCEPTED:
                try:
                    solution = event.solution
                    report = state.feasibility(solution)
                except MarketError as exc:
                    problems.append(f"seq {event.seq}: accepted invalid solution ({exc})")
                else:
                    if not report.ok:
                        kinds = sorted({v.kind for v in report.violations})
                        problems.append(
                            f"seq {event.seq}: accepted infeasible solution ({', '.join(kinds)})")
                    value = objective(solution)
                    if abs(value - payload["objective"]) > 1e-9:
                        problems.append(f"seq {event.seq}: recorded objective mismatch")
                    if value <= state.candidate_objective + IMPROVEMENT_MARGIN:
                        problems.append(f"seq {event.seq}: accepted non-improving solution")
            elif event.kind == EventKind.TRADE_FINALIZED:
                key = (int(payload["sell_offer"]), int(payload["buy_offer"]),
                       int(payload["interval"]))
                if payload["interval"] != state.current_interval + state.grid.clearing_lead:
                    problems.append(f"seq {event.seq}: finalized wrong interval")
                if state.pinned.is_pinned(int(payload["interval"])):
                    problems.append(f"seq {event.seq}: finalized an already pinned interval")
                want = state.candidate.power(key)
                if want != payload["power_kw"]:
                    problems.append(
                        f"seq {event.seq}: finalized power differs from candidate")
                pending_fin[key[:2]] = (payload["power_kw"], payload["price"])
                finalized_count += 1
            elif event.kind == EventKind.INTERVAL_ADVANCED:
                fin = int(payload["finalized_interval"])
                if fin != state.current_interval + state.grid.clearing_lead:
                    problems.append(f"seq {event.seq}: advanced wrong interval")
                if int(payload["interval"]) != state.current_interval + 1:
                    problems.append(f"seq {event.seq}: interval advance is not sequential")
                expected_trades = {
                    key[:2]: value for key, value in state.candidate.items()
                    if key[2] == fin and value[0] > 0.0}
                if expected_trades != pending_fin:
                    problems.append(
                        f"seq {event.seq}: finalized trades do not match candidate")
                if payload["trade_count"] != finalized_count:
                    problems.append(
                        f"seq {event.seq}: trade count {payload['trade_count']} but "
                        f"{finalized_count} trades were finalized")
                pending_fin = {}
                finalized_count = 0
            elif event.kind == EventKind.PARTICIPANT_REMOVED:
                if payload["participant"] not in state.participants:
                    problems.append(f"seq {event.seq}: removed unknown participant")
                expected = sorted(
                    oid for oid, offer in state.book.items()
                    if offer.prosumer == payload["participant"])
                if expected != sorted(int(x) for x in payload["removed_offers"]):
                    problems.append(f"seq {event.seq}: removed offer set mismatch")
                stripped = state.candidate.without_offers(
                    set(int(x) for x in payload["removed_offers"]))
                if abs(objective(stripped) - payload["candidate_objective"]) > 1e-9:
                    problems.append(f"seq {event.seq}: post-removal objective mismatch")
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"seq {event.seq}: malformed event ({exc})")
            break

        try:
            state.apply(event)
        except Exception as exc:  # a malformed event, such as a fractional window
            problems.append(f"seq {event.seq}: apply failed ({exc})")
            break

    try:
        report = state.feasibility(state.candidate)
        if not report.ok:
            problems.append("final candidate is infeasible")
    except MarketError as exc:
        problems.append(f"final candidate is invalid ({exc})")
    return problems


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
