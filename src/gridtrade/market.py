"""Domain model for the forward energy market.

Offers commit energy over contiguous interval windows; a solution assigns
per-interval power and unit prices to matched sell/buy offer pairs. A
solution covers only open intervals: finalized (pinned) trades live in
:class:`PinnedTrades` alone. This module owns the validation rules that
every candidate solution must pass: no trade at a finalized interval,
per-offer energy budgets net of finalized energy, per-feeder power limits,
and reservation-price bands.

All values are plain floats: power in kW, energy in kWh, prices in $/kWh,
interval length in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real
from typing import Iterable, Iterator, Mapping, NamedTuple

TOLERANCE = 1e-9
VIOLATION_KINDS = frozenset(
    {"energy-seller", "energy-buyer", "feeder-net", "feeder-internal", "price-band"})

TradeKey = tuple[int, int, int]  # (sell offer id, buy offer id, interval)


class MarketError(Exception):
    """Base class for market domain errors."""


class UnknownOfferError(MarketError):
    """A solution references an offer id that is not in the book."""


class UnmatchablePairError(MarketError):
    """A solution pairs offers that cannot trade (price or window)."""


class InvalidTradeError(MarketError):
    """A trade value is negative or not a finite number."""


class Side(str, Enum):
    SELLING = "selling"
    BUYING = "buying"


# The members as module globals, for per-offer and per-trade code: looking up
# ``Side.SELLING`` goes through the Enum class and costs about ten times as much.
SELLING, BUYING = Side.SELLING, Side.BUYING


@dataclass(frozen=True)
class Feeder:
    """A distribution line segment with power limits.

    ``net_flow_limit_kw`` bounds the absolute net power flowing in or out of
    the feeder; ``internal_limit_kw`` bounds total production and total
    consumption inside the feeder, each separately.
    """

    id: str
    net_flow_limit_kw: float
    internal_limit_kw: float

    def __post_init__(self) -> None:
        for limit in (self.net_flow_limit_kw, self.internal_limit_kw):
            if not 0 <= limit < math.inf:
                raise ValueError(f"feeder {self.id}: limits must be non-negative and finite")


@dataclass(frozen=True)
class GridModel:
    """Static grid description plus the market's timing constants."""

    feeders: tuple[Feeder, ...]
    interval_hours: float
    clearing_lead: int  # intervals between finalization and delivery

    def __post_init__(self) -> None:
        object.__setattr__(self, "feeders", tuple(self.feeders))
        if not 0 < self.interval_hours < math.inf:
            raise ValueError("interval_hours must be positive and finite")
        if self.clearing_lead < 1:
            raise ValueError("clearing_lead must be at least 1")
        ids = [f.id for f in self.feeders]
        if len(set(ids)) != len(ids):
            raise ValueError("feeder ids must be unique")

    def feeder_limits(self) -> dict[str, Feeder]:
        return {f.id: f for f in self.feeders}

    def to_payload(self) -> dict:
        return {
            "feeders": [
                {"id": f.id, "net_flow_limit_kw": f.net_flow_limit_kw,
                 "internal_limit_kw": f.internal_limit_kw}
                for f in self.feeders
            ],
            "interval_hours": self.interval_hours,
            "clearing_lead": self.clearing_lead,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "GridModel":
        feeders = tuple(
            Feeder(f["id"], f["net_flow_limit_kw"], f["internal_limit_kw"])
            for f in payload["feeders"]
        )
        return cls(feeders, payload["interval_hours"], payload["clearing_lead"])


_SIDES = {side.value: side for side in Side}


def _whole(oid: int, name: str, value) -> int:
    """``value`` of field ``name`` of offer ``oid`` as an ``int`` interval index."""
    if not (isinstance(value, Real) and type(value) is not bool
            and -math.inf < value < math.inf and int(value) == value):
        raise ValueError(f"offer {oid}: {name} must be a whole interval, got {value!r}")
    return int(value)


def _real(oid: int, name: str, value) -> float:
    """``value`` of field ``name`` of offer ``oid`` as a ``float``."""
    if not isinstance(value, Real) or type(value) is bool:
        raise ValueError(f"offer {oid}: {name} must be a number, got {value!r}")
    return float(value)


class _OfferRecord(NamedTuple):
    id: int
    side: Side
    prosumer: str
    feeder: str
    energy_kwh: float
    start: int
    end: int
    reservation_price: float | None
    reservation: float


class Offer(_OfferRecord):
    """A forward offer to sell or buy energy: an immutable tuple record.

    The interval window is contiguous, ``[start, end]`` inclusive. An absent
    reservation price means "any price": 0 for sellers, unbounded for buyers.
    ``reservation`` is the effective price, with that default applied; it is
    derived at construction and is not an argument.

    ``__new__`` is the one check of an offer's values: it makes the side a
    ``Side``, the window ``int``s and the quantities ``float``s, and raises
    ``ValueError`` for anything else, NaN, inf, ``bool`` and fractions of an
    interval included. ``_make``, ``_replace`` and copying all go through it.
    """

    __slots__ = ()

    def __new__(cls, id: int, side: Side | str, prosumer: str, feeder: str,
                energy_kwh: float, start: int, end: int,
                reservation_price: float | None = None) -> "Offer":
        # Values of the right types skip the conversions; a logged side is a str.
        if type(side) is not Side:
            checked = _SIDES.get(side) if isinstance(side, str) else None
            if checked is None:
                raise ValueError(f"offer {id}: side must be buying or selling, got {side!r}")
            side = checked
        if not (type(start) is type(end) is int):
            start, end = _whole(id, "start", start), _whole(id, "end", end)
        if type(energy_kwh) is not float:
            energy_kwh = _real(id, "energy_kwh", energy_kwh)
        price = reservation_price
        if not (price is None or type(price) is float):
            price = _real(id, "reservation_price", price)
        if not 0 < energy_kwh < math.inf:
            raise ValueError(
                f"offer {id}: energy must be positive and finite, got {energy_kwh}")
        if start > end:
            raise ValueError(f"offer {id}: start {start} exceeds end {end}")
        if price is not None and not 0 <= price < math.inf:
            raise ValueError(
                f"offer {id}: reservation price must be non-negative and finite, got {price}")
        reservation = price if price is not None else 0.0 if side is SELLING else math.inf
        return tuple.__new__(cls, (id, side, prosumer, feeder, energy_kwh, start, end, price,
                                   reservation))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Offer":
        return cls(*iterable)

    def _replace(self, **changes) -> "Offer":
        """A copy with ``changes``, checked as a new offer is; ``reservation``
        is derived, so changing it is refused."""
        return Offer(**{**dict(zip(self._fields, self[:8])), **changes})

    def __getnewargs__(self) -> tuple:
        return self[:8]  # copy and pickle rebuild through ``__new__``

    def covers(self, interval: int) -> bool:
        return self.start <= interval <= self.end


def matchable(sell: Offer, buy: Offer) -> bool:
    """True iff some price and some interval suit both offers."""
    if sell.side is not SELLING or buy.side is not BUYING:
        return False
    return (sell.reservation <= buy.reservation
            and max(sell.start, buy.start) <= min(sell.end, buy.end))


def _finite(value) -> bool:
    """True for a finite real number; a ``bool`` is not one."""
    return ((type(value) is float or isinstance(value, Real) and type(value) is not bool)
            and -math.inf < value < math.inf)


class Solution:
    """A sparse assignment of (power, price) to (sell, buy, interval) keys.

    Absent keys mean zero power. Instances are immutable; all iteration is
    in sorted key order so downstream arithmetic is deterministic.
    Construction is the one check of a trade's values: keys must be triples
    of ``int`` (not ``bool``, not ``float``), power and price finite numbers
    (not ``bool``) and power non-negative; anything else raises
    ``InvalidTradeError``.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[TradeKey, tuple[float, float]] | None = None):
        entries = entries or {}
        for key in entries:
            if not (type(key) is tuple and len(key) == 3
                    and type(key[0]) is type(key[1]) is type(key[2]) is int):
                raise InvalidTradeError(
                    f"trade {key!r}: key must be three ints (sell offer, buy offer, interval)")
        cleaned: dict[TradeKey, tuple[float, float]] = {}
        isfinite = math.isfinite
        for key, value in sorted(entries.items()):
            power, price = value
            # A pair of floats, as the solver and the log reader give, is kept
            # as it is; any other value is checked as a number and converted.
            if type(power) is float and type(price) is float and type(value) is tuple:
                if not (isfinite(power) and isfinite(price)):
                    raise InvalidTradeError(f"trade {key}: values must be finite numbers")
            elif _finite(power) and _finite(price):
                value = (float(power), float(price))
            else:
                raise InvalidTradeError(f"trade {key}: values must be finite numbers")
            if power < 0:
                raise InvalidTradeError(f"trade {key}: power must be non-negative")
            cleaned[key] = value
        self._entries = cleaned

    @classmethod
    def empty(cls) -> "Solution":
        return cls({})

    def power(self, key: TradeKey) -> float:
        return self._entries.get(key, (0.0, 0.0))[0]

    def price(self, key: TradeKey) -> float | None:
        entry = self._entries.get(key)
        return None if entry is None else entry[1]

    def items(self) -> Iterator[tuple[TradeKey, tuple[float, float]]]:
        return iter(self._entries.items())

    def keys(self) -> Iterator[TradeKey]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"Solution({len(self._entries)} trades)"

    def without_offers(self, offer_ids: set[int]) -> "Solution":
        """Drop every trade touching ``offer_ids``."""
        return Solution({key: value for key, value in self._entries.items()
                         if key[0] not in offer_ids and key[1] not in offer_ids})

    def after(self, interval: int) -> "Solution":
        """The trades at intervals after ``interval``.

        The kept entries are already sorted and validated, so they are not
        checked again.
        """
        kept = Solution.__new__(Solution)
        kept._entries = {key: value for key, value in self._entries.items()
                         if key[2] > interval}
        return kept

    def to_payload(self) -> list[list]:
        return [[s, b, t, p, pi] for (s, b, t), (p, pi) in self._entries.items()]

    @classmethod
    def from_payload(cls, payload: Iterable[Iterable]) -> "Solution":
        """The solution a ``to_payload`` list spells; its values are checked
        as given, so a key spelled ``1.0`` or ``true`` is refused."""
        entries: dict[TradeKey, tuple[float, float]] = {}
        for s, b, t, p, pi in payload:
            key = (s, b, t)
            if key in entries:
                raise InvalidTradeError(f"trade {key}: duplicate key")
            entries[key] = (p, pi)
        return cls(entries)


def objective(solution: Solution) -> float:
    """Total traded power, summed over all trades and intervals (kW)."""
    return sum(power for _, (power, _) in solution.items())


class PinnedTrades:
    """Finalized trade values, immutable once written.

    ``finalized_through`` is the highest interval whose trades are locked;
    no solution may trade at or below it (absent keys are locked at zero).
    Pinned power is summed per offer as intervals are pinned, so budgets
    net of finalized energy cost no walk over the history.
    """

    __slots__ = ("_by_interval", "_power_by_offer", "finalized_through")

    def __init__(self, finalized_through: int = -1,
                 by_interval: Mapping[int, Mapping[tuple[int, int], tuple[float, float]]] | None = None):
        self.finalized_through = finalized_through
        self._by_interval: dict[int, dict[tuple[int, int], tuple[float, float]]] = {}
        self._power_by_offer: dict[int, float] = {}
        for interval, entries in sorted((by_interval or {}).items()):
            if interval > finalized_through:
                raise ValueError(f"interval {interval} beyond finalized_through")
            self._store(int(interval), entries)

    def _store(self, interval: int,
               entries: Mapping[tuple[int, int], tuple[float, float]]) -> None:
        kept = {(int(s), int(b)): (float(p), float(pi))
                for (s, b), (p, pi) in sorted(entries.items())}
        self._by_interval[interval] = kept
        for (s, b), (power, _) in kept.items():
            self._power_by_offer[s] = self._power_by_offer.get(s, 0.0) + power
            self._power_by_offer[b] = self._power_by_offer.get(b, 0.0) + power

    @classmethod
    def empty(cls) -> "PinnedTrades":
        return cls(-1)

    def entries(self, interval: int) -> dict[tuple[int, int], tuple[float, float]]:
        return dict(self._by_interval.get(interval, {}))

    def pin(self, interval: int, entries: Mapping[tuple[int, int], tuple[float, float]]) -> None:
        """Lock an interval's trades. Intervals must be pinned in order."""
        if interval != self.finalized_through + 1:
            raise ValueError(
                f"interval {interval} cannot be pinned; next is {self.finalized_through + 1}")
        kept = {key: value for key, value in entries.items() if value[0] > 0.0}
        if kept:
            self._store(interval, kept)
        self.finalized_through = interval

    def overlay(self) -> dict[TradeKey, tuple[float, float]]:
        """All pinned values keyed as solution entries."""
        out: dict[TradeKey, tuple[float, float]] = {}
        for interval in sorted(self._by_interval):
            for (s, b), value in self._by_interval[interval].items():
                out[(s, b, interval)] = value
        return out

    def energy(self, offer_id: int, interval_hours: float) -> float:
        """Pinned energy (kWh) already committed by one offer."""
        return self._power_by_offer.get(offer_id, 0.0) * interval_hours

    def copy(self) -> "PinnedTrades":
        return PinnedTrades(self.finalized_through, self._by_interval)

    def snapshot(self) -> dict:
        return {
            "finalized_through": self.finalized_through,
            "intervals": {
                str(t): [[s, b, p, pi] for (s, b), (p, pi) in sorted(self._by_interval[t].items())]
                for t in sorted(self._by_interval)
            },
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PinnedTrades):
            return NotImplemented
        return (self.finalized_through == other.finalized_through
                and self._by_interval == other._by_interval)


@dataclass(frozen=True)
class Violation:
    kind: str  # one of VIOLATION_KINDS
    subject: str
    detail: str
    excess: float = 0.0


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[Violation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def check_feasibility(
    solution: Solution,
    book: Mapping[int, Offer],
    grid: GridModel,
    pinned: PinnedTrades | None = None,
    *,
    tol: float = TOLERANCE,
) -> FeasibilityReport:
    """Validate a solution against the offer book, grid limits, and pins.

    Returns a report listing every violated constraint; energy budgets
    count each offer's finalized energy from ``pinned``. Raises
    ``MarketError`` for a trade at a finalized interval or on an unknown
    feeder, ``UnknownOfferError`` for offer ids not in the book,
    and ``UnmatchablePairError`` for keys pairing offers that cannot trade.
    Malformed trade values never reach it: ``Solution`` refuses them.
    """
    pinned = pinned or PinnedTrades.empty()
    feeders = grid.feeder_limits()
    delta = grid.interval_hours

    violations: list[Violation] = []
    sold: dict[int, float] = {}
    bought: dict[int, float] = {}
    production: dict[tuple[str, int], float] = {}
    consumption: dict[tuple[str, int], float] = {}

    finalized_through = pinned.finalized_through
    offer_of = book.get
    for (s_id, b_id, interval), (power, price) in solution.items():
        if interval <= finalized_through:
            raise MarketError(
                f"trade ({s_id},{b_id},{interval}) is at a finalized interval "
                f"(finalized through {finalized_through})")
        sell, buy = offer_of(s_id), offer_of(b_id)
        if sell is None or buy is None:
            raise UnknownOfferError(f"offer {s_id if sell is None else b_id} not in book")
        if not matchable(sell, buy):
            raise UnmatchablePairError(f"offers {s_id} and {b_id} are not matchable")
        if not (sell.start <= interval <= sell.end and buy.start <= interval <= buy.end):
            raise UnmatchablePairError(
                f"interval {interval} outside the shared window of {s_id} and {b_id}")
        s_feeder, b_feeder = sell.feeder, buy.feeder
        if s_feeder not in feeders or b_feeder not in feeders:
            raise MarketError(f"trade ({s_id},{b_id},{interval}) references unknown feeder")

        energy = power * delta
        at_sell, at_buy = (s_feeder, interval), (b_feeder, interval)
        sold[s_id] = sold.get(s_id, 0.0) + energy
        bought[b_id] = bought.get(b_id, 0.0) + energy
        production[at_sell] = production.get(at_sell, 0.0) + power
        consumption[at_buy] = consumption.get(at_buy, 0.0) + power

        if power > tol:
            if price < sell.reservation - tol or price > buy.reservation + tol:
                violations.append(Violation(
                    "price-band", f"({s_id},{b_id},{interval})",
                    f"price {price} outside [{sell.reservation}, {buy.reservation}]"))

    for kind, verb, used in (("energy-seller", "sold", sold), ("energy-buyer", "bought", bought)):
        for offer_id in sorted(used):
            total = used[offer_id] + pinned.energy(offer_id, delta)
            offered = book[offer_id].energy_kwh
            if total > offered + tol:
                violations.append(Violation(
                    kind, str(offer_id),
                    f"{verb} {total} kWh exceeds offered {offered}", total - offered))

    for feeder_id, interval in sorted(set(production) | set(consumption)):
        feeder = feeders[feeder_id]
        prod = production.get((feeder_id, interval), 0.0)
        cons = consumption.get((feeder_id, interval), 0.0)
        net = prod - cons
        if abs(net) > feeder.net_flow_limit_kw + tol:
            violations.append(Violation(
                "feeder-net", f"{feeder_id}@{interval}",
                f"net flow {net} kW exceeds limit {feeder.net_flow_limit_kw}",
                abs(net) - feeder.net_flow_limit_kw))
        if prod > feeder.internal_limit_kw + tol:
            violations.append(Violation(
                "feeder-internal", f"{feeder_id}@{interval}",
                f"production {prod} kW exceeds limit {feeder.internal_limit_kw}",
                prod - feeder.internal_limit_kw))
        if cons > feeder.internal_limit_kw + tol:
            violations.append(Violation(
                "feeder-internal", f"{feeder_id}@{interval}",
                f"consumption {cons} kW exceeds limit {feeder.internal_limit_kw}",
                cons - feeder.internal_limit_kw))

    return FeasibilityReport(tuple(violations))
