"""Domain model for the forward energy market.

Offers commit energy over contiguous interval windows; a solution assigns
per-interval power and unit prices to matched sell/buy offer pairs. A
solution covers only open intervals: finalized (pinned) trades live in
:class:`PinnedTrades` alone. This module owns the validation rules that
every candidate solution must pass: no trade at a finalized interval,
per-offer energy budgets net of finalized energy, per-feeder power limits,
and reservation-price bands.

All values are plain floats: power in kW, energy in kWh, prices in $/kWh,
interval length in hours. The records (an offer, a feeder, the grid, a
feasibility report) are immutable tuple records, each equal to a plain tuple
of its fields. An offer, a feeder and the grid check their values in
``__new__``, which ``_make``, ``_replace``, copies and pickles go through
too (see :class:`CheckedRecord`).
"""

from __future__ import annotations

import math
from enum import Enum
from numbers import Integral, Real
from types import MappingProxyType
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


class CheckedRecord:
    """The base of a tuple record that checks its values in ``__new__``.

    ``_make``, and so the ``_replace`` a ``NamedTuple`` inherits, call the
    class, and every copy and pickle protocol rebuilds the record through it:
    no path makes a record that ``__new__`` would refuse. List it before the
    ``NamedTuple`` base, so that its ``_make`` comes first.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)


class _FeederRecord(NamedTuple):
    id: str
    net_flow_limit_kw: float
    internal_limit_kw: float


class Feeder(CheckedRecord, _FeederRecord):
    """A distribution line segment with power limits: an immutable tuple record.

    ``net_flow_limit_kw`` bounds the absolute net power flowing in or out of
    the feeder; ``internal_limit_kw`` bounds total production and total
    consumption inside the feeder, each separately. Each is a non-negative
    finite number (NumPy's included, a ``bool`` not), kept as given; the id
    is a :func:`name`.

    ``__new__`` checks the values; ``_make``, ``_replace``, copying and
    pickling all go through it. As a tuple, a feeder equals a plain tuple of
    its fields.
    """

    __slots__ = ()

    def __new__(cls, id: str, net_flow_limit_kw: float, internal_limit_kw: float) -> "Feeder":
        name("feeder id", id)
        for limit in (net_flow_limit_kw, internal_limit_kw):
            number(f"feeder {id}: limits", limit, 0.0)
        return tuple.__new__(cls, (id, net_flow_limit_kw, internal_limit_kw))


class _GridRecord(NamedTuple):
    feeders: tuple[Feeder, ...]
    interval_hours: float = 0.25
    clearing_lead: int = 1  # intervals between finalization and delivery


class GridModel(CheckedRecord, _GridRecord):
    """Static grid description plus the market's timing constants: an
    immutable tuple record. ``interval_hours`` (0.25 by default) is a positive
    finite number and ``clearing_lead`` (1 by default) an integer of at least
    1 (NumPy's included, a ``bool`` or ``1.0`` not), each kept as given;
    ``feeders`` is made a tuple, and feeder ids must be unique.

    ``__new__`` checks the values and derives ``_limits``, each feeder by id,
    which ``check_feasibility`` reads; ``_make``, ``_replace``, copying and
    pickling all go through it. Every assignment is refused. As a tuple, a
    grid equals a plain tuple of its fields and hashes as one.
    """

    def __new__(cls, *args, **kwargs) -> "GridModel":
        feeders, interval_hours, clearing_lead = _GridRecord(*args, **kwargs)
        feeders = tuple(feeders)
        number("interval_hours", interval_hours, 0.0, above=True)
        count("clearing_lead", clearing_lead, 1)
        limits = {f.id: f for f in feeders}
        if len(limits) != len(feeders):
            raise ValueError("feeder ids must be unique")
        grid = tuple.__new__(cls, (feeders, interval_hours, clearing_lead))
        grid.__dict__["_limits"] = limits  # read by check_feasibility
        return grid  # a copy or pickle holds no ``_limits``: it is derived again

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"GridModel is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GridModel is immutable: cannot delete {name!r}")

    def feeder_limits(self) -> Mapping[str, Feeder]:
        """Each feeder by id: a read-only view of a dict built once per grid."""
        return MappingProxyType(self._limits)

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


def number(what: str, value, minimum: float = -math.inf, *, above: bool = False) -> float:
    """``value`` as a ``float``: a finite real number (NumPy's included, a
    ``bool`` not) of at least ``minimum``, or above it if ``above``; anything
    else raises ``ValueError`` naming ``what`` it is. The one rule for a
    quantity at every boundary."""
    x = math.nan
    if type(value) is float:
        x = value
    elif isinstance(value, Real) and type(value) is not bool:
        try:
            x = float(value)
        except OverflowError:  # an int past the largest float stays NaN, refused below
            pass
    if -math.inf < x < math.inf and (x > minimum if above else x >= minimum):
        return x
    sign = ("positive " if above else "non-negative ") if minimum == 0 else ""
    bound = "" if minimum == -math.inf else f", {'above' if above else 'at least'} {minimum:g}"
    raise ValueError(
        f"{what} must be a {sign}finite number (real and finite{bound}), got {value!r}")


def count(what: str, value, minimum: int) -> int:
    """``value`` as an ``int``: an integer (NumPy's included, a ``bool`` or a
    whole float not) of at least ``minimum``; anything else raises
    ``ValueError`` naming ``what`` it is. The one rule for a count."""
    if isinstance(value, Integral) and type(value) is not bool and value >= minimum:
        return int(value)
    raise ValueError(f"{what} must be an integer of at least {minimum}, got {value!r}")


def name(what: str, value) -> str:
    """``value`` as a name: a ``str`` that is not empty and equals its own
    ``.strip()``; anything else raises ``ValueError`` naming ``what`` it is.
    The one rule for a participant's or a feeder's name."""
    if type(value) is str and value and value == value.strip():
        return value
    raise ValueError(f"{what} must be a str, not empty and with no leading or trailing "
                     f"whitespace, got {value!r}")


_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def flag(what: str, text: str) -> bool:
    """``text`` as a ``bool``: 1/0, true/false, yes/no or on/off, in any case;
    anything else raises ``ValueError`` naming ``what`` it is. The one yes/no rule."""
    if text.lower() not in _FLAGS:
        raise ValueError(f"{what} must be 1/0, true/false, yes/no or on/off, got {text!r}")
    return _FLAGS[text.lower()]


def whole_interval(what: str, value) -> int:
    """``value`` as an ``int`` interval index: a whole finite number, not a
    ``bool``; anything else raises ``ValueError`` naming ``what`` it is."""
    if not (isinstance(value, Real) and type(value) is not bool
            and -math.inf < value < math.inf and int(value) == value):
        raise ValueError(f"{what} must be a whole interval, got {value!r}")
    return int(value)


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
            start = whole_interval(f"offer {id}: start", start)
            end = whole_interval(f"offer {id}: end", end)
        # A float in range is kept as it is; any other value is checked and converted.
        if not (type(energy_kwh) is float and 0 < energy_kwh < math.inf):
            energy_kwh = number(f"offer {id}: energy_kwh", energy_kwh, 0.0, above=True)
        price = reservation_price
        if not (price is None or type(price) is float and 0 <= price < math.inf):
            price = number(f"offer {id}: reservation_price", price, 0.0)
        if start > end:
            raise ValueError(f"offer {id}: start {start} exceeds end {end}")
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

    def __reduce__(self) -> tuple:
        return Offer, self[:8]  # every copy and pickle protocol rebuilds through ``__new__``

    def covers(self, interval: int) -> bool:
        return self.start <= interval <= self.end


def matchable(sell: Offer, buy: Offer) -> bool:
    """True iff some price and some interval suit both offers."""
    if sell.side is not SELLING or buy.side is not BUYING:
        return False
    return (sell.reservation <= buy.reservation
            and max(sell.start, buy.start) <= min(sell.end, buy.end))


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
        # Sorting the keys alone costs a fraction of sorting the items, whose
        # first elements are tuples and so compare by the generic path.
        for key in sorted(entries):
            value = entries[key]
            power, price = value
            # A pair of finite floats, as the solver and the log reader give, is
            # kept as it is; any other value is checked as a number and converted.
            if not (type(power) is float and type(price) is float and type(value) is tuple
                    and isfinite(power) and isfinite(price)):
                try:
                    value = (number("power", power), number("price", price))
                except ValueError as exc:
                    raise InvalidTradeError(f"trade {key}: {exc}") from None
            if power < 0:
                raise InvalidTradeError(f"trade {key}: power must be non-negative")
            cleaned[key] = value
        self._entries = cleaned

    @classmethod
    def _of(cls, entries: dict[TradeKey, tuple[float, float]]) -> "Solution":
        """A solution of entries already checked and in key order, such as
        a part of another solution's: nothing is checked or sorted again."""
        solution = cls.__new__(cls)
        solution._entries = entries
        return solution

    @classmethod
    def empty(cls) -> "Solution":
        return cls({})

    def items(self) -> Iterator[tuple[TradeKey, tuple[float, float]]]:
        return iter(self._entries.items())

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
        return Solution._of({key: value for key, value in self._entries.items()
                             if key[0] not in offer_ids and key[1] not in offer_ids})

    def split(self, interval: int) -> tuple[dict[tuple[int, int], tuple[float, float]],
                                            "Solution"]:
        """The trades at ``interval``, keyed by (sell, buy), and the solution
        of the trades after it, taken in one pass; earlier trades are in
        neither. The kept entries are already sorted and validated, so they
        are not checked again.
        """
        due: dict[tuple[int, int], tuple[float, float]] = {}
        kept: dict[TradeKey, tuple[float, float]] = {}
        for key, value in self._entries.items():
            if key[2] > interval:
                kept[key] = value
            elif key[2] == interval:
                due[key[:2]] = value
        return due, Solution._of(kept)

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
    """Total traded power, summed over all trades and intervals (kW); a float,
    ``0.0`` for an empty solution."""
    return sum([value[0] for value in solution._entries.values()], 0.0)


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
            self._keep(int(interval), {(int(s), int(b)): (float(p), float(pi))
                                       for (s, b), (p, pi) in sorted(entries.items())})

    def _keep(self, interval: int, kept: dict[tuple[int, int], tuple[float, float]]) -> None:
        """Hold ``kept``, in key order with float values, as the trades of
        ``interval``, and add their power to each offer's sum."""
        self._by_interval[interval] = kept
        total = self._power_by_offer
        for (s, b), (power, _) in kept.items():
            total[s] = total.get(s, 0.0) + power
            total[b] = total.get(b, 0.0) + power

    @classmethod
    def empty(cls) -> "PinnedTrades":
        return cls(-1)

    def entries(self, interval: int) -> dict[tuple[int, int], tuple[float, float]]:
        return dict(self._by_interval.get(interval, {}))

    def pin(self, interval: int, entries: Mapping[tuple[int, int], tuple[float, float]]) -> None:
        """Lock an interval's trades; trades of no power are not kept.
        Intervals must be pinned in order.

        ``entries`` are taken as ``Solution.split`` gives them: (sell, buy)
        keys in order and float values, already checked, so they are not
        sorted or converted again.
        """
        if interval != self.finalized_through + 1:
            raise ValueError(
                f"interval {interval} cannot be pinned; next is {self.finalized_through + 1}")
        kept = {key: value for key, value in entries.items() if value[0] > 0.0}
        if kept:
            self._keep(interval, kept)
        self.finalized_through = interval

    def overlay(self) -> dict[TradeKey, tuple[float, float]]:
        """All pinned values keyed as solution entries."""
        out: dict[TradeKey, tuple[float, float]] = {}
        for interval, entries in self._by_interval.items():  # pinned in interval order
            for (s, b), value in entries.items():
                out[(s, b, interval)] = value
        return out

    def energies(self, offer_ids: Iterable[int], interval_hours: float) -> list[float]:
        """Pinned energy (kWh) already committed by each of ``offer_ids``."""
        power = self._power_by_offer.get
        return [power(offer_id, 0.0) * interval_hours for offer_id in offer_ids]

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


class Violation(NamedTuple):
    """A violated constraint: which rule, and what it was broken for (a trade
    ``(s,b,t)``, an offer id, or ``feeder@interval``)."""

    kind: str  # one of VIOLATION_KINDS
    subject: str


class FeasibilityReport(NamedTuple):
    """The violations of a checked solution: a tuple record, true exactly
    when there are none. As a tuple, a report equals a plain tuple of its
    fields."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:  # a one-field tuple is otherwise always true
        return self.ok


_FEASIBLE = FeasibilityReport()


def check_feasibility(
    solution: Solution,
    book: Mapping[int, Offer],
    grid: GridModel,
    pinned: PinnedTrades | None = None,
) -> FeasibilityReport:
    """Validate a solution against the offer book, grid limits, and pins.

    Returns a report listing every violated constraint; energy budgets
    count each offer's finalized energy from ``pinned``. Raises
    ``MarketError`` for a trade at a finalized interval or on an unknown
    feeder, ``UnknownOfferError`` for offer ids not in the book,
    and ``UnmatchablePairError`` for keys pairing offers that cannot trade.
    Malformed trade values never reach it: ``Solution`` refuses them.

    One pass reads the trades. They come in key order, so a seller's
    trades are consecutive: an offer is looked up and unpacked only when the
    seller or buyer changes, and a seller's energy is summed as its trades
    pass. :func:`matchable` only words a refusal.
    """
    pinned = pinned or PinnedTrades.empty()
    finalized_through = pinned.finalized_through
    feeders = grid._limits
    delta = grid.interval_hours
    tol = TOLERANCE

    violations: list[Violation] = []
    sold: list[tuple[int, float]] = []  # (seller id, energy), in id order
    bought: dict[int, float] = {}
    flow: dict[tuple[str, int], list[float]] = {}  # (feeder, interval) -> [production, consumption]

    offer_of = book.get
    sell_id = buy_id = None  # the offers unpacked below
    for (s_id, b_id, interval), (power, price) in solution._entries.items():
        if interval <= finalized_through:
            raise MarketError(
                f"trade ({s_id},{b_id},{interval}) is at a finalized interval "
                f"(finalized through {finalized_through})")
        if s_id != sell_id:
            sell = offer_of(s_id)
            if sell is None:
                raise UnknownOfferError(f"offer {s_id} not in book")
            if sell_id is not None:
                sold.append((sell_id, energy_sold))
            sell_id, energy_sold = s_id, 0.0
            _, s_side, _, s_feeder, _, s_start, s_end, _, floor = sell
        if b_id != buy_id:
            buy = offer_of(b_id)
            if buy is None:
                raise UnknownOfferError(f"offer {b_id} not in book")
            buy_id = b_id
            _, b_side, _, b_feeder, _, b_start, b_end, _, ceiling = buy
        if not (s_side is SELLING and b_side is BUYING and floor <= ceiling
                and s_start <= interval <= s_end and b_start <= interval <= b_end):
            if not matchable(sell, buy):
                raise UnmatchablePairError(f"offers {s_id} and {b_id} are not matchable")
            raise UnmatchablePairError(
                f"interval {interval} outside the shared window of {s_id} and {b_id}")
        # A (feeder, interval) enters ``flow`` only once its feeder is known.
        at_sell = flow.get((s_feeder, interval))
        if at_sell is None:
            if s_feeder not in feeders:
                raise MarketError(f"trade ({s_id},{b_id},{interval}) references unknown feeder")
            at_sell = flow[(s_feeder, interval)] = [0.0, 0.0]
        at_buy = flow.get((b_feeder, interval))
        if at_buy is None:
            if b_feeder not in feeders:
                raise MarketError(f"trade ({s_id},{b_id},{interval}) references unknown feeder")
            at_buy = flow[(b_feeder, interval)] = [0.0, 0.0]

        energy = power * delta
        energy_sold += energy
        bought[b_id] = bought.get(b_id, 0.0) + energy
        at_sell[0] += power
        at_buy[1] += power

        if power > tol and (price < floor - tol or price > ceiling + tol):
            violations.append(Violation("price-band", f"({s_id},{b_id},{interval})"))
    if sell_id is not None:
        sold.append((sell_id, energy_sold))

    for kind, used in (("energy-seller", sold), ("energy-buyer", sorted(bought.items()))):
        finalized = pinned.energies([offer_id for offer_id, _ in used], delta)
        for (offer_id, energy), before in zip(used, finalized):
            if energy + before > book[offer_id].energy_kwh + tol:
                violations.append(Violation(kind, str(offer_id)))

    for feeder_id, interval in sorted(flow):
        feeder = feeders[feeder_id]
        prod, cons = flow[(feeder_id, interval)]
        if abs(prod - cons) > feeder.net_flow_limit_kw + tol:
            violations.append(Violation("feeder-net", f"{feeder_id}@{interval}"))
        if prod > feeder.internal_limit_kw + tol:
            violations.append(Violation("feeder-internal", f"{feeder_id}@{interval}"))
        if cons > feeder.internal_limit_kw + tol:
            violations.append(Violation("feeder-internal", f"{feeder_id}@{interval}"))

    return FeasibilityReport(tuple(violations)) if violations else _FEASIBLE
