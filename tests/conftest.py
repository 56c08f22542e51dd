"""Shared fixtures: the two-interval battery scenario used throughout.

Three participants on one feeder. A plain producer can push 10 kW in
interval 48 only; a battery-backed producer has 30 kWh deliverable across
intervals 48-49; the consumer needs 30 kW in 48 and 10 kW in 49. The
greedy single-interval match moves 30 kW total, the two-interval optimum
moves 40 kW.
"""

from __future__ import annotations

import math

import pytest

from gridtrade.market import Feeder, GridModel, Offer, PinnedTrades, Side, Solution
from gridtrade.traces import ProsumerTrace

HORIZON = 50

# The boundary table: values every quantity and every count refuses with its
# site's typed error. A count also refuses a fraction.
BAD_NUMBERS = [math.nan, math.inf, -math.inf, True, "1", None]
BAD_COUNTS = BAD_NUMBERS + [2.5]

# The one yes/no rule (``market.flag``): each spelling a config key and a
# trace cell take, with the value it reads as.
FLAG_SPELLINGS = [("1", True), ("ON", True), ("yes", True), ("True", True),
                  ("0", False), ("off", False), ("No", False), ("false", False)]


@pytest.fixture
def grid() -> GridModel:
    return GridModel((Feeder("main", 1000.0, 1000.0),), interval_hours=1.0, clearing_lead=1)


@pytest.fixture
def battery_book() -> dict[int, Offer]:
    return {
        1: Offer(1, Side.SELLING, "P1", "main", 10.0, 48, 48),
        2: Offer(2, Side.SELLING, "P2", "main", 30.0, 48, 49),
        3: Offer(3, Side.BUYING, "C1", "main", 30.0, 48, 48),
        4: Offer(4, Side.BUYING, "C1", "main", 10.0, 49, 49),
    }


@pytest.fixture
def battery_optimum() -> Solution:
    return Solution({
        (1, 3, 48): (10.0, 0.5),
        (2, 3, 48): (20.0, 0.5),
        (2, 4, 49): (10.0, 0.5),
    })


@pytest.fixture
def pins_through_47() -> PinnedTrades:
    return PinnedTrades(47)


def make_battery_traces(horizon: int = HORIZON) -> list[ProsumerTrace]:
    def series(values: dict[int, float]) -> tuple[float, ...]:
        return tuple(values.get(i, 0.0) for i in range(horizon))

    return [
        ProsumerTrace("P1", "main", series({48: 10.0}), series({})),
        ProsumerTrace("P2", "main", series({48: 30.0}), series({}),
                      flexible=True, flex_window=2),
        ProsumerTrace("C1", "main", series({}), series({48: 30.0, 49: 10.0})),
    ]


@pytest.fixture
def battery_traces() -> list[ProsumerTrace]:
    return make_battery_traces()


def _without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


def _grid_edit(**changes):
    return lambda header: {**header, "grid": {**header["grid"], **changes}}


def _first_feeder_edit(**changes):
    def edit(header):
        feeders = [{**header["grid"]["feeders"][0], **changes}, *header["grid"]["feeders"][1:]]
        return {**header, "grid": {**header["grid"], "feeders": feeders}}
    return edit


# Edits of a log's header record that the writer never makes; the reader
# refuses each with ``LogFormatError``.
HEADER_EDITS = {
    "clearing-lead-true": _grid_edit(clearing_lead=True),
    "clearing-lead-float": _grid_edit(clearing_lead=1.0),
    "clearing-lead-zero": _grid_edit(clearing_lead=0),
    "interval-hours-string": _grid_edit(interval_hours="0.25"),
    "interval-hours-bool": _grid_edit(interval_hours=True),
    "limit-string": _first_feeder_edit(net_flow_limit_kw="50"),
    "limit-bool": _first_feeder_edit(internal_limit_kw=False),
    "feeder-id-int": _first_feeder_edit(id=5),
    "feeder-id-null": _first_feeder_edit(id=None),
    "feeder-id-empty": _first_feeder_edit(id=""),
    "feeder-id-padded": _first_feeder_edit(id=" f01 "),
    "feeder-without-id": lambda h: {**h, "grid": {
        **h["grid"], "feeders": [_without(f, "id") for f in h["grid"]["feeders"]]}},
    "grid-not-an-object": lambda h: {**h, "grid": [1, 2]},
    "no-grid": lambda h: _without(h, "grid"),
    "no-price-cap": lambda h: _without(h, "price_cap"),
    "extra-field": lambda h: {**h, "comment": "hello"},
    "format-other": lambda h: {**h, "format": "other"},
    "version-float": lambda h: {**h, "version": 2.0},
    "price-cap-string": lambda h: {**h, "price_cap": "x"},
    "price-cap-bool": lambda h: {**h, "price_cap": True},
    "price-cap-negative": lambda h: {**h, "price_cap": -1.0},
    "price-cap-null": lambda h: {**h, "price_cap": None},
}
