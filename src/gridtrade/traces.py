"""Prosumer load traces: CSV ingestion and deterministic synthesis.

A trace is one participant's per-interval production capacity and demand,
both in kWh. The CSV wire format is one row per (participant, interval):

    participant,feeder,interval,production_kwh,demand_kwh[,flexible,flex_window]

Intervals must be dense from 0 for each participant. The two optional
columns mark storage-capable participants whose surplus can be delivered
over a window of later intervals rather than immediately.

A :class:`ProsumerTrace` is an immutable tuple record, equal to a plain tuple
of its fields. It checks its values in ``__new__``, which ``_make``,
``_replace``, copies and pickles go through too (see
:class:`~.market.CheckedRecord`).
"""

from __future__ import annotations

import csv
import io
import math
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .market import CheckedRecord, count, flag, name, number


class TraceError(Exception):
    """Base class for trace ingestion problems."""


class ParseError(TraceError):
    pass


class GapError(TraceError):
    pass


class NegativeValueError(TraceError):
    pass


class _TraceRecord(NamedTuple):
    participant: str
    feeder: str
    production: tuple[float, ...]
    demand: tuple[float, ...]
    flexible: bool = False
    flex_window: int = 1


class ProsumerTrace(CheckedRecord, _TraceRecord):
    """One participant's day: per-interval production and demand in kWh.

    The participant and feeder are names (see :func:`~.market.name`), the
    two series of equal length hold finite numbers of at least 0,
    ``flexible`` is a ``bool`` and ``flex_window`` an integer of at least 1;
    anything else raises ``ValueError``. ``len(trace)`` is the number of
    intervals, not of fields.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ProsumerTrace":
        trace = super().__new__(cls, *args, **kwargs)
        participant, feeder, production, demand, flexible, flex_window = trace
        name("participant", participant)
        name(f"{participant}: feeder", feeder)
        if len(production) != len(demand):
            raise ValueError(f"{participant}: series lengths differ")
        series = production + demand
        # Floats alone, none below 0 and a finite sum: every value is a finite
        # number of at least 0. Anything else gets the per-value rule.
        if not ({*map(type, series)} == {float} and min(series) >= 0.0
                and math.isfinite(sum(series))):
            what = f"{participant}: series value"
            for value in series:
                number(what, value, 0.0)
        if type(flexible) is not bool:  # a truthy "no" must not spread a surplus
            raise ValueError(f"{participant}: flexible must be a bool, got {flexible!r}")
        count(f"{participant}: flex_window", flex_window, 1)
        return trace

    def __len__(self) -> int:
        return len(self.production)

    def net(self, interval: int) -> float:
        """Surplus (positive) or deficit (negative) at an interval."""
        return self.production[interval] - self.demand[interval]


_REQUIRED_COLUMNS = ["participant", "feeder", "interval", "production_kwh", "demand_kwh"]


class _Participant:
    """One participant's rows so far: its feeder and flags, the raw cells
    they were parsed from, and interval -> (production, demand)."""

    __slots__ = ("feeder", "cells", "flags", "values")

    def __init__(self, feeder: str):
        self.feeder = feeder
        self.cells = None
        self.flags: tuple[bool, int] | None = None
        self.values: dict[int, tuple[float, float]] = {}


def ingest_traces(path: str | Path) -> list[ProsumerTrace]:
    """Read and validate traces; errors carry the offending physical line.

    The file is UTF-8 text, decoded whole before any row is read; a leading
    byte-order mark, as spreadsheet programs write, is dropped. The
    header names each column once and holds every required column; blank
    lines are skipped, and every other row has one cell per header column.
    A participant's feeder and flag cells are checked on its first
    row and again only on a row where they differ from the last ones checked.
    """
    path = Path(path)
    participants: dict[str, _Participant] = {}
    inf = math.inf

    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # The codec reports positions in the bytes after a leading BOM.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start + len(raw) - len(exc.object)})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, [])
        if [c for c in _REQUIRED_COLUMNS if c not in header]:
            raise ParseError(f"{path}: header must contain {', '.join(_REQUIRED_COLUMNS)}")
        if len(set(header)) != len(header):
            twice = sorted({c for c in header if header.count(c) > 1})
            raise ParseError(f"{path}:{reader.line_num}: header names "
                             f"{', '.join(map(repr, twice))} more than once")
        width = len(header)
        i_participant, i_feeder, i_interval, i_production, i_demand = map(
            header.index, _REQUIRED_COLUMNS)
        i_flexible, i_window = (header.index(c) if c in header else None
                                for c in ("flexible", "flex_window"))
        # The cells that must read the same on every row of one participant.
        constant_cells = itemgetter(i_feeder, *(i for i in (i_flexible, i_window)
                                                if i is not None))
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise ParseError(f"{path}:{reader.line_num}: row has {len(row)} cells, "
                                 f"the header {width}")
            participant = row[i_participant].strip()
            cells = constant_cells(row)
            record = participants.get(participant)
            changed = record is None or cells != record.cells
            try:
                interval = int(row[i_interval])
                production = float(row[i_production])
                demand = float(row[i_demand])
                if changed:
                    flex_window = 1 if i_window is None else int(row[i_window] or 1)
            except ValueError as exc:
                raise ParseError(f"{path}:{reader.line_num}: malformed row ({exc})") from exc
            if changed:
                feeder = row[i_feeder].strip()
                if not participant or not feeder:
                    raise ParseError(f"{path}:{reader.line_num}: empty participant or feeder")
            if interval < 0:
                raise ParseError(f"{path}:{reader.line_num}: negative interval")
            if not (0.0 <= production < inf and 0.0 <= demand < inf):
                if not (math.isfinite(production) and math.isfinite(demand)):
                    raise ParseError(
                        f"{path}:{reader.line_num}: non-finite energy value for {participant}")
                raise NegativeValueError(
                    f"{path}:{reader.line_num}: negative energy value for {participant}")
            if changed:
                if record is None:
                    record = participants[participant] = _Participant(feeder)
                elif record.feeder != feeder:
                    raise ParseError(
                        f"{path}:{reader.line_num}: {participant} appears on multiple feeders")
                cell = "" if i_flexible is None else row[i_flexible].strip()
                try:
                    flexible = flag("flexible", cell) if cell else False
                except ValueError as exc:
                    raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
                if flex_window < 1:
                    raise ParseError(
                        f"{path}:{reader.line_num}: flex_window must be at least 1")
                if record.flags not in (None, (flexible, flex_window)):
                    raise ParseError(f"{path}:{reader.line_num}: {participant}'s flexible or "
                                     f"flex_window differs from its earlier rows")
                record.cells, record.flags = cells, (flexible, flex_window)
            values = record.values
            if interval in values:
                raise ParseError(f"{path}:{reader.line_num}: duplicate interval {interval}")
            values[interval] = (production, demand)
    except csv.Error as exc:  # such as a quoted cell over the csv module's field size limit
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None

    traces = []
    for participant in sorted(participants):
        record = participants[participant]
        values = record.values
        for expected in range(len(values)):
            if expected not in values:
                raise GapError(f"{path}: {participant} is missing interval {expected}")
        production, demand = zip(*(values[i] for i in range(len(values))))
        traces.append(ProsumerTrace(participant, record.feeder, production, demand,
                                    *record.flags))
    return traces


def _spell(value: float) -> str:
    """``value`` to nine significant digits where that reads back exactly,
    else in its shortest round-trip form, so that a written trace reads back
    as it was."""
    text = format(value, ".9g")
    return text if float(text) == value else repr(float(value))


def write_traces(path: str | Path, traces: list[ProsumerTrace]) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REQUIRED_COLUMNS + ["flexible", "flex_window"])
        for trace in traces:
            for interval in range(len(trace)):
                writer.writerow([
                    trace.participant, trace.feeder, interval,
                    _spell(trace.production[interval]),
                    _spell(trace.demand[interval]),
                    int(trace.flexible), trace.flex_window,
                ])
    return path


class SpecError(ValueError):
    pass


BASE_DEMAND_KWH = 0.09  # a synthesized home's base demand per interval
PRODUCER_SCALE = 1.6  # the producers' peak output over the community's base demand
PRODUCER_FLEX_WINDOW = 4  # intervals over which a producer sells a surplus


def synthesize_traces(homes: int, producers: int, feeders: int, intervals: int,
                      seed: int = 0) -> list[ProsumerTrace]:
    """Deterministic synthetic day: solar producers, household consumers.

    Producers get a midday production bell sized so that total production
    overtakes total demand around noon; consumers get a morning/evening
    double-peaked demand profile. Same arguments, same output. ``homes``,
    ``feeders`` and ``intervals`` are integers of at least 1, ``seed`` one
    of at least 0 and ``producers`` one of at least 0 and at most
    ``homes``; anything else raises ``SpecError``.
    """
    try:
        homes, feeders, intervals = (count(what, value, 1) for what, value in (
            ("homes", homes), ("feeders", feeders), ("intervals", intervals)))
        producers, seed = count("producers", producers, 0), count("seed", seed, 0)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    if producers > homes:
        raise SpecError("producers cannot exceed homes")

    rng = np.random.default_rng(seed)
    width = max(len(str(homes)), 3)
    sunrise, sunset = 0.25 * intervals, 0.75 * intervals
    morning, evening = 0.2 * intervals, 0.8 * intervals
    bump_width = max(intervals / 16.0, 1.0)

    # Peak sized so producer output can cover the whole community at noon.
    peak = PRODUCER_SCALE * BASE_DEMAND_KWH * homes / max(producers, 1)

    traces = []
    for index in range(homes):
        participant = f"p{index + 1:0{width}d}"
        feeder = f"f{(index % feeders) + 1:02d}"
        is_producer = index < producers
        demand_scale = float(rng.uniform(0.7, 1.3))
        solar_scale = float(rng.uniform(0.8, 1.2))
        demand = []
        production = []
        for t in range(intervals):
            d = BASE_DEMAND_KWH * demand_scale
            d += 0.12 * demand_scale * math.exp(-((t - morning) / bump_width) ** 2)
            d += 0.16 * demand_scale * math.exp(-((t - evening) / bump_width) ** 2)
            d *= float(rng.uniform(0.85, 1.15))
            demand.append(round(d, 4))
            if is_producer and sunrise <= t <= sunset:
                s = peak * solar_scale * math.sin(
                    math.pi * (t - sunrise) / (sunset - sunrise))
                production.append(round(max(s, 0.0), 4))
            else:
                production.append(0.0)
        traces.append(ProsumerTrace(
            participant, feeder, tuple(production), tuple(demand),
            flexible=is_producer, flex_window=PRODUCER_FLEX_WINDOW if is_producer else 1))
    return traces
