"""Prosumer load traces: CSV ingestion and deterministic synthesis.

A trace is one participant's per-interval production capacity and demand,
both in kWh. The CSV wire format is one row per (participant, interval):

    participant,feeder,interval,production_kwh,demand_kwh[,flexible,flex_window]

Intervals must be dense from 0 for each participant. The two optional
columns mark storage-capable participants whose surplus can be delivered
over a window of later intervals rather than immediately.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class TraceError(Exception):
    """Base class for trace ingestion problems."""


class ParseError(TraceError):
    pass


class GapError(TraceError):
    pass


class NegativeValueError(TraceError):
    pass


@dataclass(frozen=True)
class ProsumerTrace:
    participant: str
    feeder: str
    production: tuple[float, ...]
    demand: tuple[float, ...]
    flexible: bool = False
    flex_window: int = 1

    def __post_init__(self) -> None:
        if len(self.production) != len(self.demand):
            raise ValueError(f"{self.participant}: series lengths differ")
        if not all(0 <= v < math.inf for v in self.production + self.demand):
            raise ValueError(f"{self.participant}: series must be finite and non-negative")
        if self.flex_window < 1:
            raise ValueError(f"{self.participant}: flex_window must be at least 1")

    def __len__(self) -> int:
        return len(self.production)

    def net(self, interval: int) -> float:
        """Surplus (positive) or deficit (negative) at an interval."""
        return self.production[interval] - self.demand[interval]


_REQUIRED_COLUMNS = ["participant", "feeder", "interval", "production_kwh", "demand_kwh"]


def _parse_bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes")


def ingest_traces(path: str | Path) -> list[ProsumerTrace]:
    """Read and validate traces; errors carry the offending line number."""
    path = Path(path)
    rows: dict[str, dict[int, tuple[float, float, int]]] = {}
    feeders: dict[str, str] = {}
    flags: dict[str, tuple[bool, int]] = {}

    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [
                c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]:
            raise ParseError(f"{path}: header must contain {', '.join(_REQUIRED_COLUMNS)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                participant = row["participant"].strip()
                feeder = row["feeder"].strip()
                interval = int(row["interval"])
                production = float(row["production_kwh"])
                demand = float(row["demand_kwh"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}:{line_no}: malformed row ({exc})") from exc
            if not participant or not feeder:
                raise ParseError(f"{path}:{line_no}: empty participant or feeder")
            if interval < 0:
                raise ParseError(f"{path}:{line_no}: negative interval")
            if not (math.isfinite(production) and math.isfinite(demand)):
                raise ParseError(
                    f"{path}:{line_no}: non-finite energy value for {participant}")
            if production < 0 or demand < 0:
                raise NegativeValueError(
                    f"{path}:{line_no}: negative energy value for {participant}")
            if participant in feeders and feeders[participant] != feeder:
                raise ParseError(
                    f"{path}:{line_no}: {participant} appears on multiple feeders")
            feeders[participant] = feeder
            flexible = _parse_bool(row.get("flexible") or "")
            flex_window = int(row["flex_window"]) if row.get("flex_window") else 1
            flags[participant] = (flexible, max(flex_window, 1))
            per = rows.setdefault(participant, {})
            if interval in per:
                raise ParseError(f"{path}:{line_no}: duplicate interval {interval}")
            per[interval] = (production, demand, line_no)

    traces = []
    for participant in sorted(rows):
        per = rows[participant]
        for expected in range(len(per)):
            if expected not in per:
                raise GapError(f"{path}: {participant} is missing interval {expected}")
        production = tuple(per[i][0] for i in range(len(per)))
        demand = tuple(per[i][1] for i in range(len(per)))
        flexible, flex_window = flags[participant]
        traces.append(ProsumerTrace(participant, feeders[participant],
                                    production, demand, flexible, flex_window))
    return traces


def write_traces(path: str | Path, traces: list[ProsumerTrace]) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REQUIRED_COLUMNS + ["flexible", "flex_window"])
        for trace in traces:
            for interval in range(len(trace)):
                writer.writerow([
                    trace.participant, trace.feeder, interval,
                    format(trace.production[interval], ".9g"),
                    format(trace.demand[interval], ".9g"),
                    int(trace.flexible), trace.flex_window,
                ])
    return path


class SpecError(Exception):
    pass


def synthesize_traces(homes: int, producers: int, feeders: int, intervals: int,
                      seed: int = 0, *, base_demand: float = 0.09,
                      producer_scale: float = 1.6,
                      flex_window: int = 4) -> list[ProsumerTrace]:
    """Deterministic synthetic day: solar producers, household consumers.

    Producers get a midday production bell sized so that total production
    overtakes total demand around noon; consumers get a morning/evening
    double-peaked demand profile. Same arguments, same output.
    """
    if producers > homes:
        raise SpecError("producers cannot exceed homes")
    if feeders < 1 or homes < 1 or intervals < 1:
        raise SpecError("homes, feeders, and intervals must be positive")

    rng = np.random.default_rng(seed)
    width = max(len(str(homes)), 3)
    sunrise, sunset = 0.25 * intervals, 0.75 * intervals
    morning, evening = 0.2 * intervals, 0.8 * intervals
    bump_width = max(intervals / 16.0, 1.0)

    # Peak sized so producer output can cover the whole community at noon.
    peak = producer_scale * base_demand * homes / max(producers, 1)

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
            d = base_demand * demand_scale
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
            flexible=is_producer, flex_window=flex_window if is_producer else 1))
    return traces
