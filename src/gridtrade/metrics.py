"""Trading outcome metrics and plot-ready report export.

Metrics are computed from the ledger event log alone (offers posted and
trades finalized), so they can be recomputed from an exported audit file
and must agree exactly with the in-process report. Offered energy is
attributed to an offer's start interval; traded energy to the delivery
interval of each finalized trade.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .ledger import (INTERVAL_ADVANCED, OFFER_POSTED, TRADE_FINALIZED, LedgerEvent,
                     write_events_jsonl)

if TYPE_CHECKING:  # pragma: no cover
    from .sim import SimReport

DEFAULT_UNIT_PRICE = 0.12  # $/kWh


class IncompleteLogError(Exception):
    pass


@dataclass(frozen=True)
class IntervalRow:
    interval: int
    sell_offered_kwh: float
    buy_offered_kwh: float
    traded_kwh: float
    trade_count: int


@dataclass(frozen=True)
class Metrics:
    sell_offered_kwh: float
    buy_offered_kwh: float
    traded_kwh: float
    unit_price: float
    per_interval: tuple[IntervalRow, ...] = ()

    @property
    def unused_fraction(self) -> float:
        if self.sell_offered_kwh <= 0:
            return 0.0
        return (self.sell_offered_kwh - self.traded_kwh) / self.sell_offered_kwh

    @property
    def unmet_fraction(self) -> float:
        if self.buy_offered_kwh <= 0:
            return 0.0
        return (self.buy_offered_kwh - self.traded_kwh) / self.buy_offered_kwh

    @property
    def unused_dollars(self) -> float:
        return max(self.sell_offered_kwh - self.traded_kwh, 0.0) * self.unit_price

    @property
    def unmet_dollars(self) -> float:
        return max(self.buy_offered_kwh - self.traded_kwh, 0.0) * self.unit_price

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("sell_offered_kwh", self.sell_offered_kwh),
            ("buy_offered_kwh", self.buy_offered_kwh),
            ("traded_kwh", self.traded_kwh),
            ("unused_fraction", self.unused_fraction),
            ("unmet_fraction", self.unmet_fraction),
            ("unused_dollars", self.unused_dollars),
            ("unmet_dollars", self.unmet_dollars),
            ("unit_price", self.unit_price),
        ]


def compute_metrics(events: Iterable[LedgerEvent], interval_hours: float,
                    *, unit_price: float = DEFAULT_UNIT_PRICE,
                    horizon: int | None = None) -> Metrics:
    """Aggregate offered and finalized energy from the audit trail."""
    sell_by_interval: dict[int, float] = {}
    buy_by_interval: dict[int, float] = {}
    traded_by_interval: dict[int, float] = {}
    count_by_interval: dict[int, int] = {}
    highest_finalized = -1

    for event in events:
        kind, payload = event.kind, event.payload
        if kind == OFFER_POSTED:
            start = int(payload["start"])
            energy = float(payload["energy_kwh"])
            if payload["side"] == "selling":
                sell_by_interval[start] = sell_by_interval.get(start, 0.0) + energy
            else:
                buy_by_interval[start] = buy_by_interval.get(start, 0.0) + energy
        elif kind == TRADE_FINALIZED:
            t = int(payload["interval"])
            traded_by_interval[t] = (traded_by_interval.get(t, 0.0)
                                     + float(payload["power_kw"]) * interval_hours)
            count_by_interval[t] = count_by_interval.get(t, 0) + 1
        elif kind == INTERVAL_ADVANCED:
            highest_finalized = max(highest_finalized, int(payload["finalized_interval"]))

    if horizon is not None and highest_finalized < horizon - 1:
        raise IncompleteLogError(
            f"log finalized through interval {highest_finalized}, need {horizon - 1}")

    seen = (set(sell_by_interval) | set(buy_by_interval) | set(traded_by_interval))
    last = horizon - 1 if horizon is not None else (max(seen) if seen else -1)
    rows = []
    for interval in range(last + 1):
        rows.append(IntervalRow(
            interval=interval,
            sell_offered_kwh=sell_by_interval.get(interval, 0.0),
            buy_offered_kwh=buy_by_interval.get(interval, 0.0),
            traded_kwh=traded_by_interval.get(interval, 0.0),
            trade_count=count_by_interval.get(interval, 0),
        ))
    return Metrics(
        sell_offered_kwh=sum(r.sell_offered_kwh for r in rows),
        buy_offered_kwh=sum(r.buy_offered_kwh for r in rows),
        traded_kwh=sum(r.traded_kwh for r in rows),
        unit_price=unit_price,
        per_interval=tuple(rows),
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: Iterable[Iterable]) -> Path:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def export_report(report: "SimReport", out_dir: str | Path) -> dict[str, Path]:
    """Write the full report bundle; byte-identical for identical runs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    config = report.config
    paths["events"] = write_events_jsonl(
        out / "events.jsonl", report.events, config.grid, price_cap=config.price_cap)

    paths["intervals"] = _write_csv(
        out / "intervals.csv",
        ["interval", "sell_offered_kwh", "buy_offered_kwh", "traded_kwh", "trade_count"],
        ((r.interval, r.sell_offered_kwh, r.buy_offered_kwh, r.traded_kwh, r.trade_count)
         for r in report.metrics.per_interval))

    paths["solver"] = _write_csv(
        out / "solver.csv",
        ["time", "solver", "variables", "constraints", "solve_time", "objective",
         "submitted", "error"],
        ((r.time, r.solver, r.variables, r.constraints, r.solve_time, r.objective,
          int(r.submitted), r.error) for r in report.solver_records))

    paths["controller"] = _write_csv(
        out / "controller.csv",
        ["time", "solver", "solve_time", "lookahead", "max_lookahead", "cpu_fraction"],
        ((row["time"], row["solver"], row["solve_time"], row["lookahead"],
          row["max_lookahead"], row["cpu_fraction"]) for row in report.controller_rows))

    paths["failures"] = _write_csv(
        out / "failures.csv", ["time", "participant", "phase"],
        ((row["time"], row["participant"], row["phase"]) for row in report.failure_log))

    paths["metrics"] = _write_csv(
        out / "metrics.csv", ["metric", "value"], report.metrics.rows())

    paths["summary"] = out / "summary.json"
    summary = {
        "horizon": config.horizon,
        "intervals_finalized": report.intervals_finalized,
        "traded_kwh": report.metrics.traded_kwh,
        "sell_offered_kwh": report.metrics.sell_offered_kwh,
        "buy_offered_kwh": report.metrics.buy_offered_kwh,
        "events": len(report.events),
    }
    paths["summary"].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    return paths
