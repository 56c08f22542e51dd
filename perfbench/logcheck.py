"""Independent re-check of an exported ``events.jsonl`` audit log.

Works from the log alone and shares no code with ``gridtrade``: it parses
the JSON lines itself and re-derives the market rules with plain loops.
For every finalized trade it checks that a posted sell offer meets a posted
buy offer inside both windows at a price inside both reservations; that no
offer delivers more than its energy; that no feeder exceeds its internal or
net limit in any interval; that the finalized energy is no more than either
side's offered energy; and that interval advances are sequential and count
their trades.

Run ``python3 perfbench/logcheck.py`` to confirm that hand-made
logs with an over-budget trade, an over-feeder trade and an out-of-band
price are each flagged, and that a clean log is not.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Iterable

TOL = 1e-7


@dataclass
class LogSummary:
    problems: list[str] = field(default_factory=list)
    events: int = 0
    intervals_finalized: int = 0
    traded_kwh: float = 0.0
    sell_offered_kwh: float = 0.0
    buy_offered_kwh: float = 0.0


def _reservation(offer: dict) -> tuple[float, float]:
    """(lowest acceptable, highest acceptable) unit price for an offer."""
    price = offer["reservation_price"]
    if offer["side"] == "selling":
        return (0.0 if price is None else float(price)), float("inf")
    return 0.0, (float("inf") if price is None else float(price))


def check_records(records: Iterable[dict]) -> LogSummary:
    """Check parsed log records (header first, then events in order)."""
    out = LogSummary()
    problems = out.problems
    records = iter(records)
    header = next(records, None)
    if header is None or header.get("record") != "header":
        problems.append("log does not start with a header record")
        return out
    grid = header["grid"]
    dt = float(grid["interval_hours"])
    feeders = {f["id"]: (float(f["net_flow_limit_kw"]), float(f["internal_limit_kw"]))
               for f in grid["feeders"]}

    offers: dict[int, dict] = {}
    delivered: dict[int, float] = {}
    production: dict[tuple[str, int], float] = {}
    consumption: dict[tuple[str, int], float] = {}
    finalized: set[int] = set()
    trades_since_advance = 0
    current_interval = 0
    expected_seq = 1

    for rec in records:
        if rec.get("record") != "event":
            problems.append(f"unexpected record {rec.get('record')!r}")
            continue
        out.events += 1
        seq, kind, p = rec["seq"], rec["kind"], rec["payload"]
        if seq != expected_seq:
            problems.append(f"seq {seq}: expected {expected_seq}")
        expected_seq = seq + 1
        if kind == "OfferPosted":
            oid = int(p["offer_id"])
            if oid in offers:
                problems.append(f"seq {seq}: offer {oid} posted twice")
            offers[oid] = p
            energy = float(p["energy_kwh"])
            if p["side"] == "selling":
                out.sell_offered_kwh += energy
            else:
                out.buy_offered_kwh += energy
        elif kind == "TradeFinalized":
            trades_since_advance += 1
            s_id, b_id = int(p["sell_offer"]), int(p["buy_offer"])
            t, power, price = int(p["interval"]), float(p["power_kw"]), float(p["price"])
            sell, buy = offers.get(s_id), offers.get(b_id)
            where = f"seq {seq}: trade ({s_id},{b_id},{t})"
            if sell is None or sell["side"] != "selling":
                problems.append(f"{where}: {s_id} is not a posted sell offer")
                continue
            if buy is None or buy["side"] != "buying":
                problems.append(f"{where}: {b_id} is not a posted buy offer")
                continue
            if not (power > 0.0 and power < float("inf")):
                problems.append(f"{where}: power {power} is not positive and finite")
            if t in finalized:
                problems.append(f"{where}: interval {t} was already finalized")
            for offer in (sell, buy):
                if not int(offer["start"]) <= t <= int(offer["end"]):
                    problems.append(f"{where}: outside the window of offer {offer['offer_id']}")
            lo = _reservation(sell)[0]
            hi = _reservation(buy)[1]
            if price < lo - TOL or price > hi + TOL:
                problems.append(f"{where}: price {price} outside [{lo}, {hi}]")
            energy = power * dt
            out.traded_kwh += energy
            delivered[s_id] = delivered.get(s_id, 0.0) + energy
            delivered[b_id] = delivered.get(b_id, 0.0) + energy
            for table, feeder in ((production, sell["feeder"]), (consumption, buy["feeder"])):
                table[(feeder, t)] = table.get((feeder, t), 0.0) + power
        elif kind == "IntervalAdvanced":
            fin = int(p["finalized_interval"])
            if int(p["interval"]) != current_interval + 1:
                problems.append(f"seq {seq}: interval advance is not sequential")
            if int(p["trade_count"]) != trades_since_advance:
                problems.append(f"seq {seq}: trade_count {p['trade_count']} but "
                                f"{trades_since_advance} trades were finalized")
            if fin in finalized:
                problems.append(f"seq {seq}: interval {fin} finalized twice")
            finalized.add(fin)
            current_interval = int(p["interval"])
            trades_since_advance = 0
            out.intervals_finalized += 1

    for oid in sorted(delivered):
        energy = float(offers[oid]["energy_kwh"])
        if delivered[oid] > energy + TOL:
            problems.append(f"offer {oid} delivers {delivered[oid]} kWh of {energy}")
    for feeder_id, t in sorted(set(production) | set(consumption)):
        if feeder_id not in feeders:
            problems.append(f"feeder {feeder_id}@{t}: not in the grid")
            continue
        net_limit, internal_limit = feeders[feeder_id]
        prod = production.get((feeder_id, t), 0.0)
        cons = consumption.get((feeder_id, t), 0.0)
        if prod > internal_limit + TOL or cons > internal_limit + TOL:
            problems.append(f"feeder {feeder_id}@{t}: production {prod} or consumption "
                            f"{cons} kW exceeds internal limit {internal_limit}")
        if abs(prod - cons) > net_limit + TOL:
            problems.append(f"feeder {feeder_id}@{t}: net flow {prod - cons} kW "
                            f"exceeds limit {net_limit}")
    if out.traded_kwh > min(out.sell_offered_kwh, out.buy_offered_kwh) + TOL:
        problems.append(f"traded {out.traded_kwh} kWh exceeds offered energy")
    return out


def check_log(path) -> LogSummary:
    with open(path, "r", encoding="utf-8") as fh:
        return check_records(json.loads(line) for line in fh if line.strip())


def removed_participant_problems(path, participant: str) -> list[str]:
    """A removed participant has no finalized trade after its removal.

    Its trades may stand only at intervals already finalized when the
    ``ParticipantRemoved`` event was appended.
    """
    with open(path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()][1:]
    owned: set[int] = set()
    pinned_through = None
    finalized_through = 0
    late: list[str] = []
    for rec in records:
        kind, p = rec["kind"], rec["payload"]
        if kind == "OfferPosted" and p["participant"] == participant:
            owned.add(int(p["offer_id"]))
        elif kind == "IntervalAdvanced":
            finalized_through = int(p["finalized_interval"])
        elif kind == "ParticipantRemoved" and p["participant"] == participant:
            pinned_through = finalized_through
        elif (kind == "TradeFinalized" and pinned_through is not None
              and ({int(p["sell_offer"]), int(p["buy_offer"])} & owned)
              and int(p["interval"]) > pinned_through):
            late.append(f"seq {rec['seq']}: {participant} trades at interval "
                        f"{p['interval']} after removal at {pinned_through}")
    if pinned_through is None:
        late.append(f"{participant} was never removed")
    return late


# -- self-test ---------------------------------------------------------------

def _event(seq: int, kind: str, payload: dict) -> dict:
    return {"record": "event", "seq": seq, "time": 0.0, "kind": kind, "payload": payload}


def _offer(seq: int, oid: int, side: str, feeder: str, energy: float,
           price: float | None = None) -> dict:
    return _event(seq, "OfferPosted", {
        "offer_id": oid, "participant": f"p{oid}", "side": side, "feeder": feeder,
        "energy_kwh": energy, "start": 1, "end": 1, "reservation_price": price})


def _hand_made_log(power: float, price: float, buy_energy: float = 10.0,
                   buy_feeder: str = "a") -> list[dict]:
    """One seller (reserve 0.2) and one buyer (reserve 0.6); one trade at interval 1.

    Feeder ``a`` allows 20 kW internally and 20 kW net; feeder ``b`` allows
    only 5 kW net, so a 10 kW trade from ``a`` into ``b`` breaks it.
    """
    header = {"record": "header", "format": "gridtrade-events", "version": 1,
              "price_cap": 1.0, "grid": {"interval_hours": 1.0, "clearing_lead": 1, "feeders": [
                  {"id": "a", "net_flow_limit_kw": 20.0, "internal_limit_kw": 20.0},
                  {"id": "b", "net_flow_limit_kw": 5.0, "internal_limit_kw": 20.0}]}}
    return [
        header,
        _offer(1, 1, "selling", "a", 10.0, 0.2),
        _offer(2, 2, "buying", buy_feeder, buy_energy, 0.6),
        _event(3, "TradeFinalized", {"sell_offer": 1, "buy_offer": 2, "interval": 1,
                                     "power_kw": power, "price": price}),
        _event(4, "IntervalAdvanced", {"interval": 1, "finalized_interval": 1,
                                       "trade_count": 1}),
    ]


def self_test() -> list[str]:
    """Return failures of the checker on hand-made logs (empty when sound)."""
    cases = [
        ("clean", _hand_made_log(4.0, 0.4), None),
        ("over-budget", _hand_made_log(8.0, 0.4, buy_energy=6.0), "delivers"),
        ("over-feeder", _hand_made_log(10.0, 0.4, buy_feeder="b"), "net flow"),
        ("out-of-band price", _hand_made_log(4.0, 0.7), "outside ["),
    ]
    failures = []
    for name, records, needle in cases:
        problems = check_records(records).problems
        if needle is None and problems:
            failures.append(f"{name}: clean log flagged: {problems}")
        if needle is not None and not any(needle in p for p in problems):
            failures.append(f"{name}: not flagged (got {problems})")
    return failures


if __name__ == "__main__":
    failures = self_test()
    print("\n".join(failures) or "logcheck self-test: ok")
    sys.exit(1 if failures else 0)
