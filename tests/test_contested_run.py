"""A small contested day: the kept offer book, its open-offer index, and a
golden event log.

Three solvers and adversaries share a twelve-home community; a producer
fails for good partway through and one solver fails and recovers. The
solvers clear from ``ContractState.open_offers`` instead of the whole book,
so the index must hold exactly the offers that can still trade, and the LP
built from it must be the LP built from the whole book.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from gridtrade.ledger import (EventKind, LedgerEvent, read_events_jsonl, verify_log,
                              write_events_jsonl)
from gridtrade.market import Feeder, GridModel
from gridtrade.sim import FailureSpec, SimConfig, Simulation
from gridtrade.solver import SolverAgent, build_lp
from gridtrade.traces import synthesize_traces

HORIZON = 32

# SHA-256 of ``events.jsonl`` for ``contested_day(n_adversaries=2)`` (657
# events, 136,241 bytes), taken when the DSO and the solvers began to register
# with no feeder. Before, they named ``__operator__``, which the header listed
# (57d325c0..., 136,395 bytes); every other line is unchanged. A change that
# only makes the program faster must leave it as it is. Should it change on
# purpose (a rule, the log format, the LP's tie-break, or a SciPy or NumPy
# release that moves HiGHS's vertex or the seeded draws), record the new value
# and the reason in CHANGES.md.
GOLDEN_EVENTS_SHA256 = "d65d37ebb016b47039841d2dc05b0324332f2a3d12536ca135dd51423f3feb7f"


def contested_day(n_adversaries: int) -> Simulation:
    traces = synthesize_traces(12, 3, 3, HORIZON, seed=5)
    grid = GridModel(tuple(Feeder(f"f{i:02d}", 2.0, 2.5) for i in (1, 2, 3)), 0.25, 1)
    config = SimConfig(
        grid=grid, horizon=HORIZON, seconds_per_interval=4.0, prediction_window=3,
        solver_period=2.0, lookahead=5, n_solvers=3, n_adversaries=n_adversaries, seed=1,
        failures=(FailureSpec("p001", 60.0), FailureSpec("solver-2", 40.0, 70.0)))
    return Simulation(config, traces)


def assert_index_consistent(state, now: int, config) -> None:
    book, pinned = state.book, state.pinned
    assert book == {**state.selling, **state.buying}
    assert state.open_offers == {oid: o for oid, o in book.items()
                                 if o.end > pinned.finalized_through}
    windowed = build_lp(state.open_offers, state.grid, pinned, now, config)
    full = build_lp(book, state.grid, pinned, now, config)
    assert windowed.variables == full.variables
    assert np.array_equal(windowed.rhs, full.rhs)
    assert np.array_equal(windowed.tie_break, full.tie_break)
    assert windowed.matrix.shape == full.matrix.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(windowed.matrix, part), getattr(full.matrix, part))


def test_open_offer_index_matches_the_book_at_every_solver_step(monkeypatch):
    sim = contested_day(n_adversaries=1)
    original = SolverAgent.step
    checked = []

    def checked_step(agent, events, *, time=0.0):
        agent.observe(events)
        now = agent.mirror.current_interval
        assert_index_consistent(agent.mirror, now, agent.config)
        assert_index_consistent(sim.contract.state, now, agent.config)
        checked.append(now)
        return original(agent, events, time=time)

    monkeypatch.setattr(SolverAgent, "step", checked_step)
    report = sim.run()
    state = sim.contract.state
    assert len(checked) > 100
    assert {o.prosumer for o in state.retired.values()} == {"p001"}
    assert state.open_offers == {}
    assert report.metrics.traded_kwh > 0


@pytest.fixture(scope="module")
def golden_report():
    return contested_day(n_adversaries=2).run()


def test_event_log_digest_is_unchanged(golden_report, tmp_path):
    report = golden_report
    path = write_events_jsonl(tmp_path / "events.jsonl", report.events, report.grid,
                              price_cap=report.price_cap)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_EVENTS_SHA256


def test_every_record_reads_back_as_written(golden_report, tmp_path):
    """Catches any value the writer would spell as ``null``, such as NaN."""
    report = golden_report
    path = write_events_jsonl(tmp_path / "events.jsonl", report.events, report.grid,
                              price_cap=report.price_cap)
    _, events = read_events_jsonl(path)
    assert len(events) == len(report.events)
    for read, written in zip(events, report.events):
        assert read.to_record() == written.to_record()


def _other_feeder(payload, rng):
    return {**payload, "feeder": rng.choice(sorted({"f01", "f02", "f03"} - {payload["feeder"]}))}


def _drop_or_add_objective(payload, rng):
    if "objective" in payload:
        return {k: v for k, v in payload.items() if k != "objective"}
    return {**payload, "objective": 1.0}


def _scored(payload):
    return "objective" in payload


def _prosumer(payload):
    return payload["role"] == "prosumer"


def _first_offer(events, event):
    return next(e.seq for e in events if e.kind == EventKind.OFFER_POSTED
                and e.payload["participant"] == event.payload["participant"])


# One edit per case: the event kind it targets, which of those events it may
# target (None: any) and the edit. A moved offer or an unregistered solver
# breaks no rule of its own event's fields; only re-executing the operation
# shows it.
MUTATIONS = {
    "offer-moved-to-another-feeder": (EventKind.OFFER_POSTED, None, _other_feeder),
    "accepted-from-unregistered": (EventKind.SOLUTION_ACCEPTED, None,
                                   lambda p, rng: {**p, "participant": f"intruder-{rng.random()}"}),
    "finalized-price-edited": (EventKind.TRADE_FINALIZED, None,
                               lambda p, rng: {**p, "price": p["price"] + rng.uniform(0.01, 0.5)}),
    "rejected-from-unregistered": (EventKind.SOLUTION_REJECTED, None,
                                   lambda p, rng: {**p, "participant": f"intruder-{rng.random()}"}),
    "rejection-reason-unknown": (EventKind.SOLUTION_REJECTED, None, lambda p, rng: {
        **p, "reason": rng.choice(["accepted", "infeasible: teleport", "infeasible: ",
                                   "infeasible: price-band, energy-buyer", "not better"])}),
    "rejection-objective-dropped-or-added": (EventKind.SOLUTION_REJECTED, None,
                                             _drop_or_add_objective),
    "rejection-objective-not-a-finite-number": (
        EventKind.SOLUTION_REJECTED, _scored, lambda p, rng: {
            **p, "objective": rng.choice([math.nan, math.inf, -math.inf, "1.0", None])}),
    "not-better-beats-candidate": (EventKind.SOLUTION_REJECTED, None, lambda p, rng: {
        "participant": p["participant"], "reason": "not-better",
        "objective": rng.uniform(1e3, 1e6)}),
    "prosumer-role-rewritten": (EventKind.PROSUMER_REGISTERED, _prosumer,
                                lambda p, rng: {**p, "role": rng.choice(["solver", "dso"])}),
}
# Edits that break no rule of their own event, and the seq each is flagged at
# instead: a prosumer registered as a solver or the DSO may not post offers.
FLAGGED_LATER = {"prosumer-role-rewritten": _first_offer}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_every_edit_is_flagged_at_its_seq(golden_report, case):
    """20 seeded edits of one kind, each in its own copy of the golden log."""
    kind, target, edit = MUTATIONS[case]
    events, grid = golden_report.events, golden_report.grid
    assert verify_log(grid, events) == []
    targets = [i for i, e in enumerate(events)
               if e.kind == kind and (target is None or target(e.payload))]
    rng = random.Random(case)
    for _ in range(20):
        i = rng.choice(targets)
        event = events[i]
        mutated = LedgerEvent(event.seq, event.time, event.kind, edit(event.payload, rng))
        assert mutated != event
        seq = FLAGGED_LATER[case](events, event) if case in FLAGGED_LATER else event.seq
        problems = verify_log(grid, [*events[:i], mutated, *events[i + 1:]])
        assert len(problems) == 1 and problems[0].startswith(f"seq {seq}: "), problems
