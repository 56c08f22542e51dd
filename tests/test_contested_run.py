"""A small contested day: the kept offer book, its open-offer index, and a
golden event log.

Three solvers and adversaries share a twelve-home community; a producer
fails for good partway through and one solver fails and recovers. The
solvers clear from ``ContractState.open_offers`` instead of the whole book,
so the index must hold exactly the offers that can still trade, and the LP
built from it must be the LP built from the whole book.
"""

import gc
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from gridtrade.ledger import (ContractState, EventKind, LedgerEvent, read_events_jsonl,
                              verify_log, write_events_jsonl)
from gridtrade.market import Feeder, GridModel, Side
from gridtrade.sim import AdversaryAgent, FailureSpec, SimConfig, Simulation
from gridtrade import solver as solver_mod
from gridtrade.solver import SolverAgent, build_lp
from gridtrade.traces import synthesize_traces

HORIZON = 32

# SHA-256 of ``events.jsonl`` for ``contested_day(n_adversaries=2)`` (657
# events, 136,277 bytes), taken when the LP began to give one column to each
# class of identical offers: which offer of a class carries a flow, and so
# the trade rows, moved, while the traded kWh (8.9376) did not. Before, it was
# d65d37eb... (136,241 bytes). A change that only makes the program faster
# must leave it as it is. Should it change on purpose (a rule, the log
# format, the LP's columns or tie-break, or a SciPy or NumPy release that
# moves HiGHS's vertex or the seeded draws), record the new value and the
# reason in CHANGES.md.
GOLDEN_EVENTS_SHA256 = "936fc3b2ffce88f48c7ca3fb99b5a9c87de3542294a6644d95088af0bfc3fc6f"


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
    for view, side in ((state.selling, Side.SELLING), (state.buying, Side.BUYING)):
        assert list(view) == [oid for oid, o in book.items() if o.side is side]
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


def test_mirrors_apply_each_outcome_the_contract_decided(monkeypatch):
    """On each removal and each finalization every solver mirror takes the
    contract's own candidate, not a copy it recomputed or split again, and
    each ends the day with the contract's pins and state."""
    sim = contested_day(n_adversaries=2)
    original = ContractState.apply
    decisions = {}

    def apply(state, event):
        original(state, event)
        if event.kind in (EventKind.PARTICIPANT_REMOVED, EventKind.INTERVAL_ADVANCED):
            decisions.setdefault(event.seq, []).append((state, state.candidate))

    monkeypatch.setattr(ContractState, "apply", apply)
    sim.run()
    for agent in sim.solvers.values():
        agent.observe(sim.contract.events)  # the events after its last tick
    contract = sim.contract.state
    mirrors = {id(agent.mirror) for agent in sim.solvers.values()}
    assert len(decisions) == 2 + HORIZON and len(mirrors) == 3
    for (own, decided), *applied in decisions.values():
        assert own is contract and {id(state) for state, _ in applied} == mirrors
        assert all(candidate is decided for _, candidate in applied)
    for agent in sim.solvers.values():
        assert agent.mirror.pinned.snapshot() == contract.pinned.snapshot()
        assert agent.mirror.snapshot() == contract.snapshot()


def test_adversary_sides_match_the_book_at_every_draw(monkeypatch):
    """The adversary's per-side lists, kept from the book's tail, equal the
    whole book split by side at every draw, before and after the removal."""
    sim = contested_day(n_adversaries=2)
    original = AdversaryAgent._book_sides
    draws = []

    def book_sides(agent, state):
        sells, buys = original(agent, state)
        book = list(state.book.values())
        assert sells == [o for o in book if o.side is Side.SELLING]
        assert buys == [o for o in book if o.side is Side.BUYING]
        draws.append(len(state.retired))
        return sells, buys

    monkeypatch.setattr(AdversaryAgent, "_book_sides", book_sides)
    sim.run()  # make_submission lets a failed check out of the run
    assert draws[0] == 0 and draws[-1] > 0


def test_three_solvers_share_one_solve_per_ledger_state(monkeypatch, tmp_path):
    """The solvers tick in turn at one timestamp on identical mirrors, so
    the first to tick at a ledger state builds and solves its LP and the
    others take that solve; the log is the golden one.

    21 distinct LPs take 21 HiGHS runs: the removal of the failed solver-2,
    which withdraws no offer, leaves the LP head where it was, so no LP is
    solved twice.
    """
    builds, solves, runs = [], [], []
    build_lp = solver_mod.build_lp
    solve_with_diagnostics, linprog = solver_mod.solve_with_diagnostics, solver_mod.linprog

    def build_counted(*args, **kwargs):
        builds.append(args[3])
        return build_lp(*args, **kwargs)

    def solve_counted(instance):
        if instance.n_variables:
            a = instance.matrix
            solves.append(repr((instance.variables, a.shape)).encode() + b"".join(
                v.tobytes() for v in (instance.c, instance.tie_break, a.data, a.indices,
                                      a.indptr, instance.rhs)))
        return solve_with_diagnostics(instance)

    def linprog_counted(c, a, rhs):
        runs.append(a.shape)
        return linprog(c, a, rhs)

    monkeypatch.setattr(solver_mod, "build_lp", build_counted)
    monkeypatch.setattr(solver_mod, "solve_with_diagnostics", solve_counted)
    monkeypatch.setattr(solver_mod, "linprog", linprog_counted)
    monkeypatch.setattr(solver_mod, "_last_solve", None)
    report = contested_day(n_adversaries=2).run()
    assert len(builds) == 33
    assert len(solves) == len(runs) == len(set(solves)) == 21
    path = write_events_jsonl(tmp_path / "events.jsonl", report.events, report.config.grid,
                              price_cap=report.config.price_cap)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_EVENTS_SHA256


@pytest.fixture(scope="module")
def golden_report():
    return contested_day(n_adversaries=2).run()


def test_event_log_digest_is_unchanged(golden_report, tmp_path):
    report = golden_report
    path = write_events_jsonl(tmp_path / "events.jsonl", report.events, report.config.grid,
                              price_cap=report.config.price_cap)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_EVENTS_SHA256


def test_every_record_reads_back_as_written(golden_report, tmp_path):
    """Catches any value the writer would spell as ``null``, such as NaN."""
    report = golden_report
    path = write_events_jsonl(tmp_path / "events.jsonl", report.events, report.config.grid,
                              price_cap=report.config.price_cap)
    _, events = read_events_jsonl(path)
    events = list(events)
    assert len(events) == len(report.events)
    for read, written in zip(events, report.events):
        assert read.to_record() == written.to_record()


def traced_peak(call) -> int:
    """Bytes held at the peak of ``call()`` beyond those held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_writing_the_log_holds_one_line_at_a_time(golden_report, tmp_path):
    """orjson reserves about 1 KB for each line it returns; joining the
    golden day's 657 lines before writing them peaked at 0.9 MB."""
    report = golden_report

    def write():
        write_events_jsonl(tmp_path / "events.jsonl", report.events, report.config.grid,
                           price_cap=report.config.price_cap)

    write()  # the first write imports orjson
    peak = traced_peak(write)
    assert peak < 64 * 1024, f"writing the log peaked at {peak:,} bytes"


def test_reading_and_verifying_the_log_holds_one_event_at_a_time(golden_report, tmp_path):
    """Reading every event before verifying peaked at 4.5 times the log's size."""
    report = golden_report
    path = write_events_jsonl(tmp_path / "events.jsonl", report.events, report.config.grid,
                              price_cap=report.config.price_cap)

    def read_and_verify():
        header, events = read_events_jsonl(path)
        assert verify_log(GridModel.from_payload(header["grid"]), events) == []

    read_and_verify()
    peak = traced_peak(read_and_verify)
    assert peak < 2 * path.stat().st_size, f"read and verify peaked at {peak:,} bytes"


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


def _removed_any(payload):
    return bool(payload["removed_offers"])


def _keep_one_offer(payload, rng):
    removed = list(payload["removed_offers"])
    removed.remove(rng.choice(removed))
    return {**payload, "removed_offers": removed}


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
    "removal-objective-edited": (EventKind.PARTICIPANT_REMOVED, None, lambda p, rng: {
        **p, "candidate_objective": p["candidate_objective"] + rng.uniform(0.01, 1.0)}),
    "removal-keeps-an-offer": (EventKind.PARTICIPANT_REMOVED, _removed_any, _keep_one_offer),
}
# Edits that break no rule of their own event, and the seq each is flagged at
# instead: a prosumer registered as a solver or the DSO may not post offers.
FLAGGED_LATER = {"prosumer-role-rewritten": _first_offer}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_every_edit_is_flagged_at_its_seq(golden_report, case):
    """20 seeded edits of one kind, each in its own copy of the golden log."""
    kind, target, edit = MUTATIONS[case]
    events, grid = golden_report.events, golden_report.config.grid
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
