"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence (run with ``pytest -s`` to see them
inline). Scenario runs are shared through a module fixture so the whole
suite stays fast.
"""

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from gridtrade.cli import main as cli_main
from gridtrade.controller import (
    AffineResourceModel,
    ControllerState,
    ResourceSignal,
    low_level_update,
    top_level_update,
)
from gridtrade.ledger import (
    Contract,
    EventKind,
    Role,
    read_events_jsonl,
    replay_events,
    verify_log,
)
from gridtrade.market import (
    Feeder,
    GridModel,
    Side,
    Solution,
    check_feasibility,
    objective,
)
from gridtrade.metrics import DEFAULT_UNIT_PRICE, Metrics, export_report
from gridtrade.oracle import run_comparison_suite
from gridtrade.sim import FailureSpec, SimConfig, run
from gridtrade.solver import SolverConfig, build_lp, solve
from gridtrade.traces import ProsumerTrace, synthesize_traces

from conftest import make_battery_traces

MARGIN = 1e-9


def series(values: dict[int, float], horizon: int) -> tuple[float, ...]:
    return tuple(values.get(i, 0.0) for i in range(horizon))


def single_feeder_grid(interval_hours=1.0, lead=1, cap=1000.0) -> GridModel:
    return GridModel((Feeder("main", cap, cap),), interval_hours, lead)


def scarce_battery_day(horizon: int = 16) -> list[ProsumerTrace]:
    """Fixed day where surplus begins midway and battery energy is scarce."""
    demand = {**{i: 1.0 for i in range(1, 8)}, **{i: 4.0 for i in range(8, 16)}}
    return [
        ProsumerTrace("c1", "main", series({}, horizon), series(demand, horizon)),
        ProsumerTrace("fp1", "main", series({8: 8.0}, horizon), series({}, horizon),
                      flexible=True, flex_window=8),
        ProsumerTrace("ip1", "main", series({i: 3.0 for i in range(8, 16)}, horizon),
                      series({}, horizon)),
    ]


@dataclass
class Bundle:
    config: SimConfig
    report: object
    wall_time: float
    out_dir: Path


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, Bundle]:
    """Execute and export every scenario the criteria share."""
    root = tmp_path_factory.mktemp("acceptance")
    grid1 = single_feeder_grid()
    bundles: dict[str, Bundle] = {}

    def record(name: str, config: SimConfig, traces) -> Bundle:
        started = time.monotonic()
        report = run(config, traces)
        elapsed = time.monotonic() - started
        out_dir = root / name
        export_report(report, out_dir)
        bundle = Bundle(config, report, elapsed, out_dir)
        bundles[name] = bundle
        return bundle

    record("battery", SimConfig(
        grid=grid1, horizon=50, seconds_per_interval=2.0, prediction_window=3,
        solver_period=1.0, lookahead=3, n_solvers=1, seed=1), make_battery_traces())
    record("battery_greedy", SimConfig(
        grid=grid1, horizon=50, seconds_per_interval=2.0, prediction_window=3,
        solver_period=1.0, lookahead=1, n_solvers=1, seed=1), make_battery_traces())

    community = synthesize_traces(12, 2, 3, 24, seed=9)
    grid_c = GridModel(tuple(Feeder(f, 40.0, 50.0)
                             for f in sorted({t.feeder for t in community})), 0.25, 1)
    record("community", SimConfig(
        grid=grid_c, horizon=24, seconds_per_interval=4.0, prediction_window=3,
        solver_period=2.0, lookahead=4, n_solvers=1, seed=9, adaptive=True),
        community)

    steady = [
        ProsumerTrace("s1", "main", (2.0,) * 12, (0.0,) * 12),
        ProsumerTrace("c1", "main", (0.0,) * 12, (2.0,) * 12),
    ]
    record("failure_prosumer", SimConfig(
        grid=grid1, horizon=12, seconds_per_interval=4.0, prediction_window=3,
        solver_period=1.0, lookahead=3, n_solvers=1, seed=3,
        failures=(FailureSpec("s1", 22.0),)), steady)
    record("solvers_two", SimConfig(
        grid=grid1, horizon=12, seconds_per_interval=4.0, prediction_window=3,
        solver_period=1.0, lookahead=3, n_solvers=2, seed=3), steady)
    record("solvers_kill_1", SimConfig(
        grid=grid1, horizon=12, seconds_per_interval=4.0, prediction_window=3,
        solver_period=1.0, lookahead=3, n_solvers=2, seed=3,
        failures=(FailureSpec("solver-1", 18.0),)), steady)
    record("solvers_kill_2", SimConfig(
        grid=grid1, horizon=12, seconds_per_interval=4.0, prediction_window=3,
        solver_period=1.0, lookahead=3, n_solvers=2, seed=3,
        failures=(FailureSpec("solver-2", 18.0),)), steady)

    record("adversary", SimConfig(
        grid=grid1, horizon=30, seconds_per_interval=2.0, prediction_window=3,
        solver_period=1.0, lookahead=3, n_solvers=1, n_adversaries=2, seed=4),
        make_battery_traces())

    big = synthesize_traces(102, 5, 11, 96, seed=7)
    grid_big = GridModel(tuple(Feeder(f, 2000.0, 2500.0)
                               for f in sorted({t.feeder for t in big})), 0.25, 1)
    record("big_day", SimConfig(
        grid=grid_big, horizon=96, seconds_per_interval=4.0, prediction_window=3,
        solver_period=2.0, lookahead=5, n_solvers=1, seed=7), big)

    return bundles


def finalized_records(report) -> list[str]:
    """The finalized schedule: every trade with its finalization time.

    Sequence numbers are log positions, not schedule content; a silenced
    solver stops emitting rejection events, which shifts them.
    """
    return [json.dumps({"time": e.time, "kind": e.kind, "payload": e.payload},
                       sort_keys=True)
            for e in report.events if e.kind == EventKind.TRADE_FINALIZED]


def test_c01_two_interval_optimum_reproduction(runs):
    bundle = runs["battery"]
    per = {r.interval: r.traded_kwh for r in bundle.report.metrics.per_interval}
    assert abs(bundle.report.metrics.traded_kwh - 40.0) <= MARGIN
    assert abs(per[48] - 30.0) <= MARGIN
    assert abs(per[49] - 10.0) <= MARGIN
    greedy = runs["battery_greedy"].report.metrics.traded_kwh
    assert abs(greedy - 30.0) <= MARGIN
    assert bundle.wall_time < 1.0
    print(f"\nACCEPTANCE C01 two-interval optimum: PASS "
          f"(traded 40 vs greedy 30; 30@48 + 10@49; {bundle.wall_time:.3f}s)")


def test_c02_oracle_equivalence_on_random_instances():
    started = time.monotonic()
    results = run_comparison_suite(200, seed=42)
    elapsed = time.monotonic() - started
    worst = max(r.difference for r in results)
    assert len(results) == 200
    assert all(r.difference <= 1e-6 for r in results)
    assert all(r.feasible for r in results)
    assert all(not r.certificate_problems for r in results)
    assert elapsed < 60.0
    print(f"ACCEPTANCE C02 oracle equivalence: PASS "
          f"(200 instances, worst gap {worst:.2e}, {elapsed:.1f}s)")


def _adversarial_solution(rng: np.random.Generator, state) -> Solution | None:
    book = state.book
    sells = [o for o in book.values() if o.side is Side.SELLING]
    buys = [o for o in book.values() if o.side is Side.BUYING]
    strategy = int(rng.integers(0, 7))
    try:
        if strategy == 0 and len(state.candidate):
            return Solution({k: (p * float(rng.uniform(0.0, 3.0)), pi)
                             for k, (p, pi) in state.candidate.items()})
        if strategy == 1 and sells and buys:
            s = sells[int(rng.integers(0, len(sells)))]
            b = buys[int(rng.integers(0, len(buys)))]
            t = int(rng.integers(min(s.start, b.start), max(s.end, b.end) + 1))
            return Solution({(s.id, b.id, t):
                             (float(rng.uniform(5.0, 50.0)) + s.energy_kwh, 0.2)})
        if strategy == 2:
            overlay = state.pinned.overlay()
            if overlay:
                entries = dict(state.candidate.items())
                key = sorted(overlay)[int(rng.integers(0, len(overlay)))]
                p, pi = overlay[key]
                entries[key] = (p + float(rng.uniform(0.5, 4.0)), pi)
                return Solution(entries)
        if strategy == 3 and len(state.candidate):
            entries = {k: (p, -0.4) for k, (p, pi) in state.candidate.items()}
            return Solution(entries)
        if strategy == 4 and sells:
            s = sells[int(rng.integers(0, len(sells)))]
            return Solution({(s.id, 424242, s.start): (1.0, 0.2)})
        if strategy == 5 and len(sells) >= 2:
            a, b = sells[0], sells[1]
            return Solution({(a.id, b.id, a.start): (1.0, 0.2)})
        if strategy == 6 and sells and buys:
            # a plausible improvement: the candidate plus one small extra trade
            s = sells[int(rng.integers(0, len(sells)))]
            b = buys[int(rng.integers(0, len(buys)))]
            lo = max(s.start, b.start, state.pinned.finalized_through + 1)
            hi = min(s.end, b.end)
            if lo > hi:
                return None
            t = int(rng.integers(lo, hi + 1))
            entries = dict(state.candidate.items())
            key = (s.id, b.id, t)
            power, price = entries.get(key, (0.0, 0.2))
            entries[key] = (power + float(rng.uniform(0.05, 0.5)), price)
            return Solution(entries)
    except Exception:
        return None
    return None


def test_c03_contract_safety_fuzz():
    rng = np.random.default_rng(1234)
    grid = GridModel((Feeder("east", 4.0, 5.0), Feeder("west", 4.0, 5.0)), 1.0, 1)
    contract = Contract(grid, require_dso_finalize=False)
    for pid, feeder in (("seller-a", "east"), ("seller-b", "west"),
                        ("buyer-a", "west"), ("buyer-b", "east")):
        contract.register(pid, Role.PROSUMER, feeder)
    contract.register("clearing-agent", Role.SOLVER)

    solver_config = SolverConfig(lookahead=3, solve_period=1.0)
    pin_history: dict[int, dict] = {}
    submissions = 0
    accepted = 0
    started = time.monotonic()

    while submissions < 10_000:
        now = contract.state.current_interval
        for pid, side in (("seller-a", Side.SELLING), ("seller-b", Side.SELLING),
                          ("buyer-a", Side.BUYING), ("buyer-b", Side.BUYING)):
            if rng.random() < 0.8:
                start = now + 1 + int(rng.integers(0, 3))
                contract.post_offer(pid, side, start, start + int(rng.integers(0, 2)),
                                    0.25 * float(rng.integers(1, 12)))
        if rng.random() < 0.5:  # intermittent, so adversaries sometimes lead
            instance = build_lp(contract.state.book, contract.grid,
                                contract.state.pinned, now, solver_config,
                                retired=contract.state.retired)
            honest = solve(instance)
            if objective(honest) > contract.state.candidate_objective + MARGIN:
                contract.submit_solution("clearing-agent", honest)

        for _ in range(40):
            solution = _adversarial_solution(rng, contract.state)
            if solution is None:
                continue
            event = contract.submit_solution("clearing-agent", solution)
            submissions += 1
            if event.kind == EventKind.SOLUTION_ACCEPTED:
                accepted += 1

        report = contract.state.feasibility(contract.state.candidate)
        assert report.ok, f"candidate corrupted: {report.violations}"

        events = contract.finalize(None, now)
        pinned_interval = events[-1].payload["finalized_interval"]
        pin_history[pinned_interval] = contract.state.pinned.entries(pinned_interval)
        for interval, snapshot in pin_history.items():
            assert contract.state.pinned.entries(interval) == snapshot, \
                f"pinned interval {interval} mutated"

    problems = verify_log(grid, contract.events)
    assert problems == []
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE C03 contract safety fuzz: PASS "
          f"({submissions} adversarial submissions, {accepted} legitimately accepted, "
          f"{len(pin_history)} pinned intervals intact, {elapsed:.1f}s)")


def _assert_accepted_objectives_monotone(events) -> int:
    """Candidate objective may only rise at acceptances; removals reset it.

    The candidate covers open intervals only, so each finalized trade
    leaves it and takes its power out of the tracked objective.
    """
    candidate = 0.0
    accepted = 0
    for event in events:
        if event.kind == EventKind.SOLUTION_ACCEPTED:
            value = event.payload["objective"]
            assert value > candidate + MARGIN, (
                f"seq {event.seq}: accepted {value} <= candidate {candidate}")
            candidate = value
            accepted += 1
        elif event.kind == EventKind.TRADE_FINALIZED:
            candidate -= event.payload["power_kw"]
        elif event.kind == EventKind.PARTICIPANT_REMOVED:
            candidate = event.payload["candidate_objective"]
    return accepted


def test_c04_candidate_monotonicity_across_all_runs(runs):
    total = 0
    for name, bundle in runs.items():
        total += _assert_accepted_objectives_monotone(bundle.report.events)
    assert total > 0
    print(f"ACCEPTANCE C04 candidate monotonicity: PASS "
          f"({total} acceptances across {len(runs)} runs, zero violations)")


def test_c05_lookahead_tradeoff_plateau():
    grid = single_feeder_grid()
    traces = scarce_battery_day()
    traded: list[float] = []
    variables: list[int] = []
    for lookahead in range(1, 11):
        config = SimConfig(grid=grid, horizon=16, seconds_per_interval=4.0,
                           prediction_window=12, solver_period=2.0,
                           lookahead=lookahead, n_solvers=1, seed=2)
        report = run(config, traces)
        traded.append(report.metrics.traded_kwh)
        variables.append(report.max_variables)

    assert all(traded[i] <= traded[i + 1] + MARGIN for i in range(len(traded) - 1)), traded
    plateau = traded[-1]
    t_star = next(i + 1 for i, v in enumerate(traded) if abs(v - plateau) <= MARGIN)
    assert t_star < 16
    assert traded[0] < plateau - MARGIN  # the short view genuinely loses energy
    beyond = [i for i in range(t_star - 1, len(traded))]
    assert all(abs(traded[i] - plateau) <= MARGIN for i in beyond)
    grew = any(variables[j] > variables[t_star - 1]
               for j in range(t_star, len(variables)))
    assert grew, (variables, t_star)
    print(f"ACCEPTANCE C05 lookahead tradeoff: PASS "
          f"(traded {traded[0]:.0f}->{plateau:.0f}, plateau at T*={t_star}, "
          f"variables {variables[0]}->{max(variables)} keep growing)")


def test_c06_controller_pressure_and_convergence():
    # ~40 LP variables per lookahead interval; solve time affine in variables
    model = AffineResourceModel(base_seconds=0.03, seconds_per_variable=0.07 / 40)
    vars_for = lambda lookahead: 40 * lookahead

    state = ControllerState(clearing_lead=1, max_lookahead=12, lookahead=12)
    ceilings = []
    while state.max_lookahead > state.clearing_lead:
        state = top_level_update(state, ResourceSignal(cpu_fraction=0.45))
        ceilings.append(state.max_lookahead)
    assert ceilings == list(range(11, 0, -1))
    assert len(ceilings) <= 12 - 1

    state = ControllerState(clearing_lead=1, max_lookahead=30, lookahead=2)
    trail = []
    for _ in range(20):
        solve_time = model.solve_time(vars_for(state.lookahead))
        state = low_level_update(state, solve_time)
        trail.append(state.lookahead)
    assert trail[-1] == trail[-2]  # settled within 20 ticks
    final_time = model.solve_time(vars_for(trail[-1]))
    step = 0.5 / state.kp + model.solve_time(vars_for(1)) - model.solve_time(0)
    assert abs(final_time - state.setpoint) <= step
    print(f"ACCEPTANCE C06 controller behavior: PASS "
          f"(ceiling 12->1 under load; converged to lookahead {trail[-1]}, "
          f"solve time {final_time:.2f}s vs set point 0.5s)")


def test_c07_metric_formulas_and_capacity_sweep():
    loose = Metrics(4.5, 8.3, 3.668, DEFAULT_UNIT_PRICE)
    tight = Metrics(4.5, 8.3, 2.288, DEFAULT_UNIT_PRICE)
    assert abs(loose.unused_fraction * 100 - 19.0) <= 1.0
    assert abs(loose.unmet_fraction * 100 - 56.0) <= 1.0
    assert abs(tight.unused_fraction * 100 - 50.0) <= 1.0
    assert abs(tight.unmet_fraction * 100 - 73.0) <= 1.0

    horizon = 12
    traces = [
        ProsumerTrace("s1", "alpha", (3.0,) * horizon, (0.0,) * horizon),
        ProsumerTrace("s2", "alpha", (3.0,) * horizon, (0.0,) * horizon),
        ProsumerTrace("c1", "beta", (0.0,) * horizon, (3.0,) * horizon),
        ProsumerTrace("c2", "beta", (0.0,) * horizon, (3.0,) * horizon),
    ]
    results = {}
    for label, (net, internal) in {"tight": (2.0, 2.5), "loose": (200.0, 250.0)}.items():
        grid = GridModel((Feeder("alpha", net, internal), Feeder("beta", net, internal)),
                         1.0, 1)
        config = SimConfig(grid=grid, horizon=horizon, seconds_per_interval=2.0,
                           prediction_window=3, solver_period=1.0, lookahead=3,
                           n_solvers=1, seed=6)
        results[label] = run(config, traces).metrics.traded_kwh
    assert results["loose"] > results["tight"] + MARGIN
    print(f"ACCEPTANCE C07 metric formulas + capacity sweep: PASS "
          f"(19%/56% and 50%/73% within 1pt; traded {results['tight']:.0f} -> "
          f"{results['loose']:.0f} kWh when limits loosened)")


def test_c08_failure_resilience(runs):
    baseline = finalized_records(runs["solvers_two"].report)
    kill_1 = finalized_records(runs["solvers_kill_1"].report)
    kill_2 = finalized_records(runs["solvers_kill_2"].report)
    assert kill_1 == baseline
    assert kill_2 == baseline

    bundle = runs["failure_prosumer"]
    config, report = bundle.config, bundle.report
    removal = next(e for e in report.events
                   if e.kind == EventKind.PARTICIPANT_REMOVED)
    assert removal.time == pytest.approx(22.0 + config.notify_latency)
    pinned_at_removal = max(
        e.payload["finalized_interval"] for e in report.events
        if e.kind == EventKind.INTERVAL_ADVANCED and e.seq < removal.seq)
    seller_offers = {
        e.payload["offer_id"] for e in report.events
        if e.kind == EventKind.OFFER_POSTED and e.payload["participant"] == "s1"}
    seller_intervals = {
        e.payload["interval"] for e in report.events
        if e.kind == EventKind.TRADE_FINALIZED
        and e.payload["sell_offer"] in seller_offers}
    assert seller_intervals  # pinned trades retained
    assert max(seller_intervals) <= pinned_at_removal
    print(f"ACCEPTANCE C08 failure resilience: PASS "
          f"(schedules byte-identical under either solver kill; failed seller kept "
          f"intervals <= {pinned_at_removal}, later trades removed)")


def test_c09_event_sourcing_determinism(runs, capsys):
    verified = 0
    for name, bundle in runs.items():
        log_path = bundle.out_dir / "events.jsonl"
        header, events = read_events_jsonl(log_path)
        grid = GridModel.from_payload(header["grid"])
        state = replay_events(grid, events)
        assert state.snapshot() == bundle.report.final_state.snapshot(), name
        assert cli_main(["verify", "--log", str(log_path)]) == 0, name
        verified += 1
    capsys.readouterr()
    print(f"ACCEPTANCE C09 event-sourcing determinism: PASS "
          f"({verified} exported logs replay to identical state; verify exit 0)")


def test_c10_community_scale_throughput(runs):
    bundle = runs["big_day"]
    assert bundle.report.intervals_finalized == 96
    assert bundle.wall_time < 300.0
    assert bundle.report.metrics.traded_kwh > 0
    print(f"ACCEPTANCE C10 community-scale day: PASS "
          f"(102 homes x 96 intervals with lookahead 5 in {bundle.wall_time:.1f}s, "
          f"{bundle.report.metrics.traded_kwh:.0f} kWh traded)")
