import inspect
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtrade.ledger import ContractError, EventKind, replay_events, verify_log
from gridtrade.market import Feeder, GridModel, Solution, check_feasibility, PinnedTrades, Offer, Side
from gridtrade.sim import (
    AdversaryAgent,
    ConfigError,
    FailureSpec,
    SimConfig,
    Simulation,
    UnknownParticipantError,
    run,
)
from gridtrade.traces import ProsumerTrace, synthesize_traces

from conftest import BAD_COUNTS, BAD_NUMBERS, make_battery_traces


def base_config(grid, horizon, **overrides):
    defaults = dict(grid=grid, horizon=horizon, seconds_per_interval=2.0,
                    prediction_window=3, solver_period=1.0, lookahead=3,
                    n_solvers=1, seed=1)
    defaults.update(overrides)
    return SimConfig(**defaults)


def finalized_trades(report):
    return [
        (e.payload["sell_offer"], e.payload["buy_offer"], e.payload["interval"],
         e.payload["power_kw"], e.payload["price"])
        for e in report.events if e.kind == EventKind.TRADE_FINALIZED
    ]


class TestBatteryScenario:
    def test_pipeline_reaches_two_interval_optimum(self, grid, battery_traces):
        report = run(base_config(grid, 50), battery_traces)
        assert report.metrics.traded_kwh == pytest.approx(40.0, abs=1e-9)
        per = {r.interval: r.traded_kwh for r in report.metrics.per_interval}
        assert per[48] == pytest.approx(30.0, abs=1e-9)
        assert per[49] == pytest.approx(10.0, abs=1e-9)

    def test_greedy_lookahead_one_trades_less(self, grid, battery_traces):
        report = run(base_config(grid, 50, lookahead=1), battery_traces)
        assert report.metrics.traded_kwh == pytest.approx(30.0, abs=1e-9)


class TestRunBasics:
    def test_zero_demand_means_zero_trades(self, grid):
        traces = [
            ProsumerTrace("s1", "main", tuple([2.0] * 10), tuple([0.0] * 10)),
            ProsumerTrace("c1", "main", tuple([0.0] * 10), tuple([0.0] * 10)),
        ]
        report = run(base_config(grid, 10), traces)
        assert report.metrics.traded_kwh == 0.0
        assert all(r.traded_kwh == 0.0 for r in report.metrics.per_interval)

    def test_identical_config_gives_identical_report(self, grid, battery_traces):
        config = base_config(grid, 50)
        a = run(config, battery_traces)
        b = run(config, battery_traces)
        assert [e.to_record() for e in a.events] == [e.to_record() for e in b.events]
        assert a.final_state.snapshot() == b.final_state.snapshot()

    def test_every_interval_finalized_exactly_once(self, grid, battery_traces):
        report = run(base_config(grid, 50), battery_traces)
        advanced = [e.payload["finalized_interval"] for e in report.events
                    if e.kind == EventKind.INTERVAL_ADVANCED]
        assert advanced == list(range(1, 51))  # clearing lead of one

    def test_conservation_per_interval(self, grid, battery_traces):
        report = run(base_config(grid, 50), battery_traces)
        sell_cover: dict[int, float] = {}
        buy_cover: dict[int, float] = {}
        for e in report.events:
            if e.kind != EventKind.OFFER_POSTED:
                continue
            for t in range(e.payload["start"], e.payload["end"] + 1):
                side = sell_cover if e.payload["side"] == "selling" else buy_cover
                side[t] = side.get(t, 0.0) + e.payload["energy_kwh"]
        for row in report.metrics.per_interval:
            if row.traded_kwh == 0:
                continue
            bound = min(sell_cover.get(row.interval, 0.0), buy_cover.get(row.interval, 0.0))
            assert row.traded_kwh <= bound + 1e-9

    def test_final_candidate_and_pins_feasible(self, grid, battery_traces):
        report = run(base_config(grid, 50), battery_traces)
        snapshot = report.final_state.snapshot()
        book = {int(k): _offer_from_snapshot(v) for k, v in snapshot["selling"].items()}
        book.update({int(k): _offer_from_snapshot(v) for k, v in snapshot["buying"].items()})
        pinned = PinnedTrades(
            snapshot["pinned"]["finalized_through"],
            {int(t): {(s, b): (p, pi) for s, b, p, pi in entries}
             for t, entries in snapshot["pinned"]["intervals"].items()})
        candidate = Solution.from_payload(snapshot["candidate"])
        assert check_feasibility(candidate, book, report.config.grid, pinned).ok


def _offer_from_snapshot(payload):
    return Offer(payload["offer_id"], Side(payload["side"]), payload["participant"],
                 payload["feeder"], payload["energy_kwh"], payload["start"],
                 payload["end"], payload["reservation_price"])


class TestProsumerOffers:
    def test_single_surplus_yields_one_selling_offer(self, grid):
        trace = ProsumerTrace("p", "main", tuple(10.0 if i == 48 else 0.0 for i in range(50)),
                              tuple([0.0] * 50))
        from gridtrade.sim import ProsumerAgent
        agent = ProsumerAgent(trace, horizon=50)
        offers = agent.offers_for(47, clearing_lead=1, prediction_window=2)
        assert offers == [{"side": Side.SELLING, "start": 48, "end": 48,
                           "energy_kwh": 10.0}]

    def test_balanced_trace_yields_nothing(self, grid):
        trace = ProsumerTrace("p", "main", tuple([3.0] * 50), tuple([3.0] * 50))
        from gridtrade.sim import ProsumerAgent
        agent = ProsumerAgent(trace, horizon=50)
        assert agent.offers_for(47, 1, 2) == []

    def test_two_deficits_yield_two_buying_offers(self, grid):
        demand = {48: 30.0, 49: 10.0}
        trace = ProsumerTrace("p", "main", tuple([0.0] * 50),
                              tuple(demand.get(i, 0.0) for i in range(50)))
        from gridtrade.sim import ProsumerAgent
        agent = ProsumerAgent(trace, horizon=50)
        offers = agent.offers_for(47, 1, 2)
        assert offers == [
            {"side": Side.BUYING, "start": 48, "end": 48, "energy_kwh": 30.0},
            {"side": Side.BUYING, "start": 49, "end": 49, "energy_kwh": 10.0},
        ]

    def test_no_double_offering_across_steps(self, grid):
        trace = ProsumerTrace("p", "main", tuple([0.0] * 50), tuple([2.0] * 50))
        from gridtrade.sim import ProsumerAgent
        agent = ProsumerAgent(trace, horizon=50)
        first = agent.offers_for(0, 1, 3)
        second = agent.offers_for(1, 1, 3)
        assert [o["start"] for o in first] == [1, 2, 3]
        assert [o["start"] for o in second] == [4]

    def test_flexible_surplus_gets_window(self, grid):
        trace = ProsumerTrace("p", "main",
                              tuple(30.0 if i == 48 else 0.0 for i in range(50)),
                              tuple([0.0] * 50), flexible=True, flex_window=2)
        from gridtrade.sim import ProsumerAgent
        agent = ProsumerAgent(trace, horizon=50)
        offers = agent.offers_for(47, 1, 2)
        assert offers == [{"side": Side.SELLING, "start": 48, "end": 49,
                           "energy_kwh": 30.0}]


class TestClock:
    def test_fresh_sim_at_time_zero(self, grid, battery_traces):
        sim = Simulation(base_config(grid, 50), battery_traces)
        assert sim.time == 0.0
        assert sim.contract.state.current_interval == 0

    def test_interval_tracks_elapsed_time(self, grid, battery_traces):
        sim = Simulation(base_config(grid, 50), battery_traces)
        while sim.time < sim.config.seconds_per_interval:
            sim.advance_clock()
        assert sim.contract.state.current_interval == 1

    def test_full_day_reaches_final_interval(self, grid, battery_traces):
        sim = Simulation(base_config(grid, 50), battery_traces)
        last = 0.0
        while sim._heap:
            now = sim.advance_clock()
            assert now >= last
            last = now
        assert sim.contract.state.current_interval == 50
        assert sim.time == 50 * sim.config.seconds_per_interval


class TestFailures:
    def test_failed_seller_trades_removed_before_pinning(self, grid):
        horizon = 12
        traces = [
            ProsumerTrace("s1", "main", tuple([2.0] * horizon), tuple([0.0] * horizon)),
            ProsumerTrace("c1", "main", tuple([0.0] * horizon), tuple([2.0] * horizon)),
        ]
        config = base_config(grid, horizon, seconds_per_interval=4.0,
                             failures=(FailureSpec("s1", 22.0),))
        report = run(config, traces)
        intervals_with_seller = {t for (_, _, t, _, _) in finalized_trades(report)}
        # removal lands at 23.88, interval 5; pinned trades through 5 retained
        assert intervals_with_seller == {1, 2, 3, 4, 5}
        phases = [row["phase"] for row in report.failure_log]
        assert phases == ["failed", "detected", "removed"]

    def test_failure_without_trades_only_detects(self, grid):
        horizon = 8
        traces = [
            ProsumerTrace("idle", "main", tuple([0.0] * horizon), tuple([0.0] * horizon)),
            ProsumerTrace("c1", "main", tuple([0.0] * horizon), tuple([1.0] * horizon)),
        ]
        config = base_config(grid, horizon, failures=(FailureSpec("idle", 5.0),))
        report = run(config, traces)
        assert report.metrics.traded_kwh == 0.0
        removed = [e for e in report.events if e.kind == EventKind.PARTICIPANT_REMOVED]
        assert len(removed) == 1
        assert removed[0].payload["removed_offers"] == []

    def test_killing_one_of_two_solvers_changes_nothing(self, grid, battery_traces):
        config = base_config(grid, 50, n_solvers=2)
        baseline = finalized_trades(run(config, battery_traces))
        for victim in ("solver-1", "solver-2"):
            wounded = base_config(grid, 50, n_solvers=2,
                                  failures=(FailureSpec(victim, 30.0),))
            assert finalized_trades(run(wounded, battery_traces)) == baseline

    def test_recovered_prosumer_trades_again(self, grid):
        horizon = 16
        traces = [
            ProsumerTrace("s1", "main", tuple([2.0] * horizon), tuple([0.0] * horizon)),
            ProsumerTrace("c1", "main", tuple([0.0] * horizon), tuple([2.0] * horizon)),
        ]
        config = base_config(grid, horizon, seconds_per_interval=4.0,
                             failures=(FailureSpec("s1", 8.0, recover_time=20.0),))
        report = run(config, traces)
        intervals = sorted({t for (_, _, t, _, _) in finalized_trades(report)})
        gap = [t for t in range(1, horizon) if t not in intervals]
        assert gap  # some intervals lost while down
        assert max(intervals) > max(gap)  # trading resumed after recovery

    def test_unknown_participant_rejected(self, grid, battery_traces):
        sim = Simulation(base_config(grid, 50), battery_traces)
        with pytest.raises(UnknownParticipantError):
            sim.inject_failure("nobody", 1.0)


class TestAdversary:
    def test_adversary_cannot_corrupt_finalized_schedule(self, grid, battery_traces):
        clean = run(base_config(grid, 50), battery_traces)
        noisy = run(base_config(grid, 50, n_adversaries=2), battery_traces)
        # volume can only be helped by extra submissions, never hurt
        assert noisy.metrics.traded_kwh >= clean.metrics.traded_kwh - 1e-9
        problems = __import__("gridtrade.ledger", fromlist=["verify_log"]).verify_log(
            noisy.config.grid, noisy.events)
        assert problems == []

    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_perturbed_factors_are_the_scalar_draws(self, n):
        # One vector draw must give the factors, and leave the generator in
        # the state, that n scalar draws did.
        candidate = Solution({(1, 2 + i, 1 + i % 3): (0.5 + i, 0.25) for i in range(n)})
        agent = AdversaryAgent("adversary-1", seed=n)
        perturbed = agent._perturbed_candidate(SimpleNamespace(candidate=candidate))
        rng = np.random.default_rng(n)
        want = {key: (power * float(rng.uniform(0.2, 2.5)), price)
                for key, (power, price) in candidate.items()}
        assert dict(perturbed.items()) == want
        assert agent.rng.random() == rng.random()


class TestConfigValidation:
    def test_unknown_feeder_in_trace(self, grid):
        traces = [ProsumerTrace("x", "ghost", (1.0,) * 4, (0.0,) * 4)]
        with pytest.raises(ConfigError):
            Simulation(base_config(grid, 4), traces)

    def test_short_trace_rejected(self, grid):
        traces = [ProsumerTrace("x", "main", (1.0,) * 3, (0.0,) * 3)]
        with pytest.raises(ConfigError):
            Simulation(base_config(grid, 6), traces)

    def test_prediction_window_must_exceed_one(self, grid):
        with pytest.raises(ConfigError):
            base_config(grid, 4, prediction_window=1)

    def test_lookahead_below_lead_rejected(self, grid):
        tight = GridModel(grid.feeders, grid.interval_hours, clearing_lead=3)
        with pytest.raises(ConfigError):
            base_config(tight, 4, lookahead=2)

    def test_simulated_interval_cannot_outrun_real_one(self, grid):
        with pytest.raises(ConfigError):
            base_config(grid, 4, seconds_per_interval=3601.0)

    @pytest.mark.parametrize("field, value", [
        *[(field, bad) for field in ("horizon", "prediction_window", "lookahead", "n_solvers",
                                     "n_adversaries", "seed") for bad in BAD_COUNTS],
        *[(field, bad) for field in ("seconds_per_interval", "solver_period", "price_cap",
                                     "detect_latency", "notify_latency", "reactivate_latency",
                                     "confirmation_delay") for bad in BAD_NUMBERS],
        ("n_solvers", 1.5), ("seed", 1.5), ("seed", -1), ("n_adversaries", -1),
        ("seconds_per_interval", "4"), ("price_cap", -1.0),
        ("adaptive", "no"), ("adaptive", 1), ("adaptive", None),
        ("failures", [("p001", 1.0, None)]), ("failures", "p001"), ("failures", None),
        ("grid", None), ("grid", "main"), ("grid", ())])
    def test_every_numeric_field_refuses_a_bad_value(self, grid, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            base_config(**{"grid": grid, "horizon": 4, field: value})

    def test_failures_are_kept_as_a_tuple_so_the_config_hashes(self, grid):
        spec = FailureSpec("s1", 4.0)
        config = base_config(grid, 4, failures=[spec])
        assert config.failures == (spec,)
        assert hash(config) == hash(base_config(grid, 4, failures=(spec,)))

    @pytest.mark.parametrize("fail, recover", [
        *[(bad, None) for bad in BAD_NUMBERS],
        *[(4.0, bad) for bad in BAD_NUMBERS if bad is not None], (4.0, 4.0), (4.0, 3.0)])
    def test_failure_spec_refuses_a_bad_time(self, fail, recover):
        with pytest.raises(ConfigError, match="^s1: (fail|recover)_time must be "):
            FailureSpec("s1", fail, recover)

    @pytest.mark.parametrize("participant", [["x"], None, 1, b"s1", ("s1",)])
    def test_failure_spec_refuses_a_participant_that_is_not_a_str(self, participant):
        with pytest.raises(ConfigError, match="^participant must be a str"):
            FailureSpec(participant, 1.0)


def test_confirmation_delay_still_completes(grid):
    traces = make_battery_traces()
    config = base_config(grid, 50, confirmation_delay=0.25)
    report = run(config, traces)
    assert report.intervals_finalized == 50
    assert report.metrics.traded_kwh == pytest.approx(40.0, abs=1e-9)


def test_offer_delayed_past_its_interval_is_refused_and_not_logged():
    """A confirmation delay longer than an interval lands some offers after
    their first interval was finalized: the contract refuses them, the day
    still finalizes every interval, and the log holds none of them."""
    traces = synthesize_traces(6, 2, 3, 12, seed=5)
    grid = GridModel(tuple(Feeder(f, 50.0, 60.0) for f in ("f01", "f02", "f03")), 0.25, 1)
    config = SimConfig(grid=grid, horizon=12, seconds_per_interval=4.0, lookahead=3,
                       solver_period=2.0, seed=5, confirmation_delay=5.0)
    sim = Simulation(config, traces)
    post_offer = sim.contract.post_offer
    refused = []

    def spy(*args, **kwargs):
        try:
            return post_offer(*args, **kwargs)
        except ContractError:
            offer = inspect.signature(post_offer).bind(*args, **kwargs).arguments
            refused.append((offer["participant"], offer["start"]))
            raise

    sim.contract.post_offer = spy
    report = sim.run()
    assert report.intervals_finalized == 12
    assert verify_log(grid, report.events) == []
    posted = {(e.payload["participant"], e.payload["start"])
              for e in report.events if e.kind == EventKind.OFFER_POSTED}
    assert len(refused) == 6
    assert posted and not posted & set(refused)


@pytest.mark.parametrize("delay, rejected", [(0.0, 0), (1.5, 0), (3.0, 12)])
def test_honest_solver_submits_each_solve_once(delay, rejected):
    """A delay of a solver period or more keeps a submission in flight across
    ticks; resubmitting it on each tick logged stale copies as rejections
    (12 at 1.5 s and 33 at 3 s). The rejections left at 3 s are solutions
    that land after their first interval was finalized."""
    traces = synthesize_traces(15, 4, 3, 24, seed=3)
    grid = GridModel(tuple(Feeder(f, 50.0, 60.0) for f in ("f01", "f02", "f03")), 0.25, 1)
    report = run(SimConfig(grid=grid, horizon=24, lookahead=3, solver_period=1.0,
                           confirmation_delay=delay), traces)
    submissions = [e for e in report.events
                   if e.kind in (EventKind.SOLUTION_ACCEPTED, EventKind.SOLUTION_REJECTED)]
    assert len(submissions) == sum(r.submitted for r in report.solver_records)
    assert sum(e.kind == EventKind.SOLUTION_REJECTED for e in submissions) == rejected
    assert report.metrics.traded_kwh == pytest.approx(12.3484)


@settings(max_examples=25, deadline=None)
@given(detect=st.floats(0.0, 6.0), notify=st.floats(0.0, 12.0), reactivate=st.floats(0.0, 12.0),
       delay=st.floats(0.0, 6.0), period=st.floats(0.25, 6.0),
       victim=st.sampled_from(["p001", "p004", "solver-1", "adversary-1"]),
       fail=st.floats(0.0, 24.0), down=st.floats(0.01, 24.0))
def test_every_log_the_simulation_writes_verifies(detect, notify, reactivate, delay, period,
                                                  victim, fail, down):
    traces = synthesize_traces(6, 2, 3, 6, seed=5)
    grid = GridModel(tuple(Feeder(f, 50.0, 60.0) for f in ("f01", "f02", "f03")), 0.25, 1)
    config = SimConfig(grid=grid, horizon=6, lookahead=3, solver_period=period,
                       n_solvers=2, n_adversaries=1, confirmation_delay=delay,
                       detect_latency=detect, notify_latency=notify,
                       reactivate_latency=reactivate,
                       failures=(FailureSpec(victim, fail, fail + down),))
    report = run(config, traces)
    assert verify_log(grid, report.events) == []
    assert replay_events(grid, report.events).snapshot() == report.final_state.snapshot()


def test_three_solvers_killing_two_changes_nothing(grid):
    horizon = 10
    traces = [
        ProsumerTrace("s1", "main", (2.0,) * horizon, (0.0,) * horizon),
        ProsumerTrace("c1", "main", (0.0,) * horizon, (2.0,) * horizon),
    ]
    def schedule(extra):
        config = base_config(grid, horizon, n_solvers=3, **extra)
        return finalized_trades(run(config, traces))
    baseline = schedule({})
    wounded = schedule({"failures": (FailureSpec("solver-1", 6.0),
                                     FailureSpec("solver-3", 9.0))})
    assert wounded == baseline


def test_adaptive_run_emits_controller_trace(grid, battery_traces):
    report = run(base_config(grid, 50, adaptive=True), battery_traces)
    assert report.controller_rows
    row = report.controller_rows[0]
    assert {"time", "solver", "solve_time", "lookahead", "max_lookahead",
            "cpu_fraction"} <= set(row)
    assert all(r["lookahead"] <= r["max_lookahead"] for r in report.controller_rows)


def test_solver_agent_survives_solve_failure(grid, battery_traces, monkeypatch):
    import gridtrade.solver as solver_mod

    def explode(instance):
        raise solver_mod.NumericFailure("synthetic blow-up")

    monkeypatch.setattr(solver_mod, "solve", explode)
    report = run(base_config(grid, 10), make_battery_traces(10))
    assert report.intervals_finalized == 10  # simulation completed anyway
    assert any(r.error for r in report.solver_records)
    assert report.metrics.traded_kwh == 0.0
