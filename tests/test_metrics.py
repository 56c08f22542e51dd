import hashlib

import pytest

from gridtrade.ledger import ContractState, read_events_jsonl
from gridtrade.metrics import (
    DEFAULT_UNIT_PRICE,
    IncompleteLogError,
    Metrics,
    compute_metrics,
    export_report,
)
from gridtrade.sim import FailureSpec, SimConfig, SimReport, run
from gridtrade.traces import ProsumerTrace

from conftest import make_battery_traces


class TestFormulas:
    def test_loose_capacity_row(self):
        m = Metrics(4.5, 8.3, 3.668, DEFAULT_UNIT_PRICE)
        assert m.unused_fraction * 100 == pytest.approx(19.0, abs=1.0)
        assert m.unmet_fraction * 100 == pytest.approx(56.0, abs=1.0)

    def test_tight_capacity_row(self):
        m = Metrics(4.5, 8.3, 2.288, DEFAULT_UNIT_PRICE)
        assert m.unused_fraction * 100 == pytest.approx(50.0, abs=1.0)
        assert m.unmet_fraction * 100 == pytest.approx(73.0, abs=1.0)

    def test_nothing_traded_wastes_everything(self):
        m = Metrics(5.0, 7.0, 0.0, DEFAULT_UNIT_PRICE)
        assert m.unused_fraction == 1.0
        assert m.unmet_fraction == 1.0

    def test_dollar_values_use_unit_price(self):
        m = Metrics(10.0, 10.0, 4.0, unit_price=0.12)
        assert m.unused_dollars == pytest.approx(6.0 * 0.12)
        assert m.unmet_dollars == pytest.approx(6.0 * 0.12)

    def test_zero_denominators_give_zero_fractions(self):
        m = Metrics(0.0, 0.0, 0.0, DEFAULT_UNIT_PRICE)
        assert m.unused_fraction == 0.0
        assert m.unmet_fraction == 0.0

    def test_fractions_bounded(self):
        m = Metrics(4.0, 9.0, 4.0, DEFAULT_UNIT_PRICE)
        assert 0.0 <= m.unused_fraction <= 1.0
        assert 0.0 <= m.unmet_fraction <= 1.0


def battery_report(grid):
    config = SimConfig(grid=grid, horizon=50, seconds_per_interval=2.0,
                       prediction_window=3, solver_period=1.0, lookahead=3,
                       n_solvers=1, seed=1)
    return config, run(config, make_battery_traces())


class TestComputeFromEvents:
    def test_event_totals_match_scenario(self, grid):
        _, report = battery_report(grid)
        m = compute_metrics(report.events, grid.interval_hours, horizon=50)
        assert m.traded_kwh == pytest.approx(40.0)
        assert m.sell_offered_kwh == pytest.approx(40.0)
        assert m.buy_offered_kwh == pytest.approx(40.0)
        per = {r.interval: r for r in m.per_interval}
        assert per[48].traded_kwh == pytest.approx(30.0)
        assert per[48].trade_count == 2
        assert per[49].traded_kwh == pytest.approx(10.0)

    def test_incomplete_log_detected(self, grid):
        _, report = battery_report(grid)
        truncated = [e for e in report.events if e.seq <= len(report.events) // 2]
        with pytest.raises(IncompleteLogError):
            compute_metrics(truncated, grid.interval_hours, horizon=50)

    def test_round_trip_through_export(self, grid, tmp_path):
        _, report = battery_report(grid)
        paths = export_report(report, tmp_path / "out")
        _, events = read_events_jsonl(paths["events"])
        recomputed = compute_metrics(events, grid.interval_hours, horizon=50)
        assert recomputed == report.metrics


class TestExport:
    def test_two_identical_runs_identical_bytes(self, grid, tmp_path):
        config, _ = battery_report(grid)
        hashes = []
        for name in ("a", "b"):
            report = run(config, make_battery_traces())
            paths = export_report(report, tmp_path / name)
            digest = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(paths.values())
            }
            hashes.append(digest)
        assert hashes[0] == hashes[1]

    def test_expected_files_present(self, grid, tmp_path):
        _, report = battery_report(grid)
        paths = export_report(report, tmp_path / "out")
        assert {p.name for p in paths.values()} == {
            "events.jsonl", "intervals.csv", "solver.csv", "controller.csv",
            "failures.csv", "metrics.csv", "summary.json"}

    def test_failure_log_written_identically(self, grid, tmp_path):
        horizon = 16
        traces = [ProsumerTrace("s1", "main", (2.0,) * horizon, (0.0,) * horizon),
                  ProsumerTrace("c1", "main", (0.0,) * horizon, (2.0,) * horizon)]
        config = SimConfig(grid=grid, horizon=horizon, seconds_per_interval=4.0,
                           prediction_window=3, solver_period=1.0, lookahead=3, n_solvers=1,
                           seed=1, failures=(FailureSpec("s1", 8.0, recover_time=20.0),))
        written = [export_report(run(config, traces), tmp_path / name)["failures"].read_text()
                   for name in ("a", "b")]
        assert written[0] == written[1]
        header, *rows = written[0].splitlines()
        assert header == "time,participant,phase"
        assert [row.split(",")[1:] for row in rows] == [
            ["s1", phase] for phase in ("failed", "detected", "removed", "recovered")]
        times = [float(row.split(",")[0]) for row in rows]
        assert times == sorted(times) and times[0] == 8.0 and times[-1] > 20.0

    def test_interval_rows_for_active_intervals(self, grid, tmp_path):
        _, report = battery_report(grid)
        paths = export_report(report, tmp_path / "out")
        lines = paths["intervals"].read_text().splitlines()
        assert lines[0] == "interval,sell_offered_kwh,buy_offered_kwh,traded_kwh,trade_count"
        by_interval = {int(l.split(",")[0]): l for l in lines[1:]}
        assert by_interval[48].endswith("30,2")
        assert by_interval[49].endswith("10,1")

    def test_empty_report_writes_headers_only(self, grid, tmp_path):
        report = SimReport(
            config=SimConfig(grid=grid, horizon=1), events=[],
            metrics=Metrics(0.0, 0.0, 0.0, DEFAULT_UNIT_PRICE), solver_records=[],
            controller_rows=[], failure_log=[], final_state=ContractState(grid),
            intervals_finalized=0)
        paths = export_report(report, tmp_path / "empty")
        for name in ("intervals", "solver", "controller", "failures"):
            lines = paths[name].read_text().splitlines()
            assert len(lines) == 1  # header only


def test_metrics_value_rows_cover_all_fields():
    m = Metrics(2.0, 4.0, 1.0, DEFAULT_UNIT_PRICE)
    names = [name for name, _ in m.rows()]
    assert names == ["sell_offered_kwh", "buy_offered_kwh", "traded_kwh",
                     "unused_fraction", "unmet_fraction", "unused_dollars",
                     "unmet_dollars", "unit_price"]
