import math

import numpy as np
import pytest

from gridtrade.traces import (
    GapError,
    NegativeValueError,
    ParseError,
    ProsumerTrace,
    SpecError,
    ingest_traces,
    synthesize_traces,
    write_traces,
)


def write_csv(tmp_path, rows, header="participant,feeder,interval,production_kwh,demand_kwh"):
    path = tmp_path / "traces.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestIngest:
    def test_three_rows_one_trace(self, tmp_path):
        path = write_csv(tmp_path, [
            "home1,f1,0,1.0,0.5",
            "home1,f1,1,2.0,0.5",
            "home1,f1,2,0.0,0.5",
        ])
        traces = ingest_traces(path)
        assert len(traces) == 1
        assert len(traces[0]) == 3
        assert traces[0].production == (1.0, 2.0, 0.0)

    def test_negative_value_reports_line(self, tmp_path):
        path = write_csv(tmp_path, [
            "home1,f1,0,1.0,0.5",
            "home1,f1,1,1.0,-0.5",
        ])
        with pytest.raises(NegativeValueError, match=":3:"):
            ingest_traces(path)

    def test_gap_detected(self, tmp_path):
        path = write_csv(tmp_path, [
            "home1,f1,0,1.0,0.5",
            "home1,f1,2,1.0,0.5",
        ])
        with pytest.raises(GapError, match="missing interval 1"):
            ingest_traces(path)

    def test_non_finite_value_reports_line(self, tmp_path):
        path = write_csv(tmp_path, [
            "home1,f1,0,1.0,0.5",
            "home1,f1,1,nan,0.5",
        ])
        with pytest.raises(ParseError, match=":3:.*non-finite"):
            ingest_traces(path)

    def test_malformed_number_reports_line(self, tmp_path):
        path = write_csv(tmp_path, ["home1,f1,0,abc,0.5"])
        with pytest.raises(ParseError, match=":2:"):
            ingest_traces(path)

    def test_missing_header_column(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("participant,interval,production_kwh,demand_kwh\nx,0,1,1\n")
        with pytest.raises(ParseError, match="header"):
            ingest_traces(path)

    def test_feeder_must_be_consistent(self, tmp_path):
        path = write_csv(tmp_path, [
            "home1,f1,0,1.0,0.5",
            "home1,f2,1,1.0,0.5",
        ])
        with pytest.raises(ParseError, match="multiple feeders"):
            ingest_traces(path)

    def test_duplicate_interval_rejected(self, tmp_path):
        path = write_csv(tmp_path, [
            "home1,f1,0,1.0,0.5",
            "home1,f1,0,2.0,0.5",
        ])
        with pytest.raises(ParseError, match="duplicate"):
            ingest_traces(path)

    def test_flexible_columns_round_trip(self, tmp_path):
        traces = [ProsumerTrace("batt", "f1", (3.0, 0.0), (0.0, 0.0),
                                flexible=True, flex_window=4)]
        path = write_traces(tmp_path / "out.csv", traces)
        restored = ingest_traces(path)
        assert restored == traces

    def test_large_file_scale(self, tmp_path):
        traces = synthesize_traces(102, 5, 11, 96, seed=0)
        path = write_traces(tmp_path / "big.csv", traces)
        assert len(ingest_traces(path)) == 102


class TestSynthesize:
    def test_deterministic_for_seed(self):
        assert synthesize_traces(3, 2, 2, 96, seed=7) == synthesize_traces(3, 2, 2, 96, seed=7)

    def test_different_seed_differs(self):
        assert synthesize_traces(3, 2, 2, 96, seed=7) != synthesize_traces(3, 2, 2, 96, seed=8)

    def test_no_producers_means_no_production(self):
        traces = synthesize_traces(4, 0, 2, 24, seed=1)
        assert all(max(t.production) == 0.0 for t in traces)

    def test_default_community_shape(self):
        traces = synthesize_traces(102, 5, 11, 96, seed=7)
        assert len(traces) == 102
        assert sum(1 for t in traces if max(t.production) > 0) == 5
        assert len({t.feeder for t in traces}) == 11

    def test_midday_surplus_regime(self):
        traces = synthesize_traces(102, 5, 11, 96, seed=7)
        production = np.sum([t.production for t in traces], axis=0)
        demand = np.sum([t.demand for t in traces], axis=0)
        noon = range(40, 56)
        assert all(production[i] > demand[i] for i in noon)
        # and early morning is demand-dominated
        assert all(production[i] < demand[i] for i in range(0, 16))

    def test_producers_cannot_exceed_homes(self):
        with pytest.raises(SpecError):
            synthesize_traces(2, 3, 1, 8, seed=0)

    def test_at_least_one_feeder(self):
        with pytest.raises(SpecError):
            synthesize_traces(2, 1, 0, 8, seed=0)


class TestProsumerTrace:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProsumerTrace("x", "f", (1.0,), (1.0, 2.0))

    def test_negative_series_rejected(self):
        with pytest.raises(ValueError):
            ProsumerTrace("x", "f", (-1.0,), (1.0,))

    def test_non_finite_series_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ProsumerTrace("x", "f", (1.0,), (bad,))

    def test_net_sign_convention(self):
        trace = ProsumerTrace("x", "f", (3.0, 0.0), (1.0, 2.0))
        assert trace.net(0) == 2.0
        assert trace.net(1) == -2.0
