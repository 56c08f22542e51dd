import codecs
import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import BAD_COUNTS, BAD_NUMBERS


HEADER = "participant,feeder,interval,production_kwh,demand_kwh"


def write_csv(tmp_path, rows, header=HEADER):
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

    @pytest.mark.parametrize("rows, header, match", [
        (["p1"], HEADER, ":2: row has 1 cells, the header 5"),
        (["home1,f1,0,1.0"], HEADER, ":2: row has 4 cells"),
        (["home1,f1,0,1.0,0.5,9"], HEADER, ":2: row has 6 cells"),
        (["home1,f1,0,1.0,0.5,1"], HEADER + ",flexible,flex_window",
         ":2: row has 6 cells, the header 7"),
        (["home1,f1,0,1.0,0.5,0.7"], HEADER + ",demand_kwh",
         ":1: header names 'demand_kwh' more than once"),
        (["home1,f1,0,1.0,0.5,a,b"], HEADER + ",note,note",
         ":1: header names 'note' more than once"),
        (["home1,f1,0,1.0,0.5", "", "home1,f1,1,nan,0.5"], HEADER, ":4: non-finite"),
        (["", "home1,f1,0,1.0,0.5", "", "", "home1,f1,0,1.0,0.5"], HEADER,
         ":6: duplicate interval 0")])
    def test_malformed_layout_reports_physical_line(self, tmp_path, rows, header, match):
        path = write_csv(tmp_path, rows, header)
        with pytest.raises(ParseError, match=match):
            ingest_traces(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_csv(tmp_path, ["", "home1,f1,0,1.0,0.5", "", "home1,f1,1,2.0,0.5", ""])
        assert ingest_traces(path) == [ProsumerTrace("home1", "f1", (1.0, 2.0), (0.5, 0.5))]

    def test_bytes_that_are_not_utf8_report_line(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_bytes(f"{HEADER}\nhome1,f1,0,1.0,0.5\nh\xe9,f1,0,1.0,0.5\n".encode("latin-1"))
        with pytest.raises(ParseError, match=r"traces\.csv:3: not UTF-8 text \(invalid "):
            ingest_traces(path)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # Spreadsheet programs save "CSV UTF-8" with a BOM before the header.
        path = write_csv(tmp_path, ["home1,f1,0,1.0,0.5"])
        plain = ingest_traces(path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert ingest_traces(path) == plain

    def test_bad_byte_after_a_byte_order_mark_reports_its_place_in_the_file(self, tmp_path):
        # Both newlines sit within three bytes of the bad one. Counted in the
        # codec's frame, which starts after the BOM, the error would name
        # line 1 and a byte offset 3 too low.
        body = f"{HEADER}\nh\n\xe9,f1,0,1.0,0.5\n".encode("latin-1")
        path = tmp_path / "traces.csv"
        path.write_bytes(codecs.BOM_UTF8 + body)
        at = len(codecs.BOM_UTF8) + body.index(b"\xe9")
        with pytest.raises(ParseError,
                           match=rf"traces\.csv:3: not UTF-8 text \(invalid .* at byte {at}\)$"):
            ingest_traces(path)

    @pytest.mark.parametrize("quote", ['"', ""])
    def test_cell_over_the_csv_field_limit_reports_line(self, tmp_path, quote):
        cell = quote + "x" * (csv.field_size_limit() + 1) + quote
        path = write_csv(tmp_path, ["home1,f1,0,1.0,0.5", f"{cell},f1,0,1.0,0.5"])
        with pytest.raises(ParseError, match=r"traces\.csv:3: field larger than field limit"):
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

    @pytest.mark.parametrize("rows, match", [
        (["home1,f1,0,1.0,0.5,1,abc"], ":2: malformed row"),
        (["home1,f1,0,1.0,0.5,1,1.5"], ":2: malformed row"),
        (["home1,f1,0,1.0,0.5,1,-3"], ":2: flex_window must be at least 1"),
        (["home1,f1,0,1.0,0.5,maybe,2"], ":2: flexible must be"),
        (["home1,f1,0,1.0,0.5,1,2", "home1,f1,1,1.0,0.5,0,2"], ":3: home1's flexible"),
        (["home1,f1,0,1.0,0.5,1,2", "home1,f1,1,1.0,0.5,1,3"], ":3: home1's flexible")])
    def test_malformed_flags_report_line(self, tmp_path, rows, match):
        path = write_csv(tmp_path, rows, header="participant,feeder,interval,production_kwh,"
                                                "demand_kwh,flexible,flex_window")
        with pytest.raises(ParseError, match=match):
            ingest_traces(path)

    def test_flag_spellings(self, tmp_path):
        path = write_csv(tmp_path, ["a,f1,0,1.0,0.5,Yes,3", "b,f1,0,1.0,0.5,,",
                                    "c,f1,0,1.0,0.5,false,1"],
                         header="participant,feeder,interval,production_kwh,demand_kwh,"
                                "flexible,flex_window")
        assert [(t.flexible, t.flex_window) for t in ingest_traces(path)] == [
            (True, 3), (False, 1), (False, 1)]

    def test_flexible_columns_round_trip(self, tmp_path):
        traces = [ProsumerTrace("batt", "f1", (3.0, 0.0), (0.0, 0.0),
                                flexible=True, flex_window=4)]
        path = write_traces(tmp_path / "out.csv", traces)
        restored = ingest_traces(path)
        assert restored == traces

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_with_columns_permuted_and_one_unknown(self, tmp_path_factory, data):
        names = data.draw(st.lists(st.text("ab1_,\"", min_size=1, max_size=4),
                                   min_size=1, max_size=4, unique=True))
        value = st.floats(0.0, 1000.0).map(lambda v: round(v, 4))
        traces = []
        for name in names:
            length = data.draw(st.integers(1, 5))
            traces.append(ProsumerTrace(
                name, data.draw(st.sampled_from(["f1", "f 2", "f,3"])),
                tuple(data.draw(st.lists(value, min_size=length, max_size=length))),
                tuple(data.draw(st.lists(value, min_size=length, max_size=length))),
                data.draw(st.booleans()), data.draw(st.integers(1, 6))))
        path = write_traces(tmp_path_factory.mktemp("trip") / "traces.csv", traces)
        with path.open(newline="") as fh:
            rows = [row + ["x"] for row in csv.reader(fh)]
        rows[0][-1] = "note"
        order = data.draw(st.permutations(range(len(rows[0]))))
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([[row[i] for i in order] for row in rows])
        assert ingest_traces(path) == sorted(traces, key=lambda t: t.participant)

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

    @pytest.mark.parametrize("field, value", [
        *[(field, bad) for field in ("homes", "producers", "feeders", "intervals", "seed")
          for bad in BAD_COUNTS],
        ("homes", 0), ("feeders", 0), ("intervals", 0), ("producers", -1), ("seed", -1)])
    def test_every_count_refuses_a_bad_value(self, field, value):
        counts = {"homes": 2, "producers": 1, "feeders": 1, "intervals": 4, "seed": 0,
                  field: value}
        with pytest.raises(SpecError, match=f"^{field} must be an integer"):
            synthesize_traces(**counts)


class TestProsumerTrace:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProsumerTrace("x", "f", (1.0,), (1.0, 2.0))

    def test_negative_series_rejected(self):
        with pytest.raises(ValueError):
            ProsumerTrace("x", "f", (-1.0,), (1.0,))

    def test_non_finite_series_rejected(self):
        for bad in BAD_NUMBERS:
            with pytest.raises(ValueError, match="^x: series value must be "):
                ProsumerTrace("x", "f", (1.0,), (bad,))
            with pytest.raises(ValueError, match="^x: series value must be "):
                ProsumerTrace("x", "f", (bad,), (1.0,))

    @pytest.mark.parametrize("value", [*BAD_COUNTS, 0, 2.0])
    def test_flex_window_that_is_not_a_positive_count_rejected(self, value):
        with pytest.raises(ValueError, match="^x: flex_window must be "):
            ProsumerTrace("x", "f", (1.0,), (1.0,), True, value)

    def test_net_sign_convention(self):
        trace = ProsumerTrace("x", "f", (3.0, 0.0), (1.0, 2.0))
        assert trace.net(0) == 2.0
        assert trace.net(1) == -2.0
