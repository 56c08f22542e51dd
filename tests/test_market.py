import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from gridtrade.ledger import Contract
from gridtrade.market import (
    TOLERANCE,
    FeasibilityReport,
    Feeder,
    GridModel,
    InvalidTradeError,
    MarketError,
    Offer,
    PinnedTrades,
    Side,
    Solution,
    UnknownOfferError,
    UnmatchablePairError,
    VIOLATION_KINDS,
    Violation,
    check_feasibility,
    count,
    matchable,
    number,
    objective,
)

from conftest import BAD_COUNTS, BAD_NUMBERS


def sell(oid, energy, start, end, reservation=None, feeder="main", who="s"):
    return Offer(oid, Side.SELLING, who, feeder, energy, start, end, reservation)


def buy(oid, energy, start, end, reservation=None, feeder="main", who="b"):
    return Offer(oid, Side.BUYING, who, feeder, energy, start, end, reservation)


class TestOfferValidation:
    def test_rejects_non_positive_energy(self):
        with pytest.raises(ValueError):
            sell(1, 0.0, 1, 2)

    def test_rejects_reversed_window(self):
        with pytest.raises(ValueError):
            sell(1, 1.0, 5, 4)

    def test_rejects_negative_reservation(self):
        with pytest.raises(ValueError):
            buy(1, 1.0, 1, 1, reservation=-0.2)

    def test_unpriced_defaults(self):
        assert sell(1, 1.0, 1, 1).reservation == 0.0
        assert buy(2, 1.0, 1, 1).reservation == math.inf

    @pytest.mark.parametrize("side, energy, start, end, price", [
        ("sideways", 1.0, 1, 1, None), (1, 1.0, 1, 1, None), ([], 1.0, 1, 1, None),
        (Side.SELLING, "1", 1, 1, None), (Side.SELLING, 1.0, 1, 1, "0.5"),
        (Side.SELLING, math.nan, 1, 1, None), (Side.SELLING, math.inf, 1, 1, None),
        (Side.SELLING, 1.0, 1, 1, math.nan), (Side.SELLING, 1.0, 1, 1, math.inf),
        (Side.SELLING, 1.0, 1.5, 2, None), (Side.SELLING, 1.0, 1, 2.5, None),
        (Side.SELLING, 1.0, math.nan, 2, None), (Side.SELLING, 1.0, 1, math.inf, None),
        (Side.SELLING, 1.0, "1", 2, None), (Side.SELLING, True, 1, 1, None),
        (Side.SELLING, 1.0, True, 1, None), (Side.SELLING, 1.0, 1, 1, False)])
    def test_rejects_malformed_values(self, side, energy, start, end, price):
        with pytest.raises(ValueError):
            Offer(1, side, "s", "main", energy, start, end, price)

    def test_coerces_to_side_whole_ints_and_floats(self):
        offer = Offer(1, "selling", "s", "main", 2, 3.0, np.int64(4), 1)
        assert offer == sell(1, 2.0, 3, 4, 1.0)
        assert offer.side is Side.SELLING and offer.reservation == 1.0
        assert type(offer.start) is type(offer.end) is int
        assert type(offer.energy_kwh) is type(offer.reservation_price) is float


class TestOfferRecord:
    @pytest.mark.parametrize("name", ["id", "side", "prosumer", "feeder", "energy_kwh", "start",
                                      "end", "reservation_price", "reservation", "extra"])
    def test_no_field_can_be_assigned(self, name):
        offer = sell(1, 2.0, 3, 4, 0.5)
        with pytest.raises(AttributeError):
            setattr(offer, name, 1.0)
        assert offer == sell(1, 2.0, 3, 4, 0.5)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda o: Offer(1, Side.SELLING, "s", "main", math.nan, 3, 4, 0.5), id="new"),
        pytest.param(lambda o: o._replace(energy_kwh=math.nan), id="replace"),
        pytest.param(lambda o: Offer._make([1, Side.SELLING, "s", "main", math.nan, 3, 4, 0.5]),
                     id="make"),
        pytest.param(lambda o: Offer._make([*o[:4], math.nan, *o[5:]]), id="make-whole-record"),
        *(pytest.param(lambda o, protocol=protocol: pickle.loads(pickle.dumps(
            tuple.__new__(Offer, (*o[:4], math.nan, *o[5:])), protocol)), id=f"pickle-{protocol}")
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ])
    def test_no_constructor_makes_a_nan_offer(self, make):
        with pytest.raises((ValueError, TypeError)):
            make(sell(1, 2.0, 3, 4, 0.5))

    def test_replace_checks_and_derives_like_a_new_offer(self):
        offer = sell(1, 2.0, 3, 4)
        assert offer._replace(side="buying") == buy(1, 2.0, 3, 4, who="s")
        assert offer._replace(side="buying").reservation == math.inf
        assert offer._replace(start=3.0, end=np.int64(5)) == sell(1, 2.0, 3, 5)
        with pytest.raises(ValueError, match="start 5 exceeds end 4"):
            offer._replace(start=5)
        with pytest.raises(TypeError):
            offer._replace(reservation=9.0)

    def test_copies_and_pickles_are_equal_offers(self):
        offer = buy(2, 1.5, 3, 3, 0.25)
        for twin in (copy.copy(offer), copy.deepcopy(offer), pickle.loads(pickle.dumps(offer))):
            assert twin == offer and type(twin) is Offer

    def test_offers_with_equal_fields_are_equal(self):
        first = Offer(1, "selling", "s", "main", 2, 3.0, np.int64(4), 1)
        second = Offer(1, Side.SELLING, "s", "main", 2.0, 3, 4, 1.0)
        assert first == second and not first != second and hash(first) == hash(second)
        assert first != second._replace(energy_kwh=2.5)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNumberRules:
    @pytest.mark.parametrize("value", [2, 2.0, np.float32(2.0), np.int64(2)])
    def test_number_takes_any_real_as_a_float(self, value):
        assert number("x", value) == 2.0 and type(number("x", value)) is float

    @pytest.mark.parametrize("value", [*BAD_NUMBERS, np.bool_(True), np.float64("nan"), 10**400])
    def test_number_refuses_what_is_not_a_finite_real(self, value):
        with pytest.raises(ValueError, match=r"^price must be a finite number \(real and finite\)"):
            number("price", value)

    def test_number_bounds(self):
        assert number("x", 0, 0.0) == 0.0
        assert number("x", 5, 4.0, above=True) == 5.0
        with pytest.raises(ValueError, match=r"^x must be a positive finite number \(real and "
                                             r"finite, above 0\), got 0$"):
            number("x", 0, 0.0, above=True)
        with pytest.raises(ValueError, match=r"^x must be a non-negative finite number"):
            number("x", -1e-300, 0.0)
        with pytest.raises(ValueError, match=r"above 4\), got 4\.0$"):
            number("x", 4.0, 4.0, above=True)

    @pytest.mark.parametrize("value", [*BAD_COUNTS, 1.0, np.float64(1.0), np.bool_(True), 0])
    def test_count_refuses_what_is_not_an_integer_of_the_minimum(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer of at least 1, got "):
            count("n", value, 1)

    def test_count_takes_numpy_integers(self):
        assert count("n", np.int64(3), 1) == 3 and type(count("n", np.int64(3), 1)) is int


class TestGridValidation:
    @pytest.mark.parametrize("value", NON_FINITE + [-1.0])
    def test_rejects_bad_net_flow_limit(self, value):
        with pytest.raises(ValueError):
            Feeder("x", value, 1.0)

    @pytest.mark.parametrize("value", NON_FINITE + [-1.0])
    def test_rejects_bad_internal_limit(self, value):
        with pytest.raises(ValueError):
            Feeder("x", 1.0, value)

    @pytest.mark.parametrize("value", NON_FINITE + [0.0])
    def test_rejects_bad_interval_hours(self, value):
        with pytest.raises(ValueError):
            GridModel((Feeder("x", 1.0, 1.0),), value, 1)

    @pytest.mark.parametrize("field", ["net_flow_limit_kw", "internal_limit_kw",
                                       "interval_hours"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_log_header_with_non_finite_grid_is_refused(self, field, value):
        payload = GridModel((Feeder("x", 1.0, 1.0),), 0.25, 1).to_payload()
        if field == "interval_hours":
            payload[field] = value
        else:
            payload["feeders"][0][field] = value
        with pytest.raises(ValueError):
            GridModel.from_payload(payload)

    def test_feeder_list_is_stored_as_a_tuple(self):
        feeders = [Feeder("main", 100.0, 100.0)]
        grid = GridModel(feeders, 0.25, clearing_lead=1)
        assert grid == GridModel(tuple(feeders), 0.25, clearing_lead=1)
        assert isinstance(grid.feeders, tuple)
        assert "main" in Contract(grid).grid.feeder_limits()

    def test_zero_limits_are_allowed(self):
        assert Feeder("x", 0.0, 0.0).net_flow_limit_kw == 0.0

    @pytest.mark.parametrize("value", [True, "50", None, np.bool_(True), *NON_FINITE])
    def test_limit_that_is_not_a_number_is_refused(self, value):
        with pytest.raises(ValueError, match="limits must be"):
            Feeder("x", value, 1.0)
        with pytest.raises(ValueError, match="limits must be"):
            Feeder("x", 1.0, value)

    @pytest.mark.parametrize("value", [True, "0.25", None, *NON_FINITE])
    def test_interval_hours_that_is_not_a_number_is_refused(self, value):
        with pytest.raises(ValueError, match="interval_hours must be"):
            GridModel((Feeder("x", 1.0, 1.0),), value, 1)

    @pytest.mark.parametrize("value", [True, 1.0, np.float64(2.0), "1", None, 0, -1,
                                       *NON_FINITE, 2.5])
    def test_clearing_lead_that_is_not_a_whole_count_is_refused(self, value):
        with pytest.raises(ValueError, match="clearing_lead must be an integer of at least 1"):
            GridModel((Feeder("x", 1.0, 1.0),), 0.25, value)

    def test_numpy_scalars_are_accepted(self):
        grid = GridModel((Feeder("x", np.float64(2.0), np.int64(3)),), np.float32(0.25),
                         np.int64(2))
        assert grid == GridModel((Feeder("x", 2.0, 3.0),), 0.25, 2)
        # Kept as given, not converted, so a log header spells them as before.
        assert [type(v) for v in (*grid.feeders[0][1:], grid.interval_hours,
                                  grid.clearing_lead)] == [np.float64, np.int64, np.float32,
                                                           np.int64]


FEEDER = Feeder("main", 100.0, 80.0)
GRID = GridModel((FEEDER,), 0.25, 2)


class TestGridRecords:
    """The grid's own behaviour. That every way to make a feeder or a grid
    goes through its one check is tested with the other records, in
    ``test_records.py``."""

    def test_a_copied_grid_derives_its_own_limits(self):
        for twin in (copy.copy(GRID), copy.deepcopy(GRID), pickle.loads(pickle.dumps(GRID))):
            assert twin.feeder_limits() == {"main": FEEDER}
            assert twin._limits is not GRID._limits

    @pytest.mark.parametrize("cls, name", [
        *((Feeder, name) for name in (*Feeder._fields, "extra")),
        *((GridModel, name) for name in (*GridModel._fields, "_limits", "extra")),
        *((FeasibilityReport, name) for name in ("violations", "ok", "extra")),
    ])
    def test_no_field_or_new_attribute_can_be_assigned(self, cls, name):
        record = {Feeder: FEEDER, GridModel: GRID}.get(cls, FeasibilityReport())
        before = tuple(record)
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert tuple(record) == before and not hasattr(record, "extra")

    def test_payload_round_trip(self):
        grid = GridModel((FEEDER, Feeder("east", 4, 5.5)), 0.25, 3)
        assert GridModel.from_payload(grid.to_payload()) == grid

    def test_a_report_is_true_exactly_when_it_has_no_violation(self):
        assert bool(FeasibilityReport()) is True and FeasibilityReport().ok
        report = FeasibilityReport((Violation("price-band", "x"),))
        assert bool(report) is False and not report.ok


class TestMatchable:
    def test_price_and_window_compatible(self):
        assert matchable(sell(1, 5.0, 48, 49, reservation=2.0),
                         buy(2, 5.0, 48, 48, reservation=3.0))

    def test_disjoint_windows(self):
        assert not matchable(sell(1, 5.0, 48, 48, reservation=2.0),
                             buy(2, 5.0, 49, 49, reservation=3.0))

    def test_no_acceptable_price(self):
        assert not matchable(sell(1, 5.0, 48, 48, reservation=5.0),
                             buy(2, 5.0, 48, 48, reservation=3.0))

    def test_unpriced_offers_always_price_compatible(self):
        assert matchable(sell(1, 5.0, 48, 48), buy(2, 5.0, 48, 48))


class TestSolution:
    def test_rejects_negative_power(self):
        with pytest.raises(InvalidTradeError):
            Solution({(1, 2, 3): (-1.0, 0.5)})

    def test_rejects_non_finite_values(self):
        with pytest.raises(InvalidTradeError):
            Solution({(1, 2, 3): (math.nan, 0.5)})
        with pytest.raises(InvalidTradeError):
            Solution({(1, 2, 3): (1.0, math.inf)})

    @pytest.mark.parametrize("key, value", [
        ((1.0, 2, 3), (1.0, 0.5)), ((1, True, 3), (1.0, 0.5)), ((1, 2, np.int64(3)), (1.0, 0.5)),
        ((1, 2, "3"), (1.0, 0.5)), ((1, 2), (1.0, 0.5)), ("123", (1.0, 0.5)),
        ((1, 2, 3), (True, 0.5)), ((1, 2, 3), ("1.0", 0.5)), ((1, 2, 3), (1.0, None)),
        *[((1, 2, 3), (bad, 0.5)) for bad in BAD_NUMBERS],
        *[((1, 2, 3), (1.0, bad)) for bad in BAD_NUMBERS]])
    def test_rejects_malformed_keys_and_values(self, key, value):
        with pytest.raises(InvalidTradeError):
            Solution({key: value})

    def test_payload_round_trip(self):
        sol = Solution({(2, 3, 5): (1.25, 0.4), (1, 3, 4): (2.0, 0.3)})
        assert Solution.from_payload(sol.to_payload()) == sol

    @pytest.mark.parametrize("row", [
        [1.0, 2, 3, 1.0, 0.5], [1, 2, True, 1.0, 0.5], [1, 2, "3", 1.0, 0.5]])
    def test_from_payload_keeps_key_types(self, row):
        with pytest.raises(InvalidTradeError, match="key must be three ints"):
            Solution.from_payload([row])

    def test_from_payload_refuses_a_duplicate_key(self):
        with pytest.raises(InvalidTradeError, match="duplicate key"):
            Solution.from_payload([[1, 2, 3, 1.0, 0.5], [1, 2, 3, 2.0, 0.5]])

    def test_without_offers_drops_every_trade_of_those_offers(self):
        sol = Solution({(1, 2, 3): (1.0, 0.1), (1, 2, 7): (2.0, 0.1), (4, 2, 7): (3.0, 0.1)})
        stripped = sol.without_offers({1})
        assert stripped == Solution({(4, 2, 7): (3.0, 0.1)})

    def test_after_keeps_later_trades_in_key_order(self):
        """``split`` keeps the trades after the interval, in key order, and
        takes those at it."""
        sol = Solution({(4, 2, 7): (3.0, 0.1), (1, 2, 3): (1.0, 0.1), (1, 2, 8): (2.0, 0.2),
                        (5, 6, 3): (0.0, 0.3)})
        due, later = sol.split(3)
        assert due == {(1, 2): (1.0, 0.1), (5, 6): (0.0, 0.3)}
        assert later == Solution({(1, 2, 8): (2.0, 0.2), (4, 2, 7): (3.0, 0.1)})
        assert list(dict(later.items())) == [(1, 2, 8), (4, 2, 7)]
        assert sol.split(7) == ({(4, 2): (3.0, 0.1)}, Solution({(1, 2, 8): (2.0, 0.2)}))
        assert len(sol) == 4 and sol.split(8) == ({(1, 2): (2.0, 0.2)}, Solution.empty())


class TestObjective:
    def test_empty_solution(self):
        assert objective(Solution.empty()) == 0.0

    def test_battery_scenario_optimum_is_40(self, battery_optimum):
        assert objective(battery_optimum) == 40.0

    def test_single_interval_greedy_match_is_30(self):
        assert objective(Solution({(2, 3, 48): (30.0, 0.5)})) == 30.0

    def test_prices_do_not_affect_value(self, battery_optimum):
        repriced = Solution({k: (p, 0.9) for k, (p, _) in battery_optimum.items()})
        assert objective(repriced) == objective(battery_optimum)


class TestCheckFeasibility:
    def test_empty_solution_is_feasible(self, battery_book, grid):
        assert check_feasibility(Solution.empty(), battery_book, grid).ok

    def test_battery_optimum_is_feasible(self, battery_book, grid, battery_optimum):
        report = check_feasibility(battery_optimum, battery_book, grid)
        assert report.ok

    def test_tight_consumer_feeder_flags_internal_limit(self, battery_optimum):
        grid = GridModel((Feeder("main", 100.0, 100.0), Feeder("tight", 100.0, 10.0)),
                         1.0, 1)
        book = {
            1: Offer(1, Side.SELLING, "P1", "main", 10.0, 48, 48),
            2: Offer(2, Side.SELLING, "P2", "main", 30.0, 48, 49),
            3: Offer(3, Side.BUYING, "C1", "tight", 30.0, 48, 48),
            4: Offer(4, Side.BUYING, "C1", "tight", 10.0, 49, 49),
        }
        report = check_feasibility(battery_optimum, book, grid)
        kinds = {(v.kind, v.subject) for v in report.violations}
        assert ("feeder-internal", "tight@48") in kinds

    def test_overselling_flags_energy_constraint(self, battery_book, grid):
        report = check_feasibility(
            Solution({(1, 3, 48): (11.0, 0.5)}), battery_book, grid)
        assert [v.kind for v in report.violations] == ["energy-seller"]

    def test_overbuying_flags_energy_constraint(self, battery_book, grid):
        report = check_feasibility(
            Solution({(2, 3, 48): (30.0, 0.5), (1, 3, 48): (5.0, 0.5)}),
            battery_book, grid)
        assert [v.kind for v in report.violations] == ["energy-buyer"]

    def test_net_flow_limit(self):
        grid = GridModel((Feeder("a", 5.0, 100.0), Feeder("b", 100.0, 100.0)), 1.0, 1)
        book = {1: sell(1, 50.0, 1, 1, feeder="a"), 2: buy(2, 50.0, 1, 1, feeder="b")}
        report = check_feasibility(Solution({(1, 2, 1): (8.0, 0.0)}), book, grid)
        assert {v.kind for v in report.violations} == {"feeder-net"}

    def test_price_outside_band(self, grid):
        book = {1: sell(1, 5.0, 1, 1, reservation=0.3), 2: buy(2, 5.0, 1, 1, reservation=0.6)}
        low = check_feasibility(Solution({(1, 2, 1): (1.0, 0.2)}), book, grid)
        high = check_feasibility(Solution({(1, 2, 1): (1.0, 0.7)}), book, grid)
        assert {v.kind for v in low.violations} == {"price-band"}
        assert {v.kind for v in high.violations} == {"price-band"}

    def test_dangling_offer_raises(self, battery_book, grid):
        with pytest.raises(UnknownOfferError):
            check_feasibility(Solution({(1, 99, 48): (1.0, 0.5)}), battery_book, grid)

    def test_unmatchable_pair_raises(self, grid):
        book = {1: sell(1, 5.0, 1, 1, reservation=0.9), 2: buy(2, 5.0, 1, 1, reservation=0.1)}
        with pytest.raises(UnmatchablePairError):
            check_feasibility(Solution({(1, 2, 1): (1.0, 0.5)}), book, grid)

    def test_trade_outside_shared_window_raises(self, battery_book, grid):
        with pytest.raises(UnmatchablePairError):
            check_feasibility(Solution({(1, 4, 48): (1.0, 0.5)}), battery_book, grid)

    def test_trade_at_finalized_interval_is_invalid(self, battery_book, grid):
        # Even an exact restatement of a pinned trade is refused.
        pinned = PinnedTrades(48, {48: {(1, 3): (10.0, 0.5)}})
        with pytest.raises(MarketError, match="finalized interval"):
            check_feasibility(Solution({(1, 3, 48): (10.0, 0.5), (2, 4, 49): (5.0, 0.5)}),
                              battery_book, grid, pinned)

    def test_pin_mismatch_when_values_differ(self, battery_book, grid):
        pinned = PinnedTrades(48, {48: {(1, 3): (10.0, 0.5)}})
        drifted = Solution({(1, 3, 48): (9.0, 0.5)})
        with pytest.raises(MarketError, match="finalized interval"):
            check_feasibility(drifted, battery_book, grid, pinned)

    def test_pin_mismatch_on_new_trade_in_pinned_interval(self, battery_book, grid):
        pinned = PinnedTrades(48)  # interval 48 finalized with no trades
        with pytest.raises(MarketError, match="finalized interval"):
            check_feasibility(
                Solution({(2, 3, 48): (5.0, 0.5)}), battery_book, grid, pinned)

    def test_exact_pin_match_passes(self, battery_book, grid, battery_optimum):
        # A solution that leaves the finalized interval to the pins and fills
        # the open one passes, with offer 2's budget used exactly (20 + 10).
        pinned = PinnedTrades(48, {48: {(1, 3): (10.0, 0.5), (2, 3): (20.0, 0.5)}})
        open_part = Solution({k: v for k, v in battery_optimum.items() if k[2] > 48})
        assert open_part == Solution({(2, 4, 49): (10.0, 0.5)})
        report = check_feasibility(open_part, battery_book, grid, pinned)
        assert report.ok

    def test_finalized_energy_counts_against_budget(self, battery_book, grid):
        pinned = PinnedTrades(48, {48: {(2, 3): (25.0, 0.5)}})
        fits = check_feasibility(Solution({(2, 4, 49): (5.0, 0.5)}),
                                 battery_book, grid, pinned)
        over = check_feasibility(Solution({(2, 4, 49): (6.0, 0.5)}),
                                 battery_book, grid, pinned)
        assert fits.ok
        assert [(v.kind, v.subject) for v in over.violations] == [("energy-seller", "2")]

    def test_retired_offers_valid_only_at_pinned_intervals(self, grid):
        # A withdrawn offer's finalized trades stand in the pins; no solution
        # may cite it, at a finalized interval or an open one.
        pinned = PinnedTrades(1, {1: {(1, 2): (2.0, 0.5)}})
        assert pinned.energies((1, 2, 3), 1.0) == [2.0, 2.0, 0.0]
        with pytest.raises(MarketError, match="finalized interval"):
            check_feasibility(Solution({(1, 2, 1): (2.0, 0.5)}), {}, grid, pinned)
        with pytest.raises(UnknownOfferError):
            check_feasibility(Solution({(1, 2, 2): (1.0, 0.5)}), {}, grid, pinned)


# -- property tests ----------------------------------------------------------

@st.composite
def small_markets(draw):
    """A one-to-three feeder book plus a feasible (scaled-down) solution."""
    n_feeders = draw(st.integers(1, 3))
    feeders = tuple(
        Feeder(f"f{i}", draw(st.sampled_from([0.5, 2.0, 100.0])),
               draw(st.sampled_from([0.5, 2.0, 100.0])))
        for i in range(n_feeders))
    grid = GridModel(feeders, interval_hours=1.0, clearing_lead=1)

    n_sell = draw(st.integers(1, 3))
    n_buy = draw(st.integers(1, 3))
    book = {}
    for i in range(n_sell + n_buy):
        start = draw(st.integers(1, 3))
        book[i + 1] = Offer(
            i + 1,
            Side.SELLING if i < n_sell else Side.BUYING,
            f"h{i}",
            f"f{draw(st.integers(0, n_feeders - 1))}",
            draw(st.sampled_from([0.5, 1.0, 2.5, 4.0])),
            start,
            draw(st.integers(start, 4)),
            draw(st.sampled_from([None, 0.0, 0.2, 0.5])),
        )

    entries = {}
    for s in book.values():
        if s.side is not Side.SELLING:
            continue
        for b in book.values():
            if b.side is not Side.BUYING or not matchable(s, b):
                continue
            ts = range(max(s.start, b.start), min(s.end, b.end) + 1)
            for t in ts:
                if draw(st.booleans()):
                    # Seller's reservation is always inside the band.
                    entries[(s.id, b.id, t)] = (
                        draw(st.sampled_from([0.25, 0.5, 1.0])), s.reservation)
    solution = Solution(entries)
    # Halve until the grid and budgets accept it; zero is always acceptable.
    for _ in range(30):
        if check_feasibility(solution, book, grid).ok:
            break
        solution = Solution({k: (p / 2, pi) for k, (p, pi) in solution.items()})
    return grid, book, solution


@settings(max_examples=60, deadline=None)
@given(data=small_markets(), extra_energy=st.sampled_from([0.5, 1.5, 3.0]))
def test_feasibility_survives_superset_books(data, extra_energy):
    grid, book, solution = data
    if not check_feasibility(solution, book, grid).ok:
        return
    grown = dict(book)
    next_id = max(book) + 1
    grown[next_id] = Offer(next_id, Side.SELLING, "new-s", grid.feeders[0].id,
                           extra_energy, 1, 4)
    grown[next_id + 1] = Offer(next_id + 1, Side.BUYING, "new-b", grid.feeders[-1].id,
                               extra_energy, 1, 4)
    assert check_feasibility(solution, grown, grid).ok


@settings(max_examples=60, deadline=None)
@given(data=small_markets())
def test_feasibility_invariant_under_in_band_price_choice(data):
    grid, book, solution = data
    if not check_feasibility(solution, book, grid).ok:
        return
    repriced = {}
    for (s, b, t), (p, _) in solution.items():
        lo = book[s].reservation
        hi = min(book[b].reservation, lo + 1.0)
        repriced[(s, b, t)] = (p, (lo + hi) / 2)
    repriced_solution = Solution(repriced)
    assert check_feasibility(repriced_solution, book, grid).ok
    assert objective(repriced_solution) == pytest.approx(objective(solution), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=small_markets(), k=st.sampled_from([0.5, 2.0, 3.75]))
def test_feasibility_and_objective_scale_together(data, k):
    grid, book, solution = data
    if not check_feasibility(solution, book, grid).ok:
        return
    scaled_grid = GridModel(
        tuple(Feeder(f.id, f.net_flow_limit_kw * k, f.internal_limit_kw * k)
              for f in grid.feeders),
        grid.interval_hours, grid.clearing_lead)
    scaled_book = {
        oid: Offer(o.id, o.side, o.prosumer, o.feeder, o.energy_kwh * k,
                   o.start, o.end, o.reservation_price)
        for oid, o in book.items()}
    scaled_solution = Solution({key: (p * k, pi) for key, (p, pi) in solution.items()})
    assert check_feasibility(scaled_solution, scaled_book, scaled_grid).ok
    assert objective(scaled_solution) == pytest.approx(k * objective(solution), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=small_markets())
def test_zero_solution_always_feasible(data):
    grid, book, _ = data
    assert check_feasibility(Solution.empty(), book, grid).ok


def restated_check(solution, book, grid, pinned):
    """The market rules restated one at a time, as ``check_feasibility``
    documents them: each trade's refusals in turn, then the price bands,
    the offers' budgets and the feeders' limits, in key order."""
    pinned = pinned or PinnedTrades.empty()
    feeders = {f.id: f for f in grid.feeders}
    hours = grid.interval_hours
    trades = list(solution.items())
    for (s, b, t), _ in trades:
        if t <= pinned.finalized_through:
            raise MarketError(f"trade ({s},{b},{t}) is at a finalized interval "
                              f"(finalized through {pinned.finalized_through})")
        for oid in (s, b):
            if oid not in book:
                raise UnknownOfferError(f"offer {oid} not in book")
        if not matchable(book[s], book[b]):
            raise UnmatchablePairError(f"offers {s} and {b} are not matchable")
        if not (book[s].covers(t) and book[b].covers(t)):
            raise UnmatchablePairError(f"interval {t} outside the shared window of {s} and {b}")
        if book[s].feeder not in feeders or book[b].feeder not in feeders:
            raise MarketError(f"trade ({s},{b},{t}) references unknown feeder")
    violations = [
        ("price-band", f"({s},{b},{t})") for (s, b, t), (power, price) in trades
        if power > TOLERANCE
        and not book[s].reservation - TOLERANCE <= price <= book[b].reservation + TOLERANCE]
    for kind, end in (("energy-seller", 0), ("energy-buyer", 1)):
        for oid in sorted({key[end] for key, _ in trades}):
            energy = 0.0
            for key, (power, _) in trades:
                if key[end] == oid:
                    energy += power * hours
            if energy + pinned.energies([oid], hours)[0] > book[oid].energy_kwh + TOLERANCE:
                violations.append((kind, str(oid)))
    for feeder_id, t in sorted({(book[key[end]].feeder, key[2])
                                for key, _ in trades for end in (0, 1)}):
        production = consumption = 0.0
        for (s, b, u), (power, _) in trades:
            if u == t and book[s].feeder == feeder_id:
                production += power
            if u == t and book[b].feeder == feeder_id:
                consumption += power
        feeder, at = feeders[feeder_id], f"{feeder_id}@{t}"
        if abs(production - consumption) > feeder.net_flow_limit_kw + TOLERANCE:
            violations.append(("feeder-net", at))
        for flow in (production, consumption):
            if flow > feeder.internal_limit_kw + TOLERANCE:
                violations.append(("feeder-internal", at))
    return violations


@st.composite
def audited_markets(draw):
    """A small book on tight feeders, pins, and a solution that may break
    any rule. Its keys are drawn from one source: the open intervals of
    the pairs that can trade; those pairs at any interval, finalized and
    outside their windows too; or any ids, unknown ones too, at any
    interval. Some offers sit on a feeder the grid lacks."""
    limit = st.sampled_from([0.5, 1.0, 4.0, 100.0])
    grid = GridModel(tuple(Feeder(f, draw(limit), draw(limit)) for f in ("f0", "f1")),
                     interval_hours=draw(st.sampled_from([0.25, 1.0])), clearing_lead=1)
    book = {}
    for oid in range(1, draw(st.integers(2, 6)) + 1):
        start = draw(st.integers(1, 4))
        book[oid] = Offer(oid, draw(st.sampled_from([Side.SELLING, Side.BUYING])), f"h{oid}",
                          draw(st.sampled_from(["f0", "f1", "f0", "f1", "f9"])),
                          draw(st.sampled_from([0.5, 1.0, 3.0])), start,
                          draw(st.integers(start, 5)), draw(st.sampled_from([None, 0.0, 0.2, 0.5])))
    ids = sorted(book)
    finalized = draw(st.integers(0, 2))
    pins = {t: {(draw(st.sampled_from(ids)), draw(st.sampled_from(ids))): (1.0, 0.3)}
            for t in range(1, finalized + 1) if draw(st.booleans())}
    pinned = draw(st.sampled_from([None, PinnedTrades(finalized, pins)])) if not pins \
        else PinnedTrades(finalized, pins)
    pairs = [(s, b) for s in ids for b in ids if matchable(book[s], book[b])]
    tradable = [(s, b, t) for s, b in pairs
                for t in range(max(book[s].start, book[b].start, finalized + 1),
                               min(book[s].end, book[b].end) + 1)]
    keys = draw(st.sampled_from(
        ([st.sampled_from(tradable)] * 2 if tradable else [])
        + ([st.tuples(st.sampled_from(pairs), st.integers(0, 6)).map(lambda k: (*k[0], k[1]))]
           if pairs else [])
        + [st.tuples(st.sampled_from(ids + [99]), st.sampled_from(ids + [99]),
                     st.integers(0, 6))]))
    entries = {draw(keys): (draw(st.sampled_from([0.0, 0.25, 1.0, 3.0])),
                            draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 2.0])))
               for _ in range(draw(st.integers(0, 8)))}
    return Solution(entries), book, grid, pinned


def restated_outcome(market) -> set[str]:
    """The refusal's wording, or the kinds violated, by the restated rules."""
    try:
        return {kind for kind, _ in restated_check(*market)} or {"feasible"}
    except MarketError as exc:
        return {str(exc).split(" ", 2)[2] if isinstance(exc, UnknownOfferError)
                else next(p for p in ("finalized", "unknown feeder", "not matchable",
                                      "outside the shared window") if p in str(exc))}


@settings(max_examples=1000, deadline=None)
@given(market=audited_markets())
def test_check_feasibility_agrees_with_the_rules_restated(market):
    try:
        want = restated_check(*market)
    except MarketError as exc:
        with pytest.raises(MarketError) as raised:
            check_feasibility(*market)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
    else:
        assert check_feasibility(*market).violations == tuple(want)


@pytest.mark.parametrize("case", sorted(VIOLATION_KINDS) + [
    "feasible", "not in book", "finalized", "unknown feeder", "not matchable",
    "outside the shared window"])
def test_audited_markets_reach_every_case(case):
    find(audited_markets(), lambda market: case in restated_outcome(market),
         settings=settings(max_examples=2000, database=None, derandomize=True,
                           phases=[Phase.generate]))


class TestPinnedTrades:
    def test_intervals_pin_in_order_only(self):
        pinned = PinnedTrades.empty()
        pinned.pin(0, {})
        pinned.pin(1, {(1, 2): (3.0, 0.5)})
        with pytest.raises(ValueError):
            pinned.pin(1, {})  # already pinned
        with pytest.raises(ValueError):
            pinned.pin(5, {})  # out of order

    def test_zero_power_entries_not_stored(self):
        pinned = PinnedTrades.empty()
        pinned.pin(0, {(1, 2): (0.0, 0.5), (3, 4): (2.0, 0.5)})
        assert pinned.entries(0) == {(3, 4): (2.0, 0.5)}

    def test_pinned_energy_per_offer(self):
        pinned = PinnedTrades(-1)
        pinned.pin(0, {(1, 2): (4.0, 0.5)})
        pinned.pin(1, {(1, 3): (2.0, 0.5)})
        assert pinned.energies((1, 2, 3, 4), 0.5) == [3.0, 2.0, 1.0, 0.0]

    def test_copy_is_independent(self):
        pinned = PinnedTrades(-1)
        pinned.pin(0, {(1, 2): (4.0, 0.5)})
        dup = pinned.copy()
        pinned.pin(1, {(1, 2): (1.0, 0.5)})
        assert dup.finalized_through == 0
        assert dup.entries(1) == {}
