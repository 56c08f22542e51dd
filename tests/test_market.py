import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtrade.ledger import Contract
from gridtrade.market import (
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
    check_feasibility,
    matchable,
    objective,
)


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
        (Side.SELLING, 1.0, "1", 2, None)])
    def test_rejects_malformed_values(self, side, energy, start, end, price):
        with pytest.raises(ValueError):
            Offer(1, side, "s", "main", energy, start, end, price)

    def test_coerces_to_side_whole_ints_and_floats(self):
        offer = Offer(1, "selling", "s", "main", 2, 3.0, np.int64(4), 1)
        assert offer == sell(1, 2.0, 3, 4, 1.0)
        assert offer.side is Side.SELLING and offer.reservation == 1.0
        assert type(offer.start) is type(offer.end) is int
        assert type(offer.energy_kwh) is type(offer.reservation_price) is float


NON_FINITE = [math.nan, math.inf, -math.inf]


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
    def test_absent_keys_default_to_zero_power(self):
        sol = Solution({(1, 2, 3): (4.0, 0.5)})
        assert sol.power((9, 9, 9)) == 0.0
        assert sol.price((9, 9, 9)) is None

    def test_rejects_negative_power(self):
        with pytest.raises(InvalidTradeError):
            Solution({(1, 2, 3): (-1.0, 0.5)})

    def test_rejects_non_finite_values(self):
        with pytest.raises(InvalidTradeError):
            Solution({(1, 2, 3): (math.nan, 0.5)})
        with pytest.raises(InvalidTradeError):
            Solution({(1, 2, 3): (1.0, math.inf)})

    def test_payload_round_trip(self):
        sol = Solution({(2, 3, 5): (1.25, 0.4), (1, 3, 4): (2.0, 0.3)})
        assert Solution.from_payload(sol.to_payload()) == sol

    def test_without_offers_drops_every_trade_of_those_offers(self):
        sol = Solution({(1, 2, 3): (1.0, 0.1), (1, 2, 7): (2.0, 0.1), (4, 2, 7): (3.0, 0.1)})
        stripped = sol.without_offers({1})
        assert stripped == Solution({(4, 2, 7): (3.0, 0.1)})

    def test_after_keeps_later_trades_in_key_order(self):
        sol = Solution({(4, 2, 7): (3.0, 0.1), (1, 2, 3): (1.0, 0.1), (1, 2, 8): (2.0, 0.2)})
        later = sol.after(3)
        assert later == Solution({(1, 2, 8): (2.0, 0.2), (4, 2, 7): (3.0, 0.1)})
        assert list(later.keys()) == [(1, 2, 8), (4, 2, 7)]
        assert len(sol) == 3 and len(sol.after(8)) == 0


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
        assert [pinned.energy(oid, 1.0) for oid in (1, 2, 3)] == [2.0, 2.0, 0.0]
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
        used = {oid: pinned.energy(oid, 0.5) for oid in (1, 2, 3, 4)}
        assert used == {1: 3.0, 2: 2.0, 3: 1.0, 4: 0.0}

    def test_copy_is_independent(self):
        pinned = PinnedTrades(-1)
        pinned.pin(0, {(1, 2): (4.0, 0.5)})
        dup = pinned.copy()
        pinned.pin(1, {(1, 2): (1.0, 0.5)})
        assert dup.finalized_through == 0
        assert dup.entries(1) == {}
