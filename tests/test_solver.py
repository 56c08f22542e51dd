import ast
import hashlib
import importlib.machinery
import importlib.util
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from gridtrade.ledger import (Contract, ContractState, EventKind, Role, replay_events,
                             write_events_jsonl)
from gridtrade.market import (
    Feeder,
    GridModel,
    Offer,
    PinnedTrades,
    Side,
    Solution,
    check_feasibility,
    objective,
)
from gridtrade.oracle import (
    random_market,
    reference_optimum,
    run_comparison_suite,
    verify_certificate,
)
from gridtrade.sim import FailureSpec, SimConfig, Simulation
from gridtrade import solver as solver_mod
from gridtrade.solver import (
    CsrMatrix,
    NumericFailure,
    SolverAgent,
    SolverConfig,
    _repair_overages,
    build_lp,
    class_key,
    linprog,
    midpoint_price,
    solve,
    solve_with_diagnostics,
)
from gridtrade.traces import synthesize_traces

from conftest import BAD_COUNTS, BAD_NUMBERS


class TestBuildLp:
    def test_window_pruning_limits_variables(self, grid):
        book = {
            1: Offer(1, Side.SELLING, "s", "main", 100.0, 1, 100),
            2: Offer(2, Side.BUYING, "b", "main", 100.0, 1, 100),
        }
        instance = build_lp(book, grid, PinnedTrades.empty(), 0,
                            SolverConfig(lookahead=5))
        # one power column per offer per interval of [1, 5]; one tier, no carries
        assert instance.variables == tuple(
            (kind, offer_id, t) for t in range(1, 6)
            for kind, offer_id in (("sell", 1), ("buy", 2)))

    def test_empty_book_yields_empty_instance(self, grid):
        instance = build_lp({}, grid, PinnedTrades.empty(), 0, SolverConfig(lookahead=5))
        assert instance.n_variables == 0
        assert instance.n_constraints == 0

    @pytest.mark.parametrize("side", [Side.SELLING, Side.BUYING])
    def test_one_sided_window_yields_empty_instance(self, grid, side):
        book = {i: Offer(i, side, f"p{i}", "main", 5.0, 1, 3) for i in (1, 2)}
        instance = build_lp(book, grid, PinnedTrades.empty(), 0, SolverConfig(lookahead=3))
        assert instance.n_variables == 0
        assert instance.matrix.shape == (0, 0) and instance.matrix.nnz == 0
        assert (instance.matrix @ np.zeros(0)).shape == (0,)
        assert [o.id for o in instance.book] == [1, 2]
        assert len(solve(instance)) == 0

    def test_battery_book_has_five_variables(self, battery_book, grid, pins_through_47):
        instance = build_lp(battery_book, grid, pins_through_47, 47,
                            SolverConfig(lookahead=2))
        assert instance.variables == (
            ("sell", 1, 48), ("sell", 2, 48), ("buy", 3, 48),
            ("sell", 2, 49), ("buy", 4, 49))

    def test_unmatchable_pairs_get_no_variables(self, grid):
        book = {
            1: Offer(1, Side.SELLING, "s", "main", 5.0, 1, 2, reservation_price=0.9),
            2: Offer(2, Side.BUYING, "b", "main", 5.0, 1, 2, reservation_price=0.1),
        }
        instance = build_lp(book, grid, PinnedTrades.empty(), 0, SolverConfig(lookahead=3))
        assert instance.n_variables == 0

    def test_pinned_intervals_are_not_free_variables(self, battery_book, grid):
        pinned = PinnedTrades(48, {48: {(1, 3): (10.0, 0.5)}})
        instance = build_lp(battery_book, grid, pinned, 47, SolverConfig(lookahead=2))
        assert instance.variables == (("sell", 2, 49), ("buy", 4, 49))

    def test_pinned_energy_reduces_budget(self, battery_book, grid):
        pinned = PinnedTrades(48, {48: {(2, 3): (25.0, 0.5)}})
        instance = build_lp(battery_book, grid, pinned, 48, SolverConfig(lookahead=1))
        solution = solve(instance)
        # 25 of the battery's 30 kWh are already committed at interval 48.
        assert objective(solution) == pytest.approx(5.0, abs=1e-9)
        assert dict(solution.items())[(2, 4, 49)][0] == pytest.approx(5.0, abs=1e-9)


    def test_hand_built_market_gives_the_pinned_arrays(self):
        """Every array of one small LP, in the order LpInstance documents.

        At interval 2 the floors are 0.1 and 0.3 (one carry), seller 3 asks
        more than every ceiling and buyer 5 bids less than every floor; at
        interval 3 seller 2, flexible over both, is the one floor. Interval 1
        is finalized, and its pinned 2 kW (1 kWh) comes off offers 1 and 4.
        """
        grid = GridModel((Feeder("b", 6.0, 7.0), Feeder("a", 8.0, 9.0)), 0.5, 1)
        book = {
            1: Offer(1, Side.SELLING, "p1", "a", 4.0, 1, 2, reservation_price=0.1),
            2: Offer(2, Side.SELLING, "p2", "b", 5.0, 2, 3, reservation_price=0.3),
            3: Offer(3, Side.SELLING, "p3", "a", 2.0, 2, 2, reservation_price=0.9),
            4: Offer(4, Side.BUYING, "p4", "b", 6.0, 1, 3, reservation_price=0.5),
            5: Offer(5, Side.BUYING, "p5", "a", 3.0, 2, 2, reservation_price=0.05),
            6: Offer(6, Side.BUYING, "p6", "a", 2.0, 3, 3),
        }
        pinned = PinnedTrades(1, {1: {(1, 4): (2.0, 0.3)}})
        instance = build_lp(book, grid, pinned, 0, SolverConfig(lookahead=3))

        assert instance.variables == (
            ("sell", 1, 2), ("sell", 2, 2), ("buy", 4, 2), ("carry", 0, 2),
            ("sell", 2, 3), ("buy", 4, 3), ("buy", 6, 3))
        assert instance.c.tolist() == [1, 1, 0, 0, 1, 0, 0]
        assert instance.tie_break.tolist() == [1, 0, 0, 0, 1, 0, 0]
        rows = [  # (columns, coefficients, bound)
            # energy budgets: offers 1, 2, 4 and 6, net of pinned energy
            ([0], [0.5], 3.0), ([1, 4], [0.5, 0.5], 5.0),
            ([2, 5], [0.5, 0.5], 5.0), ([6], [0.5], 2.0),
            # feeder a at 2: production, net flow both ways
            ([0], [1.0], 9.0), ([0], [1.0], 8.0), ([0], [-1.0], 8.0),
            # feeder a at 3: consumption, net flow both ways
            ([6], [1.0], 9.0), ([6], [-1.0], 8.0), ([6], [1.0], 8.0),
            # feeder b at 2 and at 3: production, consumption, net flow
            ([1], [1.0], 7.0), ([2], [1.0], 7.0),
            ([1, 2], [1.0, -1.0], 6.0), ([1, 2], [-1.0, 1.0], 6.0),
            ([4], [1.0], 7.0), ([5], [1.0], 7.0),
            ([4, 5], [1.0, -1.0], 6.0), ([4, 5], [-1.0, 1.0], 6.0),
            # tier balances: floor 0.1 at 2, floor 0.3 at 2, floor 0.3 at 3
            ([0, 3], [1.0, -1.0], 0.0), ([0, 3], [-1.0, 1.0], 0.0),
            ([1, 2, 3], [1.0, -1.0, 1.0], 0.0), ([1, 2, 3], [-1.0, 1.0, -1.0], 0.0),
            ([4, 5, 6], [1.0, -1.0, -1.0], 0.0), ([4, 5, 6], [-1.0, 1.0, 1.0], 0.0),
        ]
        matrix = instance.matrix
        assert matrix.shape == (24, 7)
        assert matrix.indptr.tolist() == [
            0, 1, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 18, 19, 20, 22, 24,
            26, 28, 31, 34, 37, 40]
        assert matrix.indices.tolist() == [j for cols, _, _ in rows for j in cols]
        assert matrix.data.tolist() == [v for _, vals, _ in rows for v in vals]
        assert instance.rhs.tolist() == [bound for _, _, bound in rows]
        assert (matrix.indptr.dtype, matrix.indices.dtype) == (np.int32, np.int32)
        assert matrix.data.dtype == instance.rhs.dtype == instance.c.dtype == np.float64

    def test_random_markets_of_up_to_twelve_offers_match_the_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            book, grid, pinned, now, lookahead = random_market(
                rng, max_offers=12, max_intervals=5)
            instance = build_lp(book, grid, pinned, now, SolverConfig(lookahead=lookahead))
            solution, diagnostics = solve_with_diagnostics(instance)
            want = reference_optimum(book, grid, pinned, now, lookahead)
            assert objective(solution) == pytest.approx(want, abs=1e-6)
            assert verify_certificate(instance, diagnostics) == []


def with_copies(book, picks, energies):
    """``book`` and a copy of each picked offer under the next free id, with
    its own prosumer and energy: one more offer in the picked offer's class."""
    book = dict(book)
    for pick, energy in zip(picks, energies):
        offer = book[sorted(book)[pick % len(book)]]
        new_id = max(book) + 1
        book[new_id] = offer._replace(id=new_id, prosumer=f"copy{new_id}", energy_kwh=energy)
    return book


def flows_by_offer(solution):
    """Each offer's traded power at each interval: {offer id: {t: kW}}."""
    flows = {}
    for (s_id, b_id, t), (power, _) in solution.items():
        for offer_id in (s_id, b_id):
            at = flows.setdefault(offer_id, {})
            at[t] = at.get(t, 0.0) + power
    return flows


def assert_split_in_id_order(instance, solution):
    """Within a class, no offer trades at an interval while an offer of
    lower id still has energy left after it."""
    delta = instance.grid.interval_hours
    flows = flows_by_offer(solution)
    for shares in instance.classes.values():
        for k, (offer_id, _) in enumerate(shares):
            for t in sorted(flows.get(offer_id, {})):
                for lower, budget in shares[:k]:
                    used = sum(p for u, p in flows.get(lower, {}).items() if u <= t) * delta
                    assert used >= budget - 1e-9, (lower, offer_id, t, used, budget)


class TestOfferClasses:
    """One LP column per class of identical offers, split in id order."""

    def test_identical_offers_share_one_column_per_interval(self, grid):
        book = {
            1: Offer(1, Side.SELLING, "s", "main", 20.0, 1, 2),
            2: Offer(2, Side.BUYING, "b2", "main", 3.0, 1, 2, reservation_price=0.5),
            3: Offer(3, Side.BUYING, "c", "main", 4.0, 1, 2),  # no ceiling: its own class
            4: Offer(4, Side.BUYING, "b4", "main", 5.0, 1, 2, reservation_price=0.5),
        }
        instance = build_lp(book, grid, PinnedTrades.empty(), 0, SolverConfig(lookahead=2))
        assert instance.variables == tuple(
            (kind, label, t) for t in (1, 2)
            for kind, label in (("sell", 1), ("buy", 2), ("buy", 3)))
        assert instance.classes == {2: ((2, 3.0), (4, 5.0))}
        assert instance.rhs[:3].tolist() == [20.0, 8.0, 4.0]  # budgets of classes 1, 2 and 3

    def test_class_key_is_the_own_window(self, battery_book, grid, pins_through_47):
        # Clipped to [48, 48], sellers 1 ([48, 48]) and 2 ([48, 49]) would look alike.
        instance = build_lp(battery_book, grid, pins_through_47, 47, SolverConfig(lookahead=1))
        assert class_key(battery_book[1]) != class_key(battery_book[2])
        assert [v for v in instance.variables if v[0] == "sell"] == [
            ("sell", 1, 48), ("sell", 2, 48)]
        assert instance.classes == {}

    def test_split_fills_offers_in_id_order_across_intervals(self, grid):
        # 9 kWh of supply over two intervals for three identical buyers of 4
        # kWh each, one of which has 1 kWh pinned: 4, then 3, then 2.
        book = {
            1: Offer(1, Side.SELLING, "s", "main", 5.0, 1, 1),
            2: Offer(2, Side.SELLING, "r", "main", 4.0, 2, 2),
            3: Offer(3, Side.BUYING, "b3", "main", 4.0, 1, 2),
            5: Offer(5, Side.BUYING, "b5", "main", 4.0, 1, 2),
            7: Offer(7, Side.BUYING, "b7", "main", 4.0, 1, 2),
            8: Offer(8, Side.SELLING, "q", "main", 1.0, 0, 0),
        }
        pinned = PinnedTrades(0, {0: {(8, 5): (1.0, 0.5)}})
        instance = build_lp(book, grid, pinned, 0, SolverConfig(lookahead=2))
        assert instance.classes == {3: ((3, 4.0), (5, 3.0), (7, 4.0))}
        solution = solve(instance)
        assert sorted((key, power) for key, (power, _) in solution.items()) == [
            ((1, 3, 1), 4.0), ((1, 5, 1), 1.0), ((2, 5, 2), 2.0), ((2, 7, 2), 2.0)]
        assert_split_in_id_order(instance, solution)
        assert check_feasibility(solution, book, grid, pinned).ok

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 11), min_size=1, max_size=6),
           quarters=st.lists(st.integers(1, 16), min_size=6, max_size=6))
    def test_books_with_copied_offers_match_the_reference(self, seed, picks, quarters):
        book, grid, pinned, now, lookahead = random_market(
            np.random.default_rng(seed), max_offers=8, max_intervals=4)
        book = with_copies(book, picks, [0.25 * q for q in quarters])
        instance = build_lp(book, grid, pinned, now, SolverConfig(lookahead=lookahead or 1))
        solution, diagnostics = solve_with_diagnostics(instance)
        want = reference_optimum(book, grid, pinned, now, lookahead)
        assert objective(solution) == pytest.approx(want, abs=1e-6)
        assert verify_certificate(instance, diagnostics) == []
        assert check_feasibility(solution, book, grid, pinned).ok
        assert_split_in_id_order(instance, solution)
        members = [offer_id for shares in instance.classes.values() for offer_id, _ in shares]
        assert len(members) == len(set(members))
        assert all(class_key(book[offer_id]) == class_key(book[shares[0][0]])
                   for shares in instance.classes.values() for offer_id, _ in shares)

    def test_halving_an_offer_into_two_leaves_the_objective(self):
        rng = np.random.default_rng(17)
        halved = 0
        for _ in range(150):
            book, grid, pinned, now, lookahead = random_market(rng, max_offers=10,
                                                               allow_pins=False)
            config = SolverConfig(lookahead=lookahead or 1)
            offer = book[int(rng.integers(1, len(book) + 1))]
            split = dict(book)
            half = offer.energy_kwh / 2.0
            split[offer.id] = offer._replace(energy_kwh=half)
            split[len(book) + 1] = offer._replace(id=len(book) + 1, energy_kwh=half)
            whole = objective(solve(build_lp(book, grid, pinned, now, config)))
            instance = build_lp(split, grid, pinned, now, config)
            assert objective(solve(instance)) == pytest.approx(whole, abs=1e-9)
            halved += bool(instance.classes)
        assert halved > 100

    def test_distinct_offers_give_the_per_offer_lp_bit_for_bit(self):
        """Seeded random books in which no two offers are alike give, to the
        byte, the columns and arrays of the LP with one column per offer and
        interval (digest taken from that LP, before classes)."""
        rng = np.random.default_rng(29)
        digest = hashlib.sha256()
        kept = 0
        while kept < 200:
            book, grid, pinned, now, lookahead = random_market(rng, max_offers=12,
                                                               max_intervals=5)
            if len({class_key(o) for o in book.values()}) < len(book):
                continue
            kept += 1
            instance = build_lp(book, grid, pinned, now, SolverConfig(lookahead=lookahead or 1))
            assert instance.classes == {}
            a = instance.matrix
            digest.update(repr(instance.variables).encode())
            for array in (instance.c, a.data, a.indices, a.indptr, instance.rhs,
                          instance.tie_break):
                digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "35f11a41e9c5dde3f740a081164ae8a8aa2864f02c44431d4046a6e7c3262a2a")


class TestSolve:
    def test_battery_scenario_unique_optimum(self, battery_book, grid, pins_through_47):
        instance = build_lp(battery_book, grid, pins_through_47, 47,
                            SolverConfig(lookahead=2))
        solution = solve(instance)
        assert objective(solution) == pytest.approx(40.0, abs=1e-9)
        trades = dict(solution.items())
        assert trades[(1, 3, 48)][0] == pytest.approx(10.0, abs=1e-9)
        assert trades[(2, 3, 48)][0] == pytest.approx(20.0, abs=1e-9)
        assert trades[(2, 4, 49)][0] == pytest.approx(10.0, abs=1e-9)

    def test_no_matchable_pairs_solves_to_empty(self, grid):
        book = {
            1: Offer(1, Side.SELLING, "s", "main", 5.0, 1, 1, reservation_price=0.9),
            2: Offer(2, Side.BUYING, "b", "main", 5.0, 2, 2),
        }
        instance = build_lp(book, grid, PinnedTrades.empty(), 0, SolverConfig(lookahead=3))
        assert len(solve(instance)) == 0

    def test_solution_passes_feasibility(self, battery_book, grid, pins_through_47):
        instance = build_lp(battery_book, grid, pins_through_47, 47,
                            SolverConfig(lookahead=2))
        solution = solve(instance)
        assert check_feasibility(solution, battery_book, grid, pins_through_47).ok

    def test_no_trade_at_pinned_interval(self, battery_book, grid):
        pinned = PinnedTrades(48, {48: {(1, 3): (10.0, 0.5), (2, 3): (20.0, 0.5)}})
        instance = build_lp(battery_book, grid, pinned, 48, SolverConfig(lookahead=2))
        solution = solve(instance)
        trades = dict(solution.items())
        assert list(trades) == [(2, 4, 49)]
        assert trades[(2, 4, 49)][0] == pytest.approx(10.0, abs=1e-9)
        assert pinned.entries(48) == {(1, 3): (10.0, 0.5), (2, 3): (20.0, 0.5)}

    def test_deterministic_resolve(self, battery_book, grid, pins_through_47):
        instance = build_lp(battery_book, grid, pins_through_47, 47,
                            SolverConfig(lookahead=2))
        assert solve(instance) == solve(instance)

    def test_lookahead_monotone_on_fixed_book(self, grid):
        book = {}
        for i in range(3):
            book[i + 1] = Offer(i + 1, Side.SELLING, f"s{i}", "main", 4.0, 1 + i, 6)
            book[i + 4] = Offer(i + 4, Side.BUYING, f"b{i}", "main", 4.0, 1, 4 + i)
        values = []
        for lookahead in range(1, 8):
            instance = build_lp(book, grid, PinnedTrades.empty(), 0,
                                SolverConfig(lookahead=lookahead))
            values.append(objective(solve(instance)))
        assert values == sorted(values)

    def test_fifty_random_instances_match_reference(self):
        results = run_comparison_suite(50, seed=11)
        assert all(r.difference <= 1e-6 for r in results)
        assert all(r.feasible for r in results)
        assert all(not r.certificate_problems for r in results)


def tiered_markets(count=60, seed=23):
    """Random markets whose sellers have at least two floors, with their LPs."""
    rng = np.random.default_rng(seed)
    found = 0
    while found < count:
        book, grid, pinned, now, lookahead = random_market(rng)
        floors = {o.reservation for o in book.values() if o.side is Side.SELLING}
        if len(floors) < 2:
            continue
        instance = build_lp(book, grid, pinned, now,
                            SolverConfig(lookahead=lookahead or 1, solve_period=1.0))
        found += 1
        yield book, grid, pinned, now, lookahead, instance


def highs_input(instance):
    """The arrays ``solve_with_diagnostics`` hands to HiGHS, tie-break included."""
    return -(instance.c + 1e-9 * instance.tie_break), instance.matrix, instance.rhs


class TestPriceTiers:
    def test_random_markets_with_several_seller_floors_match_reference(self):
        checked = carried = 0
        for book, grid, pinned, now, lookahead, instance in tiered_markets():
            solution, diagnostics = solve_with_diagnostics(instance)
            want = reference_optimum(book, grid, pinned, now, lookahead)
            assert objective(solution) == pytest.approx(want, abs=1e-6)
            assert verify_certificate(instance, diagnostics) == []
            for (s_id, b_id, _), (_, price) in solution.items():
                assert book[s_id].reservation <= price <= book[b_id].reservation
            assert check_feasibility(solution, book, grid, pinned).ok
            checked += 1
            carried += any(kind == "carry" for kind, _, _ in instance.variables)
        assert checked == 60
        assert carried > 0  # supply moved up a tier in some instances

    def test_buyer_below_every_floor_gets_no_column(self, grid):
        book = {
            1: Offer(1, Side.SELLING, "s", "main", 5.0, 1, 1, reservation_price=0.4),
            2: Offer(2, Side.BUYING, "b", "main", 5.0, 1, 1, reservation_price=0.3),
            3: Offer(3, Side.BUYING, "c", "main", 5.0, 1, 1, reservation_price=0.5),
        }
        instance = build_lp(book, grid, PinnedTrades.empty(), 0, SolverConfig(lookahead=1))
        assert instance.variables == (("sell", 1, 1), ("buy", 3, 1))

    def test_fill_serves_high_floor_seller_first(self, grid):
        # Seller 2 (floor 0.6) can serve only buyer 3. Filling seller 1 first
        # would give it buyer 3, the lower id, and strand seller 2 and buyer 4.
        book = {
            1: Offer(1, Side.SELLING, "s1", "main", 5.0, 1, 1, reservation_price=0.1),
            2: Offer(2, Side.SELLING, "s2", "main", 5.0, 1, 1, reservation_price=0.6),
            3: Offer(3, Side.BUYING, "b3", "main", 5.0, 1, 1, reservation_price=0.9),
            4: Offer(4, Side.BUYING, "b4", "main", 5.0, 1, 1, reservation_price=0.2),
        }
        instance = build_lp(book, grid, PinnedTrades.empty(), 0, SolverConfig(lookahead=1))
        solution = solve(instance)
        assert sorted(dict(solution.items())) == [(1, 4, 1), (2, 3, 1)]
        assert objective(solution) == pytest.approx(10.0, abs=1e-9)


class TestTieBreak:
    def test_seller_expiring_first_is_used_first(self, grid):
        # Either seller alone meets the buyer, so both allocations are
        # optimal; seller 2 expires at the window's first interval.
        book = {
            1: Offer(1, Side.SELLING, "long", "main", 5.0, 1, 3),
            2: Offer(2, Side.SELLING, "short", "main", 5.0, 1, 1),
            3: Offer(3, Side.BUYING, "b", "main", 5.0, 1, 1),
        }
        instance = build_lp(book, grid, PinnedTrades.empty(), 0, SolverConfig(lookahead=3))
        solution = solve(instance)
        trades = dict(solution.items())
        assert list(trades) == [(2, 3, 1)]
        assert trades[(2, 3, 1)][0] == pytest.approx(5.0, abs=1e-9)

    def test_weights_grow_as_the_deadline_nears(self, grid):
        book = {
            1: Offer(1, Side.SELLING, "long", "main", 5.0, 1, 9),
            2: Offer(2, Side.SELLING, "short", "main", 5.0, 1, 1),
            3: Offer(3, Side.BUYING, "b", "main", 5.0, 1, 3),
        }
        instance = build_lp(book, grid, PinnedTrades.empty(), 0, SolverConfig(lookahead=3))
        weight = dict(zip(instance.variables, instance.tie_break))
        assert weight[("sell", 2, 1)] == 2.0  # due now
        assert [weight[("sell", 1, t)] for t in (1, 2, 3)] == [0.0, 1.0, 2.0]
        assert [weight[("buy", 3, t)] for t in (1, 2, 3)] == [0.0, 0.0, 0.0]


class TestRepairOverages:
    def test_residue_on_zero_bound_row_keeps_solution(self):
        x = np.array([1.0, 1e-15])
        repaired = _repair_overages(x, csr_matrix(np.array([[0.0, 1.0]])), np.array([0.0]))
        assert repaired.tolist() == [1.0, 1e-15]

    def test_overage_on_positive_bound_scales_down(self):
        x = np.array([2.0, 2.0])
        repaired = _repair_overages(x, csr_matrix(np.array([[1.0, 1.0]])), np.array([3.0]))
        assert repaired.tolist() == [1.5, 1.5]


class TestAssignPrices:
    """The fill prices each trade at the band midpoint as it splits the flows."""

    def priced(self, grid, sell_res, buy_res, price_cap):
        book = {
            1: Offer(1, Side.SELLING, "s", "main", 5.0, 1, 1, reservation_price=sell_res),
            2: Offer(2, Side.BUYING, "b", "main", 5.0, 1, 1, reservation_price=buy_res),
        }
        instance = build_lp(book, grid, PinnedTrades.empty(), 0,
                            SolverConfig(lookahead=1, price_cap=price_cap))
        solution = solve(instance)
        trades = dict(solution.items())
        assert list(trades) == [(1, 2, 1)]
        price = trades[(1, 2, 1)][1]
        assert price == midpoint_price(book[1], book[2], price_cap)
        return book, solution, price

    def test_midpoint_of_band(self, grid):
        assert self.priced(grid, 2.0, 4.0, 10.0)[2] == 3.0

    def test_degenerate_band(self, grid):
        assert self.priced(grid, 2.0, 2.0, 10.0)[2] == 2.0

    def test_unpriced_pair_uses_cap(self, grid):
        assert self.priced(grid, None, None, 1.0)[2] == 0.5

    def test_seller_above_cap_stays_in_band(self, grid):
        book, solution, price = self.priced(grid, 1.8, None, 1.0)
        assert price == 1.8
        assert check_feasibility(solution, book, grid).ok

    def test_fill_prices_every_trade_at_the_midpoint(self):
        priced = 0
        for book, _, _, _, _, instance in tiered_markets():
            cap = instance.config.price_cap
            for (s_id, b_id, _), (_, price) in solve(instance).items():
                assert price == midpoint_price(book[s_id], book[b_id], cap)
                priced += 1
        assert priced > 60


class TestSolverAgent:
    def make_contract(self, grid):
        contract = Contract(grid, require_dso_finalize=False)
        contract.register("solver-1", Role.SOLVER)
        contract.register("alice", Role.PROSUMER, "main")
        contract.register("bob", Role.PROSUMER, "main")
        return contract

    def test_first_tick_submits_nonzero_optimum(self, grid):
        contract = self.make_contract(grid)
        contract.post_offer("alice", Side.SELLING, 1, 1, 5.0)
        contract.post_offer("bob", Side.BUYING, 1, 1, 5.0)
        agent = SolverAgent("solver-1", SolverConfig(lookahead=3, solve_period=1.0))
        submission = agent.step(contract.state, {}, time=0.0)
        assert submission is not None
        assert objective(submission) > 0

    def test_unchanged_book_does_not_resubmit(self, grid):
        contract = self.make_contract(grid)
        contract.post_offer("alice", Side.SELLING, 1, 1, 5.0)
        contract.post_offer("bob", Side.BUYING, 1, 1, 5.0)
        agent = SolverAgent("solver-1", SolverConfig(lookahead=3, solve_period=1.0))
        submission = agent.step(contract.state, {}, time=0.0)
        contract.submit_solution("solver-1", submission, time=0.0)
        again = agent.step(contract.state, {}, time=1.0)
        assert again is None

    def test_new_offer_triggers_strictly_better_submission(self, grid):
        contract = self.make_contract(grid)
        contract.post_offer("alice", Side.SELLING, 1, 2, 10.0)
        contract.post_offer("bob", Side.BUYING, 1, 1, 5.0)
        agent = SolverAgent("solver-1", SolverConfig(lookahead=3, solve_period=1.0))
        first = agent.step(contract.state, {}, time=0.0)
        contract.submit_solution("solver-1", first, time=0.0)
        contract.post_offer("bob", Side.BUYING, 2, 2, 4.0)
        second = agent.step(contract.state, {}, time=1.0)
        assert second is not None
        assert objective(second) > objective(first) + 1e-9

    def test_the_contract_holds_the_submitted_solution(self, grid):
        contract = self.make_contract(grid)
        contract.post_offer("alice", Side.SELLING, 1, 2, 10.0)
        contract.post_offer("bob", Side.BUYING, 1, 2, 5.0)
        agent = SolverAgent("solver-1", SolverConfig(lookahead=3))
        submission = agent.step(contract.state, {})
        event = contract.submit_solution("solver-1", submission)
        assert event.kind == "SolutionAccepted" and event.parsed is submission
        assert contract.state.candidate is submission

    def test_failed_solve_drops_the_solution_held_from_an_earlier_interval(self, grid,
                                                                          monkeypatch):
        contract = self.make_contract(grid)
        contract.register("solver-2", Role.SOLVER)
        for t in (1, 2):
            contract.post_offer("alice", Side.SELLING, t, t, 5.0)
            contract.post_offer("bob", Side.BUYING, t, t, 5.0)
        first, second = (SolverAgent(f"solver-{i}", SolverConfig(lookahead=3)) for i in (1, 2))
        contract.submit_solution("solver-1", first.step(contract.state, {}))
        assert second.step(contract.state, {}) is None  # equal: refused
        contract.finalize(None, 0)

        def explode(instance):
            raise NumericFailure("synthetic blow-up")

        monkeypatch.setattr(solver_mod, "solve", explode)
        assert second.step(contract.state, {}, time=1.0) is None
        assert second.records[-1].error == "synthetic blow-up"
        # The solution refused at time 0 trades at interval 1, now finalized,
        # and beats the candidate left for interval 2: it must not go out.
        assert second.step(contract.state, {}, time=2.0) is None

    def test_solver_variable_count_recorded(self, grid):
        contract = self.make_contract(grid)
        contract.post_offer("alice", Side.SELLING, 1, 1, 5.0)
        contract.post_offer("bob", Side.BUYING, 1, 1, 5.0)
        agent = SolverAgent("solver-1", SolverConfig(lookahead=3, solve_period=1.0))
        agent.step(contract.state, {}, time=0.0)
        assert agent.records
        assert agent.records[-1].variables == 2  # alice's and bob's power at interval 1


def test_diagnostics_expose_optimality_certificate(battery_book, grid, pins_through_47):
    instance = build_lp(battery_book, grid, pins_through_47, 47, SolverConfig(lookahead=2))
    solution, diagnostics = solve_with_diagnostics(instance)
    assert diagnostics.free_objective == pytest.approx(objective(solution), abs=1e-9)
    assert len(diagnostics.duals) == instance.n_constraints
    for values in (diagnostics.primal, diagnostics.duals):
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
    assert verify_certificate(instance, diagnostics) == []


class TestCsrMatrix:
    """The solver's CSR container against SciPy's, which it replaced."""

    def test_matvec_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(11)
        compared = 0
        for *_, instance in tiered_markets():
            a = instance.matrix
            want = csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
            x = rng.random(a.shape[1])
            assert (a @ x).tobytes() == (want @ x).tobytes()
            assert np.array_equal(a.toarray(), want.toarray())
            assert a.nnz == want.nnz
            compared += a.shape[0] > 0
        assert compared > 40


class TestHighsEntryPoint:
    """``solver.linprog`` against SciPy's ``linprog``, which it replaced."""

    def test_matches_scipy_linprog_on_tiered_markets(self):
        from scipy.optimize import linprog as scipy_linprog

        compared = 0
        for *_, instance in tiered_markets():
            if instance.n_variables == 0:
                continue
            c, a, b = highs_input(instance)
            # HiGHS reads build_lp's arrays in place: no conversion on the way.
            assert a.indptr.dtype == a.indices.dtype == np.int32
            assert a.data.dtype == c.dtype == b.dtype == np.float64
            primal, duals = linprog(c, a, b)
            scipy_a = csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
            want = scipy_linprog(c, A_ub=scipy_a, b_ub=b, bounds=(0, None), method="highs",
                                 options={"primal_feasibility_tolerance": 1e-10,
                                          "dual_feasibility_tolerance": 1e-9})
            assert want.status == 0
            assert np.array_equal(primal, want.x)
            assert np.array_equal(duals, -want.ineqlin.marginals)
            compared += 1
        assert compared > 40

    def test_reused_engine_leaks_no_state_between_models(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "_highs", None)  # a fresh engine for A
        markets = [m[-1] for m in tiered_markets(count=12, seed=5) if m[-1].n_variables]
        a_lp = max(markets, key=lambda i: i.n_variables)
        b_lp = min(markets, key=lambda i: i.n_variables)
        assert a_lp.n_variables > b_lp.n_variables
        first = linprog(*highs_input(a_lp))
        engine = solver_mod._highs
        linprog(*highs_input(b_lp))
        again = linprog(*highs_input(a_lp))
        assert solver_mod._highs is engine
        for before, after in zip(first, again):
            assert before.tobytes() == after.tobytes()

    def test_missing_highs_core_raises_import_error_naming_the_file(self, monkeypatch,
                                                                    tmp_path):
        scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
        monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
        missing = re.escape(str(tmp_path / "optimize" / "_highspy" / "_core"))
        with pytest.raises(ImportError, match=missing):
            solver_mod._load_highs()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_numeric_failure(self, battery_book, grid,
                                                     pins_through_47, bad):
        instance = build_lp(battery_book, grid, pins_through_47, 47, SolverConfig(lookahead=2))
        c, a, b = highs_input(instance)
        rhs = b.copy()
        rhs[0] = bad
        with pytest.raises(NumericFailure):
            linprog(c, a, rhs)
        cost = c.copy()
        cost[0] = bad
        with pytest.raises(NumericFailure):
            linprog(cost, a, b)
        data = a.data.copy()
        data[0] = bad
        matrix = CsrMatrix(data, a.indices, a.indptr, a.shape)
        with pytest.raises(NumericFailure):
            linprog(c, matrix, b)

    @pytest.mark.parametrize("coeff, bound", [(1.0, -1.0), (-1.0, 0.0)],
                             ids=["infeasible", "unbounded"])
    def test_non_optimal_status_raises_and_engine_recovers(self, coeff, bound):
        with pytest.raises(NumericFailure):
            linprog(np.array([-1.0]), csr_matrix([[coeff]]), np.array([bound]))
        primal, duals = linprog(np.array([-1.0]), csr_matrix([[1.0]]), np.array([2.0]))
        assert primal.tolist() == [2.0] and duals.tolist() == [1.0]


@pytest.fixture
def solve_calls(monkeypatch):
    """The ``build_lp`` calls, HiGHS runs and ``check_feasibility`` pins of
    ``solver``, one entry per call."""
    calls = {"build_lp": [], "linprog": [], "check": []}
    build, run, check = solver_mod.build_lp, solver_mod.linprog, solver_mod.check_feasibility

    def build_counted(*args, **kwargs):
        calls["build_lp"].append(args[3])
        return build(*args, **kwargs)

    def run_counted(c, a, rhs):
        calls["linprog"].append(a.shape)
        return run(c, a, rhs)

    def check_counted(solution, book, grid, pinned=None):
        calls["check"].append(pinned)
        return check(solution, book, grid, pinned)

    monkeypatch.setattr(solver_mod, "build_lp", build_counted)
    monkeypatch.setattr(solver_mod, "linprog", run_counted)
    monkeypatch.setattr(solver_mod, "check_feasibility", check_counted)
    return calls


class TestSharedSolve:
    """Solver agents at one ledger state share one solve, checked once, by the
    solve, through the memo of their market."""

    def market(self, grid):
        contract = Contract(grid, require_dso_finalize=False)
        for name in ("solver-1", "solver-2", "solver-3"):
            contract.register(name, Role.SOLVER)
        contract.register("alice", Role.PROSUMER, "main")
        contract.register("bob", Role.PROSUMER, "main")
        contract.post_offer("alice", Side.SELLING, 1, 2, 10.0)
        contract.post_offer("bob", Side.BUYING, 1, 2, 6.0)
        contract.post_offer("bob", Side.BUYING, 2, 3, 6.0)
        agents = [SolverAgent(f"solver-{i}", SolverConfig(lookahead=3)) for i in (1, 2, 3)]
        return contract, agents, {}

    def test_agents_at_one_ledger_state_make_one_build_and_one_run(self, grid, solve_calls):
        contract, agents, shared = self.market(grid)
        first, second = (agent.step(contract.state, shared) for agent in agents[:2])
        assert len(solve_calls["build_lp"]) == len(solve_calls["linprog"]) == 1
        assert first is second and objective(first) == pytest.approx(10.0, abs=1e-9)
        # One check in all, the solve's, against the ledger's own pins.
        assert [id(p) for p in solve_calls["check"]] == [id(contract.state.pinned)]
        assert [r.variables for r in agents[0].records] == [r.variables for r in agents[1].records]

    def test_an_lp_changing_event_between_forces_a_fresh_build(self, grid, solve_calls):
        contract, (one, two, _), shared = self.market(grid)
        first = one.step(contract.state, shared)
        contract.post_offer("alice", Side.SELLING, 3, 3, 4.0)
        second = two.step(contract.state, shared)
        assert len(solve_calls["build_lp"]) == len(solve_calls["linprog"]) == 2
        assert objective(first) == pytest.approx(10.0, abs=1e-9)
        assert objective(second) == pytest.approx(12.0, abs=1e-9)  # all bob asks

    def test_another_config_builds_its_own_lp(self, grid, solve_calls):
        contract, (one, _, _), shared = self.market(grid)
        short = SolverAgent("solver-2", SolverConfig(lookahead=1))
        one.step(contract.state, shared)
        assert objective(short.step(contract.state, shared)) == pytest.approx(6.0)
        assert len(solve_calls["build_lp"]) == 2

    def test_each_config_keeps_its_own_solve(self, grid, solve_calls):
        contract, (one, two, _), shared = self.market(grid)
        short = SolverAgent("solver-3", SolverConfig(lookahead=1))
        one.step(contract.state, shared)
        short.step(contract.state, shared)
        assert objective(two.step(contract.state, shared)) == pytest.approx(10.0, abs=1e-9)
        assert len(solve_calls["build_lp"]) == 2
        assert set(shared) == {one.config, short.config}

    def test_a_solve_that_raised_stores_nothing(self, grid, monkeypatch, solve_calls):
        contract, (one, two, _), shared = self.market(grid)
        counted = solver_mod.linprog

        def fails_once(c, a, rhs):
            if not solve_calls["linprog"]:
                solve_calls["linprog"].append(a.shape)
                raise NumericFailure("synthetic blow-up")
            return counted(c, a, rhs)

        monkeypatch.setattr(solver_mod, "linprog", fails_once)
        assert one.step(contract.state, shared) is None
        assert one.records[-1].error == "synthetic blow-up"
        assert shared == {}
        assert objective(two.step(contract.state, shared)) == pytest.approx(10.0, abs=1e-9)
        assert len(solve_calls["build_lp"]) == len(solve_calls["linprog"]) == 2

    def test_a_later_hit_returns_the_first_answer(self, grid, solve_calls):
        contract, (one, two, three), shared = self.market(grid)
        first = one.step(contract.state, shared)
        assert two.step(contract.state, shared) is first  # not yet submitted
        contract.submit_solution("solver-1", first)  # an event no LP reads
        assert three.step(contract.state, shared) is None  # equal to the candidate
        assert len(solve_calls["build_lp"]) == len(solve_calls["linprog"]) == 1
        assert contract.state.candidate is first
        assert [(r.objective, r.submitted) for r in two.records + three.records] == [
            (objective(first), True), (objective(first), False)]

    def test_a_shared_solution_the_ledger_refuses_is_never_sent(self, grid, solve_calls):
        contract, (one, two, _), shared = self.market(grid)
        contract.submit_solution("solver-1", one.step(contract.state, shared))
        assert two.step(contract.state, shared) is None  # equal to the candidate
        assert two.step(contract.state, shared) is None  # and never sent later
        # The one check is the solve's own, against the ledger's pins.
        assert [id(p) for p in solve_calls["check"]] == [id(contract.state.pinned)]
        assert [r.submitted for r in one.records + two.records] == [True, False]

    def test_a_removal_that_withdraws_no_open_offer_leaves_the_lp_head(self, grid, solve_calls):
        contract, (one, two, _), shared = self.market(grid)
        one.step(contract.state, shared)
        head = contract.state.lp_head
        contract.remove_participant_trades("solver-3")  # a solver posts no offer
        assert one.step(contract.state, shared) is None
        assert two.step(contract.state, shared) is not None  # the shared solve
        assert contract.state.lp_head is head
        assert len(solve_calls["build_lp"]) == len(solve_calls["linprog"]) == 1

    def test_a_removal_that_withdraws_an_open_offer_moves_the_lp_head(self, grid, solve_calls):
        contract, (one, _, _), shared = self.market(grid)
        one.step(contract.state, shared)
        [removal] = contract.remove_participant_trades("bob")
        assert one.step(contract.state, shared) is None  # no buyer is left
        assert contract.state.lp_head is removal
        assert replay_events(grid, contract.events).lp_head is removal
        assert len(solve_calls["build_lp"]) == 2


def test_no_module_state_but_the_highs_engine():
    """The only ``global`` statement in the package is the HiGHS engine's:
    what a day shares, such as its solves, belongs to the day."""
    package = Path(solver_mod.__file__).resolve().parent
    found = set()
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Global):
                found.update((module.name, name) for name in node.names)
    assert found == {("solver.py", "_highs")}


class TestSolveChecksItsOwnPins:
    """A solve checks its solution against the LP's own pins: pins that
    change after the build show up as a :class:`NumericFailure` naming
    what they rule out."""

    def make_contract(self, grid):
        contract = Contract(grid, require_dso_finalize=False)
        contract.register("alice", Role.PROSUMER, "main")
        contract.register("bob", Role.PROSUMER, "main")
        return contract

    def test_energy_the_pins_already_sold_fails_the_check(self, grid):
        contract = self.make_contract(grid)
        sell = contract.post_offer("alice", Side.SELLING, 1, 2, 5.0).parsed
        buy = contract.post_offer("bob", Side.BUYING, 2, 2, 5.0).parsed
        pinned = PinnedTrades(grid.clearing_lead - 1)
        instance = build_lp(contract.state.open_offers, grid, pinned, 1, SolverConfig(lookahead=3))
        pinned.pin(1, {(sell.id, buy.id): (5.0, 0.5)})  # alice's energy sold after the build
        with pytest.raises(NumericFailure, match="^solution failed self-validation: energy"):
            solve(instance)

    def test_a_trade_at_a_finalized_interval_fails_the_check(self, grid):
        contract = self.make_contract(grid)
        contract.post_offer("alice", Side.SELLING, 1, 2, 10.0)
        contract.post_offer("bob", Side.BUYING, 1, 2, 6.0)
        pinned = PinnedTrades(grid.clearing_lead - 1)
        instance = build_lp(contract.state.open_offers, grid, pinned, 1, SolverConfig(lookahead=3))
        for interval in (1, 2):  # finalized after the build
            pinned.pin(interval, {})
        with pytest.raises(NumericFailure, match="finalized interval"):
            solve(instance)


def small_day(seed, n_solvers, n_adversaries, delay, adaptive, solver_down, prosumer_down):
    traces = synthesize_traces(6, 2, 2, 8, seed=seed)
    grid = GridModel(tuple(Feeder(f, 2.0, 2.5) for f in ("f01", "f02")), 0.25, 1)
    solver_fail, down = solver_down
    config = SimConfig(
        grid=grid, horizon=8, seconds_per_interval=4.0, solver_period=1.0, lookahead=4,
        n_solvers=n_solvers, n_adversaries=n_adversaries, seed=seed,
        confirmation_delay=delay, adaptive=adaptive,
        failures=(FailureSpec("solver-2", solver_fail, solver_fail + down),
                  FailureSpec("p001", prosumer_down)))
    return Simulation(config, traces)


SMALL_DAYS = dict(
    seed=st.integers(0, 20), n_solvers=st.integers(2, 3), n_adversaries=st.integers(0, 2),
    delay=st.sampled_from([0.0, 0.5, 1.5]), adaptive=st.booleans(),
    solver_down=st.tuples(st.floats(0.0, 8.0), st.floats(0.5, 8.0)),
    prosumer_down=st.floats(0.0, 24.0))


@settings(max_examples=25, deadline=None)
@given(**SMALL_DAYS)
def test_a_day_is_the_same_with_every_shared_solve_missed(**day):
    """Forcing every agent to build and solve for itself changes no event,
    no solve record and no controller decision; sharing builds fewer LPs."""
    runs = []
    for shared in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            builds, build, step = [], solver_mod.build_lp, SolverAgent.step

            def build_counted(*args, **kwargs):
                builds.append(args[3])
                return build(*args, **kwargs)

            def step_missing(agent, state, shared, *, time=0.0):
                return step(agent, state, {}, time=time)

            patch.setattr(solver_mod, "build_lp", build_counted)
            if not shared:
                patch.setattr(SolverAgent, "step", step_missing)
            report = small_day(**day).run()
        with tempfile.TemporaryDirectory() as folder:
            path = write_events_jsonl(Path(folder, "events.jsonl"), report.events,
                                      report.config.grid, price_cap=report.config.price_cap)
            runs.append((path.read_bytes(), report.solver_records, report.controller_rows,
                         len(builds)))
    (log, records, trace, builds), (log_missed, records_missed, trace_missed, builds_missed) = runs
    assert log == log_missed
    assert records == records_missed and trace == trace_missed
    assert builds < builds_missed


@settings(max_examples=25, deadline=None)
@given(**SMALL_DAYS)
def test_the_candidate_objective_falls_only_when_the_lp_head_moves(**day):
    """What lets a solver agent ask ``improves`` once per LP head: at an
    unmoved head no event lowers the candidate's objective, so a solution
    refused at its solve stays refused until the next solve."""
    sim = small_day(**day)
    report = sim.run()
    state = ContractState(sim.config.grid)
    for event in report.events:
        head, before = state.lp_head, state.candidate_objective
        state.apply(event)
        assert state.candidate_objective >= before or state.lp_head is not head, event


@settings(max_examples=25, deadline=None)
@given(**SMALL_DAYS)
def test_the_frontier_is_the_clock_and_every_posted_offer_is_open(**day):
    """The state records what is closed once, in the pins: the interval is
    read from the frontier, and an offer is open exactly while its window
    ends after it, which the post's stale rule makes true of every new one."""
    sim = small_day(**day)
    report = sim.run()
    state = ContractState(sim.config.grid)
    advanced = 0
    for event in report.events:
        state.apply(event)
        advanced += event.kind == EventKind.INTERVAL_ADVANCED
        frontier = state.pinned.finalized_through
        assert state.open_offers == {
            oid: offer for oid, offer in state.book.items() if offer.end > frontier}, event
        assert state.current_interval == advanced, event


class TestSolverConfig:
    @pytest.mark.parametrize("field, value", [
        *[("lookahead", bad) for bad in BAD_COUNTS], ("lookahead", 0), ("lookahead", 3.0),
        *[("solve_period", bad) for bad in BAD_NUMBERS], ("solve_period", 0.0),
        *[("price_cap", bad) for bad in BAD_NUMBERS], ("price_cap", -1.0)])
    def test_refuses_a_bad_value(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            SolverConfig(**{"lookahead": 3, field: value})

    def test_infinite_price_cap_is_refused_before_any_solve(self):
        # Accepted once, it priced an unpriced buyer's trade at inf, and the
        # Solution that refused it stopped the run inside SolverAgent.step.
        with pytest.raises(ValueError, match="price_cap must be a non-negative finite number"):
            SolverConfig(lookahead=3, price_cap=math.inf)
