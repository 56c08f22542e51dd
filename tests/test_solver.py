import numpy as np
import pytest
from scipy.sparse import csr_matrix

from gridtrade.ledger import Contract, Role
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
from gridtrade.solver import (
    SolverAgent,
    SolverConfig,
    assign_prices,
    _repair_overages,
    build_lp,
    solve,
    solve_with_diagnostics,
)


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
        assert solution.power((2, 4, 49)) == pytest.approx(5.0, abs=1e-9)


class TestSolve:
    def test_battery_scenario_unique_optimum(self, battery_book, grid, pins_through_47):
        instance = build_lp(battery_book, grid, pins_through_47, 47,
                            SolverConfig(lookahead=2))
        solution = solve(instance)
        assert objective(solution) == pytest.approx(40.0, abs=1e-9)
        assert solution.power((1, 3, 48)) == pytest.approx(10.0, abs=1e-9)
        assert solution.power((2, 3, 48)) == pytest.approx(20.0, abs=1e-9)
        assert solution.power((2, 4, 49)) == pytest.approx(10.0, abs=1e-9)

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
        assert list(solution.keys()) == [(2, 4, 49)]
        assert solution.power((2, 4, 49)) == pytest.approx(10.0, abs=1e-9)
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


class TestPriceTiers:
    def test_random_markets_with_several_seller_floors_match_reference(self):
        rng = np.random.default_rng(23)
        checked = carried = 0
        while checked < 60:
            book, grid, pinned, now, lookahead = random_market(rng)
            floors = {o.reservation for o in book.values() if o.side is Side.SELLING}
            if len(floors) < 2:
                continue
            instance = build_lp(book, grid, pinned, now,
                                SolverConfig(lookahead=lookahead or 1, solve_period=1.0))
            solution, diagnostics = solve_with_diagnostics(instance)
            want = reference_optimum(book, grid, pinned, now, lookahead)
            assert objective(solution) == pytest.approx(want, abs=1e-6)
            assert verify_certificate(instance, diagnostics) == []
            for (s_id, b_id, _), (_, price) in solution.items():
                assert book[s_id].reservation <= price <= book[b_id].reservation
            assert check_feasibility(solution, book, grid, pinned).ok
            checked += 1
            carried += any(kind == "carry" for kind, _, _ in instance.variables)
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
        assert sorted(solution.keys()) == [(1, 4, 1), (2, 3, 1)]
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
        assert list(solution.keys()) == [(2, 3, 1)]
        assert solution.power((2, 3, 1)) == pytest.approx(5.0, abs=1e-9)

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
    def make_pair(self, sell_res, buy_res):
        return {
            1: Offer(1, Side.SELLING, "s", "main", 5.0, 1, 1, reservation_price=sell_res),
            2: Offer(2, Side.BUYING, "b", "main", 5.0, 1, 1, reservation_price=buy_res),
        }

    def test_midpoint_of_band(self):
        book = self.make_pair(2.0, 4.0)
        priced = assign_prices(Solution({(1, 2, 1): (1.0, 0.0)}), book, price_cap=10.0)
        assert priced.price((1, 2, 1)) == 3.0

    def test_degenerate_band(self):
        book = self.make_pair(2.0, 2.0)
        priced = assign_prices(Solution({(1, 2, 1): (1.0, 0.0)}), book, price_cap=10.0)
        assert priced.price((1, 2, 1)) == 2.0

    def test_unpriced_pair_uses_cap(self):
        book = self.make_pair(None, None)
        priced = assign_prices(Solution({(1, 2, 1): (1.0, 0.0)}), book, price_cap=1.0)
        assert priced.price((1, 2, 1)) == 0.5

    def test_seller_above_cap_stays_in_band(self, grid):
        book = self.make_pair(1.8, None)
        priced = assign_prices(Solution({(1, 2, 1): (1.0, 0.0)}), book, price_cap=1.0)
        assert priced.price((1, 2, 1)) == 1.8
        assert check_feasibility(priced, book, grid).ok


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
        agent = SolverAgent("solver-1", grid, SolverConfig(lookahead=3, solve_period=1.0))
        submission = agent.step(contract.events_since(0), time=0.0)
        assert submission is not None
        assert objective(submission) > 0

    def test_unchanged_book_does_not_resubmit(self, grid):
        contract = self.make_contract(grid)
        contract.post_offer("alice", Side.SELLING, 1, 1, 5.0)
        contract.post_offer("bob", Side.BUYING, 1, 1, 5.0)
        agent = SolverAgent("solver-1", grid, SolverConfig(lookahead=3, solve_period=1.0))
        submission = agent.step(contract.events_since(agent.last_seq), time=0.0)
        contract.submit_solution("solver-1", submission, time=0.0)
        again = agent.step(contract.events_since(agent.last_seq), time=1.0)
        assert again is None

    def test_new_offer_triggers_strictly_better_submission(self, grid):
        contract = self.make_contract(grid)
        contract.post_offer("alice", Side.SELLING, 1, 2, 10.0)
        contract.post_offer("bob", Side.BUYING, 1, 1, 5.0)
        agent = SolverAgent("solver-1", grid, SolverConfig(lookahead=3, solve_period=1.0))
        first = agent.step(contract.events_since(agent.last_seq), time=0.0)
        contract.submit_solution("solver-1", first, time=0.0)
        contract.post_offer("bob", Side.BUYING, 2, 2, 4.0)
        second = agent.step(contract.events_since(agent.last_seq), time=1.0)
        assert second is not None
        assert objective(second) > objective(first) + 1e-9

    def test_solver_variable_count_recorded(self, grid):
        contract = self.make_contract(grid)
        contract.post_offer("alice", Side.SELLING, 1, 1, 5.0)
        contract.post_offer("bob", Side.BUYING, 1, 1, 5.0)
        agent = SolverAgent("solver-1", grid, SolverConfig(lookahead=3, solve_period=1.0))
        agent.step(contract.events_since(agent.last_seq), time=0.0)
        assert agent.records
        assert agent.records[-1].variables == 2  # alice's and bob's power at interval 1


def test_diagnostics_expose_optimality_certificate(battery_book, grid, pins_through_47):
    instance = build_lp(battery_book, grid, pins_through_47, 47, SolverConfig(lookahead=2))
    solution, diagnostics = solve_with_diagnostics(instance)
    assert diagnostics.free_objective == pytest.approx(objective(solution), abs=1e-9)
    assert len(diagnostics.duals) == instance.n_constraints
