import pytest

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
from gridtrade.oracle import run_comparison_suite
from gridtrade.solver import (
    SolverAgent,
    SolverConfig,
    assign_prices,
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
        assert instance.variables == tuple((1, 2, t) for t in range(1, 6))

    def test_empty_book_yields_empty_instance(self, grid):
        instance = build_lp({}, grid, PinnedTrades.empty(), 0, SolverConfig(lookahead=5))
        assert instance.n_variables == 0
        assert instance.n_constraints == 0

    def test_battery_book_has_three_variables(self, battery_book, grid, pins_through_47):
        instance = build_lp(battery_book, grid, pins_through_47, 47,
                            SolverConfig(lookahead=2))
        assert instance.variables == ((1, 3, 48), (2, 3, 48), (2, 4, 49))

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
        assert all(t > 48 for (_, _, t) in instance.variables)

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
        assert agent.records[-1].variables == 1


def test_diagnostics_expose_optimality_certificate(battery_book, grid, pins_through_47):
    instance = build_lp(battery_book, grid, pins_through_47, 47, SolverConfig(lookahead=2))
    solution, diagnostics = solve_with_diagnostics(instance)
    assert diagnostics.free_objective == pytest.approx(objective(solution), abs=1e-9)
    assert len(diagnostics.duals) == instance.n_constraints
