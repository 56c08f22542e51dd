import importlib.machinery
import importlib.util
import re
import sys

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
from gridtrade import solver as solver_mod
from gridtrade.solver import (
    CsrMatrix,
    NumericFailure,
    SolverAgent,
    SolverConfig,
    _repair_overages,
    build_lp,
    linprog,
    midpoint_price,
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
        assert solution.power((2, 4, 49)) == pytest.approx(5.0, abs=1e-9)


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
    c, a, b = instance.to_arrays()
    return -(c + 1e-9 * instance.tie_break), a, b


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
    """The fill prices each trade at the band midpoint as it splits the flows."""

    def priced(self, grid, sell_res, buy_res, price_cap):
        book = {
            1: Offer(1, Side.SELLING, "s", "main", 5.0, 1, 1, reservation_price=sell_res),
            2: Offer(2, Side.BUYING, "b", "main", 5.0, 1, 1, reservation_price=buy_res),
        }
        instance = build_lp(book, grid, PinnedTrades.empty(), 0,
                            SolverConfig(lookahead=1, price_cap=price_cap))
        solution = solve(instance)
        assert list(solution.keys()) == [(1, 2, 1)]
        price = solution.price((1, 2, 1))
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

    def test_contract_and_mirrors_share_the_submitted_solution(self, grid):
        contract = self.make_contract(grid)
        contract.post_offer("alice", Side.SELLING, 1, 2, 10.0)
        contract.post_offer("bob", Side.BUYING, 1, 2, 5.0)
        agents = [SolverAgent(f"solver-{i}", grid, SolverConfig(lookahead=3)) for i in (1, 2)]
        submission = agents[0].step(contract.events_since(0))
        event = contract.submit_solution("solver-1", submission)
        for agent in agents:
            agent.observe(contract.events_since(agent.last_seq))
        assert event.kind == "SolutionAccepted" and event.solution is submission
        assert contract.state.candidate is submission
        assert all(agent.mirror.candidate is submission for agent in agents)

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
