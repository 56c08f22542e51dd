import numpy as np
import pytest

from gridtrade.market import PinnedTrades
from gridtrade.oracle import (
    SimplexError,
    build_reference_problem,
    random_market,
    reference_optimum,
    run_comparison_suite,
    simplex_maximize,
    verify_certificate,
    vertex_enumeration_optimum,
)
from gridtrade.solver import SolverConfig, build_lp, solve_with_diagnostics


class TestSimplex:
    def test_box(self):
        value, x = simplex_maximize(
            np.array([1.0, 1.0]), np.eye(2), np.array([1.0, 2.0]))
        assert value == pytest.approx(3.0)
        assert x == pytest.approx([1.0, 2.0])

    def test_tilted_constraints(self):
        value, _ = simplex_maximize(
            np.array([1.0, 0.0]),
            np.array([[1.0, 1.0], [1.0, -1.0]]),
            np.array([1.0, 0.0]))
        assert value == pytest.approx(0.5)

    def test_degenerate_duplicate_rows(self):
        value, _ = simplex_maximize(
            np.array([1.0, 1.0]),
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([1.0, 1.0, 1.0]))
        assert value == pytest.approx(2.0)

    def test_zero_rhs_start_is_handled(self):
        value, _ = simplex_maximize(
            np.array([1.0]), np.array([[1.0], [2.0]]), np.array([0.0, 4.0]))
        assert value == pytest.approx(0.0)

    def test_unbounded_detected(self):
        with pytest.raises(SimplexError):
            simplex_maximize(np.array([1.0, 1.0]),
                             np.array([[1.0, -1.0]]), np.array([1.0]))

    def test_negative_rhs_rejected(self):
        with pytest.raises(SimplexError):
            simplex_maximize(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))


class TestReferenceAgreement:
    def test_battery_scenario(self, battery_book, grid, pins_through_47):
        assert reference_optimum(battery_book, grid, pins_through_47, 47, 2) == \
            pytest.approx(40.0)
        assert vertex_enumeration_optimum(battery_book, grid, pins_through_47, 47, 2) == \
            pytest.approx(40.0)

    def test_vertex_enumeration_skips_large_instances(self, grid):
        book, grid_r, pinned, now, lookahead = random_market(
            np.random.default_rng(5), max_offers=6)
        problem = build_reference_problem(book, grid_r, pinned, now, lookahead)
        result = vertex_enumeration_optimum(book, grid_r, pinned, now, lookahead,
                                            max_variables=0)
        if problem.variables:
            assert result is None

    def test_optimum_covers_open_intervals_only(self, battery_book, grid):
        pinned = PinnedTrades(48, {48: {(1, 3): (10.0, 0.5), (2, 3): (20.0, 0.5)}})
        # 10 deliverable at 49; the 30 pinned at 48 are not counted.
        assert reference_optimum(battery_book, grid, pinned, 48, 1) == pytest.approx(10.0)
        assert vertex_enumeration_optimum(battery_book, grid, pinned, 48, 1) == \
            pytest.approx(10.0)

    def test_comparison_suite_all_green(self):
        results = run_comparison_suite(40, seed=3)
        assert all(r.ok for r in results)
        # the generator must exercise non-trivial instances
        assert any(r.n_variables > 3 for r in results)
        assert any(r.solver_objective > 0 for r in results)


class TestCertificate:
    def test_valid_certificate_accepted(self, battery_book, grid, pins_through_47):
        instance = build_lp(battery_book, grid, pins_through_47, 47,
                            SolverConfig(lookahead=2))
        _, diagnostics = solve_with_diagnostics(instance)
        assert verify_certificate(instance, diagnostics) == []

    def test_tampered_duals_detected(self, battery_book, grid, pins_through_47):
        instance = build_lp(battery_book, grid, pins_through_47, 47,
                            SolverConfig(lookahead=2))
        _, diagnostics = solve_with_diagnostics(instance)
        bad = diagnostics._replace(duals=np.zeros_like(diagnostics.duals))
        assert verify_certificate(instance, bad) != []

    def test_tampered_primal_detected(self, battery_book, grid, pins_through_47):
        instance = build_lp(battery_book, grid, pins_through_47, 47,
                            SolverConfig(lookahead=2))
        _, diagnostics = solve_with_diagnostics(instance)
        bad = diagnostics._replace(primal=diagnostics.primal + 1.0)
        assert verify_certificate(instance, bad) != []


def test_random_market_is_deterministic():
    a = random_market(np.random.default_rng(9))
    b = random_market(np.random.default_rng(9))
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] == b[2]
