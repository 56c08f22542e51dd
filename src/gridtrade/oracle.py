"""Independent reference optimizer used to cross-check market clearing.

This module deliberately re-derives everything from first principles: it
enumerates tradeable (sell, buy, interval) triples with its own predicate,
assembles dense constraint rows with plain loops, and maximizes with a
from-scratch tableau simplex (Bland's rule, so it always terminates). It
shares no construction code with the production solver, which is the point:
agreement between the two paths is evidence, not tautology.

Three checks are offered, strongest first:

* :func:`reference_optimum` - the independent simplex optimum.
* :func:`vertex_enumeration_optimum` - exhaustive vertex search, viable for
  instances with at most a handful of variables.
* :func:`verify_certificate` - weak-duality proof that a reported solution
  is optimal for its own LP instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .market import GridModel, Feeder, Offer, PinnedTrades, Side, Solution
from .solver import LpInstance, SolveDiagnostics

_EPS = 1e-9


class SimplexError(Exception):
    pass


def simplex_maximize(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize ``c @ x`` subject to ``a @ x <= b`` and ``x >= 0``.

    Requires ``b >= 0`` so the slack basis is immediately feasible. Uses
    Bland's entering/leaving rule throughout; slow but cycle-proof, which
    is what a reference implementation should be.
    """
    m, n = a.shape
    if np.any(b < -_EPS):
        raise SimplexError("negative right-hand side; origin is not feasible")
    b = np.maximum(b, 0.0)

    # Tableau layout: columns [x | slack | rhs]; last row is the objective.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -c
    basis = list(range(n, n + m))

    for _ in range(200000):
        reduced = tableau[m, :-1]
        entering = -1
        for j in range(n + m):
            if reduced[j] < -_EPS:
                entering = j
                break
        if entering < 0:
            break
        ratios = []
        for i in range(m):
            coeff = tableau[i, entering]
            if coeff > _EPS:
                ratios.append((tableau[i, -1] / coeff, basis[i], i))
        if not ratios:
            raise SimplexError("unbounded objective")
        _, _, leaving = min(ratios, key=lambda r: (r[0], r[1]))

        pivot = tableau[leaving, entering]
        tableau[leaving] /= pivot
        for i in range(m + 1):
            if i != leaving and abs(tableau[i, entering]) > 0:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        basis[leaving] = entering
    else:  # pragma: no cover - loop bound is defensive
        raise SimplexError("iteration limit exceeded")

    x = np.zeros(n + m)
    for i, var in enumerate(basis):
        x[var] = tableau[i, -1]
    return float(tableau[m, -1]), x[:n]


@dataclass(frozen=True)
class ReferenceProblem:
    """Dense constraint system built independently from an offer book."""

    variables: tuple[tuple[int, int, int], ...]
    a: np.ndarray
    b: np.ndarray


def build_reference_problem(book: Mapping[int, Offer], grid: GridModel,
                            pinned: PinnedTrades, now: int,
                            lookahead: int) -> ReferenceProblem:
    """Re-derive the clearing constraints with plain nested loops."""
    delta = grid.interval_hours
    lo, hi = now + grid.clearing_lead, now + lookahead
    sells = sorted(o for o in book if book[o].side is Side.SELLING)
    buys = sorted(o for o in book if book[o].side is Side.BUYING)

    variables: list[tuple[int, int, int]] = []
    for s_id in sells:
        for b_id in buys:
            sell, buy = book[s_id], book[b_id]
            if sell.reservation > buy.reservation:
                continue
            for t in range(lo, hi + 1):
                if sell.start <= t <= sell.end and buy.start <= t <= buy.end:
                    if t > pinned.finalized_through:
                        variables.append((s_id, b_id, t))
    variables.sort()
    n = len(variables)

    pinned_energy: dict[int, float] = {}
    for interval in range(pinned.finalized_through + 1):
        for (s, b), (power, _) in pinned.entries(interval).items():
            pinned_energy[s] = pinned_energy.get(s, 0.0) + power * delta
            pinned_energy[b] = pinned_energy.get(b, 0.0) + power * delta

    rows: list[np.ndarray] = []
    bounds: list[float] = []

    for offer_id in sells + buys:
        row = np.zeros(n)
        for j, (s, b, _) in enumerate(variables):
            if offer_id in (s, b):
                row[j] = delta
        if row.any():
            rows.append(row)
            bounds.append(max(book[offer_id].energy_kwh - pinned_energy.get(offer_id, 0.0), 0.0))

    feeder_ids = sorted(grid.feeder_limits())
    intervals = sorted({t for (_, _, t) in variables})
    limits = grid.feeder_limits()
    for feeder_id in feeder_ids:
        for t in intervals:
            prod = np.zeros(n)
            cons = np.zeros(n)
            for j, (s, b, tt) in enumerate(variables):
                if tt != t:
                    continue
                if book[s].feeder == feeder_id:
                    prod[j] = 1.0
                if book[b].feeder == feeder_id:
                    cons[j] = 1.0
            if not prod.any() and not cons.any():
                continue
            feeder = limits[feeder_id]
            rows.append(prod.copy())
            bounds.append(feeder.internal_limit_kw)
            rows.append(cons.copy())
            bounds.append(feeder.internal_limit_kw)
            rows.append(prod - cons)
            bounds.append(feeder.net_flow_limit_kw)
            rows.append(cons - prod)
            bounds.append(feeder.net_flow_limit_kw)

    a = np.vstack(rows) if rows else np.zeros((0, n))
    return ReferenceProblem(tuple(variables), a, np.asarray(bounds))


def reference_optimum(book: Mapping[int, Offer], grid: GridModel,
                      pinned: PinnedTrades, now: int, lookahead: int) -> float:
    """Optimal total traded power over the open intervals."""
    problem = build_reference_problem(book, grid, pinned, now, lookahead)
    if not problem.variables:
        return 0.0
    value, _ = simplex_maximize(np.ones(len(problem.variables)), problem.a, problem.b)
    return value


def vertex_enumeration_optimum(book: Mapping[int, Offer], grid: GridModel,
                               pinned: PinnedTrades, now: int, lookahead: int,
                               max_variables: int = 4) -> float | None:
    """Exhaustive search over basic feasible points; None if too large."""
    problem = build_reference_problem(book, grid, pinned, now, lookahead)
    n = len(problem.variables)
    if n == 0:
        return 0.0
    if n > max_variables:
        return None
    g = np.vstack([problem.a, -np.eye(n)])
    h = np.concatenate([problem.b, np.zeros(n)])
    best = 0.0  # the origin is always feasible
    for rows in combinations(range(len(h)), n):
        sub = g[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, h[list(rows)])
        if np.all(g @ x <= h + 1e-7):
            best = max(best, float(np.sum(x)))
    return best


def verify_certificate(instance: LpInstance, diagnostics: SolveDiagnostics,
                       tol: float = 1e-6) -> list[str]:
    """Weak-duality optimality proof for a solved instance.

    With primal x feasible, dual y >= 0, A^T y >= c, and b.y == c.x, any
    feasible x' satisfies c.x' <= y.A x' <= y.b = c.x, so x is optimal.
    Only arithmetic below; no solver internals are trusted.
    """
    problems: list[str] = []
    if instance.n_variables == 0:
        return problems
    c, matrix, b = instance.to_arrays()
    a = matrix.toarray()  # dense NumPy products, independent of the solver's matvec
    x = np.asarray(diagnostics.primal)
    y = np.asarray(diagnostics.duals)
    if np.any(x < -tol):
        problems.append("primal has negative components")
    if np.any(a @ x > b + tol):
        problems.append("primal violates constraints")
    if np.any(y < -tol):
        problems.append("dual has negative components")
    if np.any(a.T @ y < c - tol):
        problems.append("dual is infeasible")
    gap = abs(float(b @ y) - float(c @ x))
    if gap > tol * (1.0 + abs(float(c @ x))):
        problems.append(f"duality gap {gap} exceeds tolerance")
    return problems


def random_market(rng: np.random.Generator, *, max_offers: int = 6,
                  max_intervals: int = 4, max_feeders: int = 3,
                  allow_pins: bool = True):
    """A small random clearing problem with quarter-unit data.

    All quantities are multiples of 0.25 so both float paths see exactly
    representable inputs. Returns (book, grid, pinned, now, lookahead).
    """
    n_feeders = int(rng.integers(1, max_feeders + 1))
    feeders = []
    for i in range(n_feeders):
        if rng.random() < 0.5:
            net = 0.25 * float(rng.integers(1, 13))
            internal = 0.25 * float(rng.integers(1, 13))
        else:
            net, internal = 1000.0, 1000.0
        feeders.append(Feeder(f"f{i}", net, internal))
    delta = float(rng.choice([0.25, 0.5, 1.0]))
    grid = GridModel(tuple(feeders), delta, clearing_lead=1)

    first = 1
    last = first + max_intervals - 1
    n_offers = int(rng.integers(2, max_offers + 1))
    n_sell = int(rng.integers(1, n_offers))
    book: dict[int, Offer] = {}
    for i in range(n_offers):
        side = Side.SELLING if i < n_sell else Side.BUYING
        start = int(rng.integers(first, last + 1))
        end = int(rng.integers(start, last + 1))
        reservation = None
        if rng.random() < 0.6:
            reservation = 0.05 * float(rng.integers(0, 13))
        book[i + 1] = Offer(
            id=i + 1,
            side=side,
            prosumer=f"p{i + 1}",
            feeder=f"f{int(rng.integers(0, n_feeders))}",
            energy_kwh=0.25 * float(rng.integers(1, 17)),
            start=start,
            end=end,
            reservation_price=reservation,
        )

    now = 0
    pinned = PinnedTrades(grid.clearing_lead - 1)
    if allow_pins and rng.random() < 0.3:
        entries = _random_pin_entries(rng, book, grid, interval=first)
        if entries:
            pinned = PinnedTrades(first, {first: entries})
            now = first
    lookahead = last - now
    return book, grid, pinned, now, lookahead


def _random_pin_entries(rng: np.random.Generator, book: Mapping[int, Offer],
                        grid: GridModel, interval: int) -> dict:
    """Small feasible trade values to pre-pin one interval."""
    from .market import check_feasibility, matchable

    candidates = [
        (s.id, b.id) for s in book.values() if s.side is Side.SELLING
        for b in book.values() if b.side is Side.BUYING
        if matchable(s, b) and s.covers(interval) and b.covers(interval)
    ]
    if not candidates:
        return {}
    picks = [pair for pair in candidates if rng.random() < 0.5][:2]
    entries = {pair: (0.25 * float(rng.integers(1, 4)), 0.25) for pair in picks}
    for _ in range(12):
        if not entries:
            return {}
        solution = Solution({(s, b, interval): v for (s, b), v in entries.items()})
        if check_feasibility(solution, book, grid, PinnedTrades.empty()).ok:
            return entries
        entries = {pair: (p / 2.0, pi) for pair, (p, pi) in entries.items()}
        entries = {pair: v for pair, v in entries.items() if v[0] >= 0.01}
    return {}


@dataclass(frozen=True)
class ComparisonResult:
    index: int
    n_variables: int
    solver_objective: float
    reference_objective: float
    vertex_objective: float | None
    difference: float
    certificate_problems: tuple[str, ...]
    feasible: bool

    @property
    def ok(self) -> bool:
        vertex_ok = (self.vertex_objective is None
                     or abs(self.vertex_objective - self.reference_objective) <= 1e-6)
        return (self.difference <= 1e-6 and self.feasible
                and not self.certificate_problems and vertex_ok)


def run_comparison_suite(n_instances: int, seed: int = 0) -> list[ComparisonResult]:
    """Solve random instances with the production path and the reference."""
    from .market import check_feasibility
    from .solver import SolverConfig, build_lp, solve_with_diagnostics

    rng = np.random.default_rng(seed)
    results: list[ComparisonResult] = []
    for index in range(n_instances):
        book, grid, pinned, now, lookahead = random_market(rng)
        config = SolverConfig(lookahead=lookahead or 1, solve_period=1.0)
        instance = build_lp(book, grid, pinned, now, config)
        solution, diagnostics = solve_with_diagnostics(instance)
        from .market import objective as total_power
        solver_value = total_power(solution)
        reference_value = reference_optimum(book, grid, pinned, now, lookahead)
        vertex_value = vertex_enumeration_optimum(book, grid, pinned, now, lookahead)
        report = check_feasibility(solution, book, grid, pinned)
        results.append(ComparisonResult(
            index=index,
            n_variables=instance.n_variables,
            solver_objective=solver_value,
            reference_objective=reference_value,
            vertex_objective=vertex_value,
            difference=abs(solver_value - reference_value),
            certificate_problems=tuple(verify_certificate(instance, diagnostics)),
            feasible=report.ok,
        ))
    return results
