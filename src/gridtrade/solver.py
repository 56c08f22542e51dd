"""Market clearing: LP construction, solving, and the solver agent.

The matching problem is a linear program over per-trade power variables at
open intervals: maximize total traded power subject to per-offer energy
budgets, net of energy already finalized, and per-feeder power limits.
Solutions cover open intervals only; finalized trades stay in the pins.
Prices do not appear in the objective and every matchable pair admits a
valid price, so price variables are dropped from the LP and assigned
afterwards.

Solutions are self-validated against the market rules before they are
returned, so a solver bug can never leak an infeasible submission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from . import ledger as ledger_mod
from .controller import ControllerState, ResourceModel, low_level_update, top_level_update
from .market import (
    GridModel,
    Offer,
    PinnedTrades,
    Side,
    Solution,
    TradeKey,
    UnknownOfferError,
    UnmatchablePairError,
    check_feasibility,
    matchable,
    objective,
)


class NumericFailure(Exception):
    """The LP engine failed or produced an unusable solution."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver tuning: how far ahead to look and how often to run."""

    lookahead: int
    solve_period: float = 5.0
    optimality_tol: float = 1e-6
    price_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.lookahead < 1:
            raise ValueError("lookahead must be at least 1")
        if self.solve_period <= 0:
            raise ValueError("solve_period must be positive")


@dataclass(frozen=True)
class LpInstance:
    """A built LP: free variables and sparse constraint rows.

    Variables are the admitted (sell, buy, interval) triples in sorted
    order. The matrix is stored as triplets; rows are labelled for
    diagnostics. ``pinned`` is the finalized state the budgets were netted
    against; solve the instance before further intervals are pinned.
    """

    variables: tuple[TradeKey, ...]
    row_labels: tuple[str, ...]
    row_index: tuple[int, ...] = field(repr=False)
    col_index: tuple[int, ...] = field(repr=False)
    coefficients: tuple[float, ...] = field(repr=False)
    rhs: tuple[float, ...] = field(repr=False)
    book: tuple[Offer, ...]
    grid: GridModel
    pinned: PinnedTrades = field(repr=False)
    now: int
    config: SolverConfig

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.rhs)

    def book_map(self) -> dict[int, Offer]:
        return {o.id: o for o in self.book}

    def to_arrays(self) -> tuple[np.ndarray, csr_matrix, np.ndarray]:
        """Objective vector, constraint matrix, and right-hand side."""
        n, m = self.n_variables, self.n_constraints
        c = np.ones(n)
        a = csr_matrix(
            (np.asarray(self.coefficients),
             (np.asarray(self.row_index), np.asarray(self.col_index))),
            shape=(m, n))
        b = np.asarray(self.rhs)
        return c, a, b


def build_lp(book: Mapping[int, Offer], grid: GridModel, pinned: PinnedTrades,
             now: int, config: SolverConfig,
             retired: Mapping[int, Offer] | None = None) -> LpInstance:
    """Assemble the clearing LP for the window opened by ``now``.

    Free variables exist exactly for matchable pairs at intervals within
    [now + clearing_lead, now + lookahead] intersected with the pair's
    shared window. Finalized intervals are not re-optimized: their values
    enter the energy budgets as constants. ``retired`` is accepted and
    ignored: withdrawn offers cannot trade at open intervals.
    """
    delta = grid.interval_hours
    lo = now + grid.clearing_lead
    hi = now + max(config.lookahead, grid.clearing_lead)

    # Offers whose window misses [lo, hi] cannot produce variables.
    sells = sorted((o for o in book.values()
                    if o.side is Side.SELLING and o.start <= hi and o.end >= lo),
                   key=lambda o: o.id)
    buys = sorted((o for o in book.values()
                   if o.side is Side.BUYING and o.start <= hi and o.end >= lo),
                  key=lambda o: o.id)
    buy_bands = [(buy, buy.reservation) for buy in buys]

    variables: list[TradeKey] = []
    for sell in sells:
        floor_price = sell.reservation
        for buy, ceiling_price in buy_bands:
            if floor_price > ceiling_price:
                continue
            first = max(sell.start, buy.start, lo)
            last = min(sell.end, buy.end, hi)
            for t in range(first, last + 1):
                if not pinned.is_pinned(t):
                    variables.append((sell.id, buy.id, t))
    variables.sort()
    col_of = {key: j for j, key in enumerate(variables)}

    pinned_energy = pinned.energy_by_offer(delta)

    row_labels: list[str] = []
    row_index: list[int] = []
    col_index: list[int] = []
    coefficients: list[float] = []
    rhs: list[float] = []

    def add_row(label: str, entries: list[tuple[int, float]], bound: float) -> None:
        if not entries:
            return
        row = len(row_labels)
        row_labels.append(label)
        rhs.append(bound)
        for col, coeff in entries:
            row_index.append(row)
            col_index.append(col)
            coefficients.append(coeff)

    by_seller: dict[int, list[int]] = {}
    by_buyer: dict[int, list[int]] = {}
    by_feeder_prod: dict[tuple[str, int], list[int]] = {}
    by_feeder_cons: dict[tuple[str, int], list[int]] = {}
    offers_by_id = dict(book)
    for j, (s_id, b_id, t) in enumerate(variables):
        by_seller.setdefault(s_id, []).append(j)
        by_buyer.setdefault(b_id, []).append(j)
        by_feeder_prod.setdefault((offers_by_id[s_id].feeder, t), []).append(j)
        by_feeder_cons.setdefault((offers_by_id[b_id].feeder, t), []).append(j)

    for offer_id in sorted(by_seller):
        budget = max(offers_by_id[offer_id].energy_kwh - pinned_energy.get(offer_id, 0.0), 0.0)
        add_row(f"energy-sell:{offer_id}",
                [(j, delta) for j in by_seller[offer_id]], budget)
    for offer_id in sorted(by_buyer):
        budget = max(offers_by_id[offer_id].energy_kwh - pinned_energy.get(offer_id, 0.0), 0.0)
        add_row(f"energy-buy:{offer_id}",
                [(j, delta) for j in by_buyer[offer_id]], budget)

    feeders = grid.feeder_limits()
    for feeder_id, t in sorted(set(by_feeder_prod) | set(by_feeder_cons)):
        feeder = feeders[feeder_id]
        prod = by_feeder_prod.get((feeder_id, t), [])
        cons = by_feeder_cons.get((feeder_id, t), [])
        add_row(f"feeder-prod:{feeder_id}@{t}", [(j, 1.0) for j in prod],
                feeder.internal_limit_kw)
        add_row(f"feeder-cons:{feeder_id}@{t}", [(j, 1.0) for j in cons],
                feeder.internal_limit_kw)
        net = [(j, 1.0) for j in prod] + [(j, -1.0) for j in cons]
        add_row(f"feeder-export:{feeder_id}@{t}", net, feeder.net_flow_limit_kw)
        add_row(f"feeder-import:{feeder_id}@{t}", [(j, -c) for j, c in net],
                feeder.net_flow_limit_kw)

    return LpInstance(
        variables=tuple(variables),
        row_labels=tuple(row_labels),
        row_index=tuple(row_index),
        col_index=tuple(col_index),
        coefficients=tuple(coefficients),
        rhs=tuple(rhs),
        book=tuple(sorted(book.values(), key=lambda o: o.id)),
        grid=grid,
        pinned=pinned,
        now=now,
        config=config,
    )


@dataclass(frozen=True)
class SolveDiagnostics:
    status: int
    message: str
    free_objective: float
    primal: tuple[float, ...]
    duals: tuple[float, ...]  # multipliers for the <= rows, sign-adjusted >= 0


def midpoint_price(sell: Offer, buy: Offer, price_cap: float) -> float:
    """Midpoint of the acceptable band, with unbounded buyers capped."""
    price = (sell.reservation + min(buy.reservation, price_cap)) / 2.0
    return min(max(price, sell.reservation), buy.reservation)


def assign_prices(solution: Solution, book: Mapping[int, Offer], *,
                  price_cap: float = 1.0) -> Solution:
    """Set every trade's unit price to the band midpoint."""
    entries: dict[TradeKey, tuple[float, float]] = {}
    for (s_id, b_id, t), (power, _) in solution.items():
        sell = book.get(s_id)
        buy = book.get(b_id)
        if sell is None or buy is None:
            raise UnknownOfferError(f"offer {s_id if sell is None else b_id} not in book")
        if not matchable(sell, buy):
            raise UnmatchablePairError(f"offers {s_id} and {b_id} are not matchable")
        entries[(s_id, b_id, t)] = (power, midpoint_price(sell, buy, price_cap))
    return Solution(entries)


def _repair_overages(x: np.ndarray, a: csr_matrix, b: np.ndarray) -> np.ndarray:
    """Scale the free solution down just enough to clear rounding overages."""
    if not len(x):
        return x
    lhs = a @ x
    scale = 1.0
    for i in range(len(b)):
        if lhs[i] > b[i] and lhs[i] > 0:
            scale = min(scale, b[i] / lhs[i] if b[i] > 0 else 0.0)
    if scale < 1.0:
        x = x * scale
    return x


def solve_with_diagnostics(instance: LpInstance) -> tuple[Solution, SolveDiagnostics]:
    """Solve the LP and return the priced, validated solution plus duals."""
    cfg = instance.config

    if instance.n_variables == 0:
        solution = Solution.empty()
        diagnostics = SolveDiagnostics(0, "empty instance", 0.0, (), ())
        return solution, diagnostics

    c, a, b = instance.to_arrays()
    result = linprog(
        -c, A_ub=a, b_ub=b, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-9})
    if result.status != 0:
        raise NumericFailure(f"LP solve failed (status {result.status}): {result.message}")

    x = _repair_overages(np.maximum(result.x, 0.0), a, b)
    entries: dict[TradeKey, tuple[float, float]] = {
        key: (float(x[j]), 0.0)
        for j, key in enumerate(instance.variables)
        if x[j] > 1e-9
    }
    book = instance.book_map()
    solution = assign_prices(Solution(entries), book, price_cap=cfg.price_cap)

    report = check_feasibility(solution, book, instance.grid, instance.pinned)
    if not report.ok:
        detail = "; ".join(f"{v.kind} {v.subject}" for v in report.violations[:5])
        raise NumericFailure(f"solution failed self-validation: {detail}")

    duals = tuple(float(v) for v in -np.asarray(result.ineqlin.marginals))
    diagnostics = SolveDiagnostics(
        status=int(result.status),
        message=str(result.message),
        free_objective=float(c @ x),
        primal=tuple(float(v) for v in x),
        duals=duals,
    )
    return solution, diagnostics


def solve(instance: LpInstance) -> Solution:
    """Best feasible solution for the instance (see solve_with_diagnostics)."""
    solution, _ = solve_with_diagnostics(instance)
    return solution


@dataclass
class SolveRecord:
    """One solver run, for the solver activity export."""

    time: float
    solver: str
    variables: int
    constraints: int
    solve_time: float
    objective: float
    submitted: bool
    error: str = ""


class SolverAgent:
    """A solver participant: mirrors the ledger and submits improvements.

    The agent reconstructs the book, pins, and best-known candidate
    objective purely from ledger events, rebuilds the LP when the book or
    the open window changes, and submits only strictly better solutions.
    """

    def __init__(self, agent_id: str, grid: GridModel, config: SolverConfig,
                 controller: ControllerState | None = None,
                 resource_model: ResourceModel | None = None):
        self.id = agent_id
        self.config = config
        self.active = True
        self.mirror = ledger_mod.ContractState(grid)
        self.last_seq = 0
        self.controller = controller
        self.resource_model = resource_model
        self.records: list[SolveRecord] = []
        self.controller_trace: list[dict] = []
        self._needs_solve = True
        self._last_solved_interval: int | None = None
        self._last_solution: Solution | None = None
        self._last_objective = 0.0

    def observe(self, events: list[ledger_mod.LedgerEvent]) -> None:
        for event in events:
            if event.seq <= self.last_seq:
                continue
            self.mirror.apply(event)
            self.last_seq = event.seq
            if event.kind in (ledger_mod.EventKind.OFFER_POSTED,
                              ledger_mod.EventKind.PARTICIPANT_REMOVED):
                self._needs_solve = True

    def _lookahead(self) -> int:
        if self.controller is not None:
            return self.controller.lookahead
        return self.config.lookahead

    def step(self, events: list[ledger_mod.LedgerEvent], *, time: float = 0.0) -> Solution | None:
        """One solver tick: ingest events, maybe re-solve, maybe submit."""
        self.observe(events)
        now = self.mirror.current_interval
        if not self._needs_solve and self._last_solved_interval == now:
            return self._maybe_submission()

        config = self.config
        if self.controller is not None:
            config = SolverConfig(
                lookahead=self._lookahead(), solve_period=config.solve_period,
                optimality_tol=config.optimality_tol, price_cap=config.price_cap)
        instance = build_lp(self.mirror.book, self.mirror.grid, self.mirror.pinned,
                            now, config)
        modeled_time = (self.resource_model.solve_time(instance.n_variables)
                        if self.resource_model is not None else 0.0)
        try:
            solution = solve(instance)
        except NumericFailure as exc:
            self.records.append(SolveRecord(
                time, self.id, instance.n_variables, instance.n_constraints,
                modeled_time, 0.0, False, error=str(exc)))
            self._needs_solve = False
            self._last_solved_interval = now
            return None

        self._needs_solve = False
        self._last_solved_interval = now
        self._last_solution = solution
        self._last_objective = objective(solution)
        self.records.append(SolveRecord(
            time, self.id, instance.n_variables, instance.n_constraints,
            modeled_time, self._last_objective, False))
        self._update_controller(time, instance.n_variables, modeled_time)
        return self._maybe_submission()

    def _maybe_submission(self) -> Solution | None:
        if self._last_solution is None:
            return None
        if self._last_objective > (self.mirror.candidate_objective
                                   + ledger_mod.IMPROVEMENT_MARGIN):
            if self.records:
                self.records[-1].submitted = True
            return self._last_solution
        return None

    def _update_controller(self, time: float, n_variables: int, modeled_time: float) -> None:
        if self.controller is None or self.resource_model is None:
            return
        signal = self.resource_model.signal(n_variables, self.config.solve_period)
        self.controller = top_level_update(self.controller, signal)
        self.controller = low_level_update(self.controller, modeled_time)
        self.controller_trace.append({
            "time": time,
            "solver": self.id,
            "solve_time": modeled_time,
            "lookahead": self.controller.lookahead,
            "max_lookahead": self.controller.max_lookahead,
            "cpu_fraction": signal.cpu_fraction,
        })
