"""Market clearing: LP construction, solving, and the solver agent.

The matching problem is a linear program over open intervals: maximize
total traded power subject to per-offer energy budgets, net of energy
already finalized, and per-feeder power limits. Feeder limits see only
per-offer sums, and price compatibility is a chain over the sellers'
reservation levels, so each interval is a transportation problem on a
chain. The LP therefore has one power variable per open (offer, interval)
plus one carry per price-tier boundary, instead of one per matchable
(sell, buy, interval) triple; flow decomposition (Ahuja, Magnanti & Orlin,
*Network Flows*, 1993, ch. 3) makes the two optima equal, and a
deterministic fill splits each interval's flows back into trades.
Solutions cover open intervals only; finalized trades stay in the pins.
Prices do not appear in the objective and every matchable pair admits a
valid price, so prices are assigned after the fill.

HiGHS (Huangfu & Hall, *Math. Prog. Comp.*, 2018) solves each LP by dual
simplex through the bindings bundled with SciPy: one HiGHS object per
process, created on the first solve, takes the row-wise arrays
:func:`build_lp` builds, with no ``scipy.optimize.linprog`` wrapper around
it. :func:`linprog` is the one entry point into HiGHS.

Solutions are self-validated against the market rules before they are
returned, so a solver bug can never leak an infeasible submission.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np
from scipy.optimize._highspy import _core as highs
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
    price_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.lookahead < 1:
            raise ValueError("lookahead must be at least 1")
        if self.solve_period <= 0:
            raise ValueError("solve_period must be positive")


Column = tuple[str, int, int]  # (kind, key, interval); see LpInstance

# The tie-break adds TIE_BREAK per interval of urgency to a seller column's
# gain, and at most TIE_BREAK_MAX in all, so the optimum of the traded power
# itself is kept within the optimality certificate's relative tolerance.
TIE_BREAK = 1e-8
TIE_BREAK_MAX = 5e-7


@dataclass(frozen=True, eq=False)
class LpInstance:
    """A built LP: maximize ``c @ x`` subject to ``matrix @ x <= rhs``, ``x >= 0``.

    Each open interval of the window contributes, in this order, a column
    ``("sell", offer id, t)`` per seller, a column ``("buy", offer id, t)``
    per buyer (both in id order) and a column ``("carry", k, t)`` per price
    tier boundary, moving supply from tier ``k`` up to tier ``k + 1``.
    ``c`` is 1 on seller columns, so ``c @ x`` is the traded power. The
    rows are, in order: one energy budget per offer with a column (sellers,
    then buyers, in id order); production, consumption, export and import
    limits per feeder and interval; and each tier's balance equality, stored
    as two opposite ``<=`` rows, so every dual is non-negative; a row with
    no column is left out. ``tie_break`` holds the weights that choose among
    equally optimal allocations (see :func:`build_lp`). ``book`` holds the
    offers whose window meets the LP's, in id order. ``pinned`` is the
    finalized state the budgets were netted against; solve the instance
    before further intervals are pinned.
    """

    variables: tuple[Column, ...]
    c: np.ndarray = field(repr=False)
    matrix: csr_matrix = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    tie_break: np.ndarray = field(repr=False)
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
        return self.c, self.matrix, self.rhs


def build_lp(book: Mapping[int, Offer], grid: GridModel, pinned: PinnedTrades,
             now: int, config: SolverConfig,
             retired: Mapping[int, Offer] | None = None) -> LpInstance:
    """Assemble the clearing LP for the window opened by ``now``.

    The window is [now + clearing_lead, now + lookahead] without its
    finalized intervals, whose energy enters the budgets as constants. At
    each interval the price tiers are the distinct floors of the open
    sellers that some open buyer can pay. A buyer joins the highest floor
    at or below its ceiling and gets no column below every floor. A seller
    in tier k can serve any buyer in tier k or above, so the tier balances,
    with carries moving supply upward only, admit exactly the per-offer
    flows that price-compatible trades can realize.

    The tie-break weight of a seller column is ``(hi - lo) - (min(end, hi)
    - t)`` for the window [lo, hi]: the less of a seller's window is left
    after t, the sooner its energy is used (earliest deadline first).
    Buyer and carry columns weigh 0.
    ``book`` may be any part of the book that holds every offer open in the
    window, such as ``ContractState.open_offers``: other offers are ignored.
    ``retired`` is accepted and ignored: withdrawn offers cannot trade at
    open intervals.
    """
    delta = grid.interval_hours
    lo = max(now + grid.clearing_lead, pinned.finalized_through + 1)
    hi = now + max(config.lookahead, grid.clearing_lead)

    # Offers whose window misses [lo, hi] cannot produce variables.
    offers = sorted((o for o in book.values() if o.start <= hi and o.end >= lo),
                    key=lambda o: o.id)
    sells = [o for o in offers if o.side is Side.SELLING]
    buys = [o for o in offers if o.side is Side.BUYING]
    # The open sellers and buyers of each interval, in id order.
    open_at: dict[int, tuple[list[Offer], list[Offer]]] = {
        t: ([], []) for t in range(lo, hi + 1)}
    for offer in offers:
        side = 0 if offer.side is Side.SELLING else 1
        for t in range(max(offer.start, lo), min(offer.end, hi) + 1):
            open_at[t][side].append(offer)

    variables: list[Column] = []
    weights: list[float] = []
    columns_of: dict[int, list[int]] = {}
    # Columns and their signs (+1 for supply, -1 for demand) per feeder and
    # interval, and per tier balance.
    feeder_flows: dict[tuple[str, int], tuple[list[int], list[float]]] = {}
    balances: list[tuple[list[int], list[float]]] = []

    for t, (open_sells, open_buys) in open_at.items():
        if not open_sells or not open_buys:
            continue
        top = max(o.reservation for o in open_buys)
        floors = sorted({o.reservation for o in open_sells if o.reservation <= top})
        if not floors:
            continue
        tiers: list[tuple[list[int], list[float]]] = [([], []) for _ in floors]
        for offer in open_sells + open_buys:
            if offer.side is Side.SELLING:
                if offer.reservation > top:
                    continue
                kind, tier, sign = "sell", bisect_left(floors, offer.reservation), 1.0
            else:
                kind, tier, sign = "buy", bisect_right(floors, offer.reservation) - 1, -1.0
                if tier < 0:
                    continue
            j = len(variables)
            variables.append((kind, offer.id, t))
            weights.append(float(hi - lo - (min(offer.end, hi) - t)) if kind == "sell" else 0.0)
            columns_of.setdefault(offer.id, []).append(j)
            flow = feeder_flows.setdefault((offer.feeder, t), ([], []))
            for cols, signs in (tiers[tier], flow):
                cols.append(j)
                signs.append(sign)
        for k in range(len(floors) - 1):
            j = len(variables)
            variables.append(("carry", k, t))
            weights.append(0.0)
            tiers[k][0].append(j)
            tiers[k][1].append(-1.0)
            tiers[k + 1][0].append(j)
            tiers[k + 1][1].append(1.0)
        balances.extend(tiers)

    rhs: list[float] = []
    indices: list[int] = []
    data: list[float] = []
    indptr = [0]

    def add_row(columns: list[int], coeffs: list[float], bound: float) -> None:
        if not columns:
            return
        rhs.append(bound)
        indices.extend(columns)
        data.extend(coeffs)
        indptr.append(len(indices))

    for offer in sells + buys:
        columns = columns_of.get(offer.id)
        if columns:
            add_row(columns, [delta] * len(columns),
                    max(offer.energy_kwh - pinned.energy(offer.id, delta), 0.0))

    feeders = grid.feeder_limits()
    for feeder_id, t in sorted(feeder_flows):
        limits = feeders[feeder_id]
        cols, signs = feeder_flows[(feeder_id, t)]
        supply = [j for j, s in zip(cols, signs) if s > 0]
        demand = [j for j, s in zip(cols, signs) if s < 0]
        add_row(supply, [1.0] * len(supply), limits.internal_limit_kw)
        add_row(demand, [1.0] * len(demand), limits.internal_limit_kw)
        add_row(cols, signs, limits.net_flow_limit_kw)
        add_row(cols, [-s for s in signs], limits.net_flow_limit_kw)

    for cols, signs in balances:
        add_row(cols, signs, 0.0)
        add_row(cols, [-s for s in signs], 0.0)

    n = len(variables)
    return LpInstance(
        variables=tuple(variables),
        c=np.array([1.0 if kind == "sell" else 0.0 for kind, _, _ in variables]),
        matrix=csr_matrix((data, indices, indptr), shape=(len(rhs), n)),
        rhs=np.asarray(rhs, dtype=float),
        tie_break=np.asarray(weights, dtype=float),
        book=tuple(offers),
        grid=grid,
        pinned=pinned,
        now=now,
        config=config,
    )


@dataclass(frozen=True)
class SolveDiagnostics:
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
    """Scale the free solution down just enough to clear rounding overages.

    Only rows with a positive bound can be cleared by scaling. A row bounded
    by zero (a tier balance) keeps its rounding residue: scaling would have
    to zero the whole solution to clear it.
    """
    if not len(x):
        return x
    lhs = a @ x
    over = (lhs > b) & (b > 0)
    if over.any():
        x = x * float(np.min(b[over] / lhs[over]))
    return x


def _fill(variables: tuple[Column, ...], x: np.ndarray,
          book: Mapping[int, Offer]) -> dict[TradeKey, tuple[float, float]]:
    """Split each interval's offer flows into (sell, buy) trades.

    Sellers go by descending floor, then id; each fills the buyers it can
    trade with (ceiling at or above its floor) in id order. Eligibility is
    nested along the floors and the tier balances hold, so every seller's
    flow finds room among the buyers left to it.
    """
    flows: dict[int, tuple[list, list]] = {}
    for j, (kind, offer_id, t) in enumerate(variables):
        if kind != "carry" and x[j] > 0.0:
            sells, buys = flows.setdefault(t, ([], []))
            (sells if kind == "sell" else buys).append([book[offer_id], float(x[j])])

    entries: dict[TradeKey, tuple[float, float]] = {}
    for t, (sells, buys) in flows.items():
        sells.sort(key=lambda flow: (-flow[0].reservation, flow[0].id))
        for sell, supply in sells:
            for flow in buys:
                buy, demand = flow
                if demand <= 0.0 or buy.reservation < sell.reservation:
                    continue
                amount = min(supply, demand)
                flow[1] = demand - amount
                supply -= amount
                if amount > 1e-9:
                    entries[(sell.id, buy.id, t)] = (amount, 0.0)
                if supply <= 0.0:
                    break
    return entries


# HiGHS settings: presolve, dual simplex, tight feasibility tolerances and no
# output. Presolve stays on: without it HiGHS is slower and reaches another
# optimal vertex, which would change the traded allocations.
_HIGHS_OPTIONS = {
    "presolve": "on",
    "simplex_strategy": 1,  # dual simplex
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-9,
    "output_flag": False,
    "log_to_console": False,
}
_highs: highs._Highs | None = None  # one per process, created on the first solve


def linprog(c: np.ndarray, a: csr_matrix, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``c @ x`` subject to ``a @ x <= rhs`` and ``x >= 0`` with HiGHS.

    Returns the primal and the rows' multipliers, sign-adjusted to be
    non-negative. This is the only call into HiGHS. It keeps the name of
    ``scipy.optimize.linprog``, which it replaces, because the benchmark
    times HiGHS by wrapping ``solver.linprog``; callers must look it up by
    that global name. Every call reuses the process's one HiGHS object:
    ``passModel`` replaces the whole model and clears the previous solve.
    """
    global _highs
    if not all(np.isfinite(v).all() for v in (c, a.data, rhs)):
        raise NumericFailure("LP has a non-finite cost, coefficient or right-hand side")
    if _highs is None:
        engine = highs._Highs()
        for name, value in _HIGHS_OPTIONS.items():
            if engine.setOptionValue(name, value) != highs.HighsStatus.kOk:
                raise NumericFailure(f"HiGHS refused option {name}={value!r}")
        _highs = engine
    n, m = len(c), len(rhs)
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, np.inf)
    lp.row_lower_ = np.full(m, -np.inf)
    lp.row_upper_ = rhs
    lp.a_matrix_.format_ = highs.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    status = _highs.passModel(lp)
    if status == highs.HighsStatus.kError or _highs.run() == highs.HighsStatus.kError:
        raise NumericFailure("HiGHS could not load or solve the LP")
    model_status = _highs.getModelStatus()
    if model_status != highs.HighsModelStatus.kOptimal:
        raise NumericFailure(f"LP solve failed: {_highs.modelStatusToString(model_status)}")
    solution = _highs.getSolution()
    return np.asarray(solution.col_value), -np.asarray(solution.row_dual)


def solve_with_diagnostics(instance: LpInstance) -> tuple[Solution, SolveDiagnostics]:
    """Solve the LP and return the priced, validated solution plus duals.

    HiGHS maximizes ``c + epsilon * tie_break``, which picks one allocation
    among the optima of ``c``. The diagnostics refer to ``c`` alone: the
    duals prove the primal optimal for it within a relative
    ``epsilon * max(tie_break)``, at most TIE_BREAK_MAX.
    """
    cfg = instance.config

    if instance.n_variables == 0:
        solution = Solution.empty()
        diagnostics = SolveDiagnostics(0.0, (), ())
        return solution, diagnostics

    c, a, b = instance.to_arrays()
    epsilon = min(TIE_BREAK, TIE_BREAK_MAX / max(float(instance.tie_break.max()), 1.0))
    primal, duals = linprog(-(c + epsilon * instance.tie_break), a, b)

    x = _repair_overages(np.maximum(primal, 0.0), a, b)
    book = instance.book_map()
    solution = assign_prices(Solution(_fill(instance.variables, x, book)), book,
                             price_cap=cfg.price_cap)

    report = check_feasibility(solution, book, instance.grid, instance.pinned)
    if not report.ok:
        detail = "; ".join(f"{v.kind} {v.subject}" for v in report.violations[:5])
        raise NumericFailure(f"solution failed self-validation: {detail}")

    diagnostics = SolveDiagnostics(
        free_objective=float(c @ x),
        primal=tuple(float(v) for v in x),
        duals=tuple(float(v) for v in duals),
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
            config = replace(config, lookahead=self._lookahead())
        instance = build_lp(self.mirror.open_offers, self.mirror.grid, self.mirror.pinned,
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
