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
valid price, so the fill prices each trade at its band midpoint as it
splits the flows, and each solve builds one :class:`Solution`.

:func:`build_lp` reads a window's offers into arrays once and builds the
columns, price tiers, carries and rows with NumPy array operations, then
sorts the matrix entries into CSR in one step, in the order
:class:`LpInstance` documents.

HiGHS (Huangfu & Hall, *Math. Prog. Comp.*, 2018) solves each LP by dual
simplex through the bindings bundled with SciPy. Only their compiled core is
loaded (:func:`_load_highs`), so importing this module loads neither
``scipy.optimize`` nor ``scipy.sparse``. One HiGHS object per process,
created on the first solve, reads the typed row-wise arrays of a
:class:`CsrMatrix` (C ``int`` indices, ``double`` values) in place through
the pointer form of ``passModel``. :func:`linprog` is the one entry point
into HiGHS.

Solutions are self-validated against the market rules before they are
returned, so a solver bug can never leak an infeasible submission.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass, field, replace
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import Mapping

import numpy as np

from . import ledger as ledger_mod
from .controller import ControllerState, ResourceModel, low_level_update, top_level_update
from .market import (
    GridModel,
    Offer,
    PinnedTrades,
    Side,
    Solution,
    TradeKey,
    check_feasibility,
    objective,
)


def _load_highs():
    """SciPy's compiled HiGHS bindings, ``scipy.optimize._highspy._core``.

    Importing the module by name would first run ``scipy/optimize/__init__``,
    which loads scipy.linalg, scipy.sparse, scipy.special and scipy.fft, none
    of which the solver uses. So the extension file is loaded on its own,
    under its full name. It is registered in ``sys.modules`` before it runs,
    so a later ``import scipy.optimize`` in the same process reuses this
    object: loading the file twice would register its pybind11 types twice.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # imports nothing for a top-level name
    if scipy is None:
        raise ImportError("HiGHS bindings not found: SciPy is not installed")
    folder = Path(scipy.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(
            f"HiGHS bindings not found: no {folder / '_core'}{EXTENSION_SUFFIXES[0]}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


highs = _load_highs()


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


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix as compressed sparse row arrays.

    Row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``. :func:`build_lp` makes the index
    arrays ``int32`` and ``data`` ``float64``, the types HiGHS reads in place.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # bincount adds each row's products in index order, as SciPy's CSR
        # matvec does, so the sums agree bit for bit.
        return np.bincount(self._rows(), weights=self.data * x[self.indices],
                           minlength=self.shape[0])

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        np.add.at(dense, (self._rows(), self.indices), self.data)
        return dense


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
    matrix: CsrMatrix = field(repr=False)
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

    def to_arrays(self) -> tuple[np.ndarray, CsrMatrix, np.ndarray]:
        """Objective vector, constraint matrix, and right-hand side."""
        return self.c, self.matrix, self.rhs


_KINDS = np.array(["sell", "buy", "carry"], dtype=object)  # column kinds by code


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending.

    ``np.unique`` builds a hash table first, which costs more than this sort
    on the few hundred values of one window.
    """
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
    A window with no open seller or no open buyer gives the empty instance.

    The matrix's index arrays are ``int32`` and its data ``float64``, the
    types :func:`linprog` hands to HiGHS without a copy.
    ``book`` may be any part of the book that holds every offer open in the
    window, such as ``ContractState.open_offers``: other offers are ignored.
    ``retired`` is accepted and ignored: withdrawn offers cannot trade at
    open intervals.
    """
    lo = max(now + grid.clearing_lead, pinned.finalized_through + 1)
    hi = now + max(config.lookahead, grid.clearing_lead)

    # Offers whose window misses [lo, hi] cannot produce variables.
    offers = sorted((o for o in book.values() if o.start <= hi and o.end >= lo),
                    key=lambda o: o.id)
    sells = [o for o in offers if o.side is Side.SELLING]
    buys = [o for o in offers if o.side is Side.BUYING]
    if not sells or not buys:  # nothing can trade in the window
        none = np.zeros(0)
        empty = CsrMatrix(none, np.zeros(0, dtype=np.int32), np.zeros(1, dtype=np.int32), (0, 0))
        return LpInstance((), none, empty, none, none, tuple(offers), grid, pinned, now, config)

    delta = grid.interval_hours
    # Sellers then buyers, each in id order: the order of the budget rows and
    # of the columns within an interval. Intervals are window-relative below.
    ordered = sells + buys
    n, span = len(ordered), hi - lo + 1
    feeder_names = sorted({o.feeder for o in ordered})
    feeder_of = {name: i for i, name in enumerate(feeder_names)}
    first = np.maximum([o.start for o in ordered], lo) - lo
    last = np.minimum([o.end for o in ordered], hi) - lo
    price = np.array([o.reservation for o in ordered])
    levels = _distinct(price)
    level = levels.searchsorted(price)

    # One cell per (offer, open interval), offer by offer: the first k are
    # the sellers'. A key t * len(levels) + level orders cells by interval,
    # then price.
    count = last - first + 1
    ends = count.cumsum()
    owner = np.arange(n).repeat(count)
    t = np.arange(ends[-1]) + (first + count - ends).repeat(count)
    k = int(ends[len(sells) - 1])
    key = t * len(levels) + level[owner]
    # The floors: each interval's distinct seller levels at or below its top
    # buyer level. A cell's tier is the highest floor of its interval at or
    # below its own level; a buyer below every floor gets no column.
    top = np.full(span, -1)
    np.maximum.at(top, t[k:], level[owner[k:]])
    cell = level[owner] <= top[t]
    floors = _distinct(key[:k][cell[:k]])
    floor_t = floors // len(levels)
    opens = floors.searchsorted(np.arange(span + 1) * len(levels))  # each interval's first floor
    tier = floors.searchsorted(key, "right") - 1
    cell[k:] = tier[k:] >= opens[t[k:]]
    n_sells = np.count_nonzero(cell[:k])
    owner, t, tier = owner[cell], t[cell], tier[cell]
    # A carry leaves each floor but the last of its interval for the next.
    carry = (floor_t[1:] == floor_t[:-1]).nonzero()[0]

    # Columns are the cells, then the carries; ``order`` lists them interval
    # by interval as ``variables`` does, and ``position`` inverts it.
    n_cells, n_carries = len(owner), len(carry)
    n_columns = n_cells + n_carries
    column_t = np.concatenate((t, floor_t[carry]))
    order = (column_t * (n + len(floors)) + np.concatenate((owner, n + carry))).argsort()
    position = np.empty(n_columns, dtype=np.int64)
    position[order] = np.arange(n_columns)
    kinds = _KINDS.repeat([n_sells, n_cells - n_sells, n_carries])
    labels = np.concatenate((np.array([o.id for o in ordered])[owner],
                             carry - opens[floor_t[carry]]))
    variables = tuple(zip(kinds[order].tolist(), labels[order].tolist(),
                          (column_t[order] + lo).tolist()))
    weight = np.zeros(n_columns)
    weight[:n_sells] = hi - lo - (last[owner[:n_sells]] - t[:n_sells])

    # The matrix as (row, column, value) blocks, sorted into CSR at the end.
    cells, carries = position[:n_cells], position[n_cells:]
    buying = np.arange(n_cells) >= n_sells
    sign = 1.0 - 2.0 * buying
    # Energy budgets: one row per offer with a column.
    used = np.bincount(owner, minlength=n) > 0
    budget = used.cumsum() - 1
    energy = np.array([o.energy_kwh - pinned.energy(o.id, delta) for o in ordered])
    base = np.count_nonzero(used)
    # Feeder limits: four slots per (feeder, interval), for production,
    # consumption and net flow both ways. A slot a column uses is a row.
    limits = grid.feeder_limits()
    slot_bounds = np.array([(f.internal_limit_kw, f.internal_limit_kw,
                             f.net_flow_limit_kw, f.net_flow_limit_kw)
                            for f in map(limits.__getitem__, feeder_names)],
                           dtype=np.float64).repeat(span, axis=0).ravel()
    slot = (np.array([feeder_of[o.feeder] for o in ordered])[owner] * span + t) * 4
    present = np.zeros(len(slot_bounds), dtype=bool)
    present[slot + buying] = present[slot + 2] = present[slot + 3] = True
    feeder_row = present.cumsum() + (base - 1)
    net = feeder_row[slot + 2]
    feeder_bounds = slot_bounds[present]
    base += len(feeder_bounds)
    # Tier balances: two opposite rows per floor. A carry leaves its floor
    # (-1) and enters the next (+1).
    balance = base + 2 * tier
    leave = base + 2 * carry
    ones = np.full(n_carries, 1.0)
    row = np.concatenate((budget[owner], feeder_row[slot + buying], net, net + 1,
                          balance, balance + 1, leave, leave + 1, leave + 2, leave + 3))
    column = np.concatenate((cells,) * 6 + (carries,) * 4)
    values = np.concatenate((np.full(n_cells, float(delta)), np.full(n_cells, 1.0),
                             sign, -sign, sign, -sign, -ones, ones, ones, -ones))
    rhs = np.concatenate((np.maximum(energy[used], 0.0), feeder_bounds,
                          np.zeros(2 * len(floors))))

    entries = (row * n_columns + column).argsort()
    indptr = np.zeros(len(rhs) + 1, dtype=np.int32)
    np.bincount(row, minlength=len(rhs)).cumsum(out=indptr[1:])
    matrix = CsrMatrix(values[entries], column[entries].astype(np.int32),
                       indptr, (len(rhs), n_columns))
    return LpInstance(variables, (order < n_sells).astype(np.float64), matrix, rhs,
                      weight[order], tuple(offers), grid, pinned, now, config)




@dataclass(frozen=True, eq=False)
class SolveDiagnostics:
    """The optimality certificate of one solve: the primal and the row duals."""

    free_objective: float
    primal: np.ndarray = field(repr=False)
    duals: np.ndarray = field(repr=False)  # multipliers for the <= rows, sign-adjusted >= 0


def midpoint_price(sell: Offer, buy: Offer, price_cap: float) -> float:
    """Midpoint of the acceptable band, with unbounded buyers capped."""
    price = (sell.reservation + min(buy.reservation, price_cap)) / 2.0
    return min(max(price, sell.reservation), buy.reservation)


def _repair_overages(x: np.ndarray, a: CsrMatrix, b: np.ndarray) -> np.ndarray:
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


def _fill(variables: tuple[Column, ...], x: np.ndarray, book: Mapping[int, Offer],
          price_cap: float) -> Solution:
    """Split each interval's offer flows into priced (sell, buy) trades.

    Sellers go by descending floor, then id; each fills the buyers it can
    trade with (ceiling at or above its floor) in id order. Eligibility is
    nested along the floors and the tier balances hold, so every seller's
    flow finds room among the buyers left to it. Each trade is priced at the
    band midpoint (:func:`midpoint_price`).
    """
    flows: dict[int, tuple[list, list]] = {}
    positive = np.flatnonzero(x > 0.0)
    for j, value in zip(positive.tolist(), x[positive].tolist()):
        kind, offer_id, t = variables[j]
        if kind != "carry":
            sells, buys = flows.setdefault(t, ([], []))
            (sells if kind == "sell" else buys).append([book[offer_id], value])

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
                    entries[(sell.id, buy.id, t)] = (amount, midpoint_price(sell, buy, price_cap))
                if supply <= 0.0:
                    break
    return Solution(entries)


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


def linprog(c: np.ndarray, a: CsrMatrix, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    # The pointer form of passModel reads the arrays in place. The row starts
    # omit the final end pointer, and every column gets an integrality entry
    # (zero, continuous): HiGHS refuses an empty integrality array.
    status = _highs.passModel(
        n, m, a.nnz, int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize), 0.0,
        c, np.zeros(n), np.full(n, np.inf), np.full(m, -np.inf), rhs,
        a.indptr[:-1], a.indices, a.data, np.zeros(n, dtype=np.int32))
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
    if instance.n_variables == 0:
        return Solution.empty(), SolveDiagnostics(0.0, np.zeros(0), np.zeros(0))

    c, a, b = instance.to_arrays()
    epsilon = min(TIE_BREAK, TIE_BREAK_MAX / max(float(instance.tie_break.max()), 1.0))
    primal, duals = linprog(-(c + epsilon * instance.tie_break), a, b)

    x = _repair_overages(np.maximum(primal, 0.0), a, b)
    book = instance.book_map()
    solution = _fill(instance.variables, x, book, instance.config.price_cap)

    report = check_feasibility(solution, book, instance.grid, instance.pinned)
    if not report.ok:
        detail = "; ".join(f"{v.kind} {v.subject}" for v in report.violations[:5])
        raise NumericFailure(f"solution failed self-validation: {detail}")

    return solution, SolveDiagnostics(float(c @ x), x, duals)


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
