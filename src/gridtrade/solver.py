"""Market clearing: LP construction, solving, and the solver agent.

The matching problem is a linear program over open intervals: maximize
total traded power subject to per-offer energy budgets, net of energy
already finalized, and per-feeder power limits. Feeder limits see only
per-offer sums, and price compatibility is a chain over the sellers'
reservation levels, so each interval is a transportation problem on a
chain. The LP therefore has one power variable per open (class, interval)
plus one carry per price-tier boundary, instead of one per matchable
(sell, buy, interval) triple; flow decomposition (Ahuja, Magnanti & Orlin,
*Network Flows*, 1993, ch. 3) makes the two optima equal. A class is the
set of offers equal in every value the market reads of them (see
:data:`class_key`): its offers are interchangeable up to their budgets, so
one column carries their summed flow under one budget row, as presolve's
duplicate-column reduction would merge them (Andersen & Andersen,
*Math. Prog.*, 1995). A deterministic fill splits each class's flow among
its offers in id order, then each interval's flows into trades.
Solutions cover open intervals only; finalized trades stay in the pins.
Prices do not appear in the objective and every matchable pair admits a
valid price, so the fill prices each trade at its band midpoint as it
splits the flows, and each solve builds one :class:`Solution`.

:func:`build_lp` groups a window's offers into classes, reads them into
arrays once and builds the columns, price tiers, carries and rows with
NumPy array operations, then sorts the matrix entries into CSR in one
step, in the order :class:`LpInstance` documents.

HiGHS (Huangfu & Hall, *Math. Prog. Comp.*, 2018) solves each LP by dual
simplex through the bindings bundled with SciPy. Only their compiled core is
loaded (:func:`_load_highs`), so importing this module loads neither
``scipy.optimize`` nor ``scipy.sparse``. One HiGHS object per process,
created on the first solve, reads the typed row-wise arrays of a
:class:`CsrMatrix` (C ``int`` indices, ``double`` values) in place through
the pointer form of ``passModel``. :func:`linprog` is the one entry point
into HiGHS, and :func:`solve_with_diagnostics` its one caller.

A solver agent reads the contract's state and keeps no copy of it. The
state is a function of the event prefix the contract has applied (the
state-machine approach: Schneider, *ACM Computing Surveys*, 1990), so agents
that read the same ``lp_head`` build the same LP. Such agents in one day
share one solve, the LP built and the solution that the solve validated
(see :class:`SolverAgent`).

Solutions are self-validated against the market rules before they are
returned, so a solver bug can never leak an infeasible submission.

The records are immutable tuple records. A config checks its values in
``__new__``, which ``_make``, ``_replace``, copies and pickles go through too
(see :class:`~.market.CheckedRecord`), and it, a :class:`SolveRecord` and a
:class:`ControllerRow` are each equal to a plain tuple of their fields. The
records that hold arrays (:class:`CsrMatrix`, :class:`LpInstance`,
:class:`SolveDiagnostics`) are equal only to themselves.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from operator import itemgetter
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from . import ledger as ledger_mod
from .controller import (AffineResourceModel, ControllerState, ResourceModel, low_level_update,
                         top_level_update)
from .market import (
    BUYING,
    SELLING,
    CheckedRecord,
    GridModel,
    MarketError,
    Offer,
    PinnedTrades,
    Solution,
    TradeKey,
    check_feasibility,
    count,
    number,
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


class _SolverConfigRecord(NamedTuple):
    lookahead: int
    solve_period: float = 5.0
    price_cap: float = 1.0


class SolverConfig(CheckedRecord, _SolverConfigRecord):
    """Solver tuning: how far ahead to look and how often to run."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SolverConfig":
        config = super().__new__(cls, *args, **kwargs)
        count("lookahead", config.lookahead, 1)
        number("solve_period", config.solve_period, 0.0, above=True)
        number("price_cap", config.price_cap, 0.0)
        return config


Column = tuple[str, int, int]  # (kind, key, interval); see LpInstance


class CsrMatrix(NamedTuple):
    """A sparse matrix as compressed sparse row arrays.

    Row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``. :func:`build_lp` makes the index
    arrays ``int32`` and ``data`` ``float64``, the types HiGHS reads in place.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    # Equal only to itself, as an object: the arrays are not compared.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

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


class LpInstance(NamedTuple):
    """A built LP: maximize ``c @ x`` subject to ``matrix @ x <= rhs``, ``x >= 0``.

    The LP's offers are classes of identical offers (see :data:`class_key`),
    each labelled by its lowest offer id; an offer equal to no other is a
    class of one. Each open interval of the window contributes, in this
    order, a column ``("sell", label, t)`` per seller class, a column
    ``("buy", label, t)`` per buyer class (both in label order) and a column
    ``("carry", k, t)`` per price tier boundary, moving supply from tier
    ``k`` up to tier ``k + 1``. ``c`` is 1 on seller columns, so ``c @ x``
    is the traded power. The rows are, in order: one energy budget per class
    with a column (sellers, then buyers, in label order), the sum of its
    offers' energy net of pinned energy; production, consumption, export and
    import limits per feeder and interval; and each tier's balance equality,
    stored as two opposite ``<=`` rows, so every dual is non-negative; a row
    with no column is left out. ``tie_break`` holds the weights that choose
    among equally optimal allocations (see :func:`build_lp`). ``book`` holds
    the offers whose window meets the LP's, in id order. ``classes`` maps
    the label of each class of two or more offers to its offers' ids and
    energy budgets (kWh, net of pinned energy), in id order; the fill splits
    the class's flow by them. ``pinned`` is the finalized state the budgets
    were netted against; solve the instance before further intervals are
    pinned.
    """

    variables: tuple[Column, ...]
    c: np.ndarray
    matrix: CsrMatrix
    rhs: np.ndarray
    tie_break: np.ndarray
    book: tuple[Offer, ...]
    classes: Mapping[int, tuple[tuple[int, float], ...]]
    grid: GridModel
    pinned: PinnedTrades
    now: int
    config: SolverConfig

    # Equal only to itself, as an object: the arrays are not compared.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.rhs)


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


# The values of an offer that every LP, the fill and check_feasibility read:
# (side, feeder, start, end, reservation). Offers equal in all of them differ
# only in id, prosumer and energy, and form one class. The key holds an
# offer's own window, not its window clipped to the LP's: offers that expire
# at different intervals are not interchangeable to later solves.
class_key = itemgetter(*map(Offer._fields.index,
                            ("side", "feeder", "start", "end", "reservation")))


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
    flows that price-compatible trades can realize. The offers of a class
    share every column, tier and feeder row, so one column per class and
    interval, under the class's summed budget, admits the same sums of
    flows; a book of distinct offers gives one class per offer.

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
    # An offer is a tuple led by its id, and ids are unique: they sort by id.
    offers = sorted(o for o in book.values() if o.start <= hi and o.end >= lo)
    # Each class's offers in id order; classes come in the order of their
    # lowest id, the label of their columns.
    groups: dict[tuple, list[Offer]] = {}
    for offer in offers:
        groups.setdefault(class_key(offer), []).append(offer)
    sells = [group for group in groups.values() if group[0].side is SELLING]
    buys = [group for group in groups.values() if group[0].side is BUYING]
    if not sells or not buys:  # nothing can trade in the window
        none = np.zeros(0)
        empty = CsrMatrix(none, np.zeros(0, dtype=np.int32), np.zeros(1, dtype=np.int32), (0, 0))
        return LpInstance((), none, empty, none, none, tuple(offers), {}, grid, pinned, now,
                          config)

    delta = grid.interval_hours
    # Seller classes then buyer classes, each in label order: the order of
    # the budget rows and of the columns within an interval. A class is read
    # through its first offer. Intervals are window-relative below.
    classes = sells + buys
    ordered = [group[0] for group in classes]
    ids = [o.id for o in ordered]
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
    labels = np.concatenate((np.array(ids)[owner],
                             carry - opens[floor_t[carry]]))
    variables = tuple(zip(kinds[order].tolist(), labels[order].tolist(),
                          (column_t[order] + lo).tolist()))
    weight = np.zeros(n_columns)
    weight[:n_sells] = hi - lo - (last[owner[:n_sells]] - t[:n_sells])

    # The matrix as (row, column, value) blocks, sorted into CSR at the end.
    cells, carries = position[:n_cells], position[n_cells:]
    buying = np.arange(n_cells) >= n_sells
    sign = 1.0 - 2.0 * buying
    # Energy budgets: one row per class with a column, the sum of its
    # offers' energy left after their pinned energy.
    used = np.bincount(owner, minlength=n) > 0
    budget = used.cumsum() - 1
    members = [o for group in classes for o in group]
    left = np.maximum(np.array([o.energy_kwh for o in members])
                      - pinned.energies([o.id for o in members], delta), 0.0)
    sizes = [len(group) for group in classes]
    energy = np.bincount(np.arange(n).repeat(sizes), left, n)
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
    rhs = np.concatenate((energy[used], feeder_bounds, np.zeros(2 * len(floors))))

    entries = (row * n_columns + column).argsort()
    indptr = np.zeros(len(rhs) + 1, dtype=np.int32)
    np.bincount(row, minlength=len(rhs)).cumsum(out=indptr[1:])
    matrix = CsrMatrix(values[entries], column[entries].astype(np.int32),
                       indptr, (len(rhs), n_columns))
    # The classes of two or more offers, for the fill's split.
    shared, at = {}, 0
    for group, size in zip(classes, sizes):
        if size > 1:
            shared[group[0].id] = tuple(zip([o.id for o in group], left[at:at + size].tolist()))
        at += size
    return LpInstance(variables, (order < n_sells).astype(np.float64), matrix, rhs,
                      weight[order], tuple(offers), shared, grid, pinned, now, config)


class SolveDiagnostics(NamedTuple):
    """The optimality certificate of one solve: the primal and the row duals."""

    free_objective: float
    primal: np.ndarray
    duals: np.ndarray  # multipliers for the <= rows, sign-adjusted >= 0

    # Equal only to itself, as an object: the arrays are not compared.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


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


def _fill(instance: LpInstance, x: np.ndarray, book: Mapping[int, Offer]) -> Solution:
    """Split each class's flow among its offers, then each interval's offer
    flows into priced (sell, buy) trades.

    A class's flow goes to its offers in id order, interval by interval:
    each offer takes up to the energy it has left before the next one takes
    any. The class's budget row is the sum of theirs, so flow left over once
    every offer is full is rounding, and it is not assigned. An offer alone
    in its class takes its column's flow as it is.

    Sellers go by descending floor, then id; each fills the buyers it can
    trade with (ceiling at or above its floor) in id order. Eligibility is
    nested along the floors and the tier balances hold, so every seller's
    flow finds room among the buyers left to it. Each trade is priced at the
    band midpoint by the arithmetic of :func:`midpoint_price`, written out
    here with each ``min``/``max`` as the comparison it makes.
    """
    variables, shared = instance.variables, instance.classes
    delta, price_cap = instance.grid.interval_hours, instance.config.price_cap
    room: dict[int, float] = {}  # power each offer of a shared class has left for one interval
    flows: dict[int, tuple[list, list]] = {}
    positive = np.flatnonzero(x > 0.0)
    for j, value in zip(positive.tolist(), x[positive].tolist()):  # interval by interval
        kind, label, t = variables[j]
        if kind == "carry":
            continue
        sells, buys = flows.setdefault(t, ([], []))
        reservation = book[label].reservation
        shares = shared.get(label)
        if shares is None:
            parts = ((label, value),)
        else:
            parts = []
            for offer_id, budget in shares:
                free = room.get(offer_id, budget / delta)
                if free > 0.0:
                    take = value if value < free else free
                    parts.append((offer_id, take))
                    room[offer_id] = free - take
                    value -= take
                    if value <= 0.0:
                        break
        for offer_id, power in parts:
            if kind == "sell":  # sorts by descending floor, then id
                sells.append((-reservation, offer_id, reservation, power))
            else:
                buys.append([power, reservation, offer_id])

    entries: dict[TradeKey, tuple[float, float]] = {}
    by_id = itemgetter(2)
    for t, (sells, buys) in flows.items():
        sells.sort()
        buys.sort(key=by_id)
        for _, s_id, floor, supply in sells:
            for flow in buys:
                demand, ceiling, b_id = flow
                if demand <= 0.0 or ceiling < floor:
                    continue
                amount = demand if demand < supply else supply
                flow[0] = demand - amount
                supply -= amount
                if amount > 1e-9:
                    price = (floor + (price_cap if price_cap < ceiling else ceiling)) / 2.0
                    if floor > price:
                        price = floor
                    entries[(s_id, b_id, t)] = (amount, ceiling if ceiling < price else price)
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


def _self_validate(solution: Solution, book: Mapping[int, Offer], grid: GridModel,
                   pinned: PinnedTrades) -> None:
    """Raise :class:`NumericFailure`, naming the first violations' kinds and
    subjects, unless ``solution`` passes :func:`check_feasibility` against
    ``book``, ``grid`` and ``pinned``."""
    try:
        report = check_feasibility(solution, book, grid, pinned)
    except MarketError as exc:  # a trade the pins or the book rule out entirely
        raise NumericFailure(f"solution failed self-validation: {exc}") from None
    if not report.ok:
        detail = "; ".join(f"{v.kind} {v.subject}" for v in report.violations[:5])
        raise NumericFailure(f"solution failed self-validation: {detail}")


def solve_with_diagnostics(instance: LpInstance) -> tuple[Solution, SolveDiagnostics]:
    """Solve the LP and return the priced, validated solution plus duals.

    HiGHS maximizes ``c + epsilon * tie_break``, which picks one allocation
    among the optima of ``c``. The diagnostics refer to ``c`` alone: the
    duals prove the primal optimal for it within a relative
    ``epsilon * max(tie_break)``, at most TIE_BREAK_MAX.

    Every call with variables makes one HiGHS run. Solver agents of one day
    at one ledger state do not call it once each: they share one solve (see
    :class:`SolverAgent`).
    """
    if instance.n_variables == 0:
        return Solution.empty(), SolveDiagnostics(0.0, np.zeros(0), np.zeros(0))

    c, a, b = instance.c, instance.matrix, instance.rhs
    epsilon = min(TIE_BREAK, TIE_BREAK_MAX / max(float(instance.tie_break.max()), 1.0))
    primal, duals = linprog(-(c + epsilon * instance.tie_break), a, b)

    x = _repair_overages(np.maximum(primal, 0.0), a, b)
    book = {o.id: o for o in instance.book}
    solution = _fill(instance, x, book)
    _self_validate(solution, book, instance.grid, instance.pinned)
    return solution, SolveDiagnostics(float(c @ x), x, duals)


def solve(instance: LpInstance) -> Solution:
    """Best feasible solution for the instance (see solve_with_diagnostics)."""
    solution, _ = solve_with_diagnostics(instance)
    return solution


class SolveRecord(NamedTuple):
    """One solver run, for the solver activity export. ``variables`` counts
    the LP's columns: one per class of identical offers and open interval,
    plus the carries. ``solve_time`` is the resource model's time for an LP
    of that size, charged to this solver even when it shared the solve of
    a solver before it at the same ledger state. ``submitted`` means
    submitted at this solve, the only time the agent can submit it."""

    time: float
    solver: str
    variables: int
    constraints: int
    solve_time: float
    objective: float
    submitted: bool
    error: str = ""


class ControllerRow(NamedTuple):
    """One lookahead-controller update, after a solve: the modeled
    ``solve_time`` it tracked, the ``lookahead`` and ``max_lookahead`` it
    set, and the ``cpu_fraction`` the resource model read."""

    time: float
    solver: str
    solve_time: float
    lookahead: int
    max_lookahead: int
    cpu_fraction: float


class SolverAgent:
    """A solver participant: reads the ledger and submits improvements.

    At each round the agent reads the contract's state, and keeps no copy of
    it: it solves once each time the state's ``lp_head`` moves, and submits
    the solution then if the state's ``improves`` takes it, or never: the
    candidate's objective does not fall while the head stays. It holds no
    solution between rounds.

    The head names one state of one contract, so agents that read the same
    head at the same solver config build the same LP. The agents of one
    day share one solve for it through the day's memo: the first builds and
    solves, and the ones after it take the LP and the solution that the
    solve validated, in that round or a later one while the head stays.
    That one check is the only one a shared solution needs. ``lp_head``
    moves on every event that changes the open offers, the pins or the
    interval, so at an unmoved head the LP's ``pinned`` is the state's own
    object, and every offer the solution trades is in the LP's book:
    :func:`check_feasibility` reads nothing else. The modeled solve time of
    each :class:`SolveRecord` and of the controller is still charged to
    every agent that solves.
    """

    def __init__(self, agent_id: str, config: SolverConfig,
                 controller: ControllerState | None = None,
                 resource_model: ResourceModel = AffineResourceModel()):
        self.id = agent_id
        self.config = config
        self.active = True
        self.controller = controller
        self.resource_model = resource_model
        self.records: list[SolveRecord] = []
        self.controller_trace: list[ControllerRow] = []
        self._solved_head: object | None = None

    def observe(self, state: ledger_mod.ContractState) -> bool:
        """Whether ``state.lp_head`` moved since this agent last solved;
        records the head."""
        head = state.lp_head
        if head is self._solved_head:
            return False
        self._solved_head = head
        return True

    def step(self, state: ledger_mod.ContractState,
             shared: dict[SolverConfig, tuple[object, LpInstance, Solution]], *,
             time: float = 0.0) -> Solution | None:
        """One solver round on the contract's ``state``: at a moved
        ``lp_head``, solve and return the solution if ``improves`` takes it,
        else None. ``shared`` is the day's memo: for each config, the head
        of its last solve, the LP built and the solution that solve
        validated. A solve that raises stores nothing."""
        if not self.observe(state):
            return None

        config = self.config
        if self.controller is not None:
            config = config._replace(lookahead=self.controller.lookahead)
        head, entry = state.lp_head, shared.get(config)
        fresh = entry is None or entry[0] is not head  # by identity: a head compares by value
        if fresh:
            instance = build_lp(state.open_offers, state.grid, state.pinned,
                                state.current_interval, config)
        else:
            instance, solution = entry[1], entry[2]
        modeled_time = self.resource_model.solve_time(instance.n_variables)
        if fresh:
            try:
                solution = solve(instance)
            except NumericFailure as exc:
                self.records.append(SolveRecord(
                    time, self.id, instance.n_variables, instance.n_constraints,
                    modeled_time, 0.0, False, error=str(exc)))
                return None
            shared[config] = (head, instance, solution)

        value = objective(solution)
        submit = state.improves(value)
        self.records.append(SolveRecord(
            time, self.id, instance.n_variables, instance.n_constraints,
            modeled_time, value, submit))
        self._update_controller(time, instance.n_variables, modeled_time)
        return solution if submit else None

    def _update_controller(self, time: float, n_variables: int, modeled_time: float) -> None:
        if self.controller is None:
            return
        signal = self.resource_model.signal(n_variables, self.config.solve_period)
        self.controller = top_level_update(self.controller, signal)
        self.controller = low_level_update(self.controller, modeled_time)
        self.controller_trace.append(ControllerRow(
            time, self.id, modeled_time, self.controller.lookahead,
            self.controller.max_lookahead, signal.cpu_fraction))
