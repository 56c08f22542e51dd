"""In-memory span tracer wrapped around the public functions of ``gridtrade``.

The program is not edited: :func:`instrument` replaces module attributes and
class methods with timing wrappers, so every call made through them records
a span ``[name, start, end, parent, value]``. ``parent`` is the index of the
enclosing span (-1 at the root) and ``value`` carries a per-call detail such
as LP size or a submission's outcome. Time spent in the benchmark's own
correctness checks runs inside :meth:`Tracer.excluded` and is removed from
the clock every span reads, so the checks never inflate a span.
"""

from __future__ import annotations

import csv
import functools
import time
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._excluded = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    @contextmanager
    def excluded(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - started

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def mark(self, name: str, value=None) -> None:
        """A zero-length span: counts an occurrence under the current span."""
        record = self._open(name)
        record[VALUE] = value
        self._close(record)

    def _open(self, name: str) -> list:
        record = [name, self.now(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = self.now()
        self._stack.pop()

    def wrap(self, name: str, fn, value_of=None):
        """``fn`` timed as a span; ``value_of(result, args, kwargs)`` fills its
        value, with ``result`` None when ``fn`` raised."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(record)
                if value_of is not None:
                    record[VALUE] = value_of(result, args, kwargs)
        return wrapper

    def patch(self, owner, attr: str, name: str, value_of=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), value_of))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "value"])
            for i, (name, start, end, parent, value) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent,
                                 "" if value is None else value])


def _pin_scan(result, args, kwargs) -> int:
    """Intervals the pin check walks: ``finalized_through + 1``."""
    pinned = args[3] if len(args) > 3 else kwargs.get("pinned")
    return 0 if pinned is None else pinned.finalized_through + 1


def _outcome(event, args, kwargs) -> str:
    if event is None:
        return "raised"
    if event.kind == "SolutionAccepted":
        return "accepted"
    return "rejected." + event.payload["reason"].split(":")[0].replace("-", "_")


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from gridtrade import ledger, market, metrics, sim, solver

    tracer.patch(sim.Simulation, "run", "sim.run")
    tracer.patch(sim, "compute_metrics", "metrics.compute")
    tracer.patch(metrics, "export_report", "metrics.export")
    tracer.patch(metrics, "write_events_jsonl", "ledger.write")
    tracer.patch(ledger, "write_events_jsonl", "ledger.write")
    tracer.patch(ledger, "read_events_jsonl", "ledger.read")
    tracer.patch(ledger, "verify_log", "ledger.verify")
    tracer.patch(ledger, "check_feasibility", "ledger.check", _pin_scan)
    tracer.patch(ledger.ContractState, "apply", "ledger.apply")
    tracer.patch(ledger.Contract, "submit_solution", "ledger.submit", _outcome)
    tracer.patch(ledger.Contract, "finalize", "ledger.finalize")
    tracer.patch(ledger.Contract, "post_offer", "ledger.post_offer")
    tracer.patch(ledger.Contract, "remove_participant_trades", "ledger.remove")
    tracer.patch(solver, "build_lp", "solver.build_lp", lambda r, a, k: 0 if r is None else r.n_variables)
    tracer.patch(solver, "solve", "solver.solve")
    tracer.patch(solver, "linprog", "solver.highs")
    tracer.patch(solver, "check_feasibility", "solver.self_check", _pin_scan)
    tracer.patch(solver.SolverAgent, "observe", "solver.observe")
    tracer.patch(solver.SolverAgent, "step", "solver.step",
                 lambda r, a, k: int(r is not None))
    tracer.patch(market.Solution, "__init__", "market.solution_build")


# Per-layer metric names and units, in report order.
LAYER_METRICS = [
    ("solver.build_lp_s", "s"), ("solver.build_lp_calls", "count"),
    ("solver.lp_variables_max", "count"), ("solver.lp_variables_sum", "count"),
    ("solver.highs_s", "s"), ("solver.highs_calls", "count"),
    ("solver.self_check_s", "s"), ("solver.solve_self_s", "s"),
    ("solver.step_s", "s"), ("solver.steps", "count"), ("solver.solves", "count"),
    ("solver.submissions", "count"), ("solver.submit_ratio", "ratio"),
    ("solver.observe_s", "s"),
    ("ledger.submit_s", "s"), ("ledger.submits", "count"),
    ("ledger.submit_p50_ms", "ms"), ("ledger.submit_p99_ms", "ms"),
    ("ledger.check_s", "s"), ("ledger.check_calls", "count"),
    ("ledger.accepted", "count"), ("ledger.rejected.invalid", "count"),
    ("ledger.rejected.infeasible", "count"), ("ledger.rejected.not_better", "count"),
    ("ledger.accept_ratio", "ratio"),
    ("ledger.apply_s", "s"), ("ledger.apply_calls", "count"), ("ledger.finalize_s", "s"),
    ("ledger.accepted_rows", "count"), ("ledger.restated_pinned_rows", "count"),
    ("ledger.write_s", "s"), ("ledger.read_s", "s"), ("ledger.verify_s", "s"),
    ("ledger.events", "count"),
    ("market.check_feasibility_calls", "count"), ("market.pin_scan_intervals", "count"),
    ("market.solution_builds", "count"), ("market.solution_build_s", "s"),
    ("sim.self_s", "s"), ("sim.offers_posted", "count"),
    ("metrics.compute_s", "s"), ("metrics.export_s", "s"),
    ("setup.import_s", "s"), ("traces.ingest_s", "s"),
]


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list[list], extra: dict[str, float]) -> dict[str, float]:
    """Aggregate spans under the ``phase.run`` and ``phase.verify`` roots.

    ``extra`` supplies the values not read from spans (setup timings and
    counts taken from the event log).
    """
    root: list[int] = []
    for i, span in enumerate(spans):
        root.append(i if span[PARENT] < 0 else root[span[PARENT]])

    def under(phase: str) -> list[int]:
        return [i for i in range(len(spans)) if spans[root[i]][NAME] == phase and root[i] != i]

    run_ids, verify_ids = under("phase.run"), under("phase.verify")

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def pick(ids, name):
        return [i for i in ids if spans[i][NAME] == name]

    def total(ids, name) -> float:
        return sum(dur(i) for i in pick(ids, name))

    children: dict[int, list[int]] = {}
    for i in run_ids:
        children.setdefault(spans[i][PARENT], []).append(i)

    def child_time(i: int, prefixes: tuple[str, ...]) -> float:
        return sum(dur(c) for c in children.get(i, []) if spans[c][NAME].startswith(prefixes))

    lp_sizes = [spans[i][VALUE] for i in pick(run_ids, "solver.build_lp")]
    checks = pick(run_ids, "ledger.check") + pick(run_ids, "solver.self_check")
    submits = pick(run_ids, "ledger.submit")
    outcomes = [spans[i][VALUE] for i in submits]
    solves = len(pick(run_ids, "solver.solve"))
    submissions = (sum(spans[i][VALUE] for i in pick(run_ids, "solver.step"))
                   + len(pick(run_ids, "solver.submission")))
    submit_ms = [dur(i) * 1000.0 for i in submits]
    sim_runs = pick(run_ids, "sim.run")
    exports = pick(run_ids, "metrics.export")

    out = {
        "solver.build_lp_s": total(run_ids, "solver.build_lp"),
        "solver.build_lp_calls": len(lp_sizes),
        "solver.lp_variables_max": max(lp_sizes, default=0),
        "solver.lp_variables_sum": sum(lp_sizes),
        "solver.highs_s": total(run_ids, "solver.highs"),
        "solver.highs_calls": len(pick(run_ids, "solver.highs")),
        "solver.self_check_s": total(run_ids, "solver.self_check"),
        "solver.solve_self_s": (total(run_ids, "solver.solve") - total(run_ids, "solver.highs")
                                - total(run_ids, "solver.self_check")),
        "solver.step_s": total(run_ids, "solver.step"),
        "solver.steps": len(pick(run_ids, "solver.step")),
        "solver.solves": solves,
        "solver.submissions": submissions,
        "solver.submit_ratio": submissions / solves if solves else 0.0,
        "solver.observe_s": total(run_ids, "solver.observe"),
        "ledger.submit_s": sum(submit_ms) / 1000.0,
        "ledger.submits": len(submits),
        "ledger.submit_p50_ms": percentile(submit_ms, 50),
        "ledger.submit_p99_ms": percentile(submit_ms, 99),
        "ledger.check_s": total(run_ids, "ledger.check"),
        "ledger.check_calls": len(pick(run_ids, "ledger.check")),
        "ledger.accepted": outcomes.count("accepted"),
        "ledger.rejected.invalid": outcomes.count("rejected.invalid"),
        "ledger.rejected.infeasible": outcomes.count("rejected.infeasible"),
        "ledger.rejected.not_better": outcomes.count("rejected.not_better"),
        "ledger.accept_ratio": outcomes.count("accepted") / len(submits) if submits else 0.0,
        "ledger.apply_s": total(run_ids, "ledger.apply"),
        "ledger.apply_calls": len(pick(run_ids, "ledger.apply")),
        "ledger.finalize_s": total(run_ids, "ledger.finalize"),
        "ledger.write_s": total(run_ids, "ledger.write"),
        "ledger.read_s": total(verify_ids, "ledger.read"),
        "ledger.verify_s": total(verify_ids, "ledger.verify"),
        "market.check_feasibility_calls": len(checks),
        "market.pin_scan_intervals": sum(spans[i][VALUE] for i in checks),
        "market.solution_builds": len(pick(run_ids, "market.solution_build")),
        "market.solution_build_s": total(run_ids, "market.solution_build"),
        "sim.self_s": sum(dur(i) - child_time(i, ("solver.", "ledger.")) for i in sim_runs),
        "sim.offers_posted": sum(1 for i in sim_runs for c in children.get(i, [])
                                 if spans[c][NAME] == "ledger.post_offer"),
        "metrics.compute_s": total(run_ids, "metrics.compute"),
        "metrics.export_s": sum(dur(i) - child_time(i, ("ledger.write",)) for i in exports),
    }
    out.update(extra)
    missing = [name for name, _ in LAYER_METRICS if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return out

