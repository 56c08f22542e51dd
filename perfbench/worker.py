"""One workload in one fresh process: set up, run the timed phase, verify.

``run.py`` starts this file once per sample, so every sample pays the same
interpreter and import cost a ``gridtrade`` CLI call pays. Modes:

* ``prepare`` writes the workload's trace CSV (days only); not timed.
* ``setup`` stops once the workload is ready and reports ``setup_s``.
* ``run`` also runs the timed phase and the verify passes, with a
  calibration kernel timed between intervals and between passes, and
  reports each timing both as measured and at the reference speed.
* ``trace`` is ``run`` with every layer boundary wrapped by ``spans``, one
  verify pass, and the oracle checks of each LP solved.

The last line of standard output is a JSON object with the measurements.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

# Day workloads: a synthesized community driven through ``Simulation``.
HORIZON = 96
DAY = dict(seconds_per_interval=4.0, prediction_window=3, solver_period=2.0, lookahead=5)
FEEDER_NET_KW, FEEDER_INTERNAL_KW = 2000.0, 2500.0
DAYS = {
    "community_day": dict(homes=102, producers=5, feeders=11, solvers=1, adversaries=0,
                          failures=()),
    "contested_day": dict(homes=51, producers=3, feeders=6, solvers=3, adversaries=2,
                          failures=(("p001", 200.0, None), ("solver-2", 100.0, 180.0))),
}

# contract_fuzz: a C03-style adversarial stream driven straight into Contract.
FUZZ_ROUNDS = 120
FUZZ_ADVERSARIAL = 40
FUZZ_LOOKAHEAD = 3
# The offer book is the same for every seed; the seed drives the hostile
# submissions. A seeded book moved the round cost by about 12% between seeds.
FUZZ_BOOK_SEED = 1234
FUZZ_PROSUMERS = (("seller-a", "east", "selling"), ("seller-b", "west", "selling"),
                  ("buyer-a", "west", "buying"), ("buyer-b", "east", "buying"))
HONEST, ADVERSARY = "clearing-agent", "adversary"
MALFORMED = ((math.nan, None), (math.inf, None), (1.0, math.nan), (1.0, math.inf))
MARGIN = 1e-9

VERIFY_MIN_PASSES = 3
VERIFY_MIN_SECONDS = 1.5
# Machine speed: a calibration kernel runs after every PROBE_EVERY intervals
# (or rounds) of the timed phase, off its clock, and between verify passes.
# Timings are reported at the speed at which one kernel rep takes
# REFERENCE_KERNEL_S.
PROBE_EVERY = 8
CALIBRATION_REPS = 3
REFERENCE_KERNEL_S = 0.020


def trace_seed(seed: int) -> int:
    return 1000 + seed


def synthesize(workload: str, seed: int):
    """The day's traces, with every producer scaled to the nominal solar peak.

    ``synthesize_traces`` draws each producer's panel size at random; with
    only a few producers that draw alone moves the community's supply by
    several percent between seeds. Pinning the panel size keeps the
    day's size fixed while the seed still shapes every household's demand.
    """
    from gridtrade.traces import ProsumerTrace, synthesize_traces

    spec = DAYS[workload]
    traces = synthesize_traces(spec["homes"], spec["producers"], spec["feeders"], HORIZON,
                               seed=trace_seed(seed))
    out = []
    for trace in traces:
        peak = max(trace.production)
        if peak > 0:
            nominal = 1.6 * 0.09 * spec["homes"] / spec["producers"]
            production = tuple(round(v * nominal / peak, 4) for v in trace.production)
            trace = ProsumerTrace(trace.participant, trace.feeder, production, trace.demand,
                                  trace.flexible, trace.flex_window)
        out.append(trace)
    return out


# -- setup -------------------------------------------------------------------

def setup_day(workload: str, seed: int, traces_csv: Path, timings: dict):
    from gridtrade.market import Feeder, GridModel
    from gridtrade.sim import FailureSpec, SimConfig, Simulation
    from gridtrade.traces import ingest_traces

    started = time.perf_counter()
    traces = ingest_traces(traces_csv)
    timings["traces.ingest_s"] = time.perf_counter() - started
    spec = DAYS[workload]
    grid = GridModel(tuple(Feeder(f, FEEDER_NET_KW, FEEDER_INTERNAL_KW)
                           for f in sorted({t.feeder for t in traces})), 0.25, 1)
    config = SimConfig(grid=grid, horizon=HORIZON, n_solvers=spec["solvers"],
                       n_adversaries=spec["adversaries"], seed=seed,
                       failures=tuple(FailureSpec(*f) for f in spec["failures"]), **DAY)
    return Simulation(config, traces)


def setup_fuzz(timings: dict):
    from gridtrade.ledger import Contract, Role
    from gridtrade.market import Feeder, GridModel

    timings["traces.ingest_s"] = 0.0
    grid = GridModel((Feeder("east", 4.0, 5.0), Feeder("west", 4.0, 5.0)), 1.0, 1)
    contract = Contract(grid, require_dso_finalize=False)
    for pid, feeder, _ in FUZZ_PROSUMERS:
        contract.register(pid, Role.PROSUMER, feeder)
    contract.register(HONEST, Role.SOLVER)
    contract.register(ADVERSARY, Role.SOLVER)
    return contract


# -- timed phases --------------------------------------------------------------

def run_day(sim, out: Path, clock, result: dict, speed: "Speed") -> None:
    """Simulate the day and export the bundle; time each market interval.

    ``Simulation.run`` steps ``advance_clock``; the instance attribute set
    here is found first, so each step is observed and an interval ends when
    the contract's current interval moves.
    """
    from gridtrade import metrics

    state = sim.contract.state
    step = sim.advance_clock
    intervals: list[float] = []
    mark = [clock(), state.current_interval]

    def observed_step():
        value = step()
        if state.current_interval != mark[1]:
            now = clock()
            intervals.append((now - mark[0]) * 1000.0)
            speed.after_interval(len(intervals))
            mark[0], mark[1] = clock(), state.current_interval
        return value

    sim.advance_clock = observed_step
    started = clock()
    mark[0] = started
    report = sim.run()
    metrics.export_report(report, out)
    result["run_s"] = clock() - started
    result["interval_ms"] = intervals
    result["traded_kwh"] = report.metrics.traded_kwh
    result["attempted"] = report.intervals_finalized
    result["failed"] = 0


def adversarial(rng, view, sells, buys):
    """A C03-style hostile submission built from the mirrored ledger view.

    Strategies: scale the candidate, oversize one trade, contradict a
    finalized trade, price the candidate out of band, cite an unknown
    offer, pair two sellers, or add a small trade to the candidate (which
    may legitimately win). A strategy that does not apply yet falls back to
    citing unknown offers, so every call yields exactly one submission.
    """
    from gridtrade.market import Solution

    candidate = view.candidate
    strategy = int(rng.integers(0, 7))
    if strategy == 0 and len(candidate):
        return Solution({k: (p * float(rng.uniform(0.0, 3.0)), pi)
                         for k, (p, pi) in candidate.items()})
    if strategy == 1 and sells and buys:
        s = sells[int(rng.integers(0, len(sells)))]
        b = buys[int(rng.integers(0, len(buys)))]
        t = int(rng.integers(min(s.start, b.start), max(s.end, b.end) + 1))
        return Solution({(s.id, b.id, t): (float(rng.uniform(5.0, 50.0)) + s.energy_kwh, 0.2)})
    if strategy == 2:
        overlay = view.pinned.overlay()
        if overlay:
            entries = dict(candidate.items())
            key = sorted(overlay)[int(rng.integers(0, len(overlay)))]
            p, pi = overlay[key]
            entries[key] = (p + float(rng.uniform(0.5, 4.0)), pi)
            return Solution(entries)
    if strategy == 3 and len(candidate):
        return Solution({k: (p, -0.4) for k, (p, _) in candidate.items()})
    if strategy == 5 and len(sells) >= 2:
        a, b = sells[0], sells[1]
        return Solution({(a.id, b.id, a.start): (1.0, 0.2)})
    if strategy == 6 and sells and buys:
        s = sells[int(rng.integers(0, len(sells)))]
        b = buys[int(rng.integers(0, len(buys)))]
        lo = max(s.start, b.start, view.pinned.finalized_through + 1)
        hi = min(s.end, b.end)
        if lo <= hi:
            t = int(rng.integers(lo, hi + 1))
            entries = dict(candidate.items())
            power, price = entries.get((s.id, b.id, t), (0.0, 0.2))
            entries[(s.id, b.id, t)] = (power + float(rng.uniform(0.05, 0.5)), price)
            return Solution(entries)
    seller = sells[int(rng.integers(0, len(sells)))].id if sells else 424243
    return Solution({(seller, 424242, view.current_interval + 1): (1.0, 0.2)})


def run_fuzz(contract, seed: int, out: Path, clock, result: dict, speed: "Speed",
             oracle=None) -> None:
    """The submission loop, then the log write; one round per interval.

    Each round posts the prosumers' offers, one malformed offer (NaN or
    inf energy or reservation price, in turn), on odd rounds an honest
    ``build_lp``/``solve`` submission, then FUZZ_ADVERSARIAL hostile
    submissions, and finalizes. Operations counted: the adversarial
    submissions and the malformed offer. The malformed offer succeeds only
    when it is refused with ``ContractError`` and appends no event; a
    hostile submission succeeds when the contract answers it with an event.
    """
    import numpy as np
    from gridtrade import ledger, solver
    from gridtrade.market import objective
    from gridtrade.metrics import compute_metrics

    book_rng = np.random.default_rng(FUZZ_BOOK_SEED)
    rng = np.random.default_rng(seed)
    view = ledger.ContractState(contract.grid)
    seen = [0]

    def sync():
        for event in contract.events_since(seen[0]):
            view.apply(event)
            seen[0] = event.seq

    config = solver.SolverConfig(lookahead=FUZZ_LOOKAHEAD, solve_period=1.0)
    attempted = failed = 0
    rounds: list[float] = []
    started = clock()
    sync()
    for r in range(FUZZ_ROUNDS):
        round_start = clock()
        now = view.current_interval
        for pid, _, side in FUZZ_PROSUMERS:
            if book_rng.random() < 0.8:
                start = now + 1 + int(book_rng.integers(0, 3))
                contract.post_offer(pid, side, start, start + int(book_rng.integers(0, 2)),
                                    0.25 * float(book_rng.integers(1, 12)))
        sync()
        energy, price = MALFORMED[r % len(MALFORMED)]
        attempted += 1
        try:
            contract.post_offer("seller-a", "selling", now + 1, now + 1, energy, price)
            refused = False
        except ledger.ContractError:
            refused = not contract.events_since(seen[0])
        except ValueError:  # raised by Offer past the contract's own checks
            refused = False
        if not refused:
            failed += 1
        sync()
        if r % 2 == 1:
            instance = solver.build_lp(view.book, view.grid, view.pinned, now, config,
                                       retired=view.retired)
            honest = solver.solve(instance)
            if oracle is not None:
                oracle.reference(view, now, honest)
            if objective(honest) > view.candidate_objective + MARGIN:
                contract.submit_solution(HONEST, honest)
                if oracle is not None:
                    oracle.tracer.mark("solver.submission")
                sync()
        sells, buys = list(view.selling.values()), list(view.buying.values())
        for _ in range(FUZZ_ADVERSARIAL):
            attempted += 1
            contract.submit_solution(ADVERSARY, adversarial(rng, view, sells, buys))
            sync()
        contract.finalize(None, now)
        sync()
        rounds.append((clock() - round_start) * 1000.0)
        speed.after_interval(len(rounds))
    ledger.write_events_jsonl(out / "events.jsonl", contract.events, contract.grid)
    result["run_s"] = clock() - started
    result["interval_ms"] = rounds
    result["attempted"] = attempted
    result["failed"] = failed
    result["traded_kwh"] = compute_metrics(contract.events, contract.grid.interval_hours).traded_kwh


class OracleChecks:
    """The traced run's optimality checks, kept off the span clock.

    In the days every LP solved must pass the weak-duality certificate; in
    the fuzz every honest solve must reach the independent simplex optimum.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.checked = 0
        self.problems: list[str] = []

    def certify_every_lp(self) -> None:
        from gridtrade import oracle, solver

        original = solver.solve_with_diagnostics

        def certified(instance):
            solution, diagnostics = original(instance)
            with self.tracer.excluded():
                self.checked += 1
                self.problems.extend(f"LP at interval {instance.now}: {p}"
                                     for p in oracle.verify_certificate(instance, diagnostics))
            return solution, diagnostics

        solver.solve_with_diagnostics = certified

    def reference(self, view, now, solution) -> None:
        from gridtrade.market import objective
        from gridtrade.oracle import reference_optimum

        with self.tracer.excluded():
            want = reference_optimum(view.book, view.grid, view.pinned, now, FUZZ_LOOKAHEAD)
            have = objective(solution)
            self.checked += 1
            if abs(want - have) > 1e-6:
                self.problems.append(f"interval {now}: solver {have} != reference {want}")


# -- machine speed, verification and log counts ---------------------------------

def calibrate() -> float:
    """The machine's speed now: the median time of a fixed kernel.

    One rep is the program's mix of work in small: dict updates on tuple
    keys and a JSON round trip (ledger, log reader) and a fixed dense LP
    solved by HiGHS (solver). It calls nothing of ``gridtrade``.
    """
    import numpy as np
    from scipy.optimize import linprog

    rng = np.random.default_rng(7)
    a_ub = rng.random((60, 120))
    b_ub, c = a_ub.sum(axis=1) * 0.3, -rng.random(120)
    times = []
    for _ in range(CALIBRATION_REPS):
        started = time.perf_counter()
        table: dict = {}
        for i in range(20_000):
            key = (i % 977, i % 13)
            table[key] = table.get(key, 0.0) + i * 0.5
        json.loads(json.dumps([[i, i * 0.25, str(i)] for i in range(1_500)]))
        linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
        times.append(time.perf_counter() - started)
    return median(times)


def to_reference(seconds: float, *kernels: float) -> float:
    """``seconds`` at the reference speed, given the kernel times around it."""
    return seconds * REFERENCE_KERNEL_S * len(kernels) / sum(kernels)


class Speed:
    """Calibration kernels taken between the intervals of a timed phase.

    The shared machine's speed drifts by tens of percent within seconds, so
    each interval is scaled by the two kernels around it. The kernels run
    off the tracer's clock, which times the phase and its spans.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.kernels: list[float] = []

    def measure(self) -> None:
        with self.tracer.excluded():
            self.kernels.append(calibrate())

    def after_interval(self, done: int) -> None:
        if done % PROBE_EVERY == 0:
            self.measure()

    def scaled(self, intervals_ms: list[float], run_s: float) -> tuple[list[float], float]:
        """Intervals and ``run_s`` at the reference speed.

        ``kernels`` holds one kernel from before the phase, one after every
        PROBE_EVERY intervals and one after the phase. The part of ``run_s``
        outside the intervals (the export) lies between the last two.
        """
        k = self.kernels
        ref = [to_reference(ms, k[i // PROBE_EVERY], k[i // PROBE_EVERY + 1])
               for i, ms in enumerate(intervals_ms)]
        rest_s = run_s - sum(intervals_ms) / 1000.0
        return ref, sum(ref) / 1000.0 + to_reference(rest_s, k[-2], k[-1])


def verify_passes(path: Path, clock, min_passes: int, min_seconds: float,
                  calibrations: list[float]) -> list[float]:
    """Timed ``read_events_jsonl`` plus ``verify_log`` passes.

    ``calibrations`` holds the kernel time measured just before the first
    pass; one more is appended after each pass, so every pass lies between
    two of them.
    """
    from gridtrade import ledger
    from gridtrade.market import GridModel

    passes: list[float] = []
    while len(passes) < min_passes or sum(passes) < min_seconds:
        gc.collect()
        started = clock()
        header, events = ledger.read_events_jsonl(path)
        problems = ledger.verify_log(GridModel.from_payload(header["grid"]), events,
                                     price_cap=header.get("price_cap", 1.0))
        passes.append(clock() - started)
        if problems:
            raise SystemExit(f"verify_log found {len(problems)} problems: {problems[:3]}")
        calibrations.append(calibrate())
    return passes


def log_counts(path: Path, clearing_lead: int) -> dict[str, int]:
    """Accepted rows, and those restating intervals already finalized."""
    rows = restated = events = 0
    finalized_through = clearing_lead - 1
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["record"] != "event":
                continue
            events += 1
            if record["kind"] == "SolutionAccepted":
                trades = record["payload"]["trades"]
                rows += len(trades)
                restated += sum(1 for trade in trades if trade[2] <= finalized_through)
            elif record["kind"] == "IntervalAdvanced":
                finalized_through = record["payload"]["finalized_interval"]
    return {"ledger.accepted_rows": rows, "ledger.restated_pinned_rows": restated,
            "ledger.events": events}


# -- entry point ---------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DAYS) + ["contract_fuzz"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["prepare", "setup", "run", "trace"])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--traces", type=Path, help="the day's trace CSV")
    args = parser.parse_args()

    started = time.perf_counter()
    import gridtrade
    import_s = time.perf_counter() - started
    if Path(gridtrade.__file__).resolve().parent != SRC / "gridtrade":
        raise SystemExit(f"gridtrade imported from {gridtrade.__file__}, not {SRC}")

    args.out.mkdir(parents=True, exist_ok=True)
    if args.mode == "prepare":
        if args.workload in DAYS:
            from gridtrade.traces import write_traces
            write_traces(args.traces, synthesize(args.workload, args.seed))
        print(json.dumps({"prepared": str(args.out)}))
        return 0

    timings = {"setup.import_s": import_s}
    if args.workload in DAYS:
        subject = setup_day(args.workload, args.seed, args.traces, timings)
    else:
        subject = setup_fuzz(timings)
    setup_s = time.perf_counter() - T0
    import spans
    tracer = spans.Tracer()
    speed = Speed(tracer)
    speed.measure()
    result: dict = {"setup_s": setup_s,
                    "setup_ref_s": to_reference(setup_s, speed.kernels[0])}
    if args.mode == "setup":
        result["kernel_s"] = speed.kernels
        print(json.dumps(result))
        return 0

    # Every timed pass starts from a collected heap, as a fresh CLI call does;
    # otherwise where the cyclic collector's full passes fall moves each
    # pass by tens of percent.
    gc.collect()
    oracle = None
    if args.mode == "trace":
        spans.instrument(tracer)
        oracle = OracleChecks(tracer)
        if args.workload in DAYS:
            oracle.certify_every_lp()

    with tracer.span("phase.run"):
        if args.workload in DAYS:
            run_day(subject, args.out, tracer.now, result, speed)
        else:
            run_fuzz(subject, args.seed, args.out, tracer.now, result, speed, oracle)
    speed.measure()
    result["interval_ref_ms"], result["run_ref_s"] = speed.scaled(result["interval_ms"],
                                                                  result["run_s"])
    verify_calib = speed.kernels[-1:]
    with tracer.span("phase.verify"):
        if oracle is not None:
            passes = verify_passes(args.out / "events.jsonl", tracer.now, 1, 0.0, verify_calib)
        else:
            passes = verify_passes(args.out / "events.jsonl", tracer.now,
                                   VERIFY_MIN_PASSES, VERIFY_MIN_SECONDS, verify_calib)

    counts = log_counts(args.out / "events.jsonl", clearing_lead=1)
    result.update({
        "verify_pass_s": passes,
        "verify_ref_s": [to_reference(p, verify_calib[i], verify_calib[i + 1])
                         for i, p in enumerate(passes)],
        "kernel_s": speed.kernels + verify_calib[1:],
        "events": counts["ledger.events"],
        "log_bytes": (args.out / "events.jsonl").stat().st_size,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if oracle is not None:
        tracer.write(args.out / "spans.csv")
        result["layers"] = spans.layer_metrics(tracer.spans, {**timings, **counts})
        result["oracle_checked"] = oracle.checked
        result["oracle_problems"] = oracle.problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
