"""gridtrade benchmark: three workloads, end-to-end metrics or per-layer spans.

    python3 perfbench/run.py --workload community_day --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each sample is a fresh single-threaded ``worker.py`` process. With
``--trace 0`` the run starts a few set-up-only processes (``setup_s`` is
their median together with the full samples'), then full samples until
``--seconds`` is spent, and reports medians of the timings scaled to a
reference machine speed (see ``worker.Speed``); the timings as measured
are printed on a comment line above. With ``--trace 1`` it runs one
untraced and one traced sample and reports the per-layer metrics; the two
event logs must be byte-identical. Every run re-checks the exported log
with ``logcheck`` (which shares no code with the program). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Results go under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import logcheck
from spans import LAYER_METRICS, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("community_day", "contested_day", "contract_fuzz")
END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("interval_p50_ms", "ms"), ("interval_p85_ms", "ms"),
    ("verify_events_per_s", "1/s"), ("log_bytes", "bytes"), ("traded_kwh", "kWh"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 3
MIN_SAMPLES = 2
WORKLOAD_LIMIT_S = 170.0  # every worker of one workload ends within this
FAILED_PROSUMER = "p001"  # the producer contested_day fails for good
# One worker process, one thread: no BLAS or OpenMP pools.
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """A worker failed or its output did not pass a check."""


def worker(workload: str, seed: int, traces: Path, deadline: float,
           mode: str, out: Path) -> dict:
    """Run one worker process to completion (it is killed at ``deadline``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out), "--traces", str(traces)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_log(workload: str, log: Path, sample: dict) -> None:
    """Independent checks of one exported log against the worker's report."""
    summary = logcheck.check_log(log)
    problems = list(summary.problems)
    if summary.intervals_finalized != len(sample["interval_ms"]):
        problems.append(f"{summary.intervals_finalized} intervals finalized, "
                        f"{len(sample['interval_ms'])} timed")
    if abs(summary.traded_kwh - sample["traded_kwh"]) > 1e-6 * max(1.0, summary.traded_kwh):
        problems.append(f"log shows {summary.traded_kwh} kWh, program reports "
                        f"{sample['traded_kwh']}")
    if summary.events != sample["events"]:
        problems.append(f"log has {summary.events} events, worker counted {sample['events']}")
    if workload == "contested_day":
        problems += logcheck.removed_participant_problems(log, FAILED_PROSUMER)
    if summary.traded_kwh <= 0:
        problems.append("nothing was traded")
    if problems:
        raise BenchError(f"{workload}: {len(problems)} problems: {problems[:5]}")


def measure(workload: str, seed: int, seconds: float, out: Path, spawn) -> dict:
    """End-to-end metrics: medians over set-up probes and full samples."""
    started = time.perf_counter()
    probes = [spawn("setup", out / "setup") for _ in range(SETUP_PROBES)]
    samples: list[dict] = []
    logs: set[str] = set()
    while True:
        rep_started = time.perf_counter()
        rep_dir = out / f"sample{len(samples) + 1}"
        sample = spawn("run", rep_dir)
        log = rep_dir / "events.jsonl"
        if not samples:
            check_log(workload, log, sample)
        logs.add(digest(log))
        if samples:  # the first sample's bundle is kept for inspection
            shutil.rmtree(rep_dir)
        samples.append(sample)
        rep_s = time.perf_counter() - rep_started
        if len(samples) >= MIN_SAMPLES and time.perf_counter() - started + rep_s > seconds:
            break
    if len(logs) != 1:
        raise BenchError(f"{workload}: {len(samples)} samples of seed {seed} wrote "
                         f"{len(logs)} different logs")
    first = samples[0]
    for key in ("traded_kwh", "log_bytes", "events", "attempted", "failed"):
        if any(s[key] != first[key] for s in samples):
            raise BenchError(f"{workload}: {key} differs between samples")
    intervals = [ms for s in samples for ms in s["interval_ref_ms"]]
    verify_s = median(v for s in samples for v in s["verify_ref_s"])
    metrics = {
        "setup_s": median(p["setup_ref_s"] for p in probes + samples),
        "run_s": median(s["run_ref_s"] for s in samples),
        "interval_p50_ms": percentile(intervals, 50),
        "interval_p85_ms": percentile(intervals, 85),
        "verify_events_per_s": first["events"] / verify_s,
        "log_bytes": first["log_bytes"],
        "traded_kwh": first["traded_kwh"],
        "peak_rss_mb": median(s["peak_rss_mb"] for s in samples),
    }
    raw_intervals = [ms for s in samples for ms in s["interval_ms"]]
    print(f"# {workload} seed {seed} as measured: setup_s "
          f"{median(p['setup_s'] for p in probes + samples):.4f}, "
          f"run_s {median(s['run_s'] for s in samples):.4f}, interval p50/p85 "
          f"{percentile(raw_intervals, 50):.2f}/{percentile(raw_intervals, 85):.2f} ms, "
          f"verify pass {median(v for s in samples for v in s['verify_pass_s']):.4f} s; "
          f"calibration kernel median "
          f"{median(k for s in probes + samples for k in s['kernel_s']) * 1000:.2f} ms")
    print(f"# {workload} seed {seed}: {len(samples)} samples of "
          f"{len(first['interval_ms'])} intervals, {len(probes)} set-up probes, "
          f"{time.perf_counter() - started:.1f} s")
    return {"attempted": sum(s["attempted"] for s in samples),
            "failed": sum(s["failed"] for s in samples),
            "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END}}


def traced(workload: str, seed: int, out: Path, spawn) -> dict:
    """Per-layer metrics from one traced sample, checked against an untraced one."""
    plain = spawn("run", out / "untraced")
    check_log(workload, out / "untraced" / "events.jsonl", plain)
    sample = spawn("trace", out / "traced")
    if digest(out / "untraced" / "events.jsonl") != digest(out / "traced" / "events.jsonl"):
        raise BenchError(f"{workload}: traced events.jsonl differs from the untraced one")
    if sample["oracle_problems"]:
        raise BenchError(f"{workload}: oracle disagrees: {sample['oracle_problems'][:3]}")
    checked = sample["oracle_checked"]
    if checked == 0:
        raise BenchError(f"{workload}: no LP was checked against the oracle")
    print(f"# {workload} seed {seed} at the reference speed: traced run_s "
          f"{sample['run_ref_s']:.3f} s, untraced {plain['run_ref_s']:.3f} s, overhead "
          f"{sample['run_ref_s'] - plain['run_ref_s']:+.3f} s; "
          f"{checked} LPs checked against the oracle; spans in {out / 'traced'}")
    return {"attempted": sample["attempted"], "failed": sample["failed"],
            "metrics": {name: (sample["layers"][name], unit) for name, unit in LAYER_METRICS}}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spawn = functools.partial(worker, workload, seed, out / "traces.csv",
                              time.monotonic() + WORKLOAD_LIMIT_S)
    spawn("prepare", out)
    if trace:
        return traced(workload, seed, out, spawn)
    return measure(workload, seed, seconds, out, spawn)


def main() -> int:
    parser = argparse.ArgumentParser(description="gridtrade benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "gridtrade" / "__init__.py").is_file():
        print(f"no gridtrade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    selftest = logcheck.self_test()
    if selftest:
        print(f"logcheck self-test failed: {selftest}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, (value, unit) in result["metrics"].items():
                key = metric if len(names) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": value, "unit": unit}
                print(f"{key} = {value:.6g} {unit}")
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(attempted, 1), "metrics": metrics}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
