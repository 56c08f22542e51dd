"""Command-line interface.

Subcommands:

* ``run``     - simulate a trading day from a config file plus traces
                (CSV or synthesized) and export the report bundle.
* ``verify``  - replay an exported event log and re-validate every
                transition and finalized interval.
* ``oracle``  - run the solver against the independent reference
                optimizer on random instances.
* ``metrics`` - recompute trading metrics from an event log that verifies.

The config file is a flat ``key = value`` format; ``#`` starts a comment.
Structured values use ``:`` and ``;`` (for example
``feeders = f01:2000:2500; f02:2000:2500``). Any key can be overridden on
the command line with ``--set key=value``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .ledger import read_events_jsonl, verify_log
from .market import Feeder, GridModel, number
from .metrics import DEFAULT_UNIT_PRICE, compute_metrics, export_report

# The simulation, the solver and the oracle (and with them NumPy and HiGHS)
# are imported by the subcommands that use them, so that ``verify`` and
# ``metrics`` start without them.
if TYPE_CHECKING:  # pragma: no cover
    from .sim import FailureSpec


class CliError(Exception):
    pass


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; later keys win."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line {line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ValueError(f"expected 1/0, true/false, yes/no or on/off, got {text!r}") from None


def _unit_price(text: str) -> float:
    return number("unit price", float(text), 0.0)


def _get(cfg: dict[str, str], key: str, default, cast):
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise CliError(f"config key {key!r}: {exc}") from exc


def _chunks(text: str, sep: str) -> list[str]:
    return [chunk.strip() for chunk in text.split(sep) if chunk.strip()]


def _parse_feeders(text: str) -> list[tuple[str, float, float]]:
    entries = []
    for chunk in _chunks(text, ";"):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise CliError(f"feeder entry {chunk!r}: expected id:net_kw:internal_kw")
        entries.append((parts[0].strip(), float(parts[1]), float(parts[2])))
    return entries


def _parse_failures(text: str) -> tuple[FailureSpec, ...]:
    from .sim import FailureSpec

    specs = []
    for chunk in _chunks(text, ";"):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise CliError(f"failure entry {chunk!r}: expected id:fail_time:recover_time")
        recover = None if parts[2].strip() in ("-", "") else float(parts[2])
        specs.append(FailureSpec(parts[0].strip(), float(parts[1]), recover))
    return tuple(specs)


def _parse_synthesize(text: str) -> dict[str, int]:
    spec = {}
    for chunk in _chunks(text, ","):
        key, _, value = chunk.partition("=")
        spec[key.strip()] = int(value)
    missing = {"homes", "producers", "feeders", "intervals"} - set(spec)
    if missing:
        raise CliError(f"synthesize spec missing {sorted(missing)}")
    return spec


# Config key -> (SimConfig field, cast). Only the keys present are passed on,
# so SimConfig holds the only copy of each default.
_SIM_KEYS = {
    "horizon": ("horizon", int),
    "seconds_per_interval": ("seconds_per_interval", float),
    "prediction_window": ("prediction_window", int),
    "solver_period": ("solver_period", float),
    "lookahead": ("lookahead", int),
    "solvers": ("n_solvers", int),
    "adversaries": ("n_adversaries", int),
    "seed": ("seed", int),
    "price_cap": ("price_cap", float),
    "failures": ("failures", _parse_failures),
    "detect_latency": ("detect_latency", float),
    "notify_latency": ("notify_latency", float),
    "reactivate_latency": ("reactivate_latency", float),
    "confirmation_delay": ("confirmation_delay", float),
    "adaptive": ("adaptive", _parse_bool),
}
# Keys build_run_setup reads itself: traces, grid and report pricing.
_SETUP_KEYS = {"synthesize", "feeders", "default_feeder_net_kw",
               "default_feeder_internal_kw", "interval_hours", "clearing_lead",
               "unit_price"}


def build_run_setup(cfg: dict[str, str], traces_path: str | None):
    """Assemble (SimConfig, traces, unit_price) from flat config values."""
    from .sim import SimConfig
    from .traces import ingest_traces, synthesize_traces

    unknown = sorted(set(cfg) - _SIM_KEYS.keys() - _SETUP_KEYS)
    if unknown:
        raise CliError(f"unknown config key {', '.join(map(repr, unknown))}")
    if "horizon" not in cfg:
        raise CliError("config key 'horizon' is required")
    sim_values = {field: _get(cfg, key, None, cast)
                  for key, (field, cast) in _SIM_KEYS.items() if key in cfg}

    if traces_path is not None:
        traces = ingest_traces(traces_path)
    elif "synthesize" in cfg:
        spec = _get(cfg, "synthesize", None, _parse_synthesize)
        traces = synthesize_traces(
            spec["homes"], spec["producers"], spec["feeders"], spec["intervals"],
            seed=sim_values.get("seed", SimConfig.seed))
    else:
        raise CliError("provide --traces or a 'synthesize' config key")

    feeders = [Feeder(*entry) for entry in _get(cfg, "feeders", [], _parse_feeders)]
    known = {f.id for f in feeders}
    default_net = _get(cfg, "default_feeder_net_kw", 1e6, float)
    default_internal = _get(cfg, "default_feeder_internal_kw", 1e6, float)
    for trace in traces:
        if trace.feeder not in known:
            feeders.append(Feeder(trace.feeder, default_net, default_internal))
            known.add(trace.feeder)
    if not feeders:
        raise CliError("no feeders defined")

    grid = GridModel(
        feeders=tuple(feeders),
        interval_hours=_get(cfg, "interval_hours", 0.25, float),
        clearing_lead=_get(cfg, "clearing_lead", 1, int),
    )
    config = SimConfig(grid=grid, **sim_values)
    unit_price = _get(cfg, "unit_price", DEFAULT_UNIT_PRICE, _unit_price)
    return config, traces, unit_price


def _cmd_run(args: argparse.Namespace) -> int:
    from .sim import run

    cfg = parse_flat_config(Path(args.config).read_text(encoding="utf-8"))
    for override in args.set or []:
        key, _, value = override.partition("=")
        if not _:
            raise CliError(f"--set {override!r}: expected key=value")
        cfg[key.strip()] = value.strip()
    config, traces, unit_price = build_run_setup(cfg, args.traces)
    report = run(config, traces)
    report.metrics = dataclasses.replace(report.metrics, unit_price=unit_price)
    paths = export_report(report, args.out)
    print(f"finalized {report.intervals_finalized}/{report.config.horizon} intervals")
    print(f"traded {report.metrics.traded_kwh:.6g} kWh "
          f"(sell offered {report.metrics.sell_offered_kwh:.6g}, "
          f"buy offered {report.metrics.buy_offered_kwh:.6g})")
    print(f"events {len(report.events)}; report written to {Path(args.out).resolve()}")
    for name in sorted(paths):
        print(f"  {name}: {paths[name].name}")
    return 0


def _verify(path: str) -> int | None:
    """Re-execute the log at ``path`` in one streaming read. Returns the
    number of events verified, or prints each problem as a
    ``{"error": "verification", ...}`` line and returns None."""
    header, events = read_events_jsonl(path)
    grid = GridModel.from_payload(header["grid"])
    verified = 0

    def counted():  # the log streams through verify; count it on the way
        nonlocal verified
        for event in events:
            verified += 1
            yield event

    problems = verify_log(grid, counted())
    for problem in problems:
        print(json.dumps({"error": "verification", "detail": problem}), file=sys.stderr)
    return None if problems else verified


def _cmd_verify(args: argparse.Namespace) -> int:
    verified = _verify(args.log)
    if verified is None:
        return 1
    print(f"ok: {verified} events verified")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import run_comparison_suite

    results = run_comparison_suite(args.instances, seed=args.seed)
    failures = 0
    for r in results:
        status = "ok" if r.ok else "MISMATCH"
        vertex = "-" if r.vertex_objective is None else f"{r.vertex_objective:.6f}"
        print(f"instance {r.index:03d}: vars={r.n_variables:3d} "
              f"solver={r.solver_objective:.6f} reference={r.reference_objective:.6f} "
              f"vertex={vertex} diff={r.difference:.2e} {status}")
        if not r.ok:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} instances agree")
    return 0 if failures == 0 else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Metrics of a log that verifies: one read re-executes it, a second sums it."""
    if _verify(args.log) is None:
        return 1
    header, events = read_events_jsonl(args.log)
    grid = GridModel.from_payload(header["grid"])
    metrics = compute_metrics(events, grid.interval_hours, unit_price=args.unit_price)
    for name, value in metrics.rows():
        print(f"{name},{format(value, '.9g')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridtrade",
        description="Forward-trading energy exchange simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation and export reports")
    p_run.add_argument("--config", required=True, help="flat key=value config file")
    p_run.add_argument("--traces", help="prosumer trace CSV (else synthesize)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="replay and validate an event log")
    p_verify.add_argument("--log", required=True, help="events.jsonl path")
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="compare solver vs reference optimizer")
    p_oracle.add_argument("--instances", type=int, default=200)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_metrics = sub.add_parser("metrics", help="verify a log, then recompute its metrics")
    p_metrics.add_argument("--log", required=True, help="events.jsonl path")
    p_metrics.add_argument("--unit-price", type=_unit_price, default=DEFAULT_UNIT_PRICE)
    p_metrics.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
