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

``verify`` and ``metrics`` load neither NumPy nor SciPy, nor ``inspect``;
``run`` loads NumPy and HiGHS's compiled core, but neither
``scipy.optimize`` nor ``scipy.sparse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .ledger import read_events_jsonl, verify_log
from .market import Feeder, GridModel, count, flag, number
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


def _unit_price(text: str) -> float:
    return number("unit price", float(text), 0.0)


def _limit(text: str) -> float:
    return number("feeder limit", float(text), 0.0)  # Feeder's rule for a limit


def _chunks(text: str, sep: str) -> list[str]:
    return [chunk.strip() for chunk in text.split(sep) if chunk.strip()]


def _entries(text: str, parts: str) -> list[list[str]]:
    """Each ``id:a:b`` entry of ``text`` as its three stripped ``parts``."""
    entries = []
    for chunk in _chunks(text, ";"):
        entry = [part.strip() for part in chunk.split(":")]
        if len(entry) != 3:
            raise ValueError(f"entry {chunk!r}: expected {parts}")
        entries.append(entry)
    return entries


def _parse_feeders(text: str) -> tuple[Feeder, ...]:
    feeders = [Feeder(feeder, float(net), float(internal))
               for feeder, net, internal in _entries(text, "id:net_kw:internal_kw")]
    return GridModel(feeders).feeders  # the grid's own rule refuses a repeated id


def _parse_failures(text: str) -> tuple[FailureSpec, ...]:
    from .sim import FailureSpec

    return tuple(FailureSpec(who, float(fail), None if recover in ("-", "") else float(recover))
                 for who, fail, recover in _entries(text, "id:fail_time:recover_time"))


def _parse_synthesize(text: str) -> dict[str, int]:
    known, spec = ("homes", "producers", "feeders", "intervals"), {}
    for chunk in _chunks(text, ","):
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in known or key in spec:
            raise ValueError(f"{'repeated' if key in spec else 'unknown'} key {key!r}, "
                             f"expected each of {', '.join(known)} once")
        spec[key] = int(value)
    if len(spec) < len(known):
        raise ValueError(f"missing {', '.join(key for key in known if key not in spec)}")
    return spec


# Config key -> (record, field, parser), in README's example order: a field of
# the SimConfig, of its GridModel or of the run's own values. Only the keys
# present are passed on, so each default is its record's (or _RUN_DEFAULTS').
_KEYS = {
    "horizon": ("sim", "horizon", int),
    "interval_hours": ("grid", "interval_hours", float),
    "seconds_per_interval": ("sim", "seconds_per_interval", float),
    "clearing_lead": ("grid", "clearing_lead", int),
    "prediction_window": ("sim", "prediction_window", int),
    "lookahead": ("sim", "lookahead", int),
    "solver_period": ("sim", "solver_period", float),
    "solvers": ("sim", "n_solvers", int),
    "adversaries": ("sim", "n_adversaries", int),
    "seed": ("sim", "seed", lambda text: count("seed", int(text), 0)),
    "price_cap": ("sim", "price_cap", float),
    "unit_price": ("run", "unit_price", _unit_price),
    "feeders": ("run", "feeders", _parse_feeders),
    "default_feeder_net_kw": ("run", "default_feeder_net_kw", _limit),
    "default_feeder_internal_kw": ("run", "default_feeder_internal_kw", _limit),
    "failures": ("sim", "failures", _parse_failures),
    "detect_latency": ("sim", "detect_latency", float),
    "notify_latency": ("sim", "notify_latency", float),
    "reactivate_latency": ("sim", "reactivate_latency", float),
    "confirmation_delay": ("sim", "confirmation_delay", float),
    "synthesize": ("run", "synthesize", _parse_synthesize),
    "adaptive": ("sim", "adaptive", lambda text: flag("adaptive", text)),
}
_RUN_DEFAULTS = {"unit_price": DEFAULT_UNIT_PRICE, "feeders": (),
                 "default_feeder_net_kw": 1e6, "default_feeder_internal_kw": 1e6,
                 "synthesize": None}


def _parsed(key: str, parse, value):
    """``parse(value)``, where a refused value raises ``CliError`` naming ``key``."""
    try:
        return parse(value)
    except ValueError as exc:
        raise CliError(f"config key {key!r}: {exc}") from exc


def build_run_setup(cfg: dict[str, str], traces_path: str | None):
    """Assemble (SimConfig, traces, unit_price) from flat config values, each
    key present parsed once by its ``_KEYS`` row. A value one key gives that is
    refused (a ``Feeder``, a ``FailureSpec`` or the synthesized traces included)
    raises ``CliError`` naming the key; ``GridModel`` and ``SimConfig`` take
    several keys at once, and their errors name the field."""
    from .sim import SimConfig
    from .traces import ingest_traces, synthesize_traces

    unknown = sorted(set(cfg) - _KEYS.keys())
    if unknown:
        raise CliError(f"unknown config key {', '.join(map(repr, unknown))}")
    if "horizon" not in cfg:
        raise CliError("config key 'horizon' is required")
    values = {"sim": {}, "grid": {}, "run": dict(_RUN_DEFAULTS)}
    for key, (record, field, parse) in _KEYS.items():
        if key in cfg:
            values[record][field] = _parsed(key, parse, cfg[key])
    sim, run = values["sim"], values["run"]

    if traces_path is not None:
        traces = ingest_traces(traces_path)
    elif run["synthesize"] is not None:
        seed = sim.get("seed", SimConfig._field_defaults["seed"])
        traces = _parsed("synthesize", lambda spec: synthesize_traces(**spec, seed=seed),
                         run["synthesize"])
    else:
        raise CliError("provide --traces or a 'synthesize' config key")

    # The config's feeders (their parser refused a repeated id), then the traces'.
    feeders = {f.id: f for f in run["feeders"]}
    for trace in traces:
        if trace.feeder not in feeders:
            feeders[trace.feeder] = Feeder(trace.feeder, run["default_feeder_net_kw"],
                                           run["default_feeder_internal_kw"])
    if not feeders:
        raise CliError("no feeders defined")
    config = SimConfig(grid=GridModel(feeders.values(), **values["grid"]), **sim)
    return config, traces, run["unit_price"]


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
    report = report._replace(metrics=report.metrics._replace(unit_price=unit_price))
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
