import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gridtrade
from gridtrade.cli import (
    _KEYS,
    CliError,
    build_run_setup,
    main,
    parse_flat_config,
)
from gridtrade.ledger import Contract, Role, write_events_jsonl
from gridtrade.market import SELLING, Feeder
from gridtrade.metrics import DEFAULT_UNIT_PRICE
from gridtrade.sim import SimConfig
from gridtrade.traces import synthesize_traces, write_traces

from conftest import FLAG_SPELLINGS, HEADER_EDITS

BASE_CONFIG = """
# community setup
horizon = 12
interval_hours = 0.25
seconds_per_interval = 4
clearing_lead = 1
prediction_window = 3
lookahead = 3
solver_period = 2
solvers = 1
seed = 5
feeders = f01:50:60; f02:50:60; f03:50:60
"""


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config() -> str:
    """The README's example config: its one ``ini`` code block."""
    return README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]


def readme_defaults() -> dict[str, str]:
    """Each optional key of README's example with the default README gives
    it: the ``(default X)`` of the key's comment, else the example's value."""
    defaults = {}
    for line in readme_config().splitlines():
        setting, _, comment = line.partition("#")
        key, _, value = setting.partition("=")
        marked = re.search(r"\(default ([^)]*)\)", comment)
        defaults[key.strip()] = marked[1] if marked else value.strip()
    del defaults["horizon"]  # required
    return defaults


SYNTHESIZE = "synthesize = homes=6,producers=2,feeders=3,intervals=12\n"


@pytest.fixture
def traces_csv(tmp_path):
    traces = synthesize_traces(6, 2, 3, 12, seed=5)
    return write_traces(tmp_path / "traces.csv", traces)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(BASE_CONFIG)
    return path


class TestConfigParsing:
    def test_values_comments_and_overrides(self):
        cfg = parse_flat_config("a = 1\n# note\nb = two words\na = 3\n")
        assert cfg == {"a": "3", "b": "two words"}

    def test_bad_line_rejected(self):
        with pytest.raises(CliError, match="line 2"):
            parse_flat_config("a = 1\nnonsense\n")

    def test_feeder_list_parsed(self, traces_csv):
        cfg = parse_flat_config(BASE_CONFIG)
        config, traces, unit_price = build_run_setup(cfg, str(traces_csv))
        assert {f.id for f in config.grid.feeders} == {"f01", "f02", "f03"}
        assert len(traces) == 6
        assert unit_price == 0.12

    @pytest.mark.parametrize("feeders", [":10:10", "f01:50:60; :10:10"])
    def test_a_feeder_without_an_id_is_refused(self, traces_csv, feeders):
        cfg = {**parse_flat_config(BASE_CONFIG), "feeders": feeders}
        with pytest.raises(CliError,
                           match="^config key 'feeders': feeder id must be a str, not empty"):
            build_run_setup(cfg, str(traces_csv))

    def test_missing_horizon_rejected(self, traces_csv):
        with pytest.raises(CliError, match="horizon"):
            build_run_setup({"feeders": "f01:1:1"}, str(traces_csv))

    def test_synthesize_spec(self):
        cfg = parse_flat_config(BASE_CONFIG + SYNTHESIZE)
        config, traces, _ = build_run_setup(cfg, None)
        assert len(traces) == 6

    def test_synthesize_without_a_seed_takes_the_simconfig_default(self):
        cfg = {"horizon": "4", "synthesize": "homes=4,producers=1,feeders=1,intervals=4"}
        assert build_run_setup(cfg, None) == build_run_setup({**cfg, "seed": "0"}, None)

    @pytest.mark.parametrize("key, value, message", [
        ("feeders", "f01:-1:60", "feeder f01: limits must be a non-negative finite number"),
        ("feeders", ":10:10", "feeder id must be a str, not empty"),
        ("feeders", "f01:nan:60", "feeder f01: limits must be a non-negative finite number"),
        ("feeders", "f01:1:1; f01:2:2", "feeder ids must be unique"),
        ("feeders", "f01:1", "entry 'f01:1': expected id:net_kw:internal_kw"),
        ("default_feeder_net_kw", "-5", "feeder limit must be a non-negative finite number"),
        ("failures", "p001:-5:-", "p001: fail_time must be a non-negative finite number"),
        ("failures", "p001:nan:-", "p001: fail_time must be a non-negative finite number"),
        ("failures", "p001", "entry 'p001': expected id:fail_time:recover_time"),
        ("synthesize", "homes=0,producers=1,feeders=1,intervals=4",
         "homes must be an integer of at least 1"),
        ("seed", "-1", "seed must be an integer of at least 0, got -1"),  # seeds synthesize
        ("unit_price", "nan", "unit price must be a non-negative finite number"),
        ("adaptive", "", "adaptive must be 1/0, true/false, yes/no or on/off, got ''")])
    def test_a_refused_value_names_its_key(self, key, value, message):
        cfg = parse_flat_config(BASE_CONFIG + SYNTHESIZE)
        cfg[key] = value
        with pytest.raises(CliError, match=f"^config key {key!r}: {re.escape(message)}"):
            build_run_setup(cfg, None)

    @pytest.mark.parametrize("key, value", [
        ("feeders", "f01:abc:60"), ("synthesize", "homes=x,producers=2,feeders=3,intervals=12")])
    def test_malformed_feeders_or_synthesize_names_the_key(self, key, value):
        cfg = parse_flat_config(BASE_CONFIG + SYNTHESIZE)
        cfg[key] = value
        with pytest.raises(CliError, match=f"^config key {key!r}: "):
            build_run_setup(cfg, None)

    @pytest.mark.parametrize("spec, problem", [
        ("homes=6,producers=2,feeders=3,intervals=12,flex_window=9", "unknown key 'flex_window'"),
        ("homes=6,producers=2,feeders=3,intervals=12,homes=8", "repeated key 'homes'")])
    def test_an_unknown_or_repeated_synthesize_key_is_refused(self, spec, problem):
        cfg = parse_flat_config(BASE_CONFIG + f"synthesize = {spec}\n")
        with pytest.raises(CliError, match=f"^config key 'synthesize': {problem}"):
            build_run_setup(cfg, None)

    def test_failures_parsed(self, traces_csv):
        cfg = parse_flat_config(BASE_CONFIG + "failures = p001:8.0:-; p002:4.0:20.0\n")
        config, _, _ = build_run_setup(cfg, str(traces_csv))
        assert len(config.failures) == 2
        assert config.failures[0].recover_time is None
        assert config.failures[1].recover_time == 20.0

    def test_unknown_trace_feeders_get_defaults(self, tmp_path):
        traces = synthesize_traces(4, 1, 4, 12, seed=5)  # feeder f04 not in config
        path = write_traces(tmp_path / "t.csv", traces)
        cfg = parse_flat_config(BASE_CONFIG + "default_feeder_net_kw = 9\n")
        config, _, _ = build_run_setup(cfg, str(path))
        assert config.grid.feeder_limits()["f04"].net_flow_limit_kw == 9

    def test_absent_keys_take_the_simconfig_defaults(self, traces_csv):
        config, _, unit_price = build_run_setup(
            {"horizon": "12", "feeders": "f01:50:60"}, str(traces_csv))
        assert config == SimConfig(grid=config.grid, horizon=12)
        assert unit_price == DEFAULT_UNIT_PRICE

    @pytest.mark.parametrize("text, value", FLAG_SPELLINGS)
    def test_boolean_spellings(self, traces_csv, text, value):
        cfg = parse_flat_config(BASE_CONFIG + f"adaptive = {text}\n")
        assert build_run_setup(cfg, str(traces_csv))[0].adaptive is value

    @pytest.mark.parametrize("line, key", [("lookahed = 2", "lookahed"),
                                           ("adaptive = maybe", "adaptive")])
    def test_unknown_key_or_bad_boolean_refused(self, tmp_path, config_file, traces_csv,
                                                capsys, line, key):
        config_file.write_text(BASE_CONFIG + line + "\n")
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", str(config_file), "--traces", str(traces_csv),
                   "--out", str(out_dir)])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert record["error"] == "CliError"
        assert repr(key) in record["detail"]
        assert not out_dir.exists()

    def test_readme_example_sets_every_key(self):
        cfg = parse_flat_config(readme_config())
        assert list(cfg) == list(_KEYS)
        config, traces, unit_price = build_run_setup(cfg, None)
        for key, (record, field, parse) in _KEYS.items():
            if record != "run":
                assert getattr({"sim": config, "grid": config.grid}[record], field) == \
                    parse(cfg[key]), key
        assert unit_price == float(cfg["unit_price"])
        limits = config.grid.feeder_limits()
        assert limits["f01"].net_flow_limit_kw == 2000.0
        assert limits["f03"].net_flow_limit_kw == float(cfg["default_feeder_net_kw"])
        assert limits["f03"].internal_limit_kw == float(cfg["default_feeder_internal_kw"])
        assert len(traces) == 102

    def test_readme_defaults_are_what_an_absent_key_gives(self):
        example = parse_flat_config(readme_config())
        with pytest.raises(CliError, match="'horizon' is required"):
            build_run_setup({k: v for k, v in example.items() if k != "horizon"}, None)
        for key, default in readme_defaults().items():
            cfg = {k: v for k, v in example.items() if k != key}
            if key == "synthesize":  # none: the traces must come from --traces
                assert default == "none"
                with pytest.raises(CliError, match="provide --traces"):
                    build_run_setup(cfg, None)
                continue
            config, traces, unit_price = build_run_setup(cfg, None)
            record, field, parse = _KEYS[key]
            if key == "feeders":  # none: each trace feeder, at the default limits
                assert default == "none"
                limits = (float(cfg["default_feeder_net_kw"]),
                          float(cfg["default_feeder_internal_kw"]))
                assert config.grid.feeders == tuple(
                    Feeder(f, *limits) for f in dict.fromkeys(t.feeder for t in traces))
                continue
            if record == "run":
                unlisted = config.grid.feeders[-1]  # a trace feeder the example does not list
                given = {"unit_price": unit_price,
                         "default_feeder_net_kw": unlisted.net_flow_limit_kw,
                         "default_feeder_internal_kw": unlisted.internal_limit_kw}[key]
            else:
                given = getattr({"sim": config, "grid": config.grid}[record], field)
            assert given == parse("" if default == "none" else default), key


class TestCommands:
    @pytest.mark.parametrize("override, error, detail", [
        ("feeders=f01:nan:60; f02:50:60; f03:50:60", "CliError", "config key 'feeders': "),
        ("feeders=f01:50:inf; f02:50:60; f03:50:60", "CliError", "config key 'feeders': "),
        ("interval_hours=nan", "ValueError", "interval_hours "),
        ("interval_hours=inf", "ValueError", "interval_hours ")])
    def test_run_refuses_non_finite_grid_before_simulating(self, tmp_path, config_file,
                                                           traces_csv, override, capsys,
                                                           error, detail):
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", str(config_file), "--traces", str(traces_csv),
                   "--out", str(out_dir), "--set", override])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert record["error"] == error
        assert record["detail"].startswith(detail) and "and finite" in record["detail"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides, error", [
        (["seconds_per_interval=nan"], "ConfigError"),
        (["failures=p001:nan:-"], "CliError"),
        (["failures=p001:4.0:inf"], "CliError"),
        (["failures=p001:4.0:-", "detect_latency=nan"], "ConfigError"),
        (["notify_latency=inf"], "ConfigError"),
        (["notify_latency=-100"], "ConfigError"),
        (["reactivate_latency=nan"], "ConfigError"),
        (["price_cap=nan"], "ConfigError"),
        (["price_cap=inf"], "ConfigError"),
        (["solver_period=nan"], "ConfigError"),
        (["solver_period=inf"], "ConfigError"),
        (["confirmation_delay=inf"], "ConfigError"),
        (["unit_price=nan"], "CliError"),
        (["unit_price=-1"], "CliError"),
        (["unit_price=inf"], "CliError"),
        (["seed=-1"], "CliError"),
        (["solvers=-1"], "ConfigError")])
    def test_run_refuses_bad_timings_and_prices_before_simulating(
            self, tmp_path, config_file, traces_csv, capsys, overrides, error):
        out_dir = tmp_path / "out"
        sets = [arg for override in overrides for arg in ("--set", override)]
        rc = main(["run", "--config", str(config_file), "--traces", str(traces_csv),
                   "--out", str(out_dir), *sets])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert record["error"] == error
        key = overrides[-1].partition("=")[0]
        assert key in record["detail"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("failures, error, detail", [
        ("nobody:1:-", "UnknownParticipantError", "failures: no agent named 'nobody'"),
        ("p001:1:-; p001:2:-", "ConfigError",
         "failures: p001: the failure at 2.0 overlaps an earlier one of its own")])
    def test_run_refuses_a_bad_schedule_naming_failures(self, tmp_path, config_file, traces_csv,
                                                        capsys, failures, error, detail):
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", str(config_file), "--traces", str(traces_csv),
                   "--out", str(out_dir), "--set", f"failures={failures}"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert record["error"] == error
        assert record["detail"].startswith(detail)
        assert not out_dir.exists()

    @pytest.mark.parametrize("price", ["nan", "inf", "-1", "-inf"])
    def test_metrics_refuses_a_bad_unit_price(self, tmp_path, capsys, price):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--log", str(tmp_path / "events.jsonl"), "--unit-price", price])
        assert exc.value.code == 2
        assert "--unit-price" in capsys.readouterr().err

    def test_run_verify_metrics_cycle(self, tmp_path, config_file, traces_csv, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--traces", str(traces_csv),
                     "--out", str(out_dir)]) == 0
        run_out = capsys.readouterr().out
        assert "finalized 12/12 intervals" in run_out

        log = out_dir / "events.jsonl"
        assert main(["verify", "--log", str(log)]) == 0
        events = len(log.read_text().splitlines()) - 1
        assert f"ok: {events} events verified" in capsys.readouterr().out

        assert main(["metrics", "--log", str(log)]) == 0
        metrics_out = capsys.readouterr().out
        assert metrics_out.startswith("sell_offered_kwh,")

    def test_run_with_set_override(self, tmp_path, config_file, traces_csv, capsys):
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", str(config_file), "--traces", str(traces_csv),
                   "--out", str(out_dir), "--set", "horizon=6"])
        assert rc == 0
        assert "finalized 6/6 intervals" in capsys.readouterr().out

    def test_run_applies_unit_price(self, tmp_path, config_file, traces_csv, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--traces", str(traces_csv),
                     "--out", str(out_dir), "--set", "unit_price=1.0"]) == 0
        lines = (out_dir / "metrics.csv").read_text().splitlines()[1:]
        rows = {name: float(value) for name, value in (line.split(",") for line in lines)}
        assert rows["unit_price"] == 1.0
        assert rows["unmet_dollars"] == pytest.approx(
            max(rows["buy_offered_kwh"] - rows["traded_kwh"], 0.0))
        assert rows["unmet_dollars"] > 0

    def test_run_with_synthesize_key(self, tmp_path, config_file, capsys):
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", str(config_file), "--out", str(out_dir),
                   "--set", "synthesize=homes=5,producers=1,feeders=3,intervals=12"])
        assert rc == 0
        assert "finalized 12/12" in capsys.readouterr().out

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "--instances", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "4/4 instances agree" in out

    def test_verify_rejects_tampered_log(self, tmp_path, config_file, traces_csv, capsys):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--traces", str(traces_csv),
              "--out", str(out_dir)])
        capsys.readouterr()
        log = out_dir / "events.jsonl"
        lines = log.read_text().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("kind") == "TradeFinalized":
                record["payload"]["power_kw"] = record["payload"]["power_kw"] + 1.0
            doctored.append(json.dumps(record))
        log.write_text("\n".join(doctored) + "\n")
        assert main(["verify", "--log", str(log)]) == 1
        err = capsys.readouterr().err
        assert "verification" in err

    def test_metrics_refuses_a_log_that_does_not_verify(self, tmp_path, config_file,
                                                         traces_csv, capsys):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--traces", str(traces_csv),
              "--out", str(out_dir)])
        capsys.readouterr()
        log = out_dir / "events.jsonl"
        doctored, first = [], None
        for seq, line in enumerate(log.read_text().splitlines()):
            record = json.loads(line)
            if record.get("kind") == "TradeFinalized":  # ten times the settled power
                record["payload"]["power_kw"] *= 10
                first = first or seq
            doctored.append(json.dumps(record))
        assert first is not None
        log.write_text("\n".join(doctored) + "\n")
        assert main(["metrics", "--log", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        record = json.loads(line)
        assert record["error"] == "verification"
        assert record["detail"].startswith(f"seq {first}: TradeFinalized power_kw is ")
        assert main(["verify", "--log", str(log)]) == 1
        assert capsys.readouterr().err == captured.err

    @pytest.mark.parametrize("command", ["verify", "metrics"])
    def test_bad_line_mid_log_is_named(self, tmp_path, config_file, traces_csv, capsys,
                                       command):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--traces", str(traces_csv),
              "--out", str(out_dir)])
        capsys.readouterr()
        log = out_dir / "events.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        lines[20] = "not json\n"
        log.write_text("".join(lines))
        assert main([command, "--log", str(log)]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert record["error"] == "LogFormatError"
        assert record["detail"].startswith(f"{log}:21: not valid JSON")

    def test_verify_refuses_version_1_log(self, tmp_path, config_file, traces_csv, capsys):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_file), "--traces", str(traces_csv),
              "--out", str(out_dir)])
        capsys.readouterr()
        log = out_dir / "events.jsonl"
        header, *rest = log.read_text().splitlines()
        record = json.loads(header)
        assert record["version"] == 2
        record["version"] = 1
        log.write_text("\n".join([json.dumps(record)] + rest) + "\n")
        assert main(["verify", "--log", str(log)]) == 1
        assert "log version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [*sorted(HEADER_EDITS), "event-extra-field"])
    def test_verify_refuses_a_log_the_writer_would_not_write(self, tmp_path, grid, case,
                                                             capsys):
        contract = Contract(grid)
        contract.register("dso", Role.DSO)
        contract.register("p1", Role.PROSUMER, "main")
        contract.post_offer("p1", SELLING, 2, 3, 1.0)
        log = write_events_jsonl(tmp_path / "events.jsonl", contract.events, grid)
        assert main(["verify", "--log", str(log)]) == 0
        assert capsys.readouterr().out == "ok: 3 events verified\n"
        lines = log.read_text().splitlines()
        line = 4 if case == "event-extra-field" else 1
        record = json.loads(lines[line - 1])
        lines[line - 1] = json.dumps({**record, "signed": "me"} if line == 4
                                     else HEADER_EDITS[case](record))
        log.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--log", str(log)]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert error["error"] == "LogFormatError"
        assert error["detail"].startswith(f"{log}:{line}: ")

    def test_errors_are_machine_readable(self, tmp_path, capsys):
        rc = main(["verify", "--log", str(tmp_path / "missing.jsonl")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert "error" in record and "detail" in record

    def test_missing_traces_and_synthesize_fails(self, tmp_path, config_file, capsys):
        rc = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert record["error"] == "CliError"


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this ``gridtrade``."""
    src = Path(gridtrade.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return out.stdout.strip()


ONE_VARIABLE_LP = """
import numpy as np
from gridtrade import solver
a = solver.CsrMatrix(np.array([1.0]), np.array([0], dtype=np.int32),
                     np.array([0, 1], dtype=np.int32), (1, 1))
primal, duals = solver.linprog(np.array([-1.0]), a, np.array([2.0]))
assert primal.tolist() == [2.0] and duals.tolist() == [1.0]
"""


class TestImports:
    @pytest.mark.parametrize("module", ["gridtrade.ledger", "gridtrade.cli"])
    def test_log_readers_start_without_the_optimizer(self, module):
        # ``dataclasses`` loads ``inspect``, and with it ``ast``, ``dis`` and ``tokenize``.
        code = (f"import sys, {module}\n"
                "print(sorted({'scipy.optimize', 'dataclasses', 'inspect'} & set(sys.modules)))")
        assert run_python(code) == "[]"

    def test_simulation_starts_without_scipy_optimize_or_sparse(self):
        code = ("import sys, gridtrade.sim, gridtrade.traces, gridtrade.oracle, gridtrade.cli\n"
                "print(sorted({'scipy.optimize', 'scipy.sparse', 'orjson', 'dataclasses'}\n"
                "             & set(sys.modules)))\n"
                + ONE_VARIABLE_LP)
        assert run_python(code) == "[]"

    @pytest.mark.parametrize("first, second", [("scipy.optimize", "gridtrade.solver"),
                                               ("gridtrade.solver", "scipy.optimize")])
    def test_solver_and_scipy_share_one_highs_core(self, first, second):
        code = (f"import sys, {first}, {second}\n"
                "import scipy.optimize._highspy._core as core\n"
                "from gridtrade import solver\n"
                "print(solver.highs is core is sys.modules[core.__name__])\n"
                "print(scipy.optimize.linprog([-1.0], A_ub=[[1.0]], b_ub=[2.0]).x.tolist())\n"
                + ONE_VARIABLE_LP)
        assert run_python(code).splitlines() == ["True", "[2.0]"]

    def test_package_names_resolve_lazily(self):
        from gridtrade import solver

        assert gridtrade.build_lp is solver.build_lp
        assert all(getattr(gridtrade, name) is not None for name in gridtrade.__all__)
        with pytest.raises(AttributeError):
            gridtrade.no_such_name
