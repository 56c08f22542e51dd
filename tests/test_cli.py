import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridtrade
from gridtrade.cli import (
    CliError,
    build_run_setup,
    main,
    parse_flat_config,
)
from gridtrade.traces import synthesize_traces, write_traces

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

    def test_missing_horizon_rejected(self, traces_csv):
        with pytest.raises(CliError, match="horizon"):
            build_run_setup({"feeders": "f01:1:1"}, str(traces_csv))

    def test_synthesize_spec(self):
        cfg = parse_flat_config(BASE_CONFIG + "synthesize = homes=6,producers=2,feeders=3,intervals=12\n")
        config, traces, _ = build_run_setup(cfg, None)
        assert len(traces) == 6

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


class TestCommands:
    @pytest.mark.parametrize("override", ["feeders=f01:nan:60; f02:50:60; f03:50:60",
                                          "feeders=f01:50:inf; f02:50:60; f03:50:60",
                                          "interval_hours=nan", "interval_hours=inf"])
    def test_run_refuses_non_finite_grid_before_simulating(self, tmp_path, config_file,
                                                           traces_csv, override, capsys):
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", str(config_file), "--traces", str(traces_csv),
                   "--out", str(out_dir), "--set", override])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and "and finite" in err
        assert not out_dir.exists()

    def test_run_verify_metrics_cycle(self, tmp_path, config_file, traces_csv, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--traces", str(traces_csv),
                     "--out", str(out_dir)]) == 0
        run_out = capsys.readouterr().out
        assert "finalized 12/12 intervals" in run_out

        log = out_dir / "events.jsonl"
        assert main(["verify", "--log", str(log)]) == 0
        assert "ok:" in capsys.readouterr().out

        assert main(["metrics", "--log", str(log)]) == 0
        metrics_out = capsys.readouterr().out
        assert metrics_out.startswith("sell_offered_kwh,")

    def test_run_with_set_override(self, tmp_path, config_file, traces_csv, capsys):
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", str(config_file), "--traces", str(traces_csv),
                   "--out", str(out_dir), "--set", "horizon=6"])
        assert rc == 0
        assert "finalized 6/6 intervals" in capsys.readouterr().out

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


class TestImports:
    @pytest.mark.parametrize("module", ["gridtrade.ledger", "gridtrade.cli"])
    def test_log_readers_start_without_the_optimizer(self, module):
        src = Path(gridtrade.__file__).resolve().parents[1]
        code = f"import sys, {module}; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip() == "False"

    def test_package_names_resolve_lazily(self):
        from gridtrade import solver

        assert gridtrade.build_lp is solver.build_lp
        assert all(getattr(gridtrade, name) is not None for name in gridtrade.__all__)
        with pytest.raises(AttributeError):
            gridtrade.no_such_name
