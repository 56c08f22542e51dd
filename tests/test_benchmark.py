"""The benchmark's traced runs go clean against this tree.

``perfbench`` wraps public functions of ``gridtrade`` by module attribute
(``perfbench/spans.py``, ``instrument``) and calls others with fixed
signatures (``perfbench/worker.py``), so renaming or re-signing any of them
breaks the benchmark before a test of the program itself notices. The
traced run patches every wrapped name, drives ``build_lp``, ``solve``,
``Contract``, ``reference_optimum`` and ``verify_log``, and checks its log
independently of the program.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result["metrics"]


def test_traced_contract_fuzz_runs_clean():
    metrics = traced_run("contract_fuzz")
    assert metrics["ledger.restated_pinned_rows"]["value"] == 0


def test_traced_community_day_certifies_every_lp():
    """Every one of the day's LPs passes the weak-duality certificate, and
    the aggregate LP stays small: one column per open offer and interval."""
    metrics = traced_run("community_day")
    assert metrics["solver.build_lp_calls"]["value"] == 96
    assert metrics["solver.lp_variables_max"]["value"] <= 1000
