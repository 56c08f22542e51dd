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


def decisions(metrics: dict, names: list[str]) -> dict:
    return {name: metrics[name]["value"] for name in names}


def test_traced_contract_fuzz_runs_clean():
    """Seed 1's decisions are fixed: a change to a hot path that moves one
    verdict or one solve fails here, not only in the benchmark."""
    metrics = traced_run("contract_fuzz")
    assert metrics["ledger.restated_pinned_rows"]["value"] == 0
    assert decisions(metrics, ["ledger.accepted", "ledger.rejected.invalid",
                               "ledger.rejected.infeasible", "ledger.rejected.not_better",
                               "solver.highs_calls"]) == {
        "ledger.accepted": 61, "ledger.rejected.invalid": 1591,
        "ledger.rejected.infeasible": 558, "ledger.rejected.not_better": 2650,
        "solver.highs_calls": 60}


def test_traced_community_day_certifies_every_lp():
    """Every one of the day's LPs passes the weak-duality certificate, and
    the aggregate LP stays small: one column per open class of identical
    offers and interval.
    Seed 1's decisions are fixed, as in the fuzz."""
    metrics = traced_run("community_day")
    assert metrics["solver.build_lp_calls"]["value"] == 96
    assert metrics["solver.lp_variables_max"]["value"] <= 1000
    assert decisions(metrics, ["solver.highs_calls", "ledger.accepted"]) == {
        "solver.highs_calls": 52, "ledger.accepted": 47}


def test_traced_contested_day_certifies_every_lp():
    """Three solvers, two adversaries and two failures: every LP solved
    passes the weak-duality certificate, and the solvers at one ledger
    state share one build and one HiGHS run. A solver checks a shared
    solution only when it would submit it: with no confirmation delay, the
    solvers make one check per HiGHS run, and the contract the rest.
    Seed 1's decisions are fixed, as in the fuzz."""
    metrics = traced_run("contested_day")
    assert decisions(metrics, ["solver.build_lp_calls", "solver.highs_calls",
                               "solver.submissions", "market.check_feasibility_calls",
                               "ledger.accepted", "ledger.rejected.invalid",
                               "ledger.rejected.infeasible", "ledger.rejected.not_better"]) == {
        "solver.build_lp_calls": 97, "solver.highs_calls": 53,
        "solver.submissions": 47, "market.check_feasibility_calls": 282,
        "ledger.accepted": 47, "ledger.rejected.invalid": 133,
        "ledger.rejected.infeasible": 49, "ledger.rejected.not_better": 59}
