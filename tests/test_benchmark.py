"""The benchmark's traced contract fuzz runs clean against this tree.

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


def test_traced_contract_fuzz_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "contract_fuzz",
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["ledger.restated_pinned_rows"]["value"] == 0
