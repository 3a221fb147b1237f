"""Captures the golden CLI outputs that the cli-reports workload compares against.

    python3 perfbench/capture_golden.py

Runs one cli-reports pass with the default seed and replaces
``perfbench/golden/`` with its output files.  Run it only on a commit whose
outputs are the reference; every later run is compared with them byte for byte.
"""
from __future__ import annotations

import os
import shutil
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    warnings.simplefilter("ignore")
    workdir = run.WORK / "cli-reports"
    workdir.mkdir(parents=True, exist_ok=True)
    reports = workloads.CliReports(workloads.DEFAULT_SEED, "full", workdir)
    shutil.rmtree(reports.out_root, ignore_errors=True)
    for op in reports.pass_ops(0):
        code = op.run()
        if code != 0:
            print(f"error: {op.label} exited {code}", file=sys.stderr)
            return 1
    shutil.rmtree(workloads.GOLDEN_DIR, ignore_errors=True)
    shutil.copytree(reports.out_root, workloads.GOLDEN_DIR)
    print(f"golden outputs written to {workloads.GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
