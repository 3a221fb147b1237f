"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, with every workload at its tiny size:

1. untraced and traced, each workload prints exactly the metrics that
   BENCHMARK.json names, with their units, and reports no failed op;
2. in a temporary copy of the checkout, each corruption below makes its
   workload report failed ops, which shows that the gates bite:
   a flipped byte in a golden file (cli-reports), a perturbed Monte Carlo
   mean (mc-oracle) and a perturbed bias-curve cell (epidemic-sweep);
3. in a directory holding only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.

The copies go to the system temporary directory (``TMPDIR``).  Exits 0 when
every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IGNORE = shutil.ignore_patterns("__pycache__", "_work")

# (workload, file under the copy, text, replacement)
CORRUPTIONS = [
    ("mc-oracle", "src/casebias/population.py",
     "    mean = float(sample.mean())\n",
     "    mean = float(sample.mean()) + 6.0 * float(sample.std(ddof=1) / np.sqrt(used))\n"),
    ("epidemic-sweep", "src/casebias/estimators.py",
     "ratio_out[m_idx, t] = ratio_bias(ctx)\n",
     "ratio_out[m_idx, t] = ratio_bias(ctx) * (1.0 + 1e-6)\n"),
]
GOLDEN_FILE = "perfbench/golden/neff/neff_table.csv"


def _run(root: Path, workload: str, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def _copy(tmp: Path, with_src: bool = True) -> Path:
    root = tmp / "checkout"
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=IGNORE)
    shutil.copy2(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=IGNORE)
    return root


def _replace_once(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"corruption target not found exactly once in {path}")
    path.write_text(text.replace(old, new))


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = _run(ROOT, workload, trace)
            if result is None:
                problems.append(f"{workload} trace={trace}: no result\n{proc.stderr}")
                continue
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics/units differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={trace}: failed ops\n{proc.stdout}")
            print(f"ok {workload} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed", flush=True)

    corruptions = CORRUPTIONS + [("cli-reports", GOLDEN_FILE, None, None)]
    for workload, target, old, new in corruptions:
        with tempfile.TemporaryDirectory() as tmp:
            root = _copy(Path(tmp))
            if old is None:
                data = bytearray((root / target).read_bytes())
                data[len(data) // 2] ^= 0x01
                (root / target).write_bytes(bytes(data))
            else:
                _replace_once(root / target, old, new)
            proc, result = _run(root, workload)
            if result is None or result["failed"] == 0 or result["correct"]:
                problems.append(f"corrupted {target}: {workload} did not report a failure\n"
                                f"{proc.stdout}{proc.stderr}")
            else:
                print(f"gate bites: {target} -> {workload} failed "
                      f"{result['failed']} of {result['attempted']} ops", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        root = _copy(Path(tmp), with_src=False)
        proc, result = _run(root, SPEC["workloads"][0]["name"])
        if proc.returncode == 0 or result is not None:
            problems.append("without src/ run.py exited 0 or printed a result")
        else:
            print(f"without src/: exit {proc.returncode}, no result", flush=True)

    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
