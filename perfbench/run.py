"""casebias benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload mc-oracle --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it uses the package under ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The workloads, their
ops and their correctness gates are in ``workloads.py``; ``baseline.json``
records why each workload is there and which end-to-end metric each layer
metric should move.

Every measurement runs in a fresh interpreter that this script starts: the
set-up launches (``setup_s``), the ``-X importtime`` launches
(``setup.import.*``) and the one process that runs the workload, whose peak
RSS is ``peak_rss_mb``.  They run one at a time, each with one BLAS/OpenMP
thread, and each is waited for.

Every reported time is speed-normalised against a reference kernel timed
next to it (see ``speed.py``); the raw wall times are printed as a comment
line beside the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import REFERENCE_MS, reference_ms

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = Path("perfbench") / "_work"  # relative to ROOT; ignored by git
WORKLOADS = ("mc-oracle", "epidemic-sweep", "cli-reports")
# (set-up launches, importtime launches, minimum ops per run) by scale.
SCALES = {"full": (5, 3, 100), "tiny": (2, 1, 1)}
IMPORTED = ("numpy", "scipy", "casebias")
LAUNCH_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker_cmd(args, *extra) -> list:
    return [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--min-ops", str(SCALES[args.scale][2]),
        "--workdir", str(WORK / args.workload), *extra,
    ]


def _time_setup(cmd: list) -> float:
    """Wall time from launching a fresh interpreter until it reports ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up launch failed ({proc.returncode}):\n{err}")
    return elapsed


def _import_times(stderr: str) -> dict:
    """Cumulative import time (ms) of each package in IMPORTED.

    ``-X importtime`` prints children before parents, two spaces deeper per
    level; walking the lines backwards visits parents first.  A package's
    time is the sum over its outermost entries, so nested imports of its own
    submodules are not counted twice.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = dict.fromkeys(IMPORTED, 0)
    ancestors: list = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for pkg in IMPORTED:
            def inside(mod, pkg=pkg):
                return mod == pkg or mod.startswith(pkg + ".")
            if inside(name) and not any(inside(a) for _, a in ancestors):
                totals[pkg] += cumulative
        ancestors.append((depth, name))
    return {f"setup.import.{pkg}.ms": us / 1e3 for pkg, us in totals.items()}


def _measure_imports() -> dict:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import casebias.cli"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import of casebias failed:\n{proc.stderr}")
    return _import_times(proc.stderr)


def _run_worker(args) -> dict:
    try:
        proc = subprocess.run(_worker_cmd(args), cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload did not finish within {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def _launches(measure, count: int) -> tuple:
    """Results of ``count`` launches and one speed factor for all of them.

    The reference kernel runs before each launch and after the last; the
    factor uses the median of those runs, so one disturbed kernel run cannot
    move it.
    """
    samples, results = [], []
    for _ in range(count):
        samples.append(reference_ms())
        results.append(measure())
    samples.append(reference_ms())
    return results, REFERENCE_MS / statistics.median(samples)


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _end_to_end(args, result: dict) -> dict:
    launches = SCALES[args.scale][0]
    raw_setup, factor = _launches(lambda: _time_setup(_worker_cmd(args, "--setup-only")),
                                  launches)
    setup = [factor * seconds for seconds in raw_setup]
    op_ms, raw = result["op_ms"], result["raw_op_ms"]
    p90 = _p90(op_ms)
    beyond = sum(x > p90 for x in op_ms)
    print(f"# raw wall times: ops_per_s = {len(raw) / result['raw_timed_s']:.6g}, "
          f"op_ms_p50 = {statistics.median(raw):.6g}, op_ms_p90 = {_p90(raw):.6g}; "
          f"reference kernel median {result['reference_ms']:.4g} ms")
    return {
        "ops_per_s": (len(op_ms) / result["timed_s"], "ops/s", ""),
        "op_ms_p50": (statistics.median(op_ms), "ms", ""),
        "op_ms_p90": (p90, "ms", f"({len(op_ms)} ops timed, {beyond} beyond p90)"),
        "setup_s": (statistics.median(setup), "s", f"(median of {launches} launches)"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", ""),
    }


# Unit of each per-layer metric, by name suffix.
_LAYER_UNITS = (
    (".ms_per_rep", "ms"), (".ms", "ms"), (".ns_per_individual", "ns"),
    (".ns_per_cell", "ns"), (".us_per_stage", "us"), (".useful_ratio", "ratio"),
    ("_frac", "ratio"), (".coverage", "ratio"), (".bytes_written", "bytes"),
)


def _layer_unit(name: str) -> str:
    return next((unit for suffix, unit in _LAYER_UNITS if name.endswith(suffix)), "count")


def _per_layer(args, result: dict) -> dict:
    runs, factor = _launches(_measure_imports, SCALES[args.scale][1])
    imports = [{key: factor * ms for key, ms in times.items()} for times in runs]
    layers = dict(result["layers"])
    for key in imports[0]:
        layers[key] = statistics.median(run[key] for run in imports)
    layers["failed_frac"] = result["failed"] / result["attempted"]
    return {name: (value, _layer_unit(name), "") for name, value in sorted(layers.items())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full",
                        help="tiny: small inputs, fewer launches, no minimum op count; "
                             "for the self-test")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "casebias" / "__init__.py").is_file():
        print(f"error: no casebias package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        # One discarded launch first, so that no measured launch compiles bytecode.
        _time_setup(_worker_cmd(args, "--setup-only"))
        result = _run_worker(args)
        metrics = _per_layer(args, result) if args.trace else _end_to_end(args, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for message in result["failures"]:
        print(f"# FAILED {message}")
    print(f"# failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} {note}".rstrip())
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
