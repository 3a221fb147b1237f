"""Runs one workload in a fresh interpreter and prints its numbers as JSON.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only`` it
stops once the workload's inputs exist and prints ``ready``, which is what the
set-up time measures.  Otherwise it warms up with the first ops of one pass,
then runs whole passes in a closed loop (one op at a time, each check after
its op and outside the timed region) until ``--seconds`` of op time and
``--min-ops`` ops are done.  With ``--trace 1`` it runs half that untraced,
then the same passes again with spans recorded, and reports the per-layer
metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import COUNTS, END, NAME, OP, PARENT, START, Tracer, self_times
from speed import SpeedGauge

ROOT = Path(__file__).resolve().parent.parent
# The untimed warm-up runs at most this many ops of a pass whose index is
# apart from the timed passes 0, 1, ...
WARMUP_PASS = 1_000_000
WARMUP_OPS = 24
# Host speed changes over seconds; the reference kernel (about 5 ms) runs
# before the next op once this much op time has passed since its last run.
GAUGE_INTERVAL_S = 0.1


def _import_checkout_package():
    sys.path.insert(0, str(ROOT / "src"))
    import casebias

    src = (ROOT / "src" / "casebias").resolve()
    if Path(casebias.__file__).resolve().parent != src:
        sys.exit(f"casebias imported from {casebias.__file__}, expected {src}")
    return casebias


def _trace_points(workloads):
    """(module, attribute, span name, counter) for every traced public call."""
    import numpy as np
    from casebias import cli, compare, decomposition, epidemic, estimators, population

    def mc_counts(args, kwargs, est):
        return {"used": est.replications, "attempted": est.replications + est.degenerate,
                "degenerate": est.degenerate}

    def curve_counts(args, kwargs, curves):
        cells = int(curves.ratio_bias.size)
        useful = int((~np.isnan(curves.ratio_bias)).sum() + (~np.isnan(curves.rt_bias)).sum())
        return {"cells": cells, "flagged": len(curves.flagged), "useful": useful}

    return [
        (population, "make_population", "population.make_population", None),
        (population, "realize", "population.realize",
         lambda a, k, r: {"individuals": int(r.selected.size)}),
        (population, "empirical_stats", "population.empirical_stats", None),
        (population, "mc_expectation", "population.mc_expectation", mc_counts),
        (workloads, "forward_functional", "population.functional", None),
        (decomposition, "decompose_realization", "decomposition.decompose_realization", None),
        # horizon steps x 4 RK4 substeps x 4 stages.
        (epidemic, "sir_simulate", "epidemic.sir_simulate",
         lambda a, k, traj: {"rk4_stages": 16 * (int(traj.times.size) - 1)}),
        (epidemic, "trajectory_csv", "epidemic.trajectory_csv", None),
        (estimators, "bias_curves", "estimators.bias_curves", curve_counts),
        (estimators, "bias_curves_csv", "estimators.bias_curves_csv", None),
        (compare, "rt_gap", "compare.rt_gap",
         lambda a, k, gap: {"cells": 2 * int(gap.steps.size), "flagged": len(gap.flagged)}),
        (compare, "rt_gap_csv", "compare.rt_gap_csv", None),
        (cli, "main", "cli.main", None),
    ]


def _install(tracer, points):
    for module, attr, name, counter in points:
        tracer.install(module, attr, name, counter)


@dataclass
class Phase:
    """What one run of passes did; times in seconds."""

    passes: list = field(default_factory=list)
    raw_s: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # gauge sample index per op
    norm_s: list = field(default_factory=list)  # speed-normalised, see speed.py
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def _run_passes(workload, gauge, passes=None, seconds=0.0, min_ops=0, max_ops=None,
                tracer=None, op_info=None) -> Phase:
    """Run whole passes, each op timed alone and checked after its timer stops.

    ``passes`` replays the given pass indices; otherwise passes continue from
    index 0 until both ``seconds`` of op wall time and ``min_ops`` ops are
    done.  ``max_ops`` truncates each pass.  When tracing, each op's
    (kind, gauge sample index) is appended to ``op_info``, whose index is the
    op id.
    """
    phase = Phase()
    k = 0
    while True:
        if passes is not None:
            if k >= len(passes):
                break
            index = passes[k]
        else:
            if sum(phase.raw_s) >= seconds and len(phase.raw_s) >= min_ops:
                break
            index = k
        for op in workload.pass_ops(index)[:max_ops]:
            phase.attempted += 1
            sample = gauge.tick()
            if tracer is not None:
                tracer.op_id = len(op_info)
                op_info.append((op.kind, sample))
            start = time.perf_counter()
            try:
                result = op.run() if tracer is None else tracer.call("op", op.run, (), {})
            except Exception as exc:  # a failed op is counted, not fatal
                phase.failed += 1
                phase.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                gauge.advance(elapsed)
                if tracer is not None:
                    tracer.op_id = None
            phase.raw_s.append(elapsed)
            phase.samples.append(sample)
            try:
                messages = op.check(result)
            except Exception:
                messages = [f"{op.label}: check raised\n{traceback.format_exc()}"]
            phase.failed += bool(messages)
            phase.failures.extend(messages)
        phase.passes.append(index)
        k += 1
    gauge.finish()
    phase.norm_s = [raw * gauge.factor(i) for raw, i in zip(phase.raw_s, phase.samples)]
    return phase


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _layer_metrics(spans, op_info, gauge, setup_sample) -> dict:
    """Per-layer numbers from the traced phase; 0 where a layer was never called.

    Times are speed-normalised with the gauge factor of the op each span
    belongs to (``setup_sample`` for spans recorded while the inputs were
    built).
    """
    n_ops = len(op_info)
    kinds = [kind for kind, _ in op_info]
    factors = [gauge.factor(sample) for _, sample in op_info]
    setup_factor = gauge.factor(setup_sample)
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        if span[OP] is not None:
            by_name[span[NAME]].append(index)

    def factor(i):
        op = spans[i][OP]
        return setup_factor if op < 0 else factors[op]

    def dur(i):
        return (spans[i][END] - spans[i][START]) * factor(i)

    def ms(name):
        return _median([dur(i) / 1e6 for i in by_name[name]])

    def count_sum(name, key):
        return sum(spans[i][COUNTS][key] for i in by_name[name])

    def per_call(name, key):
        calls = len(by_name[name])
        return count_sum(name, key) / calls if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    mc = "population.mc_expectation"
    out[f"{mc}.ms"] = ms(mc)
    out[f"{mc}.ms_per_rep"] = _median(
        [dur(i) / 1e6 / spans[i][COUNTS]["attempted"] for i in by_name[mc]]
    )
    out[f"{mc}.reps"] = per_call(mc, "attempted")
    out[f"{mc}.degenerate"] = per_call(mc, "degenerate")
    out[f"{mc}.useful_ratio"] = ratio(count_sum(mc, "used"), count_sum(mc, "attempted"))
    functional_per_call = defaultdict(int)
    for i in by_name["population.functional"]:
        functional_per_call[spans[i][PARENT]] += selfs[i] * factor(i)
    out["population.functional.ms"] = _median([v / 1e6 for v in functional_per_call.values()])
    out["population.realize.ms"] = ms("population.realize")
    out["population.realize.ns_per_individual"] = _median(
        [dur(i) / spans[i][COUNTS]["individuals"] for i in by_name["population.realize"]]
    )
    out["population.empirical_stats.ms"] = ms("population.empirical_stats")
    out["population.make_population.ms"] = ms("population.make_population")
    out["decomposition.decompose_realization.ms"] = ms("decomposition.decompose_realization")

    sir = "epidemic.sir_simulate"
    out[f"{sir}.ms"] = ms(sir)
    out[f"{sir}.calls"] = ratio(len(by_name[sir]), n_ops)
    out[f"{sir}.rk4_stages"] = per_call(sir, "rk4_stages")
    out[f"{sir}.us_per_stage"] = _median(
        [dur(i) / 1e3 / spans[i][COUNTS]["rk4_stages"] for i in by_name[sir]]
    )
    out["epidemic.trajectory_csv.ms"] = ms("epidemic.trajectory_csv")

    bc = "estimators.bias_curves"
    out[f"{bc}.ms"] = ms(bc)
    out[f"{bc}.cells"] = per_call(bc, "cells")
    out[f"{bc}.ns_per_cell"] = _median([dur(i) / spans[i][COUNTS]["cells"] for i in by_name[bc]])
    out[f"{bc}.flagged"] = per_call(bc, "flagged")
    out[f"{bc}.useful_ratio"] = ratio(count_sum(bc, "useful"), 2 * count_sum(bc, "cells"))
    out["estimators.bias_curves_csv.ms"] = ms("estimators.bias_curves_csv")

    gap = "compare.rt_gap"
    out[f"{gap}.ms"] = ms(gap)
    out[f"{gap}.cells"] = per_call(gap, "cells")
    out[f"{gap}.flagged"] = per_call(gap, "flagged")
    out["compare.rt_gap_csv.ms"] = ms("compare.rt_gap_csv")

    cli_by_command = defaultdict(list)
    for i in by_name["cli.main"]:
        cli_by_command[kinds[spans[i][OP]]].append(dur(i) / 1e6)
    for command in ("neff", "sir", "bias-curves", "rt-gap", "decompose", "sensitivity",
                    "compare", "allocate", "mc-verify"):
        out[f"cli.{command}.ms"] = _median(cli_by_command[command])

    op_total = child_total = 0
    for i in by_name["op"]:
        op_total += dur(i)
        child_total += dur(i) - selfs[i] * factor(i)
    out["trace.coverage"] = ratio(child_total, op_total)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--min-ops", type=int, default=100)
    parser.add_argument("--workdir", required=True, help="relative to the checkout root")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_checkout_package()
    import workloads  # noqa: E402  (needs the checkout's casebias on sys.path)

    warnings.simplefilter("ignore")
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    gauge = SpeedGauge(GAUGE_INTERVAL_S)
    tracer = Tracer() if args.trace else None
    points = _trace_points(workloads) if tracer else []
    if tracer:
        setup_sample = gauge.tick()
        tracer.op_id = -1  # set-up calls count toward the layer metrics too
        _install(tracer, points)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
    if tracer:
        tracer.uninstall()
        tracer.op_id = None
    if args.setup_only:
        print("ready", flush=True)
        return 0

    phases = [_run_passes(workload, gauge, passes=[WARMUP_PASS], max_ops=WARMUP_OPS)]
    timed = _run_passes(
        workload, gauge,
        seconds=args.seconds / 2 if tracer else args.seconds,
        min_ops=args.min_ops // 2 if tracer else args.min_ops,
    )
    phases.append(timed)
    result = {
        "op_ms": sorted(x * 1e3 for x in timed.norm_s),
        "raw_op_ms": sorted(x * 1e3 for x in timed.raw_s),
        "timed_s": sum(timed.norm_s),
        "raw_timed_s": sum(timed.raw_s),
    }
    if tracer:
        op_info: list = []
        _install(tracer, points)
        traced = _run_passes(workload, gauge, passes=timed.passes, tracer=tracer, op_info=op_info)
        tracer.uninstall()
        phases.append(traced)
        layers = _layer_metrics(tracer.spans, op_info, gauge, setup_sample)
        layers["trace.overhead_frac"] = sum(traced.norm_s) / sum(timed.norm_s) - 1.0
        bytes_written = getattr(workload, "bytes_written", {})
        layers["cli.bytes_written"] = float(sum(bytes_written.values()))
        result["layers"] = layers
        tracer.dump(workdir / "spans.jsonl")
    failures = [message for phase in phases for message in phase.failures]
    result.update(
        attempted=sum(phase.attempted for phase in phases),
        failed=sum(phase.failed for phase in phases),
        failures=failures[:20],
        reference_ms=statistics.median(gauge.samples),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
