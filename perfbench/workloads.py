"""The three benchmark workloads: inputs, ops and correctness gates.

Each workload builds its inputs from the workload seed in ``__init__`` (the
set-up a user pays once per process), then hands out its ops one pass at a
time.  An op's ``run`` is the only code that is timed; its ``check`` runs
after it, outside the timed region, and returns failure messages.

Library calls go through module attributes (``population.realize``), never
through names bound at import, so that the traced run sees every call.
"""
from __future__ import annotations

import contextlib
import datetime
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from casebias import cli, compare, decomposition, effsize, epidemic, estimators, population, series

# Ops whose checks compare against checked-in golden outputs on every seed use
# fixed arguments; the seeded ops are also compared byte for byte on this seed.
DEFAULT_SEED = 1
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass
class Op:
    kind: str   # groups ops for per-layer metrics (the CLI subcommand, say)
    label: str  # unique within a pass
    run: Callable[[], Any]
    check: Callable[[Any], list]


def _close(a, b, rtol=1e-9) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=0.0, equal_nan=True))


def _round6(value: float):
    """The CLI's rounding of a float: 6 significant digits, specials as text."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(f"{value:.6g}")


def _csv_matches(text: str, columns: list) -> bool:
    """Every CSV cell equals its source array to 6 significant digits."""
    rows = text.splitlines()[1:]
    if len(rows) != len(columns[0]):
        return False
    parsed = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    return _close(parsed, np.column_stack(columns), rtol=5e-6)


# --------------------------------------------------------------------------
# mc-oracle: the expectation-level oracle at criterion 10's scale.

# Criterion 10's (ybar, M, f, FP, FN) grid.
GRID_12 = [
    (0.05, 1.2, 0.026, 0.005, 0.172),
    (0.05, 2.0, 0.026, 0.01, 0.15),
    (0.091, 1.2, 0.026, 0.005, 0.172),
    (0.091, 2.0, 0.026, 0.05, 0.05),
    (0.091, 1.5, 0.01, 0.005, 0.172),
    (0.15, 1.2, 0.01, 0.01, 0.15),
    (0.15, 2.0, 0.026, 0.005, 0.172),
    (0.15, 1.5, 0.05, 0.05, 0.05),
    (0.3, 1.2, 0.05, 0.01, 0.15),
    (0.3, 2.0, 0.01, 0.005, 0.172),
    (0.5, 1.5, 0.026, 0.01, 0.15),
    (0.5, 2.0, 0.05, 0.05, 0.05),
]

# Criterion 10 uses 3 SE with 1000 replications; over hundreds of checks per
# run that bound would false-alarm on a sizeable share of runs, 5 SE does not.
SE_BOUND = 5.0
IDENTITY_TOL = 1e-10


def forward_functional(pop, stats) -> float:
    """Criterion 10's plug-in estimate of sqrt((1-f)/f) * rho * D_M * sigma_Y."""
    ybar_p = pop.prevalence
    mix = stats.fp_hat * (1 - ybar_p) + stats.fn_hat * ybar_p
    delta_hat = stats.f1_hat - stats.f0_hat
    d_hat = (1 + stats.fp_hat + stats.fn_hat
             - delta_hat * (ybar_p / (1 - ybar_p)) * mix / stats.f_hat)
    return math.sqrt((1 - stats.f_hat) / stats.f_hat) * stats.rho_iy * d_hat * pop.sigma_y


@dataclass
class _GridPoint:
    pop: Any
    sel: Any
    meas: Any
    predictions: dict


def _identity_residuals(point: _GridPoint, reps: int, seed) -> list:
    pairs = []
    for child in seed.spawn(reps):
        r = population.realize(point.pop, point.sel, point.meas, child)
        try:
            stats = population.empirical_stats(point.pop, r)
        except population.DegenerateSampleError:
            continue
        dec = decomposition.decompose_realization(point.pop, stats)
        pairs.append((dec.total_error, stats.ybar_star - point.pop.prevalence))
    return pairs


class MCOracle:
    """One pass runs the four ops at every grid point.

    Each op's seed depends on the workload seed, the grid point and the op
    kind, not on the pass, so every pass repeats the same checks: a run makes
    36 distinct 5-SE checks however long it lasts.
    """

    def __init__(self, seed: int, scale: str, workdir: Path):
        size, self.reps = (100_000, 50) if scale == "full" else (5_000, 30)
        self.seed = seed
        self.points = []
        for idx, (ybar, m, f, fp, fn) in enumerate(GRID_12):
            pop = population.make_population(
                size, ybar, seed=np.random.SeedSequence(seed, spawn_key=(0, idx))
            )
            sel = population.SelectionModel.from_relative_rate(f, m, pop.prevalence)
            meas = population.MeasurementModel(fp, fn)
            f_true = sel.overall_fraction(pop.prevalence)
            rho = effsize.binary_rho(sel.delta, pop.prevalence, f_true)
            predictions = {
                "rho_iy": rho,
                "rho_ipz": decomposition.rho_ipz_from_rho_iy(rho, sel, meas, pop.prevalence),
                "forward": math.sqrt((1 - f_true) / f_true) * pop.sigma_y
                * estimators.forward_rho_dm(sel.delta, pop.prevalence, f_true, meas),
            }
            self.points.append(_GridPoint(pop, sel, meas, predictions))

    def _mc_op(self, point, key, functional, seed) -> Op:
        reps = self.reps

        def check(est) -> list:
            if est.replications + est.degenerate != reps:
                return [f"{key}: {est.replications}+{est.degenerate} != {reps} replications"]
            if not abs(est.mean - point.predictions[key]) < SE_BOUND * est.std_error:
                return [f"{key}: mean {est.mean:.6g} vs {point.predictions[key]:.6g} "
                        f"(se {est.std_error:.3g})"]
            return []

        return Op(
            kind=key,
            label=key,
            run=lambda: population.mc_expectation(
                point.pop, point.sel, point.meas, functional(), reps, seed
            ),
            check=check,
        )

    def pass_ops(self, k: int) -> list:
        def check_identity(pairs) -> list:
            if not pairs:
                return ["identity: every replication degenerate"]
            worst = max(abs(total - lhs) / max(abs(lhs), 1e-2) for total, lhs in pairs)
            return [] if worst < IDENTITY_TOL else [f"identity: residual {worst:.3g}"]

        ops = []
        for idx, point in enumerate(self.points):
            # Fresh objects each pass: mc_expectation spawns from its seed.
            seeds = [np.random.SeedSequence(self.seed, spawn_key=(1, idx, j)) for j in range(4)]
            ops += [
                self._mc_op(point, "rho_iy", lambda: "rho_iy", seeds[0]),
                self._mc_op(point, "rho_ipz", lambda: "rho_ipz", seeds[1]),
                # Looked up per call so that the traced run can wrap it.
                self._mc_op(point, "forward", lambda: forward_functional, seeds[2]),
                Op("identity", "identity",
                   lambda point=point, seed=seeds[3]: _identity_residuals(point, self.reps, seed),
                   check_identity),
            ]
        return ops


# --------------------------------------------------------------------------
# epidemic-sweep: two-country SIR scenarios through the bias-curve layers.

M_GRID = (1.5, 2.0, 3.0, 4.0)
RT_GAP_M = 4.0
SERIAL_INTERVAL = 7.0
# One pass walks every (driver, exact_susceptible) pair once.
CURVE_VARIANTS = (("cases", False), ("prevalence", True), ("cases", True), ("prevalence", False))
CHECKED_STEPS = 8


@dataclass
class _Scenario:
    params_a: Any
    params_b: Any
    f: float
    meas: Any
    steps: np.ndarray  # steps whose cells are recomputed with the scalar formulas


def _scenario(seed: int, k: int, j: int, horizon: int) -> _Scenario:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k, j)))
    beta_a, beta_b = rng.uniform(1.0, 1.8), rng.uniform(0.6, 1.2)
    f = rng.uniform(0.005, 0.05)
    meas = population.MeasurementModel(fp=rng.uniform(0.001, 0.02), fn=rng.uniform(0.05, 0.25))

    def params(beta):
        return epidemic.SirParams(
            beta=beta, gamma_rec=0.2, size=1e6, s0=1e6 - 100.0, i0=100.0,
            dt=0.1, horizon=horizon,
        )

    steps = rng.choice(np.arange(1, horizon), size=min(CHECKED_STEPS, horizon - 1), replace=False)
    return _Scenario(params(beta_a), params(beta_b), f, meas, np.sort(steps))


def _epidemic_run(s: _Scenario, driver: str, exact: bool):
    traj_a = epidemic.sir_simulate(s.params_a)
    traj_b = epidemic.sir_simulate(s.params_b)
    curves = estimators.bias_curves(
        traj_a, s.f, s.meas, M_GRID, SERIAL_INTERVAL, driver=driver, exact_susceptible=exact
    )
    gap = compare.rt_gap(
        traj_a, traj_b, s.f, s.meas, RT_GAP_M, SERIAL_INTERVAL, exact_susceptible=exact
    )
    texts = (
        epidemic.trajectory_csv(traj_a),
        estimators.bias_curves_csv(curves),
        compare.rt_gap_csv(gap),
    )
    return traj_a, traj_b, curves, gap, texts


def _check_sir(name: str, traj) -> list:
    path = np.column_stack([traj.susceptible, traj.infected, traj.removed])
    drift = np.abs(path.sum(axis=1) - traj.size).max()
    out = []
    if not np.isfinite(path).all() or path.min() < 0.0:
        out.append(f"sir {name}: negative or nonfinite compartment")
    if not drift <= 1e-9 * traj.size:
        out.append(f"sir {name}: drift {drift:.3g}")
    return out


def _ctx(series, t, f, m, meas):
    return estimators.TwoPeriodContext(
        prev=estimators.period_stats_analytic(series[t - 1], f, m, meas),
        curr=estimators.period_stats_analytic(series[t], f, m, meas),
    )


def _rt_reference(series, t, f, m, meas, s_ratio):
    """Scalar rt_error at step t, or NaN where the log-scale algebra fails."""
    try:
        return estimators.rt_error(_ctx(series, t, f, m, meas), s_ratio, SERIAL_INTERVAL)
    except estimators.InfeasibleScenarioError:
        return math.nan


def _check_curves(s: _Scenario, traj, curves, driver: str, exact: bool) -> list:
    k_frac = traj.new_case_fraction
    ratio_series = k_frac if driver == "cases" else traj.prevalence[: k_frac.size]
    flagged = set(curves.flagged)
    out = []
    if curves.ratio_bias.shape != (len(M_GRID), k_frac.size):
        return [f"bias_curves: shape {curves.ratio_bias.shape}"]
    # Step 0 has no previous period; it is NaN by construction, not flagged.
    for name, grid in (("ratio", curves.ratio_bias), ("rt", curves.rt_bias)):
        nan_steps = set(np.nonzero(np.isnan(grid[:, 1:]).any(axis=0))[0] + 1)
        if not nan_steps <= flagged:
            out.append(f"bias_curves {name}: NaN on unflagged steps "
                       f"{sorted(nan_steps - flagged)[:5]}")
    for m_idx, m in enumerate(M_GRID):
        for t in s.steps:
            if ratio_series[t - 1] > 0.0 and ratio_series[t] > 0.0:
                ref = estimators.ratio_bias(_ctx(ratio_series, t, s.f, m, s.meas))
                if not _close(curves.ratio_bias[m_idx, t], ref):
                    out.append(f"bias_curves ratio M={m} t={t}: "
                               f"{curves.ratio_bias[m_idx, t]!r} vs {ref!r}")
            if k_frac[t - 1] > 0.0 and k_frac[t] > 0.0:
                s_ratio = traj.susceptible[t] / traj.susceptible[t - 1] if exact else 1.0
                ref = _rt_reference(k_frac, t, s.f, m, s.meas, s_ratio)
                if not _close(curves.rt_bias[m_idx, t], ref):
                    out.append(f"bias_curves rt M={m} t={t}: "
                               f"{curves.rt_bias[m_idx, t]!r} vs {ref!r}")
    return out


def _check_gap(s: _Scenario, traj_a, traj_b, gap, exact: bool) -> list:
    out = []
    flagged = set(gap.flagged)
    for name, traj, true_vals, est in (("A", traj_a, gap.true_a, gap.est_a),
                                       ("B", traj_b, gap.true_b, gap.est_b)):
        off = int(np.nonzero(traj.new_cases > 0.0)[0][0])
        n = gap.steps.size
        if not _close(true_vals, epidemic.true_rt(traj, SERIAL_INTERVAL)[off:off + n]):
            out.append(f"rt_gap {name}: true R_t differs from true_rt")
        if not set(np.nonzero(np.isnan(est))[0]) <= flagged:
            out.append(f"rt_gap {name}: NaN on unflagged steps")
        k = traj.new_case_fraction[off:]
        for t in s.steps:
            if t >= n or t in flagged:
                continue
            s_ratio = traj.susceptible[off + t] / traj.susceptible[off + t - 1] if exact else 1.0
            ref = true_vals[t] + _rt_reference(k, t, s.f, RT_GAP_M, s.meas, s_ratio)
            if not _close(est[t], ref):
                out.append(f"rt_gap {name} t={t}: {est[t]!r} vs {ref!r}")
    return out


def _check_texts(traj, curves, gap, texts) -> list:
    n = traj.new_cases.size
    m_count = len(curves.rel_rates)
    expected = (
        [traj.times[:n], traj.susceptible[:n], traj.infected[:n], traj.removed[:n],
         traj.new_cases, traj.prevalence[:n]],
        [np.tile(curves.steps, m_count), np.repeat(curves.rel_rates, curves.steps.size),
         curves.ratio_bias.ravel(), curves.rt_bias.ravel()],
        [gap.steps, gap.true_a, gap.true_b, gap.est_a, gap.est_b, gap.true_gap, gap.est_gap],
    )
    names = ("trajectory_csv", "bias_curves_csv", "rt_gap_csv")
    return [f"{name}: cells differ from arrays"
            for name, text, cols in zip(names, texts, expected)
            if not _csv_matches(text, cols)]


class EpidemicSweep:
    """One op is one fresh two-country scenario; a pass is four ops."""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.horizon = 400 if scale == "full" else 60

    def pass_ops(self, k: int) -> list:
        ops = []
        for j, (driver, exact) in enumerate(CURVE_VARIANTS):
            s = _scenario(self.seed, k, j, self.horizon)

            def check(result, s=s, driver=driver, exact=exact) -> list:
                traj_a, traj_b, curves, gap, texts = result
                return (_check_sir("A", traj_a) + _check_sir("B", traj_b)
                        + _check_curves(s, traj_a, curves, driver, exact)
                        + _check_gap(s, traj_a, traj_b, gap, exact)
                        + _check_texts(traj_a, curves, gap, texts))

            ops.append(Op(
                kind="scenario",
                label=f"{driver}-{'exact' if exact else 'unit'}",
                run=lambda s=s, driver=driver, exact=exact: _epidemic_run(s, driver, exact),
                check=check,
            ))
        return ops


# --------------------------------------------------------------------------
# cli-reports: every subcommand in process, as a user runs it.

# README arguments; outputs do not depend on the workload seed.
README_COMMANDS = [
    ("neff", ["neff", "--f", "0.026"]),
    ("neff-meas", ["neff", "--f", "0.026", "--fp", "0.005", "--fn", "0.172"]),
    ("sir", ["sir", "--beta", "1.4", "--gamma-rec", "0.2"]),
    ("bias-curves", ["bias-curves"]),
    ("rt-gap", ["rt-gap"]),
    ("decompose", ["decompose", "--ybar", "0.091", "--f", "0.026", "--m", "2",
                   "--fp", "0.005", "--fn", "0.172"]),
    ("decompose-empirical", ["decompose", "--ybar", "0.091", "--f", "0.026", "--m", "2",
                             "--fp", "0.005", "--fn", "0.172", "--empirical", "true",
                             "--seed", "11"]),
    ("sensitivity", ["sensitivity", "--survey-prev", "0.159", "--observed-prev", "0.325",
                     "--f", "0.001", "--fp", "0.005", "--fn", "0.172",
                     "--fp-range", "0.003,0.008", "--fn-range", "0.116,0.240"]),
    ("compare", ["compare", "--n1", "328e6", "--n2", "38e6", "--f1", "0.023",
                 "--f2", "0.023", "--ybar1", "0.1", "--ybar2", "0.1"]),
    ("allocate", ["allocate", "--strata", "{work}/strata.csv", "--n", "1000"]),
    ("mc-verify", ["mc-verify", "--seed", "1", "--reps", "500"]),
]
# README arguments on a case-count CSV drawn from the workload seed.
SERIES_COMMAND = ("sensitivity-series", [
    "sensitivity", "--series", "{work}/cases.csv", "--date", "2020-04-20",
    "--survey-raw", "0.139", "--f", "0.001", "--fp", "0.005", "--fn", "0.172",
])
# Seeded copies of each scalar command per pass, so that scalar calls set the
# op median while the four array-heavy commands set p90.
SEEDED_COPIES = 3


def _g(x: float) -> str:
    return f"{x:.6g}"


def _seeded_commands(rng) -> list:
    u = rng.uniform
    cmds = []
    for i in range(SEEDED_COPIES):
        fp, fn = u(0.002, 0.01), u(0.1, 0.25)
        cmds.append((f"sensitivity-s{i}", [
            "sensitivity", "--survey-prev", _g(u(0.12, 0.2)), "--observed-prev", _g(u(0.25, 0.4)),
            "--f", _g(u(0.0005, 0.003)), "--fp", _g(fp), "--fn", _g(fn),
            "--fp-range", f"{_g(fp * 0.6)},{_g(fp * 1.6)}",
            "--fn-range", f"{_g(fn * 0.7)},{_g(fn * 1.3)}",
        ]))
        neff = ["neff", "--f", _g(u(0.005, 0.05)),
                "--ybar-grid", ",".join(_g(v) for v in np.sort(u(0.01, 0.2, 5))),
                "--m-grid", ",".join(_g(v) for v in np.sort(u(1.1, 3.0, 5)))]
        if i % 2:
            neff += ["--fp", _g(u(0.001, 0.02)), "--fn", _g(u(0.05, 0.25))]
        cmds.append((f"neff-s{i}", neff))
        cmp = ["compare"]
        for key, lo, hi in (("n1", 1e6, 4e8), ("n2", 1e6, 4e8), ("f1", 0.005, 0.05),
                            ("f2", 0.005, 0.05), ("ybar1", 0.02, 0.2), ("ybar2", 0.02, 0.2),
                            ("rho1", 0.0, 0.02), ("rho2", 0.0, 0.02),
                            ("d1", 0.8, 1.2), ("d2", 0.8, 1.2)):
            cmp += [f"--{key}", _g(u(lo, hi))]
        if i % 2:
            cmp += ["--neff1", _g(u(50, 5000)), "--neff2", _g(u(50, 5000))]
        cmds.append((f"compare-s{i}", cmp))
        cmds.append((f"decompose-s{i}", [
            "decompose", "--ybar", _g(u(0.03, 0.3)), "--f", _g(u(0.005, 0.05)),
            "--m", _g(u(1.2, 3.0)), "--fp", _g(u(0.001, 0.02)), "--fn", _g(u(0.05, 0.25)),
        ]))
    return cmds


def _write_series(path: Path, rng) -> None:
    start = datetime.date(2020, 3, 22)
    lines = ["date,total_tests,positive_tests"]
    for day in range(40):
        total = int(rng.integers(800, 5000))
        positive = int(round(total * rng.uniform(0.26, 0.36)))
        lines.append(f"{(start + datetime.timedelta(days=day)).isoformat()},{total},{positive}")
    path.write_text("\n".join(lines) + "\n")


def _argv_value(argv: list, key: str):
    return float(argv[argv.index(f"--{key}") + 1]) if f"--{key}" in argv else None


def _floats(argv: list, key: str) -> list:
    return [float(v) for v in argv[argv.index(f"--{key}") + 1].split(",")]


def _expected_sensitivity(argv: list) -> dict:
    meas = population.MeasurementModel(_argv_value(argv, "fp"), _argv_value(argv, "fn"))
    if "--series" in argv:
        data = series.ingest(argv[argv.index("--series") + 1])
        smooth = estimators.exp_smooth(data.positive_fraction, 0.3)
        idx = data.dates.index(datetime.date.fromisoformat(argv[argv.index("--date") + 1]))
        observed = decomposition.corrected_prevalence(float(smooth[idx]), meas)
        survey = decomposition.corrected_prevalence(_argv_value(argv, "survey-raw"), meas)
        ranges = None
    else:
        observed = _argv_value(argv, "observed-prev")
        survey = _argv_value(argv, "survey-prev")
        ranges = (tuple(_floats(argv, "fp-range")), tuple(_floats(argv, "fn-range")))
    res = estimators.estimate_relative_sampling(
        survey, observed, _argv_value(argv, "f"), meas, meas_ranges=ranges
    )
    return {
        "survey_prev_adjusted": survey, "observed_prev_adjusted": observed,
        "error": observed - survey, "rho_dm": res.rho_dm, "delta": res.delta,
        "m": res.rel_rate, "f0": res.f0, "f1": res.f1,
        "ci_low": res.ci_low, "ci_high": res.ci_high,
    }


def _expected_compare(argv: list) -> dict:
    def summary(i):
        ybar = _argv_value(argv, f"ybar{i}")
        return compare.PopulationSummary(
            size=_argv_value(argv, f"n{i}"), f=_argv_value(argv, f"f{i}"), ybar_hat=ybar,
            rho=_argv_value(argv, f"rho{i}"), d_m=_argv_value(argv, f"d{i}"),
            sigma_y=math.sqrt(ybar * (1.0 - ybar)),
        )

    a, b = summary("1"), summary("2")
    zs = compare.prevalence_z(a, b)
    count = compare.count_diff_error(a, b)
    percap = compare.percapita_diff_error(a, b)
    pooled = 0.5 * (a.ybar_hat + b.ybar_hat)
    out = {
        "z": zs.z, "z_analytic": zs.z_analytic,
        "population_adjustment": compare.population_adjustment(a.size, b.size),
        "delta_diff_threshold": compare.delta_diff_threshold(
            a.size, b.size, 0.5 * (a.f + b.f), pooled
        ),
        "count_selection_term": count.selection_term,
        "count_scale_term": count.scale_term,
        "percapita_selection_term": percap.selection_term,
        "percapita_scale_term": percap.scale_term,
    }
    if "--neff1" in argv:
        out["z_eff"] = compare.z_eff(
            a.ybar_hat, b.ybar_hat, _argv_value(argv, "neff1"), _argv_value(argv, "neff2"),
            0.5 * (a.f + b.f), math.sqrt(pooled * (1.0 - pooled)),
        )
    return out


def _expected_decompose(argv: list) -> dict:
    ybar, f, m = (_argv_value(argv, k) for k in ("ybar", "f", "m"))
    meas = population.MeasurementModel(_argv_value(argv, "fp"), _argv_value(argv, "fn"))
    sel = population.SelectionModel.from_relative_rate(f, m, ybar)
    rho = effsize.binary_rho(sel.delta, ybar, f)
    rho_ipz = decomposition.rho_ipz_from_rho_iy(rho, sel, meas, ybar)
    dec = decomposition.imperfect_error(
        ybar=ybar, f=f, rho_iy=rho, rho_ipz=rho_ipz,
        sigma_pz=decomposition.sigma_pz_analytic(ybar, meas, exact=True), fp=meas.fp, fn=meas.fn,
    )
    return {
        "data_quality_term": dec.data_quality_term, "interaction_term": dec.interaction_term,
        "bias_term": dec.bias_term, "total_error": dec.total_error,
        "rho_iy": rho, "rho_ipz": rho_ipz, "d_m": decomposition.d_m(sel, meas, ybar),
    }


def _expected_neff_csv(argv: list) -> str:
    ybar_grid, m_grid = _floats(argv, "ybar-grid"), _floats(argv, "m-grid")
    meas = None
    if "--fp" in argv:
        meas = population.MeasurementModel(_argv_value(argv, "fp"), _argv_value(argv, "fn"))
    table = effsize.neff_table(ybar_grid, m_grid, _argv_value(argv, "f"), meas)
    return effsize.format_neff_table(table, ybar_grid, m_grid)


def _json_outputs_match(path: Path, expected: dict) -> bool:
    outputs = json.loads(path.read_text())["outputs"]
    return outputs == {k: _round6(float(v)) for k, v in expected.items()}


LIBRARY_CHECKS = {
    "sensitivity": lambda argv, out: _json_outputs_match(
        out / "sensitivity.json", _expected_sensitivity(argv)),
    "compare": lambda argv, out: _json_outputs_match(
        out / "compare.json", _expected_compare(argv)),
    "decompose": lambda argv, out: _json_outputs_match(
        out / "decomposition.json", _expected_decompose(argv)),
    "neff": lambda argv, out: (out / "neff_table.csv").read_text() == _expected_neff_csv(argv),
}


def _run_cli(argv: list) -> int:
    # The CLI prints each written path; keep that off the benchmark's stdout.
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class CliReports:
    """One op is one ``casebias.cli.main`` call; a pass runs every command."""

    def __init__(self, seed: int, scale: str, workdir: Path):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.seed = seed
        # workdir is relative to the working directory (the checkout root), so
        # the paths that the JSON payloads echo do not depend on its location.
        (workdir / "strata.csv").write_text("stratum_id,share,prevalence\na,0.8,0.01\nb,0.2,0.25\n")
        _write_series(workdir / "cases.csv", rng)
        def place(argv):
            return [a.format(work=workdir.as_posix()) for a in argv]

        fixed = [(label, place(argv)) for label, argv in README_COMMANDS]
        seeded = [(SERIES_COMMAND[0], place(SERIES_COMMAND[1]))] + _seeded_commands(rng)
        self.seeded = {label for label, _ in seeded}
        self.commands = fixed + seeded
        self.out_root = workdir / "cli"
        shutil.rmtree(self.out_root, ignore_errors=True)
        self.bytes_written: dict = {}

    def _check(self, label: str, argv: list, code: int) -> list:
        if code != 0:
            return [f"{label}: exit code {code}"]
        out = self.out_root / label
        files = sorted(p for p in out.iterdir() if p.is_file())
        self.bytes_written[label] = sum(p.stat().st_size for p in files)
        failures = []
        if label not in self.seeded or self.seed == DEFAULT_SEED:
            golden = GOLDEN_DIR / label
            names = sorted(p.name for p in golden.iterdir()) if golden.is_dir() else []
            if [p.name for p in files] != names:
                failures.append(f"{label}: files {[p.name for p in files]} vs golden {names}")
            elif any(p.read_bytes() != (golden / p.name).read_bytes() for p in files):
                failures.append(f"{label}: output differs from golden")
        if label in self.seeded and not LIBRARY_CHECKS[argv[0]](argv, out):
            failures.append(f"{label}: outputs differ from the library call")
        # The next run of this command must write its files anew.
        for p in files:
            p.unlink()
        return failures

    def pass_ops(self, k: int) -> list:
        ops = []
        for label, argv in self.commands:
            full = argv + ["--out", str(self.out_root / label)]
            ops.append(Op(
                kind=argv[0],
                label=label,
                run=lambda full=full: _run_cli(full),
                check=lambda code, label=label, argv=argv: self._check(label, argv, code),
            ))
        return ops


WORKLOADS = {
    "mc-oracle": MCOracle,
    "epidemic-sweep": EpidemicSweep,
    "cli-reports": CliReports,
}
