"""Command-line surface: scenario configuration and table/curve emission.

Every subcommand writes deterministic CSV/JSON files (6 significant digits,
sorted keys, LF newlines): identical inputs and seeds give byte-identical
outputs.  Exit codes: 0 success, 1 validation error, 2 infeasible scenario or
failed verification.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import __version__
from .population import (
    DegenerateSampleError,
    MeasurementModel,
    PERFECT_TEST,
    SelectionModel,
    empirical_stats,
    make_population,
    mc_expectation_reference,
    realize,
)
from .decomposition import (
    corrected_prevalence,
    d_m,
    decompose_realization,
    imperfect_error,
    rho_ipz_from_rho_iy,
    sigma_pz_analytic,
)
from .effsize import EffSizeScenario, binary_rho, format_neff_table, neff_table
from .epidemic import SirParams, sir_simulate, trajectory_csv
from .estimators import (
    InfeasibleScenarioError,
    bias_curves,
    bias_curves_csv,
    estimate_relative_sampling,
    exp_smooth,
)
from .compare import (
    PopulationSummary,
    count_diff_error,
    delta_diff_threshold,
    percapita_diff_error,
    population_adjustment,
    prevalence_z,
    rt_gap,
    rt_gap_csv,
    z_eff,
)
from .sampling import (
    design_variance,
    neyman_allocation,
    proportional_allocation,
    srs_variance,
    strata_from_csv,
)
from .series import ingest

__all__ = ["main"]


class _CliError(ValueError):
    """Validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes under our control
        raise _CliError(message)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_floats(raw: str) -> list:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


@dataclass(frozen=True)
class Opt:
    name: str
    typ: Callable
    default: Any = None
    required: bool = False
    help: str = ""

    @property
    def key(self) -> str:
        return self.name.replace("-", "_")


_COMMON = [
    Opt("out", str, ".", help="output directory"),
    Opt("config", str, None, help="flat key = value config file; flags override"),
]

_OPTION_TABLES = {
    "decompose": [
        Opt("ybar", float, required=True, help="true prevalence"),
        Opt("f", float, required=True, help="overall tested fraction"),
        Opt("m", float, required=True, help="relative testing rate f1/f0"),
        Opt("fp", float, 0.0), Opt("fn", float, 0.0),
        Opt("empirical", _parse_bool, False, help="draw one realization instead"),
        Opt("size", int, 100000, help="population size for --empirical"),
        Opt("seed", int, None, help="required with --empirical"),
    ],
    "neff": [
        Opt("f", float, required=True),
        Opt("ybar-grid", _parse_floats, [0.016, 0.036, 0.056, 0.076, 0.096]),
        Opt("m-grid", _parse_floats, [1.2, 1.4, 1.6, 1.8, 2.0]),
        Opt("fp", float, None), Opt("fn", float, None),
    ],
    "sir": [
        Opt("beta", float, required=True), Opt("gamma-rec", float, required=True),
        Opt("size", float, 1e6), Opt("i0", float, 100.0), Opt("r0", float, 0.0),
        Opt("dt", float, 0.1), Opt("horizon", int, 400),
    ],
    "bias-curves": [
        Opt("beta", float, 1.4), Opt("gamma-rec", float, 0.2),
        Opt("size", float, 1e6), Opt("i0", float, 100.0),
        Opt("dt", float, 0.1), Opt("horizon", int, 400),
        Opt("f", float, 0.02), Opt("fp", float, 0.01), Opt("fn", float, 0.15),
        Opt("m-grid", _parse_floats, [2.0, 4.0]),
        Opt("serial-interval", float, 7.0),
        Opt("driver", str, "cases", help="cases or prevalence"),
        Opt("exact-susceptible", _parse_bool, False),
    ],
    "rt-gap": [
        Opt("beta-a", float, 1.4), Opt("beta-b", float, 0.9),
        Opt("gamma-rec", float, 0.2), Opt("size", float, 1e6), Opt("i0", float, 100.0),
        Opt("dt", float, 0.1), Opt("horizon", int, 400),
        Opt("f", float, 0.02), Opt("fp", float, 0.01), Opt("fn", float, 0.2),
        Opt("m", float, 4.0), Opt("serial-interval", float, 7.0),
    ],
    "sensitivity": [
        Opt("f", float, required=True, help="tested fraction on the anchor day"),
        Opt("fp", float, required=True), Opt("fn", float, required=True),
        Opt("survey-prev", float, None, help="adjusted survey prevalence"),
        Opt("observed-prev", float, None, help="adjusted case-count prevalence"),
        Opt("fp-range", _parse_floats, None, help="lo,hi false-positive range"),
        Opt("fn-range", _parse_floats, None, help="lo,hi false-negative range"),
        Opt("series", str, None, help="case-count CSV for the observed side"),
        Opt("cumulative", _parse_bool, False),
        Opt("date", str, None, help="anchor date (ISO) within --series"),
        Opt("alpha", float, 0.3, help="smoothing weight for --series"),
        Opt("survey-raw", float, None, help="raw survey share, corrected internally"),
        Opt("ybar-anchor", float, None, help="override the anchor prevalence"),
    ],
    "compare": [
        Opt("n1", float, required=True), Opt("n2", float, required=True),
        Opt("f1", float, required=True), Opt("f2", float, required=True),
        Opt("ybar1", float, required=True), Opt("ybar2", float, required=True),
        Opt("rho1", float, 0.0), Opt("rho2", float, 0.0),
        Opt("d1", float, 1.0), Opt("d2", float, 1.0),
        Opt("neff1", float, None), Opt("neff2", float, None),
    ],
    "allocate": [
        Opt("strata", str, required=True, help="CSV stratum_id,share,prevalence"),
        Opt("n", int, required=True, help="total sample size"),
        Opt("population", float, None, help="population size for SRS comparison"),
    ],
    "mc-verify": [
        Opt("seed", int, required=True),
        Opt("reps", int, required=True),
        Opt("size", int, 10000), Opt("prevalence", float, 0.1),
        Opt("f0", float, 0.02), Opt("f1", float, 0.04),
        Opt("fp", float, 0.01), Opt("fn", float, 0.15),
    ],
}


def _load_config(path: str) -> dict:
    config = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for sep in ("=", ":"):
            if sep in stripped:
                key, _, raw = stripped.partition(sep)
                config[key.strip().replace("-", "_")] = raw.strip()
                break
        else:
            raise _CliError(f"config line {lineno}: expected 'key = value', got {line!r}")
    return config


def _resolve(args: argparse.Namespace, table: list) -> dict:
    """Merge CLI > config > defaults, converting and validating per option."""
    config = _load_config(args.config) if args.config else {}
    known = {o.key for o in table} | {o.key for o in _COMMON}
    for key in config:
        if key not in known:
            raise _CliError(f"config key {key!r} is not recognized")
    resolved = {}
    for opt in table + _COMMON:
        raw = getattr(args, opt.key, None)
        if raw is None:
            raw = config.get(opt.key)
        if raw is None:
            if opt.required:
                raise _CliError(f"missing required option --{opt.name}")
            resolved[opt.key] = opt.default
            continue
        if isinstance(raw, str):
            try:
                resolved[opt.key] = opt.typ(raw)
            except (TypeError, ValueError) as exc:
                raise _CliError(f"--{opt.name}: {exc}") from None
        else:
            resolved[opt.key] = raw
    return resolved


def _round6(value):
    """Round floats to 6 significant digits recursively for stable output."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    if isinstance(value, (np.floating,)):
        return _round6(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as handle:
        handle.write(text)
    print(path)


def _flags(caught: list) -> list:
    return [str(w.message) for w in caught]


def _write_json(path: Path, inputs: dict, outputs: dict, flags: list) -> None:
    # out/config describe where the run happened, not what it computed; keep
    # the payload byte-identical across working directories.
    inputs = {k: v for k, v in inputs.items() if k not in ("out", "config")}
    payload = {
        "inputs": _round6(inputs),
        "outputs": _round6(outputs),
        "flags": sorted(str(f) for f in flags),
    }
    _write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _meas(opts: dict, fp_key: str = "fp", fn_key: str = "fn") -> MeasurementModel:
    try:
        return MeasurementModel(fp=opts[fp_key], fn=opts[fn_key])
    except ValueError as exc:
        raise _CliError(f"--{fp_key}/--{fn_key}: {exc}") from None


def _cmd_decompose(opts: dict, caught: list) -> int:
    meas = _meas(opts)
    out = Path(opts["out"])
    if opts["empirical"]:
        if opts["seed"] is None:
            raise _CliError("--seed is required with --empirical")
        pop = make_population(opts["size"], opts["ybar"], seed=opts["seed"])
        sel = SelectionModel.from_relative_rate(opts["f"], opts["m"], pop.prevalence)
        stats = empirical_stats(pop, realize(pop, sel, meas, seed=opts["seed"] + 1))
        dec = decompose_realization(pop, stats)
        outputs = {
            "data_quality_term": dec.data_quality_term,
            "interaction_term": dec.interaction_term,
            "bias_term": dec.bias_term,
            "total_error": dec.total_error,
            "observed_minus_true": stats.ybar_star - pop.prevalence,
            "identity_residual": dec.total_error - (stats.ybar_star - pop.prevalence),
            "f_hat": stats.f_hat,
            "rho_iy": stats.rho_iy,
        }
    else:
        sel = SelectionModel.from_relative_rate(opts["f"], opts["m"], opts["ybar"])
        rho = binary_rho(sel.delta, opts["ybar"], opts["f"])
        rho_ipz = rho_ipz_from_rho_iy(rho, sel, meas, opts["ybar"])
        dec = imperfect_error(
            ybar=opts["ybar"],
            f=opts["f"],
            rho_iy=rho,
            rho_ipz=rho_ipz,
            sigma_pz=sigma_pz_analytic(opts["ybar"], meas, exact=True),
            fp=meas.fp,
            fn=meas.fn,
        )
        outputs = {
            "data_quality_term": dec.data_quality_term,
            "interaction_term": dec.interaction_term,
            "bias_term": dec.bias_term,
            "total_error": dec.total_error,
            "rho_iy": rho,
            "rho_ipz": rho_ipz,
            "d_m": d_m(sel, meas, opts["ybar"]),
        }
    _write_json(out / "decomposition.json", opts, outputs, _flags(caught))
    return 0


def _cmd_neff(opts: dict, caught: list) -> int:
    meas = None
    if (opts["fp"] is None) != (opts["fn"] is None):
        raise _CliError("--fp and --fn must be given together")
    if opts["fp"] is not None:
        meas = _meas(opts)
    table = neff_table(opts["ybar_grid"], opts["m_grid"], opts["f"], meas)
    _write(
        Path(opts["out"]) / "neff_table.csv",
        format_neff_table(table, opts["ybar_grid"], opts["m_grid"]),
    )
    if np.isinf(table).all():
        raise InfeasibleScenarioError("every cell is infinite (equal-probability design)")
    return 0


def _sir_params(opts: dict, beta_key: str = "beta") -> SirParams:
    try:
        return SirParams(
            beta=opts[beta_key],
            gamma_rec=opts["gamma_rec"],
            size=opts["size"],
            s0=opts["size"] - opts["i0"] - opts.get("r0", 0.0),
            i0=opts["i0"],
            r0=opts.get("r0", 0.0),
            dt=opts["dt"],
            horizon=opts["horizon"],
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def _cmd_sir(opts: dict, caught: list) -> int:
    traj = sir_simulate(_sir_params(opts))
    _write(Path(opts["out"]) / "trajectory.csv", trajectory_csv(traj))
    return 0


def _cmd_bias_curves(opts: dict, caught: list) -> int:
    if opts["driver"] not in ("cases", "prevalence"):
        raise _CliError("--driver must be cases or prevalence")
    traj = sir_simulate(_sir_params(opts))
    curves = bias_curves(
        traj,
        f=opts["f"],
        meas=_meas(opts),
        rel_rates=opts["m_grid"],
        serial_interval=opts["serial_interval"],
        driver=opts["driver"],
        exact_susceptible=opts["exact_susceptible"],
    )
    _write(Path(opts["out"]) / "bias_curves.csv", bias_curves_csv(curves))
    if np.isnan(curves.ratio_bias[:, 1:]).all() and np.isnan(curves.rt_bias[:, 1:]).all():
        raise InfeasibleScenarioError("every step flagged")
    return 0


def _cmd_rt_gap(opts: dict, caught: list) -> int:
    traj_a = sir_simulate(_sir_params(opts, "beta_a"))
    traj_b = sir_simulate(_sir_params(opts, "beta_b"))
    gap = rt_gap(
        traj_a,
        traj_b,
        f=opts["f"],
        meas=_meas(opts),
        rel_rate=opts["m"],
        serial_interval=opts["serial_interval"],
    )
    _write(Path(opts["out"]) / "rt_gap.csv", rt_gap_csv(gap))
    if len(gap.flagged) >= gap.steps.size - 1:
        raise InfeasibleScenarioError("every step flagged")
    return 0


def _cmd_sensitivity(opts: dict, caught: list) -> int:
    meas = _meas(opts)
    observed = opts["observed_prev"]
    if opts["series"] is not None:
        if opts["date"] is None:
            raise _CliError("--date is required with --series")
        series = ingest(opts["series"], cumulative=opts["cumulative"])
        smooth = exp_smooth(series.positive_fraction, opts["alpha"])
        try:
            anchor_day = datetime.date.fromisoformat(opts["date"])
        except ValueError:
            raise _CliError(f"--date: bad ISO date {opts['date']!r}") from None
        try:
            idx = series.dates.index(anchor_day)
        except ValueError:
            raise _CliError(f"--date {opts['date']} not present in --series") from None
        observed = corrected_prevalence(float(smooth[idx]), meas)
    if observed is None:
        raise _CliError("give --observed-prev or --series with --date")
    survey = opts["survey_prev"]
    if survey is None:
        if opts["survey_raw"] is None:
            raise _CliError("give --survey-prev or --survey-raw")
        survey = corrected_prevalence(opts["survey_raw"], meas)
    meas_ranges = None
    if (opts["fp_range"] is None) != (opts["fn_range"] is None):
        raise _CliError("--fp-range and --fn-range must be given together")
    if opts["fp_range"] is not None:
        if len(opts["fp_range"]) != 2 or len(opts["fn_range"]) != 2:
            raise _CliError("--fp-range/--fn-range must be lo,hi pairs")
        meas_ranges = (tuple(opts["fp_range"]), tuple(opts["fn_range"]))
    result = estimate_relative_sampling(
        survey_prev_adjusted=survey,
        observed_prev_adjusted=observed,
        f=opts["f"],
        meas=meas,
        ybar_anchor=opts["ybar_anchor"],
        meas_ranges=meas_ranges,
    )
    outputs = {
        "survey_prev_adjusted": survey,
        "observed_prev_adjusted": observed,
        "error": observed - survey,
        "rho_dm": result.rho_dm,
        "delta": result.delta,
        "m": result.rel_rate,
        "f0": result.f0,
        "f1": result.f1,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
    }
    _write_json(Path(opts["out"]) / "sensitivity.json", opts, outputs, _flags(caught))
    return 0


def _cmd_compare(opts: dict, caught: list) -> int:
    def summary(i: str) -> PopulationSummary:
        ybar = opts[f"ybar{i}"]
        return PopulationSummary(
            size=opts[f"n{i}"],
            f=opts[f"f{i}"],
            ybar_hat=ybar,
            rho=opts[f"rho{i}"],
            d_m=opts[f"d{i}"],
            sigma_y=math.sqrt(ybar * (1.0 - ybar)),
        )

    a, b = summary("1"), summary("2")
    zs = prevalence_z(a, b)
    count = count_diff_error(a, b)
    percap = percapita_diff_error(a, b)
    pooled_ybar = 0.5 * (a.ybar_hat + b.ybar_hat)
    outputs = {
        "z": zs.z,
        "z_analytic": zs.z_analytic,
        "population_adjustment": population_adjustment(a.size, b.size),
        "delta_diff_threshold": delta_diff_threshold(
            a.size, b.size, 0.5 * (a.f + b.f), pooled_ybar
        ),
        "count_selection_term": count.selection_term,
        "count_scale_term": count.scale_term,
        "percapita_selection_term": percap.selection_term,
        "percapita_scale_term": percap.scale_term,
    }
    if (opts["neff1"] is None) != (opts["neff2"] is None):
        raise _CliError("--neff1 and --neff2 must be given together")
    if opts["neff1"] is not None:
        outputs["z_eff"] = z_eff(
            a.ybar_hat,
            b.ybar_hat,
            opts["neff1"],
            opts["neff2"],
            0.5 * (a.f + b.f),
            math.sqrt(pooled_ybar * (1.0 - pooled_ybar)),
        )
    _write_json(Path(opts["out"]) / "compare.json", opts, outputs, _flags(caught))
    return 0


def _cmd_allocate(opts: dict, caught: list) -> int:
    strata = strata_from_csv(opts["strata"])
    alloc = neyman_allocation(strata, opts["n"])
    prop = proportional_allocation(strata, opts["n"])
    lines = ["stratum_id,share,prevalence,neyman_n,proportional_n"]
    for i, (s, n_h, p_h) in enumerate(zip(strata, alloc, prop)):
        lines.append(f"{i},{s.share:.6g},{s.prevalence:.6g},{int(n_h)},{int(p_h)}")
    out = Path(opts["out"])
    _write(out / "allocation.csv", "\n".join(lines) + "\n")
    pooled = sum(s.share * s.prevalence for s in strata)
    outputs = {
        "neyman_variance": design_variance(strata, alloc),
        "proportional_variance": design_variance(strata, prop),
        "pooled_prevalence": pooled,
    }
    if opts["population"] is not None:
        outputs["srs_variance"] = srs_variance(pooled, opts["n"], opts["population"])
    outputs["srs_variance_wr"] = srs_variance(pooled, opts["n"], 0, fpc=False)
    _write_json(out / "allocation.json", opts, outputs, _flags(caught))
    return 0


def _cmd_mc_verify(opts: dict, caught: list) -> int:
    if opts["reps"] < 2:
        raise _CliError("--reps must be >= 2")
    pop = make_population(opts["size"], opts["prevalence"], seed=opts["seed"])
    srs = SelectionModel(f0=opts["f0"], f1=opts["f0"])
    sel = SelectionModel(f0=opts["f0"], f1=opts["f1"])
    meas = _meas(opts)
    checks = {}

    est = mc_expectation_reference(
        pop, srs, PERFECT_TEST, "rho_iy", opts["reps"], opts["seed"] + 1
    )
    checks["srs_rho_zero"] = {
        "value": est.mean,
        "bound": 3 * est.std_error,
        "passed": abs(est.mean) < 3 * est.std_error,
    }
    est = mc_expectation_reference(
        pop, srs, PERFECT_TEST, "rho_iy_sq", opts["reps"], opts["seed"] + 2
    )
    target = 1.0 / (pop.size - 1)
    checks["srs_rho_sq"] = {
        "value": est.mean,
        "target": target,
        "bound": 3 * est.std_error,
        "passed": abs(est.mean - target) < 3 * est.std_error,
    }
    est = mc_expectation_reference(
        pop, srs, PERFECT_TEST, "ybar_star", opts["reps"], opts["seed"] + 3
    )
    checks["epsem_unbiased"] = {
        "value": est.mean,
        "target": pop.prevalence,
        "bound": 3 * est.std_error,
        "passed": abs(est.mean - pop.prevalence) < 3 * est.std_error,
    }

    worst = 0.0
    master = np.random.SeedSequence(opts["seed"] + 4)
    used = 0
    for child in master.spawn(opts["reps"]):
        r = realize(pop, sel, meas, child)
        try:
            stats = empirical_stats(pop, r)
        except DegenerateSampleError:
            continue
        dec = decompose_realization(pop, stats)
        lhs = stats.ybar_star - pop.prevalence
        denom = max(abs(lhs), 1e-2)
        worst = max(worst, abs(dec.total_error - lhs) / denom)
        used += 1
    checks["exact_identity"] = {
        "worst_relative_residual": worst,
        "replications": used,
        "passed": bool(used > 0 and worst < 1e-10),
    }

    all_passed = all(c["passed"] for c in checks.values())
    _write_json(
        Path(opts["out"]) / "mc_verify.json",
        opts,
        {"checks": checks, "all_passed": all_passed},
        _flags(caught),
    )
    return 0 if all_passed else 2


_COMMANDS = {
    "decompose": _cmd_decompose,
    "neff": _cmd_neff,
    "sir": _cmd_sir,
    "bias-curves": _cmd_bias_curves,
    "rt-gap": _cmd_rt_gap,
    "sensitivity": _cmd_sensitivity,
    "compare": _cmd_compare,
    "allocate": _cmd_allocate,
    "mc-verify": _cmd_mc_verify,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="casebias", description=__doc__)
    parser.add_argument("--version", action="version", version=f"casebias {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name, table in _OPTION_TABLES.items():
        p = sub.add_parser(name, help=f"{name} outputs")
        for opt in table + _COMMON:
            p.add_argument(f"--{opt.name}", default=None, help=opt.help)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _CliError("a subcommand is required (see --help)")
        table = _OPTION_TABLES[args.command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            opts = _resolve(args, table)
            code = _COMMANDS[args.command](opts, caught)
            for flag in _flags(caught):
                print(f"flag: {flag}", file=sys.stderr)
        return code
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleScenarioError, DegenerateSampleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
