"""Command-line surface: scenario configuration and table/curve emission.

Every subcommand writes deterministic CSV/JSON files (6 significant digits,
sorted keys, LF newlines): identical inputs and seeds give byte-identical
outputs.  Exit codes: 0 success, 1 validation error, 2 infeasible scenario or
failed verification.

Every option given as a flag or in ``--config`` is checked against its declared
domain when it is read, used or not, by the library's own check: the message
reads ``--<name> must <wording>, got <value>``, as the library's does.
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
from ._domain import (
    AT_LEAST_1, AT_LEAST_2, CORRELATION, DRIVER, ERROR_RATE, FINITE, FRACTION, NEFF,
    NON_NEGATIVE, OPEN_UNIT, POPULATION, POSITIVE, SEED, UNIT, Domain, check,
)
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
    verify_identity,
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
    domain: Optional[Domain] = None

    @property
    def key(self) -> str:
        return self.name.replace("-", "_")


_COMMON = [
    Opt("out", str, ".", help="output directory"),
    Opt("config", str, None, help="flat key = value config file; flags override"),
]

_OPTION_TABLES = {
    "decompose": [
        Opt("ybar", float, required=True, help="true prevalence", domain=UNIT),
        Opt("f", float, required=True, help="overall tested fraction", domain=FRACTION),
        Opt("m", float, required=True, help="relative testing rate f1/f0", domain=POSITIVE),
        Opt("fp", float, 0.0, domain=ERROR_RATE), Opt("fn", float, 0.0, domain=ERROR_RATE),
        Opt("empirical", _parse_bool, False, help="draw one realization instead"),
        Opt("size", int, 100000, help="population size for --empirical", domain=AT_LEAST_2),
        Opt("seed", int, None, help="required with --empirical", domain=SEED),
    ],
    "neff": [
        Opt("f", float, required=True, domain=OPEN_UNIT),
        Opt("ybar-grid", _parse_floats, [0.016, 0.036, 0.056, 0.076, 0.096], domain=OPEN_UNIT),
        Opt("m-grid", _parse_floats, [1.2, 1.4, 1.6, 1.8, 2.0], domain=POSITIVE),
        Opt("fp", float, None, domain=ERROR_RATE), Opt("fn", float, None, domain=ERROR_RATE),
    ],
    "sir": [
        Opt("beta", float, required=True, domain=POSITIVE),
        Opt("gamma-rec", float, required=True, domain=POSITIVE),
        Opt("size", float, 1e6, domain=POSITIVE), Opt("i0", float, 100.0, domain=NON_NEGATIVE),
        Opt("r0", float, 0.0, domain=NON_NEGATIVE),
        Opt("dt", float, 0.1, domain=POSITIVE), Opt("horizon", int, 400, domain=AT_LEAST_1),
    ],
    "bias-curves": [
        Opt("beta", float, 1.4, domain=POSITIVE), Opt("gamma-rec", float, 0.2, domain=POSITIVE),
        Opt("size", float, 1e6, domain=POSITIVE), Opt("i0", float, 100.0, domain=NON_NEGATIVE),
        Opt("dt", float, 0.1, domain=POSITIVE), Opt("horizon", int, 400, domain=AT_LEAST_1),
        Opt("f", float, 0.02, domain=OPEN_UNIT),
        Opt("fp", float, 0.01, domain=ERROR_RATE), Opt("fn", float, 0.15, domain=ERROR_RATE),
        Opt("m-grid", _parse_floats, [2.0, 4.0], domain=POSITIVE),
        Opt("serial-interval", float, 7.0, domain=POSITIVE),
        Opt("driver", str, "cases", help="cases or prevalence", domain=DRIVER),
        Opt("exact-susceptible", _parse_bool, False),
    ],
    "rt-gap": [
        Opt("beta-a", float, 1.4, domain=POSITIVE), Opt("beta-b", float, 0.9, domain=POSITIVE),
        Opt("gamma-rec", float, 0.2, domain=POSITIVE), Opt("size", float, 1e6, domain=POSITIVE),
        Opt("i0", float, 100.0, domain=NON_NEGATIVE),
        Opt("dt", float, 0.1, domain=POSITIVE), Opt("horizon", int, 400, domain=AT_LEAST_1),
        Opt("f", float, 0.02, domain=OPEN_UNIT),
        Opt("fp", float, 0.01, domain=ERROR_RATE), Opt("fn", float, 0.2, domain=ERROR_RATE),
        Opt("m", float, 4.0, domain=POSITIVE),
        Opt("serial-interval", float, 7.0, domain=POSITIVE),
    ],
    "sensitivity": [
        Opt("f", float, required=True, help="tested fraction on the anchor day",
            domain=OPEN_UNIT),
        Opt("fp", float, required=True, domain=ERROR_RATE),
        Opt("fn", float, required=True, domain=ERROR_RATE),
        Opt("survey-prev", float, None, help="adjusted survey prevalence", domain=OPEN_UNIT),
        Opt("observed-prev", float, None, help="adjusted case-count prevalence",
            domain=OPEN_UNIT),
        Opt("fp-range", _parse_floats, None, help="lo,hi false-positive range",
            domain=ERROR_RATE),
        Opt("fn-range", _parse_floats, None, help="lo,hi false-negative range",
            domain=ERROR_RATE),
        Opt("series", str, None, help="case-count CSV for the observed side"),
        Opt("cumulative", _parse_bool, False),
        Opt("date", str, None, help="anchor date (ISO) within --series"),
        Opt("alpha", float, 0.3, help="smoothing weight for --series", domain=FRACTION),
        Opt("survey-raw", float, None, help="raw survey share, corrected internally",
            domain=UNIT),
        Opt("ybar-anchor", float, None, help="override the anchor prevalence",
            domain=OPEN_UNIT),
    ],
    "compare": [
        Opt("n1", float, required=True, domain=POPULATION),
        Opt("n2", float, required=True, domain=POPULATION),
        Opt("f1", float, required=True, domain=OPEN_UNIT),
        Opt("f2", float, required=True, domain=OPEN_UNIT),
        Opt("ybar1", float, required=True, domain=UNIT),
        Opt("ybar2", float, required=True, domain=UNIT),
        Opt("rho1", float, 0.0, domain=CORRELATION), Opt("rho2", float, 0.0, domain=CORRELATION),
        Opt("d1", float, 1.0, domain=FINITE), Opt("d2", float, 1.0, domain=FINITE),
        Opt("neff1", float, None, domain=NEFF), Opt("neff2", float, None, domain=NEFF),
    ],
    "allocate": [
        Opt("strata", str, required=True, help="CSV stratum_id,share,prevalence"),
        Opt("n", int, required=True, help="total sample size", domain=AT_LEAST_1),
        Opt("population", float, None, help="population size for SRS comparison",
            domain=POPULATION),
    ],
    "mc-verify": [
        Opt("seed", int, required=True, domain=SEED),
        Opt("reps", int, required=True, domain=AT_LEAST_2),
        Opt("size", int, 10000, domain=AT_LEAST_2),
        Opt("prevalence", float, 0.1, domain=UNIT),
        Opt("f0", float, 0.02, domain=UNIT), Opt("f1", float, 0.04, domain=UNIT),
        Opt("fp", float, 0.01, domain=ERROR_RATE), Opt("fn", float, 0.15, domain=ERROR_RATE),
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


def _read(flag: str, load: Callable, path: str, **kwargs):
    """``load(path, **kwargs)``; a file that cannot be opened is an error naming ``--flag``."""
    try:
        return load(path, **kwargs)
    except OSError as exc:
        raise _CliError(f"--{flag}: cannot read {path!r}: {exc.strerror or exc}") from None


def _resolve(args: argparse.Namespace, table: list) -> dict:
    """Merge CLI > config > defaults; a given value is converted, then checked
    against ``opt.domain``.  Defaults are not checked."""
    config = _read("config", _load_config, args.config) if args.config else {}
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
                raw = opt.typ(raw)
            except (TypeError, ValueError) as exc:
                raise _CliError(f"--{opt.name}: {exc}") from None
        resolved[opt.key] = raw if opt.domain is None else check(f"--{opt.name}", raw, opt.domain)
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


def _selection(opts: dict, prevalence: float) -> SelectionModel:
    try:
        return SelectionModel.from_relative_rate(opts["f"], opts["m"], prevalence)
    except ValueError as exc:
        raise _CliError(f"--f/--m/--ybar: {exc}") from None


def _cmd_decompose(opts: dict, caught: list) -> int:
    meas = _meas(opts)
    out = Path(opts["out"])
    if opts["empirical"]:
        if opts["seed"] is None:
            raise _CliError("--seed is required with --empirical")
        pop = make_population(opts["size"], opts["ybar"], seed=opts["seed"])
        sel = _selection(opts, pop.prevalence)
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
        # The analytic formulas need 0 < ybar < 1 and f < 1; a realization allows the ends.
        check("--ybar", opts["ybar"], OPEN_UNIT)
        check("--f", opts["f"], OPEN_UNIT)
        sel = _selection(opts, opts["ybar"])
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
        flags = "--size/--i0/--r0" if "r0" in opts else "--size/--i0"
        raise _CliError(f"{flags}: {exc}") from None


def _cmd_sir(opts: dict, caught: list) -> int:
    traj = sir_simulate(_sir_params(opts))
    _write(Path(opts["out"]) / "trajectory.csv", trajectory_csv(traj))
    return 0


def _cmd_bias_curves(opts: dict, caught: list) -> int:
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
        series = _read("series", ingest, opts["series"], cumulative=opts["cumulative"])
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
    strata = _read("strata", strata_from_csv, opts["strata"])
    alloc = neyman_allocation(strata, opts["n"])
    prop = proportional_allocation(strata, opts["n"])
    lines = ["stratum_id,share,prevalence,neyman_n,proportional_n"]
    for i, (s, n_h, p_h) in enumerate(zip(strata, alloc, prop)):
        lines.append(f"{i},{s.share:.6g},{s.prevalence:.6g},{int(n_h)},{int(p_h)}")
    pooled = sum(s.share * s.prevalence for s in strata)
    outputs = {
        "neyman_variance": design_variance(strata, alloc),
        "proportional_variance": design_variance(strata, prop),
        "pooled_prevalence": pooled,
    }
    if opts["population"] is not None:
        try:
            outputs["srs_variance"] = srs_variance(pooled, opts["n"], opts["population"])
        except ValueError as exc:
            raise _CliError(f"--n/--population: {exc}") from None
    outputs["srs_variance_wr"] = srs_variance(pooled, opts["n"], 0, fpc=False)
    out = Path(opts["out"])
    _write(out / "allocation.csv", "\n".join(lines) + "\n")
    _write_json(out / "allocation.json", opts, outputs, _flags(caught))
    return 0


def _cmd_mc_verify(opts: dict, caught: list) -> int:
    pop = make_population(opts["size"], opts["prevalence"], seed=opts["seed"])
    srs = SelectionModel(f0=opts["f0"], f1=opts["f0"])
    sel = SelectionModel(f0=opts["f0"], f1=opts["f1"])
    meas = _meas(opts)
    checks = {}
    for name, functional, target, offset in (
        ("srs_rho_zero", "rho_iy", None, 1),
        ("srs_rho_sq", "rho_iy_sq", 1.0 / (pop.size - 1), 2),
        ("epsem_unbiased", "ybar_star", pop.prevalence, 3),
    ):
        est = mc_expectation_reference(
            pop, srs, PERFECT_TEST, functional, opts["reps"], opts["seed"] + offset
        )
        checks[name] = {"value": est.mean, "bound": 3 * est.std_error}
        if target is not None:
            checks[name]["target"] = target
        checks[name]["passed"] = abs(est.mean - (target or 0.0)) < 3 * est.std_error

    worst, used = verify_identity(pop, sel, meas, opts["reps"], opts["seed"] + 4)
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


def _build_parser(command: Optional[str] = None) -> _Parser:
    # argparse formats each option as it adds it: build only the subparser of a
    # named command; help, --version and unknown commands get all nine.
    # --help shows the module docstring without its last paragraph (the domain policy).
    parser = _Parser(prog="casebias", description=(__doc__ or "").rpartition("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"casebias {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name in [command] if command in _OPTION_TABLES else _OPTION_TABLES:
        p = sub.add_parser(name, help=f"{name} outputs")
        for opt in _OPTION_TABLES[name] + _COMMON:
            p.add_argument(f"--{opt.name}", default=None, help=opt.help)
    return parser


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
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
    except ValueError as exc:  # _CliError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except (InfeasibleScenarioError, DegenerateSampleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
