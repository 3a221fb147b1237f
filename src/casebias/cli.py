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
import contextlib
import csv
import datetime
import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import __version__
from ._domain import (
    AT_LEAST_1, AT_LEAST_2, CORRELATION, DRIVER, ERROR_RATE, FINITE, FRACTION, NEFF,
    NON_NEGATIVE, OPEN_UNIT, POPULATION, POSITIVE, SEED, TESTED_FRACTION, UNIT, Domain, check, rows,
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
from .epidemic import SirParams, SirTrajectory, sir_simulate, trajectory_csv
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
    _total,
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
    key: str = field(init=False, repr=False, compare=False)  # name with "_" for "-"

    def __post_init__(self):
        object.__setattr__(self, "key", self.name.replace("-", "_"))


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
        Opt("f", float, required=True, domain=TESTED_FRACTION),
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
        Opt("f", float, 0.02, domain=TESTED_FRACTION),
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
        Opt("f", float, 0.02, domain=TESTED_FRACTION),
        Opt("fp", float, 0.01, domain=ERROR_RATE), Opt("fn", float, 0.2, domain=ERROR_RATE),
        Opt("m", float, 4.0, domain=POSITIVE),
        Opt("serial-interval", float, 7.0, domain=POSITIVE),
    ],
    "sensitivity": [
        Opt("f", float, required=True, help="tested fraction on the anchor day",
            domain=TESTED_FRACTION),
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
        Opt("f1", float, required=True, domain=TESTED_FRACTION),
        Opt("f2", float, required=True, domain=TESTED_FRACTION),
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
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
    return config


def _read(flag: str, load: Callable, path: str, **kwargs):
    """``load(path, **kwargs)``; a file that cannot be opened, decoded or parsed is an
    error naming ``--flag``."""
    try:
        return _named(f"--{flag}", load, path, **kwargs)  # UnicodeDecodeError is a ValueError
    except OSError as exc:
        raise _CliError(f"--{flag}: cannot read {path!r}: {exc.strerror or exc}") from None
    except csv.Error as exc:  # a field over csv's size limit, say; not a ValueError
        raise _CliError(f"--{flag}: {exc}") from None


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


def _json(value, indent: str = "", key: str = "") -> str:
    """``value`` as the JSON text that ``json.dumps(value, sort_keys=True, indent=2)``
    writes once each float is rounded to 6 significant digits, its nested lines
    indented by ``indent`` more.  Dict keys must be strings, sorted as they are.

    The walk visits dict items in insertion order and sorts their texts after, so
    the first NaN or infinite float in insertion order is infeasible, named by its
    dotted ``key``.  A type ``json`` refuses raises ``TypeError``.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InfeasibleScenarioError(f"{key} is {value}")
        return repr(float(f"{value:.6g}"))
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        texts = {k: _json(v, inner, f"{key}.{k}" if key else k) for k, v in value.items()}
        items = [f"{inner}{encode_basestring_ascii(k)}: {texts[k]}" for k in sorted(texts)]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json(v, inner, key) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _text(content, inputs: dict, flags: list) -> str:
    """A file's text: CSV text as it is, JSON outputs wrapped as {inputs, outputs, flags}
    with sorted keys; inputs are walked before outputs, so a non-finite input is named
    first."""
    if isinstance(content, str):
        return content
    return (f'{{\n  "flags": {_json(sorted(flags), "  ")},\n  "inputs": {_json(inputs, "  ")},'
            f'\n  "outputs": {_json(content, "  ")}\n}}\n')


@dataclass(frozen=True)
class _Run:
    """What a command computed: its files in write order (name -> CSV text, or
    name -> outputs of a JSON file), its exit code, and why it is infeasible, if
    it is; an infeasible run exits 2 and still writes the files it holds."""

    files: dict
    code: int = 0
    infeasible: Optional[str] = None


def _named(flags: str, call: Callable, *args, **kwargs):
    """``call(*args, **kwargs)``; a ``ValueError`` it raises is an error naming ``flags``."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise _CliError(f"{flags}: {exc}") from None


def _together(opts: dict, a: str, b: str) -> bool:
    """Whether the options keyed ``a`` and ``b`` are given; one without the other is
    an error naming both flags."""
    if (opts[a] is None) != (opts[b] is None):
        raise _CliError(f"--{a} and --{b} must be given together".replace("_", "-"))
    return opts[a] is not None


def _meas(opts: dict, fp_key: str = "fp", fn_key: str = "fn") -> MeasurementModel:
    return _named(f"--{fp_key}/--{fn_key}", MeasurementModel, fp=opts[fp_key], fn=opts[fn_key])


def _selection(opts: dict, prevalence: float) -> SelectionModel:
    return _named("--f/--m/--ybar", SelectionModel.from_relative_rate,
                  opts["f"], opts["m"], prevalence)


def _cmd_decompose(opts: dict) -> _Run:
    meas = _meas(opts)
    if opts["empirical"]:
        if opts["seed"] is None:
            raise _CliError("--seed is required with --empirical")
        pop = make_population(opts["size"], opts["ybar"], seed=opts["seed"])
        sel = _selection(opts, pop.prevalence)
        stats = empirical_stats(pop, realize(pop, sel, meas, seed=opts["seed"] + 1))
        dec = decompose_realization(pop, stats)
        extra = {
            "observed_minus_true": stats.ybar_star - pop.prevalence,
            "identity_residual": dec.total_error - (stats.ybar_star - pop.prevalence),
            "f_hat": stats.f_hat,
            "rho_iy": stats.rho_iy,
        }
    else:
        # The analytic formulas need 0 < ybar < 1 and f < 1; a realization allows the ends.
        check("--ybar", opts["ybar"], OPEN_UNIT)
        check("--f", opts["f"], TESTED_FRACTION)
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
        extra = {"rho_iy": rho, "rho_ipz": rho_ipz, "d_m": d_m(sel, meas, opts["ybar"])}
    outputs = {
        "data_quality_term": dec.data_quality_term,
        "interaction_term": dec.interaction_term,
        "bias_term": dec.bias_term,
        "total_error": dec.total_error,
        **extra,
    }
    return _Run({"decomposition.json": outputs})


def _cmd_neff(opts: dict) -> _Run:
    meas = _meas(opts) if _together(opts, "fp", "fn") else None
    table = _named("--f/--m-grid/--ybar-grid", neff_table,
                   opts["ybar_grid"], opts["m_grid"], opts["f"], meas)
    infeasible = "every cell is infinite (equal-probability design)"
    return _Run({"neff_table.csv": format_neff_table(table, opts["ybar_grid"], opts["m_grid"])},
                infeasible=infeasible if np.isinf(table).all() else None)


def _trajectory(opts: dict, beta_key: str = "beta") -> SirTrajectory:
    """The SIR path the options describe; a negative or NaN compartment is infeasible."""
    traj = sir_simulate(_named(
        "--size/--i0/--r0" if "r0" in opts else "--size/--i0",
        SirParams,
        beta=opts[beta_key],
        gamma_rec=opts["gamma_rec"],
        size=opts["size"],
        s0=opts["size"] - opts["i0"] - opts.get("r0", 0.0),
        i0=opts["i0"],
        r0=opts.get("r0", 0.0),
        dt=opts["dt"],
        horizon=opts["horizon"],
    ))
    if not traj.min_compartment >= 0.0:  # NaN for a path that is not finite
        raise InfeasibleScenarioError(f"--dt: the smallest compartment is "
                                      f"{traj.min_compartment:g}; decrease --dt")
    return traj


def _cmd_sir(opts: dict) -> _Run:
    return _Run({"trajectory.csv": trajectory_csv(_trajectory(opts))})


def _cmd_bias_curves(opts: dict) -> _Run:
    curves = _named(
        "--f/--m-grid",
        bias_curves,
        _trajectory(opts),
        f=opts["f"],
        meas=_meas(opts),
        rel_rates=opts["m_grid"],
        serial_interval=opts["serial_interval"],
        driver=opts["driver"],
        exact_susceptible=opts["exact_susceptible"],
    )
    every = np.isnan(curves.ratio_bias[:, 1:]).all() and np.isnan(curves.rt_bias[:, 1:]).all()
    return _Run({"bias_curves.csv": bias_curves_csv(curves)},
                infeasible="every step flagged" if every else None)


def _cmd_rt_gap(opts: dict) -> _Run:
    gap = _named(
        "--f/--m",
        rt_gap,
        _trajectory(opts, "beta_a"),
        _trajectory(opts, "beta_b"),
        f=opts["f"],
        meas=_meas(opts),
        rel_rate=opts["m"],
        serial_interval=opts["serial_interval"],
    )
    every = len(gap.flagged) == gap.steps.size  # step 0 is always flagged
    return _Run({"rt_gap.csv": rt_gap_csv(gap)}, infeasible="every step flagged" if every else None)


def _corrected(flags: str, share: float, meas: MeasurementModel) -> float:
    """``share`` corrected for ``meas``.  A non-finite share is an error naming
    ``flags``; a corrected share outside (0, 1) leaves no prevalence to anchor
    on, and is infeasible, naming ``flags`` and --fp/--fn."""
    value = _named(flags, corrected_prevalence, share, meas)
    if not OPEN_UNIT.test(value):
        raise InfeasibleScenarioError(
            f"{flags}/--fp/--fn: the share {share:g} corrects to {value:g}, outside (0, 1)")
    return value


def _cmd_sensitivity(opts: dict) -> _Run:
    meas = _meas(opts)
    observed = opts["observed_prev"]
    if opts["series"] is not None:
        if opts["date"] is None:
            raise _CliError("--date is required with --series")
        series = _read("series", ingest, opts["series"], cumulative=opts["cumulative"])
        try:
            anchor_day = datetime.date.fromisoformat(opts["date"])
        except ValueError:
            raise _CliError(f"--date: bad ISO date {opts['date']!r}") from None
        try:
            idx = series.dates.index(anchor_day)
        except ValueError:
            raise _CliError(f"--date {opts['date']} not present in --series") from None
        # Smoothing is causal: the days after the anchor do not enter.  A day with no
        # tests has no positive share; one on or before the anchor leaves none to smooth.
        shares = series.positive_fraction[:idx + 1]
        smooth = exp_smooth(shares, opts["alpha"])[-1] if np.isfinite(shares).all() else math.nan
        observed = _corrected("--series/--date", float(smooth), meas)
    if observed is None:
        raise _CliError("give --observed-prev or --series with --date")
    survey = opts["survey_prev"]
    if survey is None:
        if opts["survey_raw"] is None:
            raise _CliError("give --survey-prev or --survey-raw")
        survey = _corrected("--survey-raw", opts["survey_raw"], meas)
    meas_ranges = None
    if _together(opts, "fp_range", "fn_range"):
        if len(opts["fp_range"]) != 2 or len(opts["fn_range"]) != 2:
            raise _CliError("--fp-range/--fn-range must be lo,hi pairs")
        meas_ranges = (tuple(opts["fp_range"]), tuple(opts["fn_range"]))
        # Each end is a valid rate; the corner of the two highest can still break fp + fn < 1.
        _meas({"fp-range": max(opts["fp_range"]), "fn-range": max(opts["fn_range"])},
              "fp-range", "fn-range")
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
    return _Run({"sensitivity.json": outputs})


def _cmd_compare(opts: dict) -> _Run:
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
    if _together(opts, "neff1", "neff2"):
        outputs["z_eff"] = z_eff(
            a.ybar_hat,
            b.ybar_hat,
            opts["neff1"],
            opts["neff2"],
            0.5 * (a.f + b.f),
            math.sqrt(pooled_ybar * (1.0 - pooled_ybar)),
        )
    return _Run({"compare.json": outputs})


def _cmd_allocate(opts: dict) -> _Run:
    strata = _read("strata", strata_from_csv, opts["strata"])
    alloc = neyman_allocation(strata, opts["n"])
    prop = proportional_allocation(strata, opts["n"])
    table = "stratum_id,share,prevalence,neyman_n,proportional_n\n" + rows(
        "%d,%.6g,%.6g,%d,%d\n", (range(len(strata)), [s.share for s in strata],
                                 [s.prevalence for s in strata], alloc.tolist(), prop.tolist()))
    pooled = _total(s.share * s.prevalence for s in strata)
    outputs = {
        "neyman_variance": design_variance(strata, alloc),
        "proportional_variance": design_variance(strata, prop),
        "pooled_prevalence": pooled,
    }
    if opts["population"] is not None:
        outputs["srs_variance"] = _named(
            "--n/--population", srs_variance, pooled, opts["n"], opts["population"])
    outputs["srs_variance_wr"] = srs_variance(pooled, opts["n"], 0, fpc=False)
    return _Run({"allocation.csv": table, "allocation.json": outputs})


def _cmd_mc_verify(opts: dict) -> _Run:
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
    return _Run({"mc_verify.json": {"checks": checks, "all_passed": all_passed}},
                0 if all_passed else 2)


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


# Each command's "--<name>" -> dest, for its options and _COMMON.
_DESTS = {command: {f"--{opt.name}": opt.key for opt in table + _COMMON}
          for command, table in _OPTION_TABLES.items()}


def _exact_args(argv: list) -> Optional[argparse.Namespace]:
    """What ``_build_parser().parse_args(argv)`` returns when ``argv`` is a command
    name followed only by exact ``--<name> <value>`` pairs of that command's options,
    and no value starts with "-": the command, every dest None, then the given values,
    the last of a repeated flag winning.  None for any other ``argv``, which argparse
    reads, with its help and errors."""
    dests = _DESTS.get(argv[0]) if argv else None
    if dests is None or len(argv) % 2 == 0:
        return None
    values = dict.fromkeys(dests.values())
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in dests or value.startswith("-"):
            return None
        values[dests[flag]] = value
    return argparse.Namespace(command=argv[0], **values)


def _write(path: Path, text: str, opened: list) -> None:
    """``text`` as UTF-8, in a file created or truncated at ``path``, with one
    open and one close; ``path`` joins ``opened`` once the open succeeds."""
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0),
                 0o666)
    opened.append(path)
    try:
        while data:  # os.write may write less than it is given
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


@functools.cache
def _build_parser() -> _Parser:
    """The parser with all nine commands as subparsers, built on first use and then
    reused: parse_args only reads it, and help reads the terminal width when printed."""
    # --help shows the module docstring without its last paragraph (the domain policy).
    parser = _Parser(prog="casebias", description=(__doc__ or "").rpartition("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"casebias {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name, table in _OPTION_TABLES.items():
        command = sub.add_parser(name, help=f"{name} outputs")
        for opt in table + _COMMON:
            command.add_argument(f"--{opt.name}", default=None, help=opt.help)
    return parser


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _exact_args(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        if args.command is None:
            raise _CliError("a subcommand is required (see --help)")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            opts = _resolve(args, _OPTION_TABLES[args.command])
            try:
                run = _COMMANDS[args.command](opts)
            except (InfeasibleScenarioError, DegenerateSampleError) as exc:
                run = _Run({}, infeasible=str(exc))
        flags = [str(w.message) for w in caught]
        # out/config describe where the run happened, not what it computed;
        # keep the payload byte-identical across working directories.
        inputs = {k: v for k, v in opts.items() if k not in ("out", "config")}
        try:  # render every file before writing any
            texts = {name: _text(content, inputs, flags) for name, content in run.files.items()}
        except InfeasibleScenarioError as exc:
            texts, run = {}, _Run({}, infeasible=str(exc))
        out = Path(opts["out"])
        opened = []
        try:
            if texts and not os.path.isdir(out):  # mkdir on a dir raises, then catches, EEXIST
                out.mkdir(parents=True, exist_ok=True)
            for name, content in texts.items():
                _write(out / name, content, opened)
        except OSError as exc:  # a failed run leaves no file it opened
            for path in opened:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise _CliError(f"--out: cannot write {opts['out']!r}: {exc.strerror}") from None
        for path in opened:
            print(path)
        for flag in flags:
            print(f"flag: {flag}", file=sys.stderr)
        if run.infeasible:
            print(f"infeasible: {run.infeasible}", file=sys.stderr)
        return 2 if run.infeasible else run.code
    except ValueError as exc:  # _CliError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
