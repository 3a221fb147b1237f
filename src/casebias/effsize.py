"""Effective-sample-size bounds and MSE diagnostics for selective testing.

For binary outcomes the data quality has the closed form
rho = Delta * sqrt(Ybar(1-Ybar) / (f(1-f))), so a scenario described by an
overall tested fraction ``f``, a relative testing rate ``M = f1/f0`` and a
prevalence pins the whole error budget.  The bound

    n_eff <= f/(1-f) * 1 / (rho * D_M)^2

converts that budget into the size of the equal-probability sample with the
same mean squared error (D_M = 1 without measurement error).  E[rho^2] is
approximated by rho^2 throughout; Monte Carlo counterparts live in
``population.mc_expectation``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._domain import AT_LEAST_2, OPEN_UNIT, check
from .population import MeasurementModel, SelectionModel, PERFECT_TEST
from .decomposition import d_m, meas_adjustment

__all__ = [
    "EffSizeScenario",
    "binary_rho",
    "neff_bound",
    "neff_table",
    "format_neff_table",
    "mse_vs_srs",
    "relative_mse",
    "relative_mse_mc",
    "CapacityTradeoff",
    "capacity_tradeoff",
]


@dataclass(frozen=True)
class EffSizeScenario:
    """Testing scenario: prevalence, relative rate M = f1/f0, overall fraction f."""

    ybar: float
    rel_rate: float
    f: float
    meas: Optional[MeasurementModel] = None

    def __post_init__(self):
        check("ybar", self.ybar, OPEN_UNIT)
        check("f", self.f, OPEN_UNIT)
        sel = self.selection  # checks rel_rate
        if not 0.0 < sel.f0 <= 1.0 or sel.f1 > 1.0:
            raise ValueError("derived testing rates leave [0, 1]")

    @property
    def selection(self) -> SelectionModel:
        return SelectionModel.from_relative_rate(self.f, self.rel_rate, self.ybar)

    @property
    def delta(self) -> float:
        return self.selection.delta

    @property
    def sigma_y(self) -> float:
        return math.sqrt(self.ybar * (1.0 - self.ybar))


def binary_rho(delta: float, ybar: float, f: float) -> float:
    """Binary-outcome data quality Delta * sqrt(Ybar(1-Ybar)/(f(1-f))), elementwise."""
    check("ybar", ybar, OPEN_UNIT)
    check("f", f, OPEN_UNIT)
    rho = delta * np.sqrt(ybar * (1.0 - ybar) / (f * (1.0 - f)))
    return rho if isinstance(rho, np.ndarray) else float(rho)


def neff_bound(scenario: EffSizeScenario) -> float:
    """Equivalent equal-probability sample size for a testing scenario.

    Infinite (with a warning) when the scenario is equal-probability sampling,
    where the analytic rho vanishes.
    """
    rho = binary_rho(scenario.delta, scenario.ybar, scenario.f)
    if rho == 0.0:
        warnings.warn(
            "equal-probability scenario: analytic rho is 0, bound is infinite",
            RuntimeWarning,
            stacklevel=2,
        )
        return math.inf
    adj = 1.0
    if scenario.meas is not None and not scenario.meas.is_perfect:
        adj = d_m(scenario.selection, scenario.meas, scenario.ybar)
    f = scenario.f
    return float(f / (1.0 - f) / (rho * adj) ** 2)


def neff_table(
    ybar_grid: Sequence[float],
    rel_rate_grid: Sequence[float],
    f: float,
    meas: Optional[MeasurementModel] = None,
) -> np.ndarray:
    """Floored effective-sample-size bounds, rows by prevalence, columns by M."""
    ybar_grid = list(ybar_grid)
    rel_rate_grid = list(rel_rate_grid)
    if not ybar_grid or not rel_rate_grid:
        raise ValueError("grids must be nonempty")
    out = np.empty((len(ybar_grid), len(rel_rate_grid)))
    for i, ybar in enumerate(ybar_grid):
        for j, m in enumerate(rel_rate_grid):
            bound = neff_bound(EffSizeScenario(ybar=ybar, rel_rate=m, f=f, meas=meas))
            out[i, j] = math.floor(bound) if math.isfinite(bound) else math.inf
    return out


def format_neff_table(
    table: np.ndarray,
    ybar_grid: Sequence[float],
    rel_rate_grid: Sequence[float],
) -> str:
    """CSV rendering with two-decimal cells, prevalence down, M across."""
    lines = ["ybar," + ",".join(f"{m:g}" for m in rel_rate_grid)]
    for ybar, row in zip(ybar_grid, table):
        cells = ",".join("inf" if math.isinf(v) else f"{v:.2f}" for v in row)
        lines.append(f"{ybar:g},{cells}")
    return "\n".join(lines) + "\n"


def mse_vs_srs(size: int, exp_rho_sq: float) -> float:
    """MSE relative to equal-probability sampling: (N-1) * E[rho^2]."""
    check("size", size, AT_LEAST_2)
    return float((size - 1) * exp_rho_sq)


def _scenario_error(
    scenario: EffSizeScenario,
    estimator: str,
    include_bias: bool,
    adjustment: str,
) -> float:
    """Expectation-level error of the estimator under a scenario.

    ``adjustment="scenario"`` uses the scenario brackets (``meas_adjustment``
    and ``d_m``), the convention every downstream bound is built on;
    ``adjustment="expectation"`` uses the exact expectation of each estimator
    (the first two bracket terms combine to rho*sigma*(1-FP-FN)), which is
    what the Monte Carlo engine reproduces.
    """
    meas = scenario.meas or PERFECT_TEST
    rho = binary_rho(scenario.delta, scenario.ybar, scenario.f)
    quantity = math.sqrt((1.0 - scenario.f) / scenario.f)
    base = rho * quantity * scenario.sigma_y
    bias = meas.fp - (meas.fp + meas.fn) * scenario.ybar
    sel = scenario.selection
    if adjustment == "scenario":
        if estimator == "uncorrected":
            err = base * meas_adjustment(sel, meas, scenario.ybar)
            if include_bias:
                err += bias
            return err
        if estimator == "corrected":
            # The correction removes the bias term by construction.
            return base * d_m(sel, meas, scenario.ybar)
    elif adjustment == "expectation":
        rates = meas.fp + meas.fn
        if estimator == "uncorrected":
            err = base * (1.0 - rates)
            if include_bias:
                err += bias
            return err
        if estimator == "corrected":
            return base * (1.0 - rates) * (1.0 + rates) + bias * rates
    else:
        raise ValueError(f"unknown adjustment {adjustment!r}")
    raise ValueError(f"unknown estimator {estimator!r}")


def relative_mse(
    with_meas: EffSizeScenario,
    without: EffSizeScenario,
    estimator: str = "uncorrected",
    include_bias: bool = True,
    adjustment: str = "scenario",
) -> float:
    """Ratio of the scenario MSE to the MSE of the same design with a perfect test.

    Both scenarios must share (ybar, M, f); ``without`` must carry no
    measurement error.  The default squares the expectation-level error of
    the raw observed fraction, bias term included, under the scenario-bracket
    convention; ``estimator="corrected"`` switches to the adjusted estimator
    and ``adjustment="expectation"`` to the exact-expectation convention that
    ``relative_mse_mc`` reproduces.
    """
    if (with_meas.ybar, with_meas.rel_rate, with_meas.f) != (
        without.ybar,
        without.rel_rate,
        without.f,
    ):
        raise ValueError("scenarios must share (ybar, rel_rate, f)")
    if without.meas is not None and not without.meas.is_perfect:
        raise ValueError("reference scenario must have a perfect test")
    err = _scenario_error(with_meas, estimator, include_bias, adjustment)
    err0 = _scenario_error(without, "uncorrected", False, adjustment)
    return float((err / err0) ** 2)


def relative_mse_mc(
    with_meas: EffSizeScenario,
    without: EffSizeScenario,
    size: int,
    replications: int,
    seed,
    estimator: str = "uncorrected",
):
    """Monte Carlo counterpart of ``relative_mse``: squared-mean-error ratio.

    Estimates the expectation-level error of each estimator by averaging over
    replications, squares the means, and returns (ratio, standard_error) with
    the error propagated from the two mean estimates.  Agrees with
    ``relative_mse(..., adjustment="expectation")`` within Monte Carlo noise.
    ``seed`` may be an int, a SeedSequence or a Generator.
    """
    from .population import make_population, mc_expectation
    from .decomposition import corrected_prevalence

    if (with_meas.ybar, with_meas.rel_rate, with_meas.f) != (
        without.ybar,
        without.rel_rate,
        without.f,
    ):
        raise ValueError("scenarios must share (ybar, rel_rate, f)")
    meas = with_meas.meas or PERFECT_TEST
    pop = make_population(size, with_meas.ybar, seed=0)
    sel = with_meas.selection

    if estimator == "uncorrected":
        func = "error"
    elif estimator == "corrected":
        def func(p, s):
            return corrected_prevalence(s.ybar_star, meas) - p.prevalence
    else:
        raise ValueError(f"unknown estimator {estimator!r}")

    # Both estimates draw from one generator, so any seed form works.
    rng = np.random.default_rng(seed)
    num = mc_expectation(pop, sel, meas, func, replications, rng)
    den = mc_expectation(pop, sel, PERFECT_TEST, "error", replications, rng)
    ratio = (num.mean / den.mean) ** 2
    # Delta method on the squared ratio.
    se = abs(ratio) * 2.0 * math.sqrt(
        (num.std_error / num.mean) ** 2 + (den.std_error / den.mean) ** 2
    )
    return float(ratio), float(se)


@dataclass(frozen=True)
class CapacityTradeoff:
    """What a capacity change buys once test quality moves with it."""

    mse_reduction: float
    mse_reduction_naive: float
    neff_factor: float
    neff_factor_naive: float


def capacity_tradeoff(
    f_before: float,
    f_after: float,
    meas_before: MeasurementModel,
    meas_after: MeasurementModel,
    ybar: float,
    rel_rate: float,
) -> CapacityTradeoff:
    """Effect of scaling the tested fraction when error rates move with it.

    The testing differential Delta is held at its before value (the selection
    protocol is unchanged; only capacity and test quality move), so the
    relative MSE tracks (rho * D_M)^2 and the naive expectation of an
    f -> c*f scale-up is a c^2-fold effective-sample-size gain.
    """
    sel_before = SelectionModel.from_relative_rate(f_before, rel_rate, ybar)
    delta = sel_before.delta
    f0_after = f_after - delta * ybar
    sel_after = SelectionModel(f0=f0_after, f1=f0_after + delta)

    rho_b = binary_rho(delta, ybar, f_before)
    rho_a = binary_rho(delta, ybar, f_after)
    d_b = d_m(sel_before, meas_before, ybar)
    d_a = d_m(sel_after, meas_after, ybar)

    mse_ratio_naive = (rho_a / rho_b) ** 2
    mse_ratio = mse_ratio_naive * (d_a / d_b) ** 2
    quantity_gain = (f_after / (1.0 - f_after)) / (f_before / (1.0 - f_before))
    return CapacityTradeoff(
        mse_reduction=float(1.0 - mse_ratio),
        mse_reduction_naive=float(1.0 - mse_ratio_naive),
        neff_factor=float(quantity_gain / mse_ratio),
        neff_factor_naive=float(quantity_gain / mse_ratio_naive),
    )
