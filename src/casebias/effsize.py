"""Effective-sample-size bounds and MSE diagnostics for selective testing.

For binary outcomes the data quality has the closed form
rho = Delta * sqrt(Ybar(1-Ybar) / (f(1-f))), so a scenario described by an
overall tested fraction ``f``, a relative testing rate ``M = f1/f0`` and a
prevalence pins the whole error budget.  The bound

    n_eff <= f/(1-f) * 1 / (rho * D_M)^2

converts that budget into the size of the equal-probability sample with the
same mean squared error (D_M = 1 without measurement error).  With
Delta = f(M-1)/(Ybar(M-1)+1) the tested fraction cancels:

    n_eff <= ((Ybar(M-1)+1)/(M-1))^2 / (Ybar(1-Ybar) D_M^2),

so testing more at the same relative rate M buys no effective sample.
``neff_bound`` evaluates that form: a scenario may hold arrays that broadcast
together, and ``neff_table`` is a single evaluation over a (prevalence x M)
grid, with one warning for all its infinite cells.  E[rho^2] is approximated
by rho^2 throughout; Monte Carlo counterparts live in
``population.mc_expectation``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._domain import FINITE, INTEGER_AT_LEAST_2, NON_NEGATIVE, OPEN_UNIT, POPULATION, POSITIVE
from ._domain import TESTED_FRACTION, check, float_or_array, label, notice, rows
from .population import MeasurementModel, SelectionModel, PERFECT_TEST
from .population import PopulationCounts, mc_expectation
from .decomposition import _bracket, _corrected, _delta_per_f, d_m

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
    """Testing scenario: prevalence, relative rate M = f1/f0, overall fraction f.

    The three may be arrays that broadcast together; ``selection`` holds the
    testing rates they imply.
    """

    ybar: float
    rel_rate: float
    f: float
    meas: Optional[MeasurementModel] = None
    selection: SelectionModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check("ybar", self.ybar, OPEN_UNIT)
        check("f", self.f, TESTED_FRACTION)
        sel = SelectionModel.from_relative_rate(self.f, self.rel_rate, self.ybar)
        # A tiny f with a huge M underflows f0 to 0, which would read as equal-probability.
        check("f0", sel.f0, POSITIVE)
        object.__setattr__(self, "selection", sel)

    @property
    def delta(self) -> float:
        return self.selection.delta

    @property
    def sigma_y(self) -> float:
        return math.sqrt(self.ybar * (1.0 - self.ybar))


def binary_rho(delta: float, ybar: float, f: float) -> float:
    """Binary-outcome data quality Delta * sqrt(Ybar(1-Ybar)/(f(1-f))), elementwise."""
    check("delta", delta, FINITE)
    check("ybar", ybar, OPEN_UNIT)
    check("f", f, TESTED_FRACTION)
    return float_or_array(delta * np.sqrt(ybar * (1.0 - ybar) / (f * (1.0 - f))))


def neff_bound(scenario: EffSizeScenario) -> float:
    """Equivalent equal-probability sample size f/(1-f) / (rho * D_M)^2, elementwise.

    Evaluated as ((Ybar(M-1)+1)/(M-1))^2 / (Ybar(1-Ybar) D_M^2), where f has
    cancelled and no tiny number is squared.  Infinite where rho * D_M is 0
    (M = 1, as under equal-probability sampling, or D_M = 0) or where the
    bound exceeds a double; one warning per call covers every infinite cell.
    A scalar scenario gives a float.
    """
    ybar, m1 = scenario.ybar, np.asarray(scenario.rel_rate, dtype=float) - 1.0
    meas = scenario.meas or PERFECT_TEST
    # D_M, where f has cancelled; exactly 1.0 for a perfect test.
    adj = _bracket(1.0 + meas.fp + meas.fn, _delta_per_f(scenario.rel_rate, ybar), 1.0, meas, ybar)
    # float_power squares with C pow, as ** on a Python float does; numpy's ** 2 multiplies.
    with np.errstate(divide="ignore", over="ignore"):
        square = np.float_power((ybar * m1 + 1.0) / m1, 2)  # (f / Delta)^2
        bound = square / (ybar * (1.0 - ybar) * np.float_power(adj, 2))
    if np.isinf(bound).any():
        notice("neff bound is infinite: (rho * D_M)^2 is 0 (equal-probability "
               "sampling) or so small that the bound exceeds a double")
    return bound if np.ndim(bound) else float(bound)


def neff_table(
    ybar_grid: Sequence[float],
    rel_rate_grid: Sequence[float],
    f: float,
    meas: Optional[MeasurementModel] = None,
) -> np.ndarray:
    """Floored effective-sample-size bounds, rows by prevalence, columns by M."""
    ybar = np.asarray(ybar_grid, dtype=float)
    rel_rate = np.asarray(rel_rate_grid, dtype=float)
    if not ybar.size or not rel_rate.size:
        raise ValueError("grids must be nonempty")
    return np.floor(neff_bound(EffSizeScenario(ybar[:, None], rel_rate, f, meas)))


def format_neff_table(
    table: np.ndarray,
    ybar_grid: Sequence[float],
    rel_rate_grid: Sequence[float],
) -> str:
    """CSV rendering with two-decimal cells, prevalence down, M across.

    ``table`` must have one row per prevalence and one column per M.
    """
    shape = (len(ybar_grid), len(rel_rate_grid))
    if np.shape(table) != shape:
        raise ValueError(f"table shape {np.shape(table)} does not match the grids {shape}")
    columns = [list(map(label, ybar_grid)), *np.transpose(table).tolist()]
    return "ybar," + ",".join(map(label, rel_rate_grid)) + "\n" + rows(
        "%s" + ",%.2f" * shape[1] + "\n", columns)


def mse_vs_srs(size: int, exp_rho_sq: float) -> float:
    """MSE relative to equal-probability sampling: (N-1) * E[rho^2]."""
    check("size", size, POPULATION)
    check("exp_rho_sq", exp_rho_sq, NON_NEGATIVE)
    return float((size - 1) * exp_rho_sq)


def _scenario_error(
    scenario: EffSizeScenario,
    estimator: str,
    include_bias: bool,
    adjustment: str,
) -> float:
    """Expectation-level error of the estimator under a scenario.

    ``adjustment="scenario"`` uses the scenario brackets (``meas_adjustment``
    and ``d_m`` at Delta/f = (M-1)/(Ybar(M-1)+1)), the convention every
    downstream bound is built on;
    ``adjustment="expectation"`` uses the exact expectation of each estimator
    (the first two bracket terms combine to rho*sigma*(1-FP-FN)), which is
    what the Monte Carlo engine reproduces.
    """
    if adjustment not in ("scenario", "expectation"):
        raise ValueError(f"unknown adjustment {adjustment!r}")
    if estimator not in ("uncorrected", "corrected"):
        raise ValueError(f"unknown estimator {estimator!r}")
    meas, ybar = scenario.meas or PERFECT_TEST, scenario.ybar
    q = _delta_per_f(scenario.rel_rate, ybar)
    base = q * ybar * (1.0 - ybar)  # rho * sqrt((1-f)/f) * sigma_Y, where f has cancelled
    rates = meas.fp + meas.fn
    bias = meas.fp - rates * ybar
    by_scenario = adjustment == "scenario"
    if estimator == "corrected":
        # The correction removes the bias term by construction.
        if by_scenario:
            return base * _bracket(1.0 + meas.fp + meas.fn, q, 1.0, meas, ybar)
        return base * (1.0 - rates) * (1.0 + rates) + bias * rates
    err = base * (_bracket(1.0, q, 1.0, meas, ybar) if by_scenario else 1.0 - rates)
    return err + bias if include_bias else err


def _check_shared(a: EffSizeScenario, b: EffSizeScenario) -> None:
    if (a.ybar, a.rel_rate, a.f) != (b.ybar, b.rel_rate, b.f):
        raise ValueError("scenarios must share (ybar, rel_rate, f)")


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
    _check_shared(with_meas, without)
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

    Averages each estimator's error over replications on the counts of ``size``
    individuals, round(ybar * size) positive, as ``make_population`` fixes them;
    squares the means and returns (ratio, standard_error), the error propagated
    from the two means.  Agrees with ``relative_mse(..., adjustment="expectation")``
    within Monte Carlo noise.  ``seed`` may be an int, a SeedSequence or a Generator.
    The corrected estimator clamps each replication's estimate to [0, 1] as
    ``corrected_prevalence`` does, with one notice per call counting the clamped ones.
    """
    _check_shared(with_meas, without)
    meas = with_meas.meas or PERFECT_TEST
    check("size", size, INTEGER_AT_LEAST_2)  # before round(), which fails on NaN and inf
    pop = PopulationCounts(size, int(round(with_meas.ybar * size)))
    sel = with_meas.selection

    clamped = []  # per usable replication: whether its corrected estimate was clamped
    if estimator == "uncorrected":
        func = "error"
    elif estimator == "corrected":
        def func(p, s):
            value, raw = _corrected(s.ybar_star, meas)
            clamped.append(value != raw)
            return value - p.prevalence
    else:
        raise ValueError(f"unknown estimator {estimator!r}")

    # Both estimates draw from one generator, so any seed form works.
    rng = np.random.default_rng(seed)
    num = mc_expectation(pop, sel, meas, func, replications, rng)
    if any(clamped):
        notice(f"corrected prevalence outside [0, 1] in {sum(clamped)} of {len(clamped)} "
               "replications; clamping")
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
    d_b = _bracket(1.0 + meas_before.fp + meas_before.fn, _delta_per_f(rel_rate, ybar), 1.0,
                   meas_before, ybar)
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
