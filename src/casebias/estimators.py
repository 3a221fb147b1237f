"""Observed-data estimators and their analytic bias predictors.

Covers the two-period ratio estimator for rates of change, the log-ratio
estimator of the effective reproduction number, bias curves along an SIR
trajectory, exponential smoothing of reported series, and the inversion that
recovers the relative testing rate from a survey-anchored prevalence error:
rho*D_M is a quadratic in the testing differential, solved in closed form.

``period_stats_analytic``, ``error_level`` and ``ratio_bias`` broadcast over
arrays of shares and relative rates (scalars still give floats), so a bias
curve is one array evaluation per M, not a loop over steps.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._domain import AT_LEAST_0, AT_LEAST_2, DRIVER, FRACTION, OPEN_UNIT, POSITIVE, check
from .population import MeasurementModel, SelectionModel
from .decomposition import _flip_mass, corrected_prevalence, d_m
from .effsize import binary_rho
from .epidemic import SirTrajectory

__all__ = [
    "InfeasibleScenarioError",
    "PeriodStats",
    "TwoPeriodContext",
    "error_level",
    "ratio_bias",
    "rt_estimate",
    "rt_error",
    "period_stats_analytic",
    "BiasCurves",
    "bias_curves",
    "bias_curves_csv",
    "exp_smooth",
    "SensitivityResult",
    "forward_rho_dm",
    "solve_delta",
    "estimate_relative_sampling",
    "survey_interval",
]


class InfeasibleScenarioError(RuntimeError):
    """The requested scenario leaves the domain of the estimator algebra."""


@dataclass(frozen=True)
class PeriodStats:
    """Per-period ingredients of the two-period bias formulas (floats, or arrays over periods)."""

    rho: float
    d_m: float
    f: float
    cv: float
    ybar: float

    def __post_init__(self):
        check("f", self.f, OPEN_UNIT)
        check("cv", self.cv, AT_LEAST_0)


@dataclass(frozen=True)
class TwoPeriodContext:
    prev: PeriodStats
    curr: PeriodStats


def error_level(p: PeriodStats) -> float:
    """Relative error level rho * D_M * sqrt((1-f)/f) * CV of one period."""
    e = p.rho * p.d_m * np.sqrt((1.0 - p.f) / p.f) * p.cv
    return e if isinstance(e, np.ndarray) else float(e)


def ratio_bias(ctx: TwoPeriodContext) -> float:
    """Second-order bias of the observed rate of change ybar_t / ybar_{t-1}.

    (Ybar_t/Ybar_{t-1}) * [e_t - e_{t-1}] * [1 - e_{t-1}] with e_j the period
    error levels.  Zero exactly when data quality, quantity, difficulty and
    measurement adjustment all repeat across periods.
    """
    check("previous-period prevalence", ctx.prev.ybar, POSITIVE)
    e_prev = error_level(ctx.prev)
    e_curr = error_level(ctx.curr)
    return (ctx.curr.ybar / ctx.prev.ybar) * (e_curr - e_prev) * (1.0 - e_prev)


def rt_estimate(ybar_t: float, ybar_prev: float, serial_interval: float) -> float:
    """Reproduction-number estimate 1 + log(ybar_t/ybar_{t-1}) / serial_interval."""
    check("ybar_t", ybar_t, POSITIVE)
    check("ybar_prev", ybar_prev, POSITIVE)
    check("serial interval", serial_interval, POSITIVE)
    return 1.0 + math.log(ybar_t / ybar_prev) / serial_interval


def _log_error(ctx: TwoPeriodContext, s_ratio, serial_interval: float):
    """``rt_error`` for scalar or array contexts, with NaN where e <= -1."""
    check("s_ratio", s_ratio, FRACTION)
    check("serial interval", serial_interval, POSITIVE)
    e_prev = error_level(ctx.prev)
    e = (error_level(ctx.curr) - e_prev) * (1.0 - e_prev)
    return (np.log1p(np.where(e > -1.0, e, np.nan)) - np.log(s_ratio)) / serial_interval


def rt_error(ctx: TwoPeriodContext, s_ratio: float, serial_interval: float) -> float:
    """Error of the estimated reproduction number at one step.

    (1/serial_interval) * [log(1 + e) - log(S_t/S_{t-1})] where
    e = (e_t - e_{t-1}) * (1 - e_{t-1}) from the per-period error levels over
    the new-case series.  e <= -1 means the log-scale algebra breaks down and
    raises InfeasibleScenarioError.
    """
    value = float(_log_error(ctx, s_ratio, serial_interval))
    if math.isnan(value):
        raise InfeasibleScenarioError("combined error e <= -1: log(1 + e) undefined")
    return value


def period_stats_analytic(
    ybar: float,
    f: float,
    rel_rate: float,
    meas: MeasurementModel,
) -> PeriodStats:
    """Analytic period ingredients for a binary share ``ybar`` under (f, M).

    rho comes from the binary closed form with Delta implied by (f, M, ybar),
    D_M from the measurement adjustment, and CV from the binary standard
    deviation, sqrt((1-ybar)/ybar).  Broadcasts over array ``ybar`` and
    ``rel_rate``; scalars give float fields.
    """
    check("ybar", ybar, OPEN_UNIT)
    sel = SelectionModel.from_relative_rate(f, rel_rate, ybar)
    rho = binary_rho(sel.delta, ybar, f)
    adj = d_m(sel, meas, ybar)
    cv = np.sqrt((1.0 - ybar) / ybar)
    cv = cv if isinstance(cv, np.ndarray) else float(cv)
    return PeriodStats(rho=rho, d_m=adj, f=f, cv=cv, ybar=ybar)


def _step_context(series: np.ndarray, f: float, rel_rate: float, meas: MeasurementModel):
    """Steps t >= 1 with positive shares at t-1 and t, and those periods as arrays."""
    t = np.nonzero((series[:-1] > 0.0) & (series[1:] > 0.0))[0] + 1
    return t, TwoPeriodContext(
        prev=period_stats_analytic(series[t - 1], f, rel_rate, meas),
        curr=period_stats_analytic(series[t], f, rel_rate, meas),
    )


def _warn_flagged(n_flagged: int) -> None:
    """The warning of ``bias_curves`` and ``rt_gap``, at their caller, for flagged steps."""
    if n_flagged:
        warnings.warn(
            f"{n_flagged} steps flagged (zero shares or log-domain failures)",
            RuntimeWarning,
            stacklevel=3,
        )


def _rt_error_series(n_steps, t, ctx, susceptible, serial_interval, exact_susceptible):
    """``rt_error`` at the new-case steps ``t`` of ``_step_context``, NaN elsewhere."""
    out = np.full(n_steps, np.nan)
    s_ratio = susceptible[t] / susceptible[t - 1] if exact_susceptible else 1.0
    out[t] = _log_error(ctx, s_ratio, serial_interval)
    return out


@dataclass(frozen=True)
class BiasCurves:
    """Per-step bias predictions along a trajectory, one row per step.

    ``ratio_bias`` and ``rt_bias`` have shape (len(rel_rates), n_steps); NaN
    marks skipped steps (nonpositive driving share or log-domain failures),
    with the step indices collected in ``flagged``.
    """

    steps: np.ndarray
    rel_rates: tuple
    ratio_bias: np.ndarray
    rt_bias: np.ndarray
    flagged: tuple


def bias_curves(
    traj: SirTrajectory,
    f: float,
    meas: MeasurementModel,
    rel_rates: Sequence[float],
    serial_interval: float,
    driver: str = "cases",
    exact_susceptible: bool = False,
) -> BiasCurves:
    """Ratio-of-change and reproduction-number bias curves along a trajectory.

    Both curves are driven by the new-case fraction series by default
    (``driver="cases"``); ``driver="prevalence"`` switches the ratio curve to
    the infected fraction.  The reproduction-number curve always follows the
    new-case series, with the susceptible ratio set to 1 unless
    ``exact_susceptible`` pulls it from the trajectory.
    """
    check("driver", driver, DRIVER)
    k_frac = traj.new_case_fraction
    ratio_series = k_frac if driver == "cases" else traj.prevalence[: k_frac.size]
    n_steps = k_frac.size
    rel_rates = tuple(rel_rates)
    ratio_out = np.full((len(rel_rates), n_steps), np.nan)
    rt_out = np.full((len(rel_rates), n_steps), np.nan)
    for m_idx, m in enumerate(rel_rates):
        t, ctx = _step_context(ratio_series, f, m, meas)
        ratio_out[m_idx, t] = ratio_bias(ctx)
        if driver == "prevalence":
            t, ctx = _step_context(k_frac, f, m, meas)
        rt_out[m_idx] = _rt_error_series(
            n_steps, t, ctx, traj.susceptible, serial_interval, exact_susceptible
        )

    # Step 0 has no previous period: NaN by construction, never flagged.
    skipped = np.isnan(ratio_out[:, 1:]) | np.isnan(rt_out[:, 1:])
    flagged = tuple((np.nonzero(skipped.any(axis=0))[0] + 1).tolist())
    _warn_flagged(len(flagged))
    return BiasCurves(
        steps=np.arange(n_steps),
        rel_rates=rel_rates,
        ratio_bias=ratio_out,
        rt_bias=rt_out,
        flagged=flagged,
    )


def bias_curves_csv(curves: BiasCurves) -> str:
    """CSV rows step,M,ratio_bias,rt_bias (NaN cells rendered as nan)."""
    lines = ["step,M,ratio_bias,rt_bias"]
    steps = curves.steps.tolist()
    for m, ratio, rt in zip(curves.rel_rates, curves.ratio_bias[:, curves.steps].tolist(),
                            curves.rt_bias[:, curves.steps].tolist()):
        lines += [f"{t},{m:g},{a:.6g},{b:.6g}" for t, a, b in zip(steps, ratio, rt)]
    return "\n".join(lines) + "\n"


def exp_smooth(series: Sequence[float], alpha: float) -> np.ndarray:
    """Exponential smoothing s_0 = x_0, s_t = alpha*x_t + (1-alpha)*s_{t-1}."""
    check("alpha", alpha, FRACTION)
    arr = np.asarray(series, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("series must be nonempty")
    out = np.empty_like(arr)
    out[0] = arr[0]
    for t in range(1, arr.size):
        out[t] = alpha * arr[t] + (1.0 - alpha) * out[t - 1]
    return out


@dataclass(frozen=True)
class SensitivityResult:
    """Outputs of the survey-anchored data-quality inversion."""

    rho_dm: float
    delta: float
    rel_rate: float
    f0: float
    f1: float
    ci_low: float
    ci_high: float


def forward_rho_dm(delta: float, ybar: float, f: float, meas: MeasurementModel) -> float:
    """Forward map Delta -> rho(Delta) * D_M(Delta) at fixed (ybar, f, FP, FN).

    Uses f0 = f - Delta*ybar, the testing rate pair consistent with the
    overall fraction.
    """
    f0 = f - delta * ybar
    sel = SelectionModel(f0=f0, f1=f0 + delta)
    return binary_rho(delta, ybar, f) * d_m(sel, meas, ybar)


def solve_delta(target_rho_dm: float, ybar: float, f: float, meas: MeasurementModel) -> float:
    """Invert the forward map for the testing differential Delta.

    Since f0(1-Ybar) + f1*Ybar = f for every Delta, rho*D_M = c*Delta*(A - B*Delta)
    with c = rho at Delta = 1, A = 1 + FP + FN and B = (Ybar/(1-Ybar)) *
    (FP(1-Ybar)+FN*Ybar) / f.  The bracket keeps both testing rates in (0, 1) and,
    when B > 0, ends at the vertex A/(2B); the root on that increasing branch is
    2t / (A + sqrt(A^2 - 4Bt)) with t = target/c (t/A when B = 0).
    """
    eps = 1e-12
    hi = f / ybar * (1.0 - eps)          # keeps f0 > 0
    hi = min(hi, (1.0 - f) / (1.0 - ybar) * (1.0 - eps))  # keeps f1 < 1
    lo = -f / (1.0 - ybar) * (1.0 - eps)  # keeps f1 > 0
    lo = max(lo, (f - 1.0) / ybar * (1.0 - eps))  # keeps f0 < 1
    a = 1.0 + meas.fp + meas.fn
    b = (ybar / (1.0 - ybar)) * _flip_mass(meas, ybar) / f
    if b > 0.0:
        hi = min(hi, a / (2.0 * b))
    g_lo = forward_rho_dm(lo, ybar, f, meas)
    g_hi = forward_rho_dm(hi, ybar, f, meas)
    if not g_lo <= target_rho_dm <= g_hi:
        raise InfeasibleScenarioError(
            f"no feasible differential: target {target_rho_dm:.6g} outside "
            f"[{g_lo:.6g}, {g_hi:.6g}]"
        )
    t = target_rho_dm / binary_rho(1.0, ybar, f)
    # At g_hi with hi at the vertex, rounding can push the discriminant below 0.
    return 2.0 * t / (a + math.sqrt(max(a * a - 4.0 * b * t, 0.0)))


def _invert_once(error: float, ybar: float, f: float, meas: MeasurementModel):
    """Solve for (rho_dm, delta, M, f0, f1) given a prevalence error."""
    sigma_y = math.sqrt(ybar * (1.0 - ybar))
    rho_dm = math.sqrt(f / (1.0 - f)) * error / sigma_y
    delta = solve_delta(rho_dm, ybar, f, meas)
    f0 = f - delta * ybar
    f1 = f0 + delta
    return rho_dm, delta, f1 / f0, f0, f1


def estimate_relative_sampling(
    survey_prev_adjusted: float,
    observed_prev_adjusted: float,
    f: float,
    meas: MeasurementModel,
    ybar_anchor: Optional[float] = None,
    meas_ranges: Optional[tuple] = None,
) -> SensitivityResult:
    """Relative testing rate implied by a survey-anchored prevalence error.

    The error is the adjusted case-count prevalence minus the adjusted survey
    prevalence; the survey value anchors the true prevalence (override with
    ``ybar_anchor``).  Solving rho*D_M = sqrt(f/(1-f)) * error / sigma_Y for
    the testing differential gives Delta and M = f1/f0.

    ``meas_ranges`` is ((fp_low, fp_high), (fn_low, fn_high)).  When given,
    the interval on M re-solves the whole chain at the four rate corners: the
    raw survey share is recovered by inverting the central correction, then
    re-adjusted at each corner, which moves the error, the anchor, and the
    adjustment together.  The observed adjusted prevalence is held as given.
    A corner that corrects the survey share to 0 or 1 leaves no anchor and
    raises InfeasibleScenarioError.
    """
    check("f", f, OPEN_UNIT)
    check("survey prevalence", survey_prev_adjusted, OPEN_UNIT)
    check("observed prevalence", observed_prev_adjusted, OPEN_UNIT)
    anchor = survey_prev_adjusted
    if ybar_anchor is not None:
        anchor = check("ybar_anchor", ybar_anchor, OPEN_UNIT)
    error = observed_prev_adjusted - survey_prev_adjusted

    rho_dm, delta, rel_rate, f0, f1 = _invert_once(error, anchor, f, meas)

    ci_low = ci_high = rel_rate
    if meas_ranges is not None:
        (fp_lo, fp_hi), (fn_lo, fn_hi) = meas_ranges
        survey_raw = (survey_prev_adjusted + meas.fp) / (1.0 + meas.fp + meas.fn)
        for fp_c in (fp_lo, fp_hi):
            for fn_c in (fn_lo, fn_hi):
                meas_c = MeasurementModel(fp=fp_c, fn=fn_c)
                survey_c = corrected_prevalence(survey_raw, meas_c)
                if not OPEN_UNIT.test(survey_c):
                    raise InfeasibleScenarioError(
                        f"the corner fp = {fp_c:g}, fn = {fn_c:g} corrects the survey "
                        f"share to {survey_c:g}, outside (0, 1)"
                    )
                error_c = observed_prev_adjusted - survey_c
                _, _, m_c, _, _ = _invert_once(error_c, survey_c, f, meas_c)
                ci_low = min(ci_low, m_c)
                ci_high = max(ci_high, m_c)

    return SensitivityResult(
        rho_dm=rho_dm,
        delta=delta,
        rel_rate=rel_rate,
        f0=f0,
        f1=f1,
        ci_low=ci_low,
        ci_high=ci_high,
    )


def survey_interval(p_raw: float, n: int, z: float = 2.0) -> tuple:
    """Sampling interval p +- z*sqrt(p(1-p)/n) for a raw survey share.

    Ends outside [0, 1] are clamped and flagged with a warning, as in ``corrected_prevalence``.
    """
    check("p_raw", p_raw, OPEN_UNIT)
    check("n", n, AT_LEAST_2)
    half = z * math.sqrt(p_raw * (1.0 - p_raw) / n)
    lo, hi = p_raw - half, p_raw + half
    if lo < 0.0 or hi > 1.0:
        warnings.warn(
            f"survey interval [{lo:.6g}, {hi:.6g}] outside [0, 1]; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
    return (max(lo, 0.0), min(hi, 1.0))
