"""Analytic error decompositions for selectively tested binary outcomes.

The observed positive fraction decomposes exactly, realization by
realization, into a data-quality term, an interaction term between selection
and misclassification, and a pure misclassification bias term:

    ybar* - Ybar = sqrt((1-f)/f) * [ rho_IY * sigma_Y
                                     + rho_IPZ * sigma_PZ
                                     + sqrt(f/(1-f)) * (FP - (FP+FN)*Ybar) ]

with Z = 1 - 2Y.  Plugging realized rates and correlations into the right
hand side reproduces the left to machine precision; plugging model rates
gives the expectation-level prediction.

``verify_identity`` checks the identity on a batch of seeded realizations
with one ``stats_from_counts`` call and one array ``decompose_realization``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._domain import ERROR_RATE, FINITE, INTEGER_AT_LEAST_1, NON_NEGATIVE, OPEN_UNIT, POSITIVE
from ._domain import TESTED_FRACTION, UNIT, check, float_or_array, notice
from .population import (
    EmpiricalStats,
    FinitePopulation,
    MeasurementModel,
    PopulationCounts,
    SelectionModel,
    SeedLike,
    _realized_counts,
    _usable,
    stats_from_counts,
)

__all__ = [
    "ErrorDecomposition",
    "AdjustmentFactors",
    "selection_error",
    "imperfect_error",
    "decompose_realization",
    "verify_identity",
    "sigma_pz_analytic",
    "rho_ipz_from_rho_iy",
    "meas_adjustment",
    "meas_adjustment_rel",
    "d_m",
    "adjustment_factors",
    "corrected_prevalence",
    "contaminated_prevalence",
    "trial_effect_bias",
]


@dataclass(frozen=True)
class ErrorDecomposition:
    """Three labeled bracket terms and the total error they imply.

    The terms are the in-bracket quantities; the total is the bracket sum
    scaled by sqrt((1-f)/f).
    """

    data_quality_term: float
    interaction_term: float
    bias_term: float
    total_error: float
    f: float


@dataclass(frozen=True)
class AdjustmentFactors:
    """Both measurement-error brackets for a scenario.

    ``meas_adjustment`` multiplies rho*sigma in the error of the raw observed
    fraction; ``d_m`` is the bracket used with the corrected estimator.
    """

    meas_adjustment: float
    d_m: float


def selection_error(rho_iy: float, f: float, sigma_y: float) -> float:
    """Error of the sample mean: data quality x data quantity x difficulty."""
    check("rho_iy", rho_iy, FINITE)
    check("sampling fraction", f, TESTED_FRACTION)
    check("sigma_y", sigma_y, NON_NEGATIVE)
    return rho_iy * np.sqrt((1.0 - f) / f) * sigma_y


def imperfect_error(
    ybar: float,
    f: float,
    rho_iy: float,
    rho_ipz: float,
    sigma_pz: float,
    fp: float,
    fn: float,
    sigma_y: float | None = None,
) -> ErrorDecomposition:
    """Three-term decomposition of ybar* - Ybar; broadcasts over array inputs.

    Parameters
    ----------
    ybar : true prevalence.
    f : sampling fraction in (0, 1).
    rho_iy, rho_ipz : data quality and observed data quality.
    sigma_pz : standard deviation of P*Z (see ``sigma_pz_analytic``).
    fp, fn : misclassification rates (model or realized).
    sigma_y : optional override of sqrt(ybar*(1-ybar)); used with empirical
        inputs where the population difficulty is known exactly.
    """
    check("ybar", ybar, UNIT)
    check("sampling fraction", f, TESTED_FRACTION)
    check("rho_iy", rho_iy, FINITE)
    if sigma_y is None:
        sigma_y = np.sqrt(ybar * (1.0 - ybar))
    dq = rho_iy * sigma_y
    inter = rho_ipz * sigma_pz
    bias = np.sqrt(f / (1.0 - f)) * (fp - (fp + fn) * ybar)
    total = np.sqrt((1.0 - f) / f) * (dq + inter + bias)
    return ErrorDecomposition(*map(float_or_array, (dq, inter, bias, total, f)))


def decompose_realization(pop: PopulationCounts, stats: EmpiricalStats) -> ErrorDecomposition:
    """Decomposition with realized (scalar or array) rates; total_error = ybar* - Ybar exactly."""
    return imperfect_error(
        ybar=pop.prevalence,
        f=stats.f_hat,
        rho_iy=stats.rho_iy,
        rho_ipz=stats.rho_ipz,
        sigma_pz=stats.sigma_pz,
        fp=stats.fp_hat,
        fn=stats.fn_hat,
        sigma_y=pop.sigma_y,
    )


def verify_identity(pop: FinitePopulation, sel: SelectionModel, meas: MeasurementModel,
                    replications: int, seed: SeedLike) -> tuple[float, int]:
    """``(worst, usable)``: the exact identity on ``mc_expectation_reference``'s realizations.

    ``worst`` is max |total_error - (ybar* - Ybar)| / max(|ybar* - Ybar|, 1e-2) over
    the ``usable`` (non-degenerate) replications, 0.0 when there are none.
    """
    replications = int(check("replications", replications, INTEGER_AT_LEAST_1))
    stats = _usable(*stats_from_counts(pop, _realized_counts(pop, sel, meas, replications, seed)))
    lhs = stats.ybar_star - pop.prevalence
    residual = np.abs(decompose_realization(pop, stats).total_error - lhs)
    residual /= np.maximum(np.abs(lhs), 1e-2)
    return float(residual.max(initial=0.0)), residual.size


def _flip_mass(meas: MeasurementModel, ybar):
    """FP(1-Ybar) + FN*Ybar, the expected flip rate at prevalence Ybar."""
    return meas.fp * (1.0 - ybar) + meas.fn * ybar


def sigma_pz_analytic(ybar: float, meas: MeasurementModel, exact: bool = False) -> float:
    """Standard deviation of the flip variable P*Z for binary outcomes.

    The default is the scenario closed form sqrt(2*Ybar*(FP(1-Ybar)+FN*Ybar)),
    the convention the scenario brackets are built on.  ``exact=True`` returns
    the true population moment sqrt(mix - mean_PZ^2) with
    mix = FP(1-Ybar)+FN*Ybar and mean_PZ = FP(1-Ybar)-FN*Ybar, which is what
    the empirical standard deviation converges to.
    """
    check("ybar", ybar, UNIT)
    mix = _flip_mass(meas, ybar)
    if exact:
        mean_pz = meas.fp * (1.0 - ybar) - meas.fn * ybar
        return float(np.sqrt(mix - mean_pz ** 2))
    return float(np.sqrt(2.0 * ybar * mix))


def rho_ipz_from_rho_iy(
    rho_iy: float,
    sel: SelectionModel,
    meas: MeasurementModel,
    ybar: float,
) -> float:
    """Observed data quality implied by the true data quality.

    From Cov(I, PZ) = -Delta * Ybar(1-Ybar) * (FP+FN) and
    Cov(I, Y) = Delta * Ybar(1-Ybar):

        rho_IPZ = -rho_IY * (FP+FN) * sigma_Y / sigma_PZ

    with the exact sigma_PZ moment.  The sign is always opposite to rho_IY:
    flips are concentrated where selection is concentrated and push the
    observed mean the other way.  The selection design enters only through
    rho_IY itself; ``sel`` is kept for validation and interface symmetry.
    Verified against the Monte Carlo expectation of the empirical correlation
    (the scenario brackets ``meas_adjustment``/``d_m`` follow a different,
    scenario-level convention and are not consistent with this coefficient).
    """
    check("rho_iy", rho_iy, FINITE)
    check("ybar", ybar, OPEN_UNIT)
    check("overall sampling fraction", sel.overall_fraction(ybar), POSITIVE)
    sigma_pz = sigma_pz_analytic(ybar, meas, exact=True)
    if sigma_pz == 0.0:
        # No misclassification anywhere: PZ is identically zero.
        return 0.0
    sigma_y = np.sqrt(ybar * (1.0 - ybar))
    return float(-rho_iy * (meas.fp + meas.fn) * sigma_y / sigma_pz)


def _bracket(base: float, sel: SelectionModel, meas: MeasurementModel, ybar):
    """base - Delta * (Ybar/(1-Ybar)) * (FP(1-Ybar)+FN*Ybar) / f, elementwise, for a
    ``ybar`` already checked to lie in [0, 1)."""
    f = check("overall sampling fraction", sel.overall_fraction(ybar), POSITIVE)
    return float_or_array(base - sel.delta * (ybar / (1.0 - ybar)) * _flip_mass(meas, ybar) / f)


def meas_adjustment(sel: SelectionModel, meas: MeasurementModel, ybar: float) -> float:
    """Bracket multiplying rho*sigma after folding the interaction term in.

    1 - Delta * (Ybar/(1-Ybar)) * (FP(1-Ybar)+FN*Ybar) / f.  Wherever f0 > 0
    it equals the relative-rate form ``meas_adjustment_rel``.
    """
    check("ybar", ybar, ERROR_RATE)
    return _bracket(1.0, sel, meas, ybar)


def meas_adjustment_rel(rel_rate: float, meas: MeasurementModel, ybar: float) -> float:
    """Relative-rate form of the adjustment; depends only on (M, Ybar, FP, FN)."""
    check("rel_rate", rel_rate, POSITIVE)
    check("ybar", ybar, ERROR_RATE)
    mix = _flip_mass(meas, ybar)
    return float(
        1.0
        - (rel_rate - 1.0) * (ybar / (1.0 - ybar)) * mix / ((1.0 - ybar) + rel_rate * ybar)
    )


def d_m(sel: SelectionModel, meas: MeasurementModel, ybar: float) -> float:
    """Measurement adjustment for the corrected estimator.

    1 + FP + FN - Delta * (Ybar/(1-Ybar)) * (FP(1-Ybar)+FN*Ybar) / f.  Reduces
    to 1 for a perfect test and to 1 + FP + FN under equal testing rates.
    Broadcasts over array ``ybar`` and array rates in ``sel``.
    """
    check("ybar", ybar, ERROR_RATE)
    return _d_m(sel, meas, ybar)


def _d_m(sel: SelectionModel, meas: MeasurementModel, ybar):
    """``d_m`` for a ``ybar`` already checked to lie in [0, 1)."""
    return _bracket(1.0 + meas.fp + meas.fn, sel, meas, ybar)


def adjustment_factors(sel: SelectionModel, meas: MeasurementModel, ybar: float) -> AdjustmentFactors:
    return AdjustmentFactors(
        meas_adjustment=meas_adjustment(sel, meas, ybar),
        d_m=d_m(sel, meas, ybar),
    )


def corrected_prevalence(
    ybar_star: float,
    meas: MeasurementModel,
    method: str = "linear",
) -> float:
    """Adjust an observed positive fraction for known test error rates.

    ``linear`` applies ybar* + FN*ybar* - FP*(1-ybar*), the first-order
    correction; ``inverse`` applies the exact inversion
    (ybar* - FP) / (1 - FP - FN), which is unbiased under equal-probability
    sampling.  Results outside [0, 1] are clamped and flagged with a warning
    rather than silently truncated; a non-finite input raises ValueError.
    """
    check("observed prevalence", ybar_star, FINITE)
    value, raw = _corrected(ybar_star, meas, method)
    if value != raw:
        notice(f"corrected prevalence {raw:.6g} outside [0, 1]; clamping")
    return value


def _corrected(ybar_star: float, meas: MeasurementModel, method: str = "linear") -> tuple:
    """``corrected_prevalence`` with no check and no notice: (value clamped to [0, 1], value)."""
    if method == "linear":
        raw = ybar_star + meas.fn * ybar_star - meas.fp * (1.0 - ybar_star)
    elif method == "inverse":
        raw = (ybar_star - meas.fp) / (1.0 - meas.fp - meas.fn)
    else:
        raise ValueError(f"unknown correction method {method!r}")
    return float(min(max(raw, 0.0), 1.0)), raw  # max(raw, 0.0) keeps a -0.0 raw


def contaminated_prevalence(ybar: float, meas: MeasurementModel) -> float:
    """Expected observed fraction under equal-probability sampling."""
    check("ybar", ybar, UNIT)
    return ybar * (1.0 - meas.fn) + (1.0 - ybar) * meas.fp


def trial_effect_bias(beta1: float, exp_rho_iu: float, f: float, sigma_u: float) -> float:
    """Bias of a marginal treatment effect under selective recruitment.

    beta1 * E[rho_IU] * sqrt(f/(1-f)) * sigma_U.  Caution: the quantity factor
    here is sqrt(f/(1-f)), the reciprocal of the sqrt((1-f)/f) factor in
    ``selection_error``; under this convention the bias grows with the recruited
    fraction.
    """
    check("beta1", beta1, FINITE)
    check("sampling fraction", f, OPEN_UNIT)
    return float(beta1 * exp_rho_iu * np.sqrt(f / (1.0 - f)) * sigma_u)
