"""Cross-population comparison statistics under selective testing.

Z-scores for prevalence differences, the population adjustment that makes
them scale with the smaller population, effective-sample-size-aware Z-scores,
error decompositions for raw and per-capita count differences, and two-country
reproduction-number gap trajectories, one array pass over both countries' steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._domain import FINITE, NEFF, NON_NEGATIVE, OPEN_UNIT, POPULATION, POSITIVE, TESTED_FRACTION
from ._domain import UNIT, check, rows
from .population import MeasurementModel
from .epidemic import SirTrajectory, _true_rt
from .estimators import InfeasibleScenarioError, _rt_error_series, _step_context, _warn_flagged

__all__ = [
    "PopulationSummary",
    "ZScore",
    "prevalence_z",
    "starred_z",
    "population_adjustment",
    "delta_diff_threshold",
    "z_eff",
    "DiffError",
    "count_diff_error",
    "percapita_diff_error",
    "RtGap",
    "rt_gap",
    "rt_gap_csv",
]


@dataclass(frozen=True)
class PopulationSummary:
    """One population's size, design and error ingredients."""

    size: float
    f: float
    ybar_hat: float
    rho: float
    d_m: float
    sigma_y: float

    def __post_init__(self):
        for name in ("size", "f", "ybar_hat", "rho", "d_m", "sigma_y"):
            check(name, getattr(self, name), FINITE)
        check("size", self.size, POPULATION)
        check("f", self.f, TESTED_FRACTION)
        check("ybar_hat", self.ybar_hat, UNIT)

    @property
    def n(self) -> float:
        return self.f * self.size

    @property
    def quantity(self) -> float:
        return math.sqrt((1.0 - self.f) / self.f)


@dataclass(frozen=True)
class ZScore:
    """Observed Z-score plus the analytic form of its numerator error."""

    z: float
    z_analytic: float


def prevalence_z(
    a: PopulationSummary,
    b: PopulationSummary,
    sigma_null: Optional[float] = None,
) -> ZScore:
    """Z-score of a prevalence difference against its equal-probability variance.

    Under the null the two difficulties coincide; ``sigma_null`` defaults to
    the pooled binary standard deviation.  ``z`` divides the observed gap by
    sqrt(V_SRS); ``z_analytic`` replaces the gap with its selection-error form
    rho*D*sqrt((1-f)/f) per population, which isolates what the statistic
    actually measures when both true prevalences are equal.  Zero pooled
    variance (both prevalences 0, or both 1) leaves no scale to divide by and
    raises InfeasibleScenarioError.
    """
    if sigma_null is None:
        pooled = 0.5 * (a.ybar_hat + b.ybar_hat)
        sigma_null = math.sqrt(pooled * (1.0 - pooled))
    if check("sigma_null", sigma_null, NON_NEGATIVE) == 0.0:
        raise InfeasibleScenarioError("zero pooled variance: the Z-score is undefined")
    var_srs = (
        (1.0 - a.f) / a.f / (a.size - 1.0) + (1.0 - b.f) / b.f / (b.size - 1.0)
    ) * sigma_null ** 2
    denom = math.sqrt(var_srs)
    gap = a.ybar_hat - b.ybar_hat
    analytic_gap = sigma_null * (
        a.rho * a.d_m * a.quantity - b.rho * b.d_m * b.quantity
    )
    return ZScore(z=gap / denom, z_analytic=analytic_gap / denom)


def starred_z(rho1: float, rho2: float, n1: float, n2: float) -> float:
    """Equal-f, unit-D simplification of the analytic Z-score.

    sqrt((N1-1)(N2-1)/(N1+N2-2)) * (rho1 - rho2); the exact denominator is
    N1+N2-2, which ``population_adjustment`` approximates by N1+N2.
    """
    check("rho1", rho1, FINITE)
    check("rho2", rho2, FINITE)
    return _size_factor(n1, n2, 0.0) * (rho1 - rho2)


def _size_factor(n1: float, n2: float, extra: float) -> float:
    """sqrt((N1-1)(N2-1)/(N1+N2-2+extra)), finite for every pair of finite sizes.

    Checks ``n1`` and ``n2``, in that order.  With lo <= hi the two N-1, the
    ratio is lo / (1 + (lo+extra)/hi): no product or sum of the sizes is
    formed, so none can overflow.
    """
    check("n1", n1, POPULATION)
    check("n2", n2, POPULATION)
    lo, hi = sorted((n1 - 1.0, n2 - 1.0))
    return math.sqrt(lo / (1.0 + (lo + extra) / hi))


def population_adjustment(n1: float, n2: float) -> float:
    """sqrt((N1-1)(N2-1)/(N1+N2)); about sqrt(min(N)-1) for lopsided sizes."""
    return _size_factor(n1, n2, 2.0)


def delta_diff_threshold(n1: float, n2: float, f: float, ybar: float) -> float:
    """Differential gap |Delta_1 - Delta_2| keeping |Z| below 1 at equal f.

    From |Z| = adjustment * |rho1 - rho2| and the binary closed form for rho:
    threshold = sqrt(f(1-f)/(Ybar(1-Ybar))) / adjustment (exact N1+N2-2
    form).  Around 10% prevalence and a few-percent f the rho factor is close
    to 2, so the threshold is roughly 1/(2 * adjustment).
    """
    size_factor = _size_factor(n1, n2, 0.0)  # checks n1 and n2 before f and ybar
    check("f", f, TESTED_FRACTION)
    check("ybar", ybar, OPEN_UNIT)
    rho_factor = math.sqrt(ybar * (1.0 - ybar) / (f * (1.0 - f)))
    return 1.0 / (rho_factor * size_factor)


def z_eff(
    ybar1: float,
    ybar2: float,
    neff1: float,
    neff2: float,
    f: float,
    sigma_y: float,
) -> float:
    """Z-score built on effective rather than nominal sample sizes.

    (ybar1 - ybar2) / [ ((1-f)/f) * sigma * sqrt(1/(neff1-1) + 1/(neff2-1)) ].
    """
    check("neff1", neff1, NEFF)
    check("neff2", neff2, NEFF)
    check("f", f, TESTED_FRACTION)
    check("ybar1", ybar1, UNIT)
    check("ybar2", ybar2, UNIT)
    check("sigma_y", sigma_y, POSITIVE)
    denom = (1.0 - f) / f * sigma_y * math.sqrt(
        1.0 / (neff1 - 1.0) + 1.0 / (neff2 - 1.0)
    )
    return (ybar1 - ybar2) / denom


@dataclass(frozen=True)
class DiffError:
    """Selection-driven and scale-driven parts of a two-population difference."""

    selection_term: float
    scale_term: float


def count_diff_error(a: PopulationSummary, b: PopulationSummary) -> DiffError:
    """Error decomposition of a raw case-count difference y1 - y2.

    selection = n1*sigma1*rho1*sqrt((1-f1)/f1)*D1 - (same for 2);
    scale = f1*Y1 - f2*Y2 with Y_j the total counts.  With matched designs the
    selection term is proportional to n1 - n2, so it scales with the relative
    population sizes.
    """
    selection = (
        a.n * a.sigma_y * a.rho * a.quantity * a.d_m
        - b.n * b.sigma_y * b.rho * b.quantity * b.d_m
    )
    scale = a.f * (a.ybar_hat * a.size) - b.f * (b.ybar_hat * b.size)
    return DiffError(selection_term=float(selection), scale_term=float(scale))


def percapita_diff_error(a: PopulationSummary, b: PopulationSummary) -> DiffError:
    """Error decomposition of a per-capita difference y1/N1 - y2/N2.

    selection = sigma1*rho1*sqrt(f1(1-f1))*D1 - (same for 2); scale =
    f1*Ybar1 - f2*Ybar2.  Matched designs cancel the selection term exactly,
    independent of the population sizes.
    """
    selection = (
        a.sigma_y * a.rho * math.sqrt(a.f * (1.0 - a.f)) * a.d_m
        - b.sigma_y * b.rho * math.sqrt(b.f * (1.0 - b.f)) * b.d_m
    )
    scale = a.f * a.ybar_hat - b.f * b.ybar_hat
    return DiffError(selection_term=float(selection), scale_term=float(scale))


@dataclass(frozen=True)
class RtGap:
    """Aligned two-country reproduction-number gap trajectories."""

    steps: np.ndarray
    true_a: np.ndarray
    true_b: np.ndarray
    est_a: np.ndarray
    est_b: np.ndarray
    flagged: tuple

    @property
    def true_gap(self) -> np.ndarray:
        return self.true_a - self.true_b

    @property
    def est_gap(self) -> np.ndarray:
        return self.est_a - self.est_b


def _first_case_step(traj: SirTrajectory, country: str) -> int:
    pos = np.nonzero(traj.new_cases > 0.0)[0]
    if pos.size == 0:
        raise InfeasibleScenarioError(f"country {country}'s trajectory has no cases")
    return int(pos[0])


def rt_gap(
    traj_a: SirTrajectory,
    traj_b: SirTrajectory,
    f: float,
    meas: MeasurementModel,
    rel_rate: float,
    serial_interval: float,
    exact_susceptible: bool = False,
) -> RtGap:
    """True and estimated reproduction-number gaps between two countries.

    Series are aligned so step 0 is each country's first case.  Each country's
    estimated value adds its own log-scale error, driven by its own new-case
    fraction; by construction est_gap - true_gap equals
    (1/serial) * log((1+e_A)/(1+e_B)).  ``flagged`` lists the NaN steps of
    either estimate; flagged steps after step 0 raise one warning.  A country
    with no cases has no step to align on and raises InfeasibleScenarioError.
    """
    offsets = (_first_case_step(traj_a, "A"), _first_case_step(traj_b, "B"))
    n_steps = min(traj_a.new_cases.size - offsets[0], traj_b.new_cases.size - offsets[1])
    trajs = (traj_a, traj_b)

    def aligned(rows):
        """Each country's series from its first case, one row per country."""
        return np.stack([row[off:off + n_steps] for row, off in zip(rows, offsets)])

    idx, ctx = _step_context(aligned([tr.new_case_fraction for tr in trajs]), f, rel_rate, meas)
    err = _rt_error_series((2, n_steps), idx, ctx, aligned([tr.susceptible for tr in trajs]),
                           serial_interval, exact_susceptible)
    true_vals = aligned([_true_rt(tr, serial_interval) for tr in trajs])
    est = true_vals + err
    # Step 0 has no previous period, so both estimates are NaN there.
    flagged = np.nonzero(np.isnan(est).any(axis=0))[0]
    _warn_flagged(flagged.size - 1)
    return RtGap(
        steps=np.arange(n_steps),
        true_a=true_vals[0],
        true_b=true_vals[1],
        est_a=est[0],
        est_b=est[1],
        flagged=tuple(flagged.tolist()),
    )


def rt_gap_csv(gap: RtGap) -> str:
    """CSV rows step,true_rt_A,true_rt_B,est_rt_A,est_rt_B,true_gap,est_gap."""
    cols = (gap.true_a, gap.true_b, gap.est_a, gap.est_b, gap.true_gap, gap.est_gap)
    return "step,true_rt_A,true_rt_B,est_rt_A,est_rt_B,true_gap,est_gap\n" + rows(
        "%s" + ",%.6g" * 6 + "\n", [gap.steps.tolist(), *(c[gap.steps].tolist() for c in cols)])
