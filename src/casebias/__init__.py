"""Error calculus for epidemic case counts under selective testing.

Exact finite-population error decompositions, effective-sample-size bounds,
SIR-driven bias predictions for rate-of-change and reproduction-number
estimators, cross-population comparison statistics, survey-anchored
data-quality inversion, stratified design, and a seeded Monte Carlo engine
that brute-forces every analytic identity.
"""

from .population import (
    DegenerateSampleError,
    EmpiricalStats,
    FinitePopulation,
    MCEstimate,
    MeasurementModel,
    PERFECT_TEST,
    PopulationCounts,
    Realization,
    SelectionModel,
    empirical_stats,
    joint_counts,
    make_population,
    mc_expectation,
    mc_expectation_reference,
    realize,
    stats_from_counts,
)
from .decomposition import (
    AdjustmentFactors,
    ErrorDecomposition,
    adjustment_factors,
    contaminated_prevalence,
    corrected_prevalence,
    d_m,
    decompose_realization,
    imperfect_error,
    meas_adjustment,
    meas_adjustment_rel,
    selection_error,
    rho_ipz_from_rho_iy,
    sigma_pz_analytic,
    trial_effect_bias,
    verify_identity,
)
from .effsize import (
    CapacityTradeoff,
    EffSizeScenario,
    binary_rho,
    capacity_tradeoff,
    format_neff_table,
    mse_vs_srs,
    neff_bound,
    neff_table,
    relative_mse,
    relative_mse_mc,
)
from .epidemic import (
    PeakTimes,
    SirParams,
    SirTrajectory,
    new_cases_instant,
    peak_time,
    sir_simulate,
    trajectory_csv,
    true_rt,
)
from .estimators import (
    BiasCurves,
    InfeasibleScenarioError,
    PeriodStats,
    SensitivityResult,
    TwoPeriodContext,
    bias_curves,
    bias_curves_csv,
    error_level,
    estimate_relative_sampling,
    exp_smooth,
    forward_rho_dm,
    period_stats_analytic,
    ratio_bias,
    rt_error,
    rt_estimate,
    solve_delta,
    survey_interval,
)
from .compare import (
    DiffError,
    PopulationSummary,
    RtGap,
    ZScore,
    count_diff_error,
    delta_diff_threshold,
    percapita_diff_error,
    population_adjustment,
    prevalence_z,
    rt_gap,
    rt_gap_csv,
    starred_z,
    z_eff,
)
from .sampling import (
    Stratum,
    design_variance,
    neyman_allocation,
    proportional_allocation,
    srs_variance,
    strata_from_csv,
    validate_strata,
)
from .series import CaseCountSeries, ingest, series_csv

__version__ = "0.1.0"
