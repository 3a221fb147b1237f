import math
import warnings

import numpy as np
import pytest

from casebias import (
    InfeasibleScenarioError,
    MeasurementModel,
    PERFECT_TEST,
    PopulationSummary,
    RtGap,
    SelectionModel,
    SirParams,
    TwoPeriodContext,
    count_diff_error,
    delta_diff_threshold,
    make_population,
    peak_time,
    percapita_diff_error,
    period_stats_analytic,
    population_adjustment,
    prevalence_z,
    realize,
    rt_error,
    rt_gap,
    rt_gap_csv,
    sir_simulate,
    starred_z,
    true_rt,
    z_eff,
)
from casebias.estimators import _log_error
from test_epidemic import SPECIAL_CELLS, SPECIAL_TEXT, csv_columns, synthetic_traj


def summary(size=1e6, f=0.02, ybar=0.1, rho=0.01, d=1.0):
    return PopulationSummary(
        size=size, f=f, ybar_hat=ybar, rho=rho, d_m=d, sigma_y=math.sqrt(ybar * (1 - ybar))
    )


def test_prevalence_z_equal_means():
    assert prevalence_z(summary(), summary()).z == 0.0


@pytest.mark.parametrize("ybar", [0.0, 1.0])
def test_prevalence_z_with_zero_pooled_variance_is_infeasible(ybar):
    a, b = summary(size=328e6, f=0.023, ybar=ybar), summary(size=38e6, f=0.023, ybar=ybar)
    with pytest.raises(InfeasibleScenarioError, match="zero pooled variance"):
        prevalence_z(a, b)
    with pytest.raises(InfeasibleScenarioError, match="zero pooled variance"):
        prevalence_z(summary(), summary(), sigma_null=0.0)


def test_prevalence_z_two_paths_agree():
    # With equal sampling fractions and unit adjustments, the analytic form
    # collapses to the population-adjusted quality difference.
    a = summary(size=5e5, rho=0.012)
    b = summary(size=2e6, rho=0.004)
    zs = prevalence_z(a, b, sigma_null=0.3)
    assert zs.z_analytic == pytest.approx(starred_z(a.rho, b.rho, a.size, b.size), rel=1e-10)


def test_starred_z_matches_printed_adjustment_at_scale():
    # The printed adjustment uses N1+N2 in place of N1+N2-2; indistinguishable
    # at country scale.
    value = starred_z(0.01, 0.002, 328e6, 38e6)
    approx = population_adjustment(328e6, 38e6) * (0.01 - 0.002)
    assert value == pytest.approx(approx, rel=1e-7)


def test_population_adjustment_values():
    assert population_adjustment(2, 2) == pytest.approx(0.5)
    assert population_adjustment(328e6, 38e6) == pytest.approx(5835.6, abs=0.1)
    n = 1000
    assert population_adjustment(n, n) == pytest.approx(math.sqrt((n - 1) ** 2 / (2 * n)))
    assert population_adjustment(5, 9) == population_adjustment(9, 5)
    with pytest.raises(ValueError):
        population_adjustment(1, 10)


def test_population_adjustment_lopsided_limit():
    value = population_adjustment(1e9, 38e6)
    assert value == pytest.approx(math.sqrt(38e6 - 1), rel=0.05)


# (N1, N2): both ends of the POPULATION domain, the README's sizes, and lopsided
# and equal pairs where (N1-1)(N2-1) or N1+N2 overflows a double.
SIZE_PAIRS = [(1e308, 1e6), (1e308, 1e308), (2, 2), (2, 1e308), (328e6, 38e6), (38e6, 328e6),
              (1e6, 1e308), (1.7976931348623157e308, 1.7976931348623157e308), (2, 3), (5, 9),
              (1e154, 1e155), (1e200, 2)]


def _size_factor_mp(mpmath, n1, n2, extra):
    """sqrt((N1-1)(N2-1)/(N1+N2-2+extra)) at 50 digits, from the exact double inputs."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(n1) - 1, mpmath.mpf(n2) - 1
        return mpmath.sqrt(a * b / (a + b + extra))


@pytest.mark.parametrize("n1, n2", SIZE_PAIRS)
def test_size_factors_match_a_high_precision_reference(n1, n2):
    mpmath = pytest.importorskip("mpmath")
    got = population_adjustment(n1, n2)
    assert math.isfinite(got)
    assert abs(got / _size_factor_mp(mpmath, n1, n2, 2) - 1) <= 1e-12
    exact = _size_factor_mp(mpmath, n1, n2, 0)
    assert abs(starred_z(0.3, 0.1, n1, n2) / (exact * mpmath.mpf(0.3 - 0.1)) - 1) <= 1e-12
    f, ybar = 0.02, 0.1
    threshold = delta_diff_threshold(n1, n2, f, ybar)
    assert math.isfinite(threshold) and threshold > 0.0
    with mpmath.workdps(50):
        rho_factor = mpmath.sqrt(mpmath.mpf(ybar) * (1 - mpmath.mpf(ybar)) /
                                 (mpmath.mpf(f) * (1 - mpmath.mpf(f))))
        assert abs(threshold * rho_factor * exact - 1) <= 1e-12


def test_delta_threshold_tracks_double_adjustment():
    # Near 10% prevalence and f around 2%, rho is close to 2*Delta, so the
    # |Z| < 1 region is about 1 / (2 * adjustment) wide.
    threshold = delta_diff_threshold(328e6, 38e6, 0.023, 0.1)
    product = threshold * 2.0 * population_adjustment(328e6, 38e6)
    assert product == pytest.approx(1.0, rel=0.05)


def test_z_eff_values():
    assert z_eff(0.1, 0.1, 15, 15, 0.026, 0.3) == 0.0
    # Hand recomputation: 0.05 / ((0.974/0.026)*0.3*sqrt(2/14))
    assert z_eff(0.10, 0.05, 15, 15, 0.026, 0.3) == pytest.approx(0.0117710, abs=1e-7)
    with pytest.raises(ValueError):
        z_eff(0.1, 0.05, 1.0, 15, 0.026, 0.3)


def test_z_eff_never_exceeds_nominal_z():
    rng = np.random.default_rng(42)
    for _ in range(300):
        size1, size2 = rng.uniform(1e4, 1e7, size=2)
        f = rng.uniform(0.001, 0.45)
        ybar1, ybar2 = rng.uniform(0.05, 0.5, size=2)
        sigma = math.sqrt(0.25)
        n1, n2 = f * size1, f * size2
        neff1 = rng.uniform(2.0, n1)
        neff2 = rng.uniform(2.0, n2)
        a = summary(size=size1, f=f, ybar=ybar1)
        b = summary(size=size2, f=f, ybar=ybar2)
        z = prevalence_z(a, b, sigma_null=sigma).z
        ze = z_eff(ybar1, ybar2, neff1, neff2, f, sigma)
        assert abs(ze) <= abs(z) + 1e-12


def test_count_diff_identical_zero():
    diff = count_diff_error(summary(), summary())
    assert diff.selection_term == 0.0
    assert diff.scale_term == 0.0


def test_count_diff_scales_with_population_gap():
    a = summary(size=2e6)
    b = summary(size=1e6)
    diff = count_diff_error(a, b)
    per_unit = a.sigma_y * a.rho * math.sqrt((1 - a.f) / a.f) * a.d_m
    assert diff.selection_term == pytest.approx(per_unit * (a.n - b.n), rel=1e-12)
    assert diff.selection_term == pytest.approx(per_unit * b.n * (2e6 / 1e6 - 1), rel=1e-12)


def test_count_diff_srs_zero_mean_mc():
    pop1 = make_population(20_000, 0.1, seed=3)
    pop2 = make_population(10_000, 0.1, seed=4)
    sel = SelectionModel(0.05, 0.05)
    rng = np.random.SeedSequence(9)
    values = []
    for c1, c2 in zip(rng.spawn(400), np.random.SeedSequence(10).spawn(400)):
        r1 = realize(pop1, sel, PERFECT_TEST, c1)
        r2 = realize(pop2, sel, PERFECT_TEST, c2)
        y1 = int(pop1.outcomes[r1.selected].sum())
        y2 = int(pop2.outcomes[r2.selected].sum())
        scale = r1.n / 20_000 * pop1.total - r2.n / 10_000 * pop2.total
        values.append(y1 - y2 - scale)
    values = np.array(values)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean()) < 3 * se


def test_percapita_diff_matched_designs_cancel():
    a = summary(size=2e6)
    b = summary(size=1e6)
    diff = percapita_diff_error(a, b)
    assert diff.selection_term == pytest.approx(0.0, abs=1e-15)
    assert diff.scale_term == pytest.approx(0.0, abs=1e-15)


def test_percapita_selection_invariant_under_joint_rescale():
    a = summary(size=2e6, rho=0.02)
    b = summary(size=1e6, rho=0.005)
    base = percapita_diff_error(a, b).selection_term
    a2 = summary(size=10e6, rho=0.02)
    b2 = summary(size=5e6, rho=0.005)
    assert percapita_diff_error(a2, b2).selection_term == pytest.approx(base, rel=1e-12)
    # The raw-count selection term scales with the populations instead.
    assert count_diff_error(a2, b2).selection_term == pytest.approx(
        5.0 * count_diff_error(a, b).selection_term, rel=1e-12
    )


def test_percapita_scale_term_tracks_f_asymmetry():
    a = summary(f=0.04)
    b = summary(f=0.02)
    diff = percapita_diff_error(a, b)
    assert diff.scale_term == pytest.approx(0.04 * 0.1 - 0.02 * 0.1, rel=1e-12)


def fig4_trajectories(horizon=400):
    shared = dict(gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100.0, dt=0.1, horizon=horizon)
    return (
        sir_simulate(SirParams(beta=1.4, **shared)),
        sir_simulate(SirParams(beta=0.9, **shared)),
    )


def test_rt_gap_identical_inputs_zero_gap():
    traj, _ = fig4_trajectories(horizon=80)
    gap = rt_gap(traj, traj, 0.02, MeasurementModel(0.01, 0.2), 4.0, 7.0)
    valid = ~np.isnan(gap.est_gap)
    assert np.allclose(gap.est_gap[valid], 0.0, atol=1e-12)
    assert np.allclose(gap.true_gap[~np.isnan(gap.true_gap)], 0.0, atol=1e-12)


def test_rt_gap_without_cases_is_infeasible_and_names_the_country():
    traj, _ = fig4_trajectories(horizon=5)
    empty = sir_simulate(SirParams(beta=0.9, gamma_rec=0.2, size=1e6, s0=1e6, i0=0.0, dt=0.1,
                                   horizon=5))
    with pytest.raises(InfeasibleScenarioError, match="country B's trajectory has no cases"):
        rt_gap(traj, empty, 0.02, PERFECT_TEST, 1.0, 7.0)


def test_rt_gap_perfect_design_matches_truth():
    traj_a, traj_b = fig4_trajectories(horizon=80)
    gap = rt_gap(traj_a, traj_b, 0.02, PERFECT_TEST, 1.0, 7.0)
    for est, true in ((gap.est_a, gap.true_a), (gap.est_b, gap.true_b)):
        valid = ~np.isnan(est) & ~np.isnan(true)
        assert np.allclose(est[valid], true[valid], atol=1e-12)


def test_rt_gap_log_ratio_identity():
    from casebias import TwoPeriodContext, period_stats_analytic, rt_error

    traj_a, traj_b = fig4_trajectories(horizon=120)
    meas = MeasurementModel(0.01, 0.2)
    gap = rt_gap(traj_a, traj_b, 0.02, meas, 4.0, 7.0)
    k_a = traj_a.new_case_fraction
    k_b = traj_b.new_case_fraction
    for t in (5, 40, 90):
        err_a = rt_error(
            TwoPeriodContext(
                prev=period_stats_analytic(k_a[t - 1], 0.02, 4.0, meas),
                curr=period_stats_analytic(k_a[t], 0.02, 4.0, meas),
            ),
            1.0,
            7.0,
        )
        err_b = rt_error(
            TwoPeriodContext(
                prev=period_stats_analytic(k_b[t - 1], 0.02, 4.0, meas),
                curr=period_stats_analytic(k_b[t], 0.02, 4.0, meas),
            ),
            1.0,
            7.0,
        )
        assert gap.est_gap[t] - gap.true_gap[t] == pytest.approx(err_a - err_b, rel=1e-10)


def test_rt_gap_csv_schema():
    traj_a, traj_b = fig4_trajectories(horizon=12)
    gap = rt_gap(traj_a, traj_b, 0.02, MeasurementModel(0.01, 0.2), 4.0, 7.0)
    lines = rt_gap_csv(gap).strip().split("\n")
    assert lines[0] == "step,true_rt_A,true_rt_B,est_rt_A,est_rt_B,true_gap,est_gap"
    assert len(lines) == 13


def _scalar_rt_gap(traj_a, traj_b, f, meas, m, serial, exact):
    """Reference: ``rt_gap`` step by step through the scalar ``rt_error``."""
    offsets = [int(np.nonzero(traj.new_cases > 0.0)[0][0]) for traj in (traj_a, traj_b)]
    n = min(traj.new_cases.size - off for traj, off in zip((traj_a, traj_b), offsets))
    trues, ests, flagged = [], [], {0}
    for traj, off in zip((traj_a, traj_b), offsets):
        true = true_rt(traj, serial)[off:off + n]
        k = traj.new_case_fraction[off:]
        est = np.full(n, np.nan)
        for t in range(1, n):
            if not (k[t - 1] > 0.0 and k[t] > 0.0) or math.isnan(true[t]):
                flagged.add(t)
                continue
            s_ratio = traj.susceptible[off + t] / traj.susceptible[off + t - 1] if exact else 1.0
            ctx = TwoPeriodContext(
                prev=period_stats_analytic(float(k[t - 1]), f, m, meas),
                curr=period_stats_analytic(float(k[t]), f, m, meas),
            )
            try:
                est[t] = true[t] + rt_error(ctx, s_ratio, serial)
            except InfeasibleScenarioError:
                flagged.add(t)
        trues.append(true)
        ests.append(est)
    return trues, ests, tuple(sorted(flagged))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("rel_rate", [0.5, 1.0, 4.0, 10.0])
@pytest.mark.parametrize("source", ["sir", "hand"])
def test_rt_gap_matches_scalar_formulas(source, rel_rate, exact):
    if source == "sir":
        traj_a, traj_b = fig4_trajectories(horizon=150)
    else:
        # Different first-case steps, zero shares inside both series, and with
        # M = 10 combined errors below -1 after the large steps.
        traj_a = synthetic_traj(
            [0.0, 1000.0, 0.0, 2000.0, 170000.0, 130000.0, 5000.0, 0.0, 3000.0, 3500.0, 200.0]
        )
        traj_b = synthetic_traj(
            [0.0, 0.0, 0.0, 50.0, 80.0, 40000.0, 30000.0, 0.0, 10.0, 20.0, 30.0, 40.0]
        )
    meas = MeasurementModel(0.01, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        trues, ests, flagged = _scalar_rt_gap(traj_a, traj_b, 0.02, meas, rel_rate, 7.0, exact)
        gap = rt_gap(traj_a, traj_b, 0.02, meas, rel_rate, 7.0, exact_susceptible=exact)
    assert gap.flagged == flagged
    assert all(type(t) is int for t in gap.flagged)
    np.testing.assert_array_equal(gap.true_a, trues[0])
    np.testing.assert_array_equal(gap.true_b, trues[1])
    np.testing.assert_allclose(gap.est_a, ests[0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(gap.est_b, ests[1], rtol=1e-12, atol=0.0)
    if source == "hand" and rel_rate == 10.0:
        # A step with a true R_t in both countries is still flagged: e <= -1.
        assert any(not np.isnan(gap.true_a[t] + gap.true_b[t]) for t in gap.flagged)


def _loop_rt_gap(traj_a, traj_b, f, meas, m, serial, exact):
    """Reference: ``rt_gap`` as one array pass per country, in a loop over the two."""
    offsets = [int(np.nonzero(traj.new_cases > 0.0)[0][0]) for traj in (traj_a, traj_b)]
    n = min(traj.new_cases.size - off for traj, off in zip((traj_a, traj_b), offsets))
    trues, ests = [], []
    for traj, off in zip((traj_a, traj_b), offsets):
        k = traj.new_case_fraction[off:off + n]
        s = traj.susceptible[off:]
        t = np.nonzero((k[:-1] > 0.0) & (k[1:] > 0.0))[0] + 1
        ctx = TwoPeriodContext(
            prev=period_stats_analytic(k[t - 1], f, m, meas),
            curr=period_stats_analytic(k[t], f, m, meas),
        )
        err = np.full(n, np.nan)
        err[t] = _log_error(ctx, s[t] / s[t - 1] if exact else 1.0, serial)
        trues.append(true_rt(traj, serial)[off:off + n])
        ests.append(trues[-1] + err)
    flagged = np.nonzero(np.isnan(ests[0]) | np.isnan(ests[1]))[0]
    return trues, ests, tuple(flagged.tolist())


# First cases at steps 1 and 3; only country A has a zero-case step after it (step 2),
# so the two countries' rows select different steps.
ONE_ZERO_PAIR = (
    [0.0, 1000.0, 0.0, 2000.0, 170000.0, 130000.0, 5000.0, 3000.0, 3500.0, 200.0],
    [0.0, 0.0, 0.0, 50.0, 80.0, 40000.0, 30000.0, 10.0, 20.0, 30.0, 40.0, 45.0],
)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("rel_rate", [0.5, 1.0, 4.0, 10.0])
@pytest.mark.parametrize("source", ["sir", "one-zero"])
def test_rt_gap_equals_the_per_country_loop_bit_for_bit(source, rel_rate, exact):
    if source == "sir":
        traj_a, traj_b = fig4_trajectories(horizon=150)
    else:
        traj_a, traj_b = (synthetic_traj(cases) for cases in ONE_ZERO_PAIR)
    meas = MeasurementModel(0.01, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        trues, ests, flagged = _loop_rt_gap(traj_a, traj_b, 0.02, meas, rel_rate, 7.0, exact)
        gap = rt_gap(traj_a, traj_b, 0.02, meas, rel_rate, 7.0, exact_susceptible=exact)
    assert np.array_equal(gap.steps, np.arange(trues[0].size))
    for got, want in zip((gap.true_a, gap.true_b, gap.est_a, gap.est_b), (*trues, *ests)):
        assert np.array_equal(got, want, equal_nan=True)
    assert gap.flagged == flagged
    if source == "one-zero":
        # Step 1 of A follows its first case into the zero step; B's step 1 is valid.
        assert np.isnan(gap.est_a[1]) and not np.isnan(gap.est_b[1])


@pytest.mark.parametrize(
    "cases_a, cases_b, rel_rate",
    [
        # Zero new-case steps in both series.
        (
            [0.0, 1000.0, 0.0, 2000.0, 170000.0, 130000.0, 5000.0, 0.0, 3000.0, 3500.0, 200.0],
            [0.0, 0.0, 0.0, 50.0, 80.0, 40000.0, 30000.0, 0.0, 10.0, 20.0, 30.0, 40.0],
            4.0,
        ),
        # Positive series whose only skipped steps are log-domain failures.
        (
            [1000.0, 2000.0, 170000.0, 130000.0, 5000.0, 3000.0, 3500.0, 200.0],
            [50.0, 80.0, 40000.0, 30000.0, 10.0, 20.0, 30.0, 40.0],
            10.0,
        ),
    ],
)
def test_rt_gap_warns_once_at_the_caller(cases_a, cases_b, rel_rate):
    traj_a, traj_b = synthetic_traj(cases_a), synthetic_traj(cases_b)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gap = rt_gap(traj_a, traj_b, 0.02, MeasurementModel(0.01, 0.2), rel_rate, 7.0)
    assert len(gap.flagged) > 1
    assert [w.category for w in caught] == [RuntimeWarning]
    assert caught[0].filename == __file__
    assert str(caught[0].message) == (
        f"{len(gap.flagged) - 1} steps flagged (zero shares or log-domain failures)"
    )


def test_rt_gap_silent_when_only_step_zero_is_flagged():
    traj_a, traj_b = fig4_trajectories(horizon=400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap = rt_gap(traj_a, traj_b, 0.02, MeasurementModel(0.01, 0.2), 4.0, 7.0)
    assert gap.flagged == (0,)


@pytest.mark.parametrize("field", ["size", "f", "ybar_hat", "rho", "d_m", "sigma_y"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_population_summary_rejects_non_finite(field, value):
    fields = dict(size=1e6, f=0.02, ybar_hat=0.1, rho=0.01, d_m=1.0, sigma_y=0.3)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PopulationSummary(**fields)


@pytest.mark.parametrize("ybar", [-0.1, 1.5])
def test_population_summary_rejects_prevalence_outside_unit_interval(ybar):
    with pytest.raises(ValueError, match=r"ybar_hat must lie in \[0, 1\]"):
        PopulationSummary(size=1e6, f=0.02, ybar_hat=ybar, rho=0.01, d_m=1.0, sigma_y=0.3)


@pytest.mark.parametrize("neff", [math.nan, math.inf, 1.0])
def test_z_eff_rejects_bad_effective_sizes(neff):
    with pytest.raises(ValueError):
        z_eff(0.1, 0.12, neff, 100.0, 0.02, 0.3)
    with pytest.raises(ValueError):
        z_eff(0.1, 0.12, 100.0, neff, 0.02, 0.3)


def reference_rt_gap_csv(gap):
    """The cell-indexing renderer that ``rt_gap_csv`` replaces."""
    lines = ["step,true_rt_A,true_rt_B,est_rt_A,est_rt_B,true_gap,est_gap"]
    tg = gap.true_gap
    eg = gap.est_gap
    for t in gap.steps:
        lines.append(
            f"{t},{gap.true_a[t]:.6g},{gap.true_b[t]:.6g},{gap.est_a[t]:.6g},"
            f"{gap.est_b[t]:.6g},{tg[t]:.6g},{eg[t]:.6g}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("rel_rate", [0.5, 4.0, 10.0])
def test_rt_gap_csv_equals_cell_indexing_reference(rel_rate, exact):
    for traj_a, traj_b in (
        fig4_trajectories(),
        fig4_trajectories(horizon=60)[::-1],
        (synthetic_traj([0.0, 1000.0, 0.0, 2000.0, 170000.0, 130000.0, 5000.0, 0.0, 3000.0]),
         synthetic_traj([0.0, 0.0, 50.0, 80.0, 40000.0, 30000.0, 0.0, 10.0, 20.0, 30.0])),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            gap = rt_gap(
                traj_a, traj_b, 0.02, MeasurementModel(0.01, 0.2), rel_rate, 7.0, exact
            )
        assert rt_gap_csv(gap) == reference_rt_gap_csv(gap)


def test_rt_gap_csv_renders_special_cells_like_reference():
    cells = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.23456789e12, -0.5])
    gap = RtGap(
        steps=np.arange(cells.size),
        true_a=cells,
        true_b=cells[::-1],
        est_a=np.roll(cells, 3),
        est_b=-cells,
        flagged=(0,),
    )
    with np.errstate(invalid="ignore"):
        expected = reference_rt_gap_csv(gap)
        text = rt_gap_csv(gap)
    assert text == expected
    assert "nan" in text and "-inf" in text and ",-0," in text


def test_rt_gap_csv_zero_rows_is_the_header():
    empty = np.empty(0)
    gap = RtGap(steps=np.arange(0), true_a=empty, true_b=empty, est_a=empty, est_b=empty,
                flagged=())
    text = rt_gap_csv(gap)
    assert text == reference_rt_gap_csv(gap)
    assert text == "step,true_rt_A,true_rt_B,est_rt_A,est_rt_B,true_gap,est_gap\n"


def test_rt_gap_csv_renders_special_values_in_every_column():
    # First half: A holds the specials against B = 0, so the gaps hold them as well
    # (-0.0 - 0.0 is -0.0); second half: B holds them.
    zeros = np.zeros(SPECIAL_CELLS.size)
    gap = RtGap(
        steps=np.arange(2 * SPECIAL_CELLS.size),
        true_a=np.concatenate([SPECIAL_CELLS, zeros]),
        true_b=np.concatenate([zeros, SPECIAL_CELLS]),
        est_a=np.concatenate([np.roll(SPECIAL_CELLS, 2), zeros]),
        est_b=np.concatenate([zeros, np.roll(SPECIAL_CELLS, 2)]),
        flagged=(),
    )
    with np.errstate(invalid="ignore"):
        expected = reference_rt_gap_csv(gap)
        text = rt_gap_csv(gap)
    assert text == expected
    for col in csv_columns(text)[1:]:
        assert SPECIAL_TEXT <= set(col)
