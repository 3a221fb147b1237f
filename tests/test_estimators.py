import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from casebias import (
    BiasCurves,
    InfeasibleScenarioError,
    MeasurementModel,
    PERFECT_TEST,
    PeriodStats,
    SelectionModel,
    SirParams,
    TwoPeriodContext,
    bias_curves,
    bias_curves_csv,
    binary_rho,
    error_level,
    estimate_relative_sampling,
    exp_smooth,
    forward_rho_dm,
    make_population,
    peak_time,
    period_stats_analytic,
    ratio_bias,
    realize,
    rt_error,
    rt_estimate,
    sir_simulate,
    solve_delta,
    survey_interval,
    true_rt,
)
from test_epidemic import synthetic_traj

MEAS_REF = MeasurementModel(fp=0.005, fn=0.172)


def period(ybar, f=0.05, rho=0.02, d=1.0):
    return PeriodStats(rho=rho, d_m=d, f=f, cv=math.sqrt((1 - ybar) / ybar), ybar=ybar)


def test_ratio_bias_cancellation():
    ctx = TwoPeriodContext(prev=period(0.1), curr=period(0.1))
    assert ratio_bias(ctx) == 0.0


def test_ratio_bias_zero_quality():
    ctx = TwoPeriodContext(prev=period(0.1, rho=0.0), curr=period(0.2, rho=0.0))
    assert ratio_bias(ctx) == 0.0
    bad_prev = PeriodStats(rho=0.0, d_m=1.0, f=0.05, cv=1.0, ybar=0.0)
    with pytest.raises(ValueError):
        ratio_bias(TwoPeriodContext(prev=bad_prev, curr=period(0.1)))


def test_ratio_bias_formula():
    prev, curr = period(0.1, rho=0.03), period(0.15, rho=0.025)
    e_prev, e_curr = error_level(prev), error_level(curr)
    expected = (0.15 / 0.1) * (e_curr - e_prev) * (1 - e_prev)
    assert ratio_bias(TwoPeriodContext(prev=prev, curr=curr)) == pytest.approx(expected, rel=1e-12)


def test_ratio_bias_brute_force():
    # Two periods with a shared mild design; the second-order prediction must
    # sit inside max(3 SE, Taylor slack) of the Monte Carlo mean.
    ybar1, ybar2, f, m = 0.10, 0.12, 0.05, 1.1
    pop1 = make_population(100_000, ybar1, seed=31)
    pop2 = make_population(100_000, ybar2, seed=32)
    sel1 = SelectionModel.from_relative_rate(f, m, ybar1)
    sel2 = SelectionModel.from_relative_rate(f, m, ybar2)
    ctx = TwoPeriodContext(
        prev=PeriodStats(
            rho=binary_rho(sel1.delta, ybar1, f), d_m=1.0, f=f,
            cv=math.sqrt((1 - ybar1) / ybar1), ybar=ybar1,
        ),
        curr=PeriodStats(
            rho=binary_rho(sel2.delta, ybar2, f), d_m=1.0, f=f,
            cv=math.sqrt((1 - ybar2) / ybar2), ybar=ybar2,
        ),
    )
    predicted = ratio_bias(ctx)
    reps = 1200
    values = np.empty(reps)
    for i, (c1, c2) in enumerate(
        zip(np.random.SeedSequence(77).spawn(reps), np.random.SeedSequence(78).spawn(reps))
    ):
        r1 = realize(pop1, sel1, PERFECT_TEST, c1)
        r2 = realize(pop2, sel2, PERFECT_TEST, c2)
        values[i] = (
            pop2.outcomes[r2.selected].mean() / pop1.outcomes[r1.selected].mean()
            - ybar2 / ybar1
        )
    se = values.std(ddof=1) / math.sqrt(reps)
    err1 = binary_rho(sel1.delta, ybar1, f) * math.sqrt((1 - f) / f) * math.sqrt(ybar1 * (1 - ybar1))
    err2 = binary_rho(sel2.delta, ybar2, f) * math.sqrt((1 - f) / f) * math.sqrt(ybar2 * (1 - ybar2))
    slack = 5.0 * max(err1, err2) ** 2
    assert abs(values.mean() - predicted) < max(3 * se, slack)


def test_rt_estimate():
    assert rt_estimate(0.01, 0.01, 7.0) == 1.0
    assert rt_estimate(0.02, 0.01, 7.0) == pytest.approx(1.0 + math.log(2) / 7.0, rel=1e-12)
    with pytest.raises(ValueError):
        rt_estimate(0.0, 0.01, 7.0)
    with pytest.raises(ValueError):
        rt_estimate(0.02, 0.01, 0.0)


def test_rt_estimate_recovers_true_rt():
    traj = sir_simulate(
        SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100, dt=0.1, horizon=60)
    )
    rt = true_rt(traj, serial_interval=7.0)
    k = traj.new_case_fraction
    for t in (5, 20, 40):
        assert rt_estimate(k[t], k[t - 1], 7.0) == pytest.approx(rt[t], rel=1e-12)


def test_rt_round_trip():
    traj = sir_simulate(
        SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100, dt=0.1, horizon=60)
    )
    rt = true_rt(traj, serial_interval=7.0)
    k = traj.new_cases
    for t in range(1, 60):
        assert math.exp(7.0 * (rt[t] - 1.0)) == pytest.approx(k[t] / k[t - 1], rel=1e-12)


def test_rt_error_zero_cases():
    ctx = TwoPeriodContext(prev=period(0.01), curr=period(0.01))
    assert rt_error(ctx, 1.0, 7.0) == 0.0


def test_rt_error_susceptible_term_positive():
    ctx = TwoPeriodContext(prev=period(0.01), curr=period(0.01))
    assert rt_error(ctx, 0.9, 7.0) > 0.0
    assert rt_error(ctx, 0.9, 7.0) == pytest.approx(-math.log(0.9) / 7.0, rel=1e-12)


def test_rt_error_small_error_expansion():
    prev, curr = period(0.01, rho=0.001), period(0.011, rho=0.001)
    e_prev, e_curr = error_level(prev), error_level(curr)
    e = (e_curr - e_prev) * (1 - e_prev)
    value = rt_error(TwoPeriodContext(prev=prev, curr=curr), 1.0, 7.0)
    assert value == pytest.approx(e / 7.0, abs=abs(e) ** 2)


def test_rt_error_infeasible():
    # e = (e_curr - e_prev) * (1 - e_prev) = -35 here: log(1+e) undefined.
    prev = PeriodStats(rho=0.0, d_m=1.0, f=0.02, cv=10.0, ybar=0.01)
    curr = PeriodStats(rho=-0.5, d_m=1.0, f=0.02, cv=10.0, ybar=0.01)
    with pytest.raises(InfeasibleScenarioError):
        rt_error(TwoPeriodContext(prev=prev, curr=curr), 1.0, 7.0)
    with pytest.raises(ValueError):
        rt_error(TwoPeriodContext(prev=prev, curr=prev), 1.5, 7.0)


def test_rt_error_just_inside_log_domain():
    # e = -0.95 > -1: log(1 + e) is defined, so the error is finite.
    prev = PeriodStats(rho=0.0, d_m=1.0, f=0.02, cv=1.0, ybar=0.01)
    curr = PeriodStats(rho=-0.95 / 7.0, d_m=1.0, f=0.02, cv=1.0, ybar=0.01)
    value = rt_error(TwoPeriodContext(prev=prev, curr=curr), 1.0, 7.0)
    assert value == pytest.approx(math.log1p(-0.95) / 7.0, rel=1e-12)


@pytest.mark.parametrize("serial", [math.nan, math.inf, -math.inf, 0.0])
def test_serial_interval_must_be_finite_and_positive(serial):
    ctx = TwoPeriodContext(prev=period(0.01), curr=period(0.011))
    with pytest.raises(ValueError, match="serial interval"):
        rt_estimate(0.02, 0.01, serial)
    with pytest.raises(ValueError, match="serial interval"):
        rt_error(ctx, 1.0, serial)
    with pytest.raises(ValueError, match="serial interval"):
        true_rt(synthetic_traj(np.full(10, 5.0)), serial)


def test_exp_smooth_identity_and_constants():
    series = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert np.allclose(exp_smooth(series, 1.0), series)
    assert np.allclose(exp_smooth([2.0] * 6, 0.3), 2.0)


def test_exp_smooth_impulse_geometric_decay():
    out = exp_smooth([1.0] + [0.0] * 6, 0.3)
    assert np.allclose(out, 0.7 ** np.arange(7))


def test_exp_smooth_shift_equivariance():
    series = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    assert np.allclose(exp_smooth(series + 10.0, 0.4), exp_smooth(series, 0.4) + 10.0)


def test_exp_smooth_validation():
    with pytest.raises(ValueError):
        exp_smooth([1.0], 0.0)
    with pytest.raises(ValueError):
        exp_smooth([1.0], 1.2)
    with pytest.raises(ValueError):
        exp_smooth([], 0.3)


def test_bias_curves_unit_rate_is_zero():
    traj = sir_simulate(
        SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100, dt=0.1, horizon=80)
    )
    curves = bias_curves(traj, 0.02, PERFECT_TEST, [1.0], 7.0)
    valid = ~np.isnan(curves.ratio_bias[0])
    assert np.allclose(curves.ratio_bias[0][valid], 0.0, atol=1e-14)
    valid_rt = ~np.isnan(curves.rt_bias[0][1:])
    assert np.allclose(curves.rt_bias[0][1:][valid_rt], 0.0, atol=1e-14)


def test_bias_curves_peak_locations_differ_between_estimator_drivers():
    # The rate-of-change curve tracks the infected share; the
    # reproduction-number curve tracks the new-case share.  Their worst-bias
    # steps land at different times.
    traj = sir_simulate(
        SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100, dt=0.1, horizon=400)
    )
    meas = MeasurementModel(0.01, 0.15)
    prevalence_driven = bias_curves(traj, 0.02, meas, [2.0], 7.0, driver="prevalence")
    cases_driven = bias_curves(traj, 0.02, meas, [2.0], 7.0, driver="cases")
    argmax_ratio = np.nanargmax(np.abs(prevalence_driven.ratio_bias[0]))
    argmax_rt = np.nanargmax(np.abs(cases_driven.rt_bias[0]))
    assert argmax_ratio != argmax_rt


def test_bias_curves_csv_schema():
    traj = sir_simulate(
        SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100, dt=0.1, horizon=10)
    )
    curves = bias_curves(traj, 0.02, MeasurementModel(0.01, 0.15), [2.0, 4.0], 7.0)
    lines = bias_curves_csv(curves).strip().split("\n")
    assert lines[0] == "step,M,ratio_bias,rt_bias"
    assert len(lines) == 1 + 2 * 10


def test_bias_curves_rejects_unknown_driver():
    traj = sir_simulate(
        SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100, dt=0.1, horizon=10)
    )
    with pytest.raises(ValueError):
        bias_curves(traj, 0.02, PERFECT_TEST, [2.0], 7.0, driver="wrong")


def test_estimate_relative_sampling_no_error():
    result = estimate_relative_sampling(0.2, 0.2, 0.01, MEAS_REF)
    assert result.delta == 0.0
    assert result.rel_rate == pytest.approx(1.0)


def test_inversion_round_trip():
    for delta_true in (2e-4, 1e-3, 3e-3):
        target = forward_rho_dm(delta_true, 0.159, 0.001, MEAS_REF)
        recovered = solve_delta(target, 0.159, 0.001, MEAS_REF)
        assert recovered == pytest.approx(delta_true, rel=1e-8)


# Deterministic draws, and no example database written to the checkout.
INVERSION = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def inversion_scenarios(draw):
    ybar = draw(st.floats(0.001, 0.999))
    f = draw(st.floats(1e-4, 0.99))
    meas = MeasurementModel(fp=draw(st.floats(0.0, 0.2)), fn=draw(st.floats(0.0, 0.45)))
    return ybar, f, meas


def _feasible_bracket(ybar, f, meas):
    """``solve_delta``'s bracket: both testing rates in (0, 1), capped at the vertex."""
    hi = min(f / ybar, (1.0 - f) / (1.0 - ybar)) * (1.0 - 1e-12)
    lo = max(-f / (1.0 - ybar), (f - 1.0) / ybar) * (1.0 - 1e-12)
    a = 1.0 + meas.fp + meas.fn
    b = (ybar / (1.0 - ybar)) * (meas.fp * (1.0 - ybar) + meas.fn * ybar) / f
    return lo, (min(hi, a / (2.0 * b)) if b > 0.0 else hi)


def _brentq_delta(target, ybar, f, meas):
    """Reference root of ``forward_rho_dm`` on the feasible bracket."""
    lo, hi = _feasible_bracket(ybar, f, meas)
    return brentq(
        lambda d: forward_rho_dm(d, ybar, f, meas) - target, lo, hi, xtol=1e-16, rtol=8.9e-16
    )


@INVERSION
@given(inversion_scenarios(), st.floats(0.0, 0.95))
def test_inversion_round_trip_and_monotone_map(scenario, u):
    ybar, f, meas = scenario
    lo, hi = _feasible_bracket(ybar, f, meas)
    delta = lo + u * (hi - lo)
    # The forward map increases on the bracket: the solver needs no check of its own.
    grid = forward_rho_dm(np.linspace(lo, hi, 33), ybar, f, meas)
    assert (np.diff(grid) > 0.0).all()
    recovered = solve_delta(forward_rho_dm(delta, ybar, f, meas), ybar, f, meas)
    assert recovered == pytest.approx(delta, rel=1e-8, abs=1e-15)


# Targets stop short of g_hi: at a vertex the root moves with the square root of
# the target's rounding error (see test_solve_delta_at_the_vertex).
@INVERSION
@given(inversion_scenarios(), st.floats(0.0, 0.99), st.floats(0.0, 0.99))
def test_solve_delta_nondecreasing_and_matches_brentq(scenario, u, v):
    ybar, f, meas = scenario
    lo, hi = _feasible_bracket(ybar, f, meas)
    g_lo, g_hi = forward_rho_dm(lo, ybar, f, meas), forward_rho_dm(hi, ybar, f, meas)
    t1, t2 = sorted(g_lo + w * (g_hi - g_lo) for w in (u, v))
    d1, d2 = solve_delta(t1, ybar, f, meas), solve_delta(t2, ybar, f, meas)
    assert d1 <= d2
    for target, delta in ((t1, d1), (t2, d2)):
        assert delta == pytest.approx(_brentq_delta(target, ybar, f, meas), rel=1e-8, abs=1e-15)


@INVERSION
@given(st.floats(0.001, 0.999), st.floats(1e-4, 0.99), st.floats(0.0, 1.0))
def test_solve_delta_perfect_test_is_linear(ybar, f, u):
    lo, hi = _feasible_bracket(ybar, f, PERFECT_TEST)
    target = forward_rho_dm(min(lo + u * (hi - lo), hi), ybar, f, PERFECT_TEST)
    assert solve_delta(target, ybar, f, PERFECT_TEST) == target / binary_rho(1.0, ybar, f)


@INVERSION
@given(st.floats(0.5, 0.99), st.floats(0.05, 0.95), st.floats(0.0, 0.2), st.floats(0.2, 0.45))
def test_solve_delta_at_the_vertex(ybar, f, fp, fn):
    meas = MeasurementModel(fp=fp, fn=fn)
    lo, hi = _feasible_bracket(ybar, f, meas)
    bound = min(f / ybar, (1.0 - f) / (1.0 - ybar)) * (1.0 - 1e-12)
    assume(hi < bound)
    g_hi = forward_rho_dm(hi, ybar, f, meas)
    delta = solve_delta(g_hi, ybar, f, meas)
    assert math.isfinite(delta)
    assert delta == pytest.approx(hi, rel=1e-6)
    g_lo = forward_rho_dm(lo, ybar, f, meas)
    for outside in (np.nextafter(g_hi, np.inf), np.nextafter(g_lo, -np.inf)):
        with pytest.raises(InfeasibleScenarioError, match="no feasible differential"):
            solve_delta(float(outside), ybar, f, meas)


def test_inversion_negative_error():
    result = estimate_relative_sampling(0.2, 0.15, 0.001, MEAS_REF)
    assert result.delta < 0.0
    assert result.rel_rate < 1.0


def test_inversion_infeasible_error():
    # Anchored at 5% prevalence, an error of -0.49 is beyond any differential.
    with pytest.raises(InfeasibleScenarioError):
        estimate_relative_sampling(0.5, 0.01, 0.001, MEAS_REF, ybar_anchor=0.05)


@pytest.mark.parametrize("anchor", [0.0, 1.0, 2.0, -0.5, math.nan])
def test_estimate_relative_sampling_rejects_anchor_outside_unit_interval(anchor):
    with pytest.raises(ValueError, match="ybar_anchor"):
        estimate_relative_sampling(0.159, 0.325, 0.001, MEAS_REF, ybar_anchor=anchor)


def test_estimate_relative_sampling_validation():
    with pytest.raises(ValueError):
        estimate_relative_sampling(0.0, 0.3, 0.001, MEAS_REF)
    with pytest.raises(ValueError):
        estimate_relative_sampling(0.2, 0.3, 0.0, MEAS_REF)


def test_inversion_corner_that_corrects_the_survey_to_zero_is_infeasible():
    # The raw survey share ~0.058 corrects (and clamps) to 0 at fp = 0.1, leaving
    # no anchor prevalence for that corner.
    meas = MeasurementModel(fp=0.01, fn=0.1)
    with pytest.warns(RuntimeWarning, match="clamping"):
        with pytest.raises(InfeasibleScenarioError, match="corner fp = 0.1, fn = 0 "):
            estimate_relative_sampling(0.05, 0.1, 0.02, meas, meas_ranges=((0.01, 0.1), (0.0, 0.1)))


def test_survey_interval():
    lo, hi = survey_interval(0.139, 3000)
    half = 2.0 * math.sqrt(0.139 * 0.861 / 3000.0)
    assert hi - lo == pytest.approx(2 * half, rel=1e-12)
    with pytest.raises(ValueError):
        survey_interval(0.0, 3000)


def test_survey_interval_clamps_and_flags():
    half = 2.0 * math.sqrt(0.01 * 0.99 / 10.0)
    with pytest.warns(RuntimeWarning, match="clamping"):
        lo, hi = survey_interval(0.01, 10)
    assert lo == 0.0
    assert hi == pytest.approx(0.01 + half, rel=1e-12)
    with pytest.warns(RuntimeWarning, match="clamping"):
        lo, hi = survey_interval(0.99, 10)
    assert (lo, hi) == (pytest.approx(0.99 - half, rel=1e-12), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        survey_interval(0.139, 3000)


def test_period_stats_accept_an_infinite_cv():
    # A share that underflows toward 0, as in a long SIR tail, has cv = inf; bias_curves
    # flags such a step rather than rejecting the run.
    with np.errstate(over="ignore"):
        stats = period_stats_analytic(np.array([0.01, 5e-324]), 0.02, 2.0, MEAS_REF)
    assert stats.cv[1] == math.inf


def test_period_stats_analytic_consistency():
    stats = period_stats_analytic(0.05, 0.02, 2.0, MEAS_REF)
    sel = SelectionModel.from_relative_rate(0.02, 2.0, 0.05)
    assert stats.rho == pytest.approx(binary_rho(sel.delta, 0.05, 0.02), rel=1e-12)
    assert stats.cv == pytest.approx(math.sqrt(0.95 / 0.05), rel=1e-12)
    with pytest.raises(ValueError):
        period_stats_analytic(0.0, 0.02, 2.0, MEAS_REF)


def test_period_stats_analytic_broadcasts_exactly():
    ybar = np.linspace(0.001, 0.9, 37)
    for m in (0.5, 2.0, 10.0):
        stats = period_stats_analytic(ybar, 0.02, m, MEAS_REF)
        for j, y in enumerate(ybar):
            one = period_stats_analytic(float(y), 0.02, m, MEAS_REF)
            for name in ("rho", "d_m", "cv"):
                assert type(getattr(one, name)) is float
                assert getattr(stats, name)[j] == getattr(one, name)
    rel_rates = np.array([0.5, 1.0, 3.0, 10.0])
    stats = period_stats_analytic(0.07, 0.02, rel_rates, MEAS_REF)
    for j, m in enumerate(rel_rates):
        one = period_stats_analytic(0.07, 0.02, float(m), MEAS_REF)
        assert (stats.rho[j], stats.d_m[j]) == (one.rho, one.d_m)


def _scalar_context(series, t, f, m, meas):
    return TwoPeriodContext(
        prev=period_stats_analytic(float(series[t - 1]), f, m, meas),
        curr=period_stats_analytic(float(series[t]), f, m, meas),
    )


def _scalar_bias_curves(traj, f, meas, rel_rates, serial, driver, exact):
    """Reference: every cell of ``bias_curves`` from the scalar formulas."""
    k = traj.new_case_fraction
    ratio_series = k if driver == "cases" else traj.prevalence[: k.size]
    ratio = np.full((len(rel_rates), k.size), np.nan)
    rt = np.full((len(rel_rates), k.size), np.nan)
    flagged = set()
    for m_idx, m in enumerate(rel_rates):
        for t in range(1, k.size):
            if ratio_series[t - 1] > 0.0 and ratio_series[t] > 0.0:
                ratio[m_idx, t] = ratio_bias(_scalar_context(ratio_series, t, f, m, meas))
            else:
                flagged.add(t)
            if not (k[t - 1] > 0.0 and k[t] > 0.0):
                flagged.add(t)
                continue
            s_ratio = traj.susceptible[t] / traj.susceptible[t - 1] if exact else 1.0
            try:
                rt[m_idx, t] = rt_error(_scalar_context(k, t, f, m, meas), s_ratio, serial)
            except InfeasibleScenarioError:
                flagged.add(t)
    return ratio, rt, tuple(sorted(flagged))


# Zero shares at steps 0, 2 and 7; with M = 10 the drop after the large step
# 4 sends the combined error below -1.
HAND_CASES = [0.0, 1000.0, 0.0, 2000.0, 170000.0, 130000.0, 5000.0, 0.0, 3000.0, 3500.0, 200.0]
CURVE_M_GRID = (0.5, 1.0, 2.0, 10.0)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("driver", ["cases", "prevalence"])
@pytest.mark.parametrize("source", ["sir", "hand"])
def test_bias_curves_match_scalar_formulas(source, driver, exact):
    if source == "sir":
        traj = sir_simulate(
            SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100, dt=0.1, horizon=150)
        )
    else:
        traj = synthetic_traj(HAND_CASES)
    ratio, rt, flagged = _scalar_bias_curves(traj, 0.02, MEAS_REF, CURVE_M_GRID, 7.0, driver, exact)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        curves = bias_curves(
            traj, 0.02, MEAS_REF, CURVE_M_GRID, 7.0, driver=driver, exact_susceptible=exact
        )
    assert curves.flagged == flagged
    assert all(type(t) is int for t in curves.flagged)
    np.testing.assert_allclose(curves.ratio_bias, ratio, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(curves.rt_bias, rt, rtol=1e-12, atol=0.0)
    if source == "hand":
        # Some step has both shares positive and is still skipped: e <= -1.
        k = traj.new_case_fraction
        positive = (k[:-1] > 0.0) & (k[1:] > 0.0)
        assert np.isnan(curves.rt_bias[-1, 1:][positive]).any()


def test_bias_curves_reuse_the_case_context_bit_for_bit():
    # The rt curve follows the new-case series under either driver; the cases
    # driver reuses the ratio curve's step context, the prevalence driver builds it.
    for traj in (
        sir_simulate(SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100)),
        synthetic_traj(HAND_CASES),
    ):
        for exact in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cases, prevalence = (
                    bias_curves(traj, 0.02, MEAS_REF, CURVE_M_GRID, 7.0, driver, exact)
                    for driver in ("cases", "prevalence")
                )
            assert np.array_equal(cases.rt_bias, prevalence.rt_bias, equal_nan=True)


def reference_bias_curves_csv(curves):
    """The cell-indexing renderer that ``bias_curves_csv`` replaces."""
    lines = ["step,M,ratio_bias,rt_bias"]
    for m_idx, m in enumerate(curves.rel_rates):
        for t in curves.steps:
            lines.append(
                f"{t},{m:g},{curves.ratio_bias[m_idx, t]:.6g},{curves.rt_bias[m_idx, t]:.6g}"
            )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("driver", ["cases", "prevalence"])
def test_bias_curves_csv_equals_cell_indexing_reference(driver, exact):
    for beta, horizon in ((1.4, 400), (0.9, 250), (2.5, 60)):
        traj = sir_simulate(SirParams(
            beta=beta, gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100, horizon=horizon
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            curves = bias_curves(
                traj, 0.02, MEAS_REF, (0.5, 1.0, 2.0, 4.0, 10.0), 7.0, driver, exact
            )
        assert bias_curves_csv(curves) == reference_bias_curves_csv(curves)


def test_bias_curves_csv_renders_special_cells_like_reference():
    cells = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.23456789e12, -0.5])
    curves = BiasCurves(
        steps=np.arange(cells.size),
        rel_rates=(2.0, np.float64(0.125), 1e-7, 3),
        ratio_bias=np.stack([cells, cells[::-1], np.roll(cells, 2), -cells]),
        rt_bias=np.stack([np.roll(cells, 1), cells, cells[::-1], np.roll(cells, 5)]),
        flagged=(),
    )
    text = bias_curves_csv(curves)
    assert text == reference_bias_curves_csv(curves)
    assert "nan" in text and "-inf" in text and ",-0," in text
