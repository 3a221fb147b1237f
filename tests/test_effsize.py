import math

import numpy as np
import pytest

from casebias import (
    EffSizeScenario,
    MeasurementModel,
    PERFECT_TEST,
    SelectionModel,
    binary_rho,
    capacity_tradeoff,
    format_neff_table,
    make_population,
    mc_expectation,
    mse_vs_srs,
    neff_bound,
    neff_table,
    relative_mse,
    relative_mse_mc,
)

MEAS_REF = MeasurementModel(fp=0.005, fn=0.172)


def test_scenario_derived_rates():
    sc = EffSizeScenario(ybar=0.091, rel_rate=2.0, f=0.026)
    assert sc.selection.f0 == pytest.approx(0.026 / 1.091, rel=1e-12)
    assert sc.selection.f1 == pytest.approx(2 * 0.026 / 1.091, rel=1e-12)
    assert sc.delta == pytest.approx(0.026 / 1.091, rel=1e-12)
    with pytest.raises(ValueError):
        EffSizeScenario(ybar=0.0, rel_rate=2.0, f=0.026)
    with pytest.raises(ValueError):
        EffSizeScenario(ybar=0.5, rel_rate=2.0, f=1.0)


def test_binary_rho_zero_differential():
    assert binary_rho(0.0, 0.2, 0.05) == 0.0


def test_binary_rho_direct_evaluation():
    sc = EffSizeScenario(ybar=0.091, rel_rate=2.0, f=0.026)
    value = binary_rho(sc.delta, 0.091, 0.026)
    expected = sc.delta * math.sqrt(0.091 * 0.909 / (0.026 * 0.974))
    assert value == pytest.approx(expected, rel=1e-14)
    assert value == pytest.approx(0.043, abs=1e-3)
    with pytest.raises(ValueError):
        binary_rho(0.01, 0.0, 0.05)


def test_binary_rho_matches_mc():
    pop = make_population(100_000, 0.1, seed=12)
    sel = SelectionModel(0.02, 0.04)
    est = mc_expectation(pop, sel, PERFECT_TEST, "rho_iy", 600, seed=12)
    predicted = binary_rho(sel.delta, 0.1, sel.overall_fraction(0.1))
    assert abs(est.mean - predicted) < 3 * est.std_error


def test_neff_bound_reference_scalar():
    assert neff_bound(EffSizeScenario(0.091, 2.0, 0.026)) == pytest.approx(14.39, abs=0.05)


def test_neff_bound_equal_rates_infinite():
    with pytest.warns(RuntimeWarning):
        assert math.isinf(neff_bound(EffSizeScenario(0.1, 1.0, 0.026)))


def test_neff_bound_measurement_error_shrinks():
    grid = [(0.05, 1.5), (0.091, 2.0), (0.3, 1.2)]
    for ybar, m in grid:
        clean = neff_bound(EffSizeScenario(ybar, m, 0.026))
        noisy = neff_bound(EffSizeScenario(ybar, m, 0.026, MEAS_REF))
        assert noisy < clean
        same = neff_bound(EffSizeScenario(ybar, m, 0.026, PERFECT_TEST))
        assert same == pytest.approx(clean, rel=1e-12)


def test_neff_table_monotone():
    ybars = [0.016, 0.036, 0.056, 0.076, 0.096]
    ms = [1.2, 1.4, 1.6, 1.8, 2.0]
    table = neff_table(ybars, ms, 0.026)
    assert (np.diff(table, axis=1) <= 0).all()  # decreasing in M
    assert (np.diff(table, axis=0) <= 0).all()  # decreasing in prevalence
    with pytest.raises(ValueError):
        neff_table([], ms, 0.026)


def test_neff_table_equal_rates_all_infinite():
    with pytest.warns(RuntimeWarning):
        table = neff_table([0.05, 0.1], [1.0], 0.026)
    assert np.isinf(table).all()
    rendered = format_neff_table(table, [0.05, 0.1], [1.0])
    assert "inf" in rendered


def test_format_neff_table_layout():
    table = neff_table([0.016], [1.2, 2.0], 0.026)
    text = format_neff_table(table, [0.016], [1.2, 2.0])
    lines = text.strip().split("\n")
    assert lines[0] == "ybar,1.2,2"
    assert lines[1].startswith("0.016,")
    assert lines[1].endswith(".00")


def test_mse_vs_srs():
    assert mse_vs_srs(10_000, 1.0 / 9999.0) == pytest.approx(1.0, rel=1e-12)
    assert mse_vs_srs(500, 0.0) == 0.0
    ratio = mse_vs_srs(5_000_000, 1e-6) / mse_vs_srs(1_000_000, 1e-6)
    assert ratio == pytest.approx(5.0, abs=0.01)


def test_relative_mse_perfect_test_is_one():
    sc = EffSizeScenario(0.091, 1.5, 0.026, PERFECT_TEST)
    ref = EffSizeScenario(0.091, 1.5, 0.026)
    assert relative_mse(sc, ref) == pytest.approx(1.0, rel=1e-12)


def test_relative_mse_scenario_mismatch_rejected():
    with pytest.raises(ValueError):
        relative_mse(
            EffSizeScenario(0.091, 1.5, 0.026, MEAS_REF),
            EffSizeScenario(0.1, 1.5, 0.026),
        )
    with pytest.raises(ValueError):
        relative_mse(
            EffSizeScenario(0.091, 1.5, 0.026, MEAS_REF),
            EffSizeScenario(0.091, 1.5, 0.026, MEAS_REF),
        )


def test_relative_mse_mc_agrees_with_expectation_form():
    with_meas = EffSizeScenario(0.091, 1.5, 0.026, MEAS_REF)
    without = EffSizeScenario(0.091, 1.5, 0.026)
    analytic = relative_mse(with_meas, without, adjustment="expectation")
    mc, se = relative_mse_mc(with_meas, without, size=100_000, replications=600, seed=17)
    assert abs(mc - analytic) < 3 * se


def test_relative_mse_mc_corrected_estimator():
    with_meas = EffSizeScenario(0.091, 1.5, 0.026, MEAS_REF)
    without = EffSizeScenario(0.091, 1.5, 0.026)
    analytic = relative_mse(with_meas, without, estimator="corrected", adjustment="expectation")
    mc, se = relative_mse_mc(
        with_meas, without, size=100_000, replications=600, seed=19, estimator="corrected"
    )
    assert abs(mc - analytic) < 3 * se


def test_capacity_tradeoff_reference_escalation():
    result = capacity_tradeoff(
        0.05, 0.1, MeasurementModel(0.005, 0.05), MeasurementModel(0.05, 0.20), 0.091, 1.5
    )
    assert result.neff_factor == pytest.approx(2.9, abs=0.2)
    assert result.neff_factor_naive == pytest.approx(4.0, rel=1e-9)
    assert result.mse_reduction == pytest.approx(0.26, abs=0.03)
    assert result.mse_reduction_naive == pytest.approx(0.47, abs=0.03)


def test_capacity_tradeoff_worst_case():
    result = capacity_tradeoff(
        0.05, 0.1, MeasurementModel(0.005, 0.05), MeasurementModel(0.10, 0.30), 0.091, 1.5
    )
    assert result.neff_factor == pytest.approx(2.3, abs=0.2)


def test_capacity_tradeoff_no_meas_change():
    # Fixed testing differential: doubling f quadruples the bound, give or
    # take the tiny f-dependence inside the adjustment bracket.
    meas = MeasurementModel(0.005, 0.05)
    result = capacity_tradeoff(0.05, 0.1, meas, meas, 0.091, 1.5)
    assert result.neff_factor == pytest.approx(4.0, abs=0.05)


def test_constant_quality_gain_is_quantity_ratio():
    # Holding rho*D fixed, the bound scales by the f/(1-f) ratio alone:
    # doubling f from 0.05 buys about a factor 2.
    f1, f2 = 0.05, 0.1
    sc1 = EffSizeScenario(0.091, 1.5, f1)
    sc2 = EffSizeScenario(0.091, 1.5, f2)
    rho = binary_rho(sc1.delta, 0.091, f1)
    bound1 = f1 / (1 - f1) / rho**2
    bound2 = f2 / (1 - f2) / rho**2
    assert bound2 / bound1 == pytest.approx((f2 / (1 - f2)) / (f1 / (1 - f1)), rel=1e-12)
    assert 1.8 < bound2 / bound1 < 2.3


def test_relative_mse_mc_seed_forms():
    with_meas = EffSizeScenario(0.091, 1.5, 0.026, MEAS_REF)
    without = EffSizeScenario(0.091, 1.5, 0.026)

    def run(seed):
        return relative_mse_mc(with_meas, without, size=20_000, replications=50, seed=seed)

    by_int = run(23)
    assert run(np.random.SeedSequence(23)) == by_int
    assert run(np.random.default_rng(23)) == by_int
    assert all(math.isfinite(v) for v in by_int)
