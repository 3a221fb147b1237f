import math
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from casebias import (
    EffSizeScenario,
    MeasurementModel,
    PERFECT_TEST,
    SelectionModel,
    PopulationCounts,
    binary_rho,
    capacity_tradeoff,
    corrected_prevalence,
    d_m,
    format_neff_table,
    make_population,
    mc_expectation,
    mse_vs_srs,
    neff_bound,
    neff_table,
    relative_mse,
    relative_mse_mc,
)
from casebias._domain import TINY, label
from casebias.decomposition import meas_adjustment_rel
from casebias.effsize import _scenario_error

MEAS_REF = MeasurementModel(fp=0.005, fn=0.172)


def d_m_of_rate(ybar, m, meas):
    """D_M in the relative-rate form, where f has cancelled:
    1 + FP + FN - (M-1)/(Ybar(M-1)+1) * (Ybar/(1-Ybar)) * (FP(1-Ybar)+FN*Ybar)."""
    q = (m - 1.0) / (ybar * (m - 1.0) + 1.0)
    mix = meas.fp * (1.0 - ybar) + meas.fn * ybar
    return 1.0 + meas.fp + meas.fn - q * (ybar / (1.0 - ybar)) * mix


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


# Each call once returned inf or nan; the message names the argument.
REFUSED = [
    (binary_rho, dict(delta=0.01, ybar=0.1, f=0.02), "delta", [math.nan, math.inf, -math.inf]),
    (mse_vs_srs, dict(size=1000, exp_rho_sq=1e-3), "exp_rho_sq",
     [math.nan, math.inf, -math.inf, -1e-3]),
]


@pytest.mark.parametrize(
    "func, kwargs, name, bad",
    [(func, kwargs, name, bad) for func, kwargs, name, values in REFUSED for bad in values],
    ids=[f"{func.__name__}-{name}-{bad}" for func, _, name, values in REFUSED for bad in values],
)
def test_formulas_refuse_non_finite_input_naming_the_argument(func, kwargs, name, bad):
    func(**kwargs)
    with pytest.raises(ValueError, match=rf"^{name} must "):
        func(**dict(kwargs, **{name: bad}))


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"adjustment": "bracket"}, "unknown adjustment 'bracket'"),
        ({"estimator": "raw"}, "unknown estimator 'raw'"),
        ({"estimator": "raw", "adjustment": "expectation"}, "unknown estimator 'raw'"),
    ],
)
def test_relative_mse_rejects_unknown_conventions(kwargs, message):
    sc = EffSizeScenario(0.091, 1.5, 0.026, MEAS_REF)
    with pytest.raises(ValueError, match=f"^{message}$"):
        relative_mse(sc, EffSizeScenario(0.091, 1.5, 0.026), **kwargs)


def test_relative_mse_unknown_adjustment_wins_over_unknown_estimator():
    sc = EffSizeScenario(0.091, 1.5, 0.026, MEAS_REF)
    with pytest.raises(ValueError, match="^unknown adjustment 'bracket'$"):
        relative_mse(sc, EffSizeScenario(0.091, 1.5, 0.026), estimator="raw",
                     adjustment="bracket")


def _scenario_error_ladder(scenario, estimator, include_bias, adjustment):
    # Reference: one branch per (adjustment, estimator) pair.  rho * sqrt((1-f)/f) * sigma_Y
    # is (Delta/f) Ybar(1-Ybar), with Delta/f = (M-1)/(Ybar(M-1)+1).
    meas, ybar, m = scenario.meas or PERFECT_TEST, scenario.ybar, scenario.rel_rate
    base = (m - 1.0) / (ybar * (m - 1.0) + 1.0) * ybar * (1.0 - ybar)
    bias = meas.fp - (meas.fp + meas.fn) * ybar
    rates = meas.fp + meas.fn
    if (adjustment, estimator) == ("scenario", "uncorrected"):
        err = base * meas_adjustment_rel(m, meas, ybar)
    elif (adjustment, estimator) == ("scenario", "corrected"):
        return base * d_m_of_rate(ybar, m, meas)
    elif (adjustment, estimator) == ("expectation", "uncorrected"):
        err = base * (1.0 - rates)
    else:
        return base * (1.0 - rates) * (1.0 + rates) + bias * rates
    if include_bias:
        err += bias
    return err


def test_scenario_error_equals_the_per_convention_ladder():
    rng = np.random.default_rng(2323)
    for _ in range(200):
        meas = MeasurementModel(fp=float(rng.uniform(0, 0.2)), fn=float(rng.uniform(0, 0.3)))
        sc = EffSizeScenario(float(rng.uniform(0.01, 0.6)), float(rng.uniform(0.2, 5.0)),
                             float(rng.uniform(0.001, 0.15)), meas)
        for adjustment in ("scenario", "expectation"):
            for estimator in ("uncorrected", "corrected"):
                for include_bias in (False, True):
                    args = (sc, estimator, include_bias, adjustment)
                    assert _scenario_error(*args).hex() == _scenario_error_ladder(*args).hex()


def test_relative_mse_mc_rejects_an_unknown_estimator():
    sc = EffSizeScenario(0.091, 1.5, 0.026, MEAS_REF)
    with pytest.raises(ValueError, match="^unknown estimator 'raw'$"):
        relative_mse_mc(sc, EffSizeScenario(0.091, 1.5, 0.026), 1000, 10, seed=1,
                        estimator="raw")


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


def reference_neff_bound(ybar, m, f, meas=None):
    """One cell as the per-cell loop computes it, on Python floats:
    ((Ybar(M-1)+1)/(M-1))^2 / (Ybar(1-Ybar) D_M^2), infinite where M = 1,
    where D_M = 0 or where the square overflows.  f has cancelled from every factor."""
    adj = 1.0
    if meas is not None and not meas.is_perfect:
        adj = d_m_of_rate(ybar, m, meas)
    if m == 1.0 or adj == 0.0:
        return math.inf
    try:
        square = ((ybar * (m - 1.0) + 1.0) / (m - 1.0)) ** 2
    except OverflowError:
        return math.inf
    return square / (ybar * (1.0 - ybar) * adj**2)


def reference_neff_table(ybar_grid, rel_rate_grid, f, meas=None):
    """The per-cell loop: one scalar scenario and bound per (prevalence, M) cell."""
    out = np.empty((len(ybar_grid), len(rel_rate_grid)))
    for i, ybar in enumerate(ybar_grid):
        for j, m in enumerate(rel_rate_grid):
            bound = reference_neff_bound(ybar, m, f, meas)
            out[i, j] = math.floor(bound) if math.isfinite(bound) else math.inf
    return out


def random_neff_grid(rng):
    """A (ybar grid, M grid, f, meas) case; every cell keeps both testing rates in [0, 1]."""
    edge = rng.random() < 0.2  # f at the lower edge of its domain
    kinds = rng.integers(0, 4, size=rng.integers(1, 6))
    ybar = np.where(
        kinds == 0, 10.0 ** rng.uniform(-12, -3, kinds.size),  # near 0
        np.where(kinds == 1, 0.5 - 10.0 ** rng.uniform(-12, -2, kinds.size),  # near 0.5
                 rng.uniform(1e-3, 0.95, kinds.size)),
    )
    if edge:  # keep (rho * D_M)^2 clear of underflow at f = TINY
        ybar = np.clip(ybar, 1e-3, 0.9)
    kinds = rng.integers(0, 3, size=rng.integers(1, 6))
    rel_rate = np.where(kinds == 0, 1.0, np.where(
        kinds == 1, rng.uniform(0.05, 0.95, kinds.size), rng.uniform(1.05, 50.0, kinds.size)))
    if edge:
        f = TINY * rng.choice([1.0, 1.0, 3.0])
    else:
        f = 10.0 ** rng.uniform(-6, np.log10(0.5))
        # f0 = f / (ybar (M - 1) + 1) and f1 = M f0 must stay <= 1 in every cell.
        top = (np.maximum(rel_rate, 1.0) * f / (ybar[:, None] * (rel_rate - 1.0) + 1.0)).max()
        if top > 1.0:
            f = f / (2.0 * top)
    meas = None
    if rng.random() < 0.5:
        meas = rng.choice([PERFECT_TEST, MEAS_REF, MeasurementModel(
            fp=rng.uniform(0.0, 0.05), fn=rng.uniform(0.0, 0.3))])
    return ybar.tolist(), rel_rate.tolist(), float(f), meas


def test_neff_table_equals_the_per_cell_loop_on_seeded_grids():
    rng = np.random.default_rng(20260)
    seen = {"meas": 0, "no-meas": 0, "inf": 0, "m<1": 0, "edge": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(2400):
            ybar, rel_rate, f, meas = random_neff_grid(rng)
            table = neff_table(ybar, rel_rate, f, meas)
            expected = reference_neff_table(ybar, rel_rate, f, meas)
            assert np.array_equal(table, expected), (ybar, rel_rate, f, meas)
            seen["meas" if meas is not None else "no-meas"] += 1
            seen["inf"] += bool(np.isinf(expected).any())
            seen["m<1"] += min(rel_rate) < 1.0
            seen["edge"] += f < 4 * TINY
    assert min(seen.values()) >= 200, seen


def test_neff_bound_scalar_is_a_float_equal_to_the_reference():
    for ybar, m, f, meas in [(0.091, 2.0, 0.026, None), (0.091, 2.0, 0.026, MEAS_REF),
                             (0.3, 0.4, 0.1, MEAS_REF), (0.2, 3.0, TINY, None)]:
        bound = neff_bound(EffSizeScenario(ybar, m, f, meas))
        assert type(bound) is float
        assert bound == reference_neff_bound(ybar, m, f, meas)


def test_neff_bound_broadcasts_over_array_scenarios():
    ybar = np.array([[0.05], [0.2]])
    bounds = neff_bound(EffSizeScenario(ybar, np.array([0.5, 2.0]), 0.026, MEAS_REF))
    assert bounds.shape == (2, 2)
    for (i, j), bound in np.ndenumerate(bounds):
        assert bound == reference_neff_bound(ybar[i, 0], [0.5, 2.0][j], 0.026, MEAS_REF)


def test_neff_table_warns_once_for_all_its_infinite_cells():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = neff_table([0.016, 0.05, 0.1], [1.0, 2.0, 1.0], 0.026, MEAS_REF)
    assert np.isinf(table[:, [0, 2]]).all() and np.isfinite(table[:, 1]).all()
    assert [w.category for w in caught] == [RuntimeWarning]


def test_neff_table_builds_one_selection_model(monkeypatch):
    built = []
    post_init = SelectionModel.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SelectionModel, "__post_init__", counting)
    neff_table([0.016, 0.036, 0.056, 0.076, 0.096], [1.2, 1.4, 1.6, 1.8, 2.0], 0.026, MEAS_REF)
    assert len(built) == 1


def test_scenario_keeps_its_selection_model():
    sc = EffSizeScenario(0.091, 2.0, 0.026)
    assert sc.selection is sc.selection
    assert sc == EffSizeScenario(0.091, 2.0, 0.026)
    assert "selection" not in repr(sc)


def test_scenario_rejects_an_underflowed_testing_rate():
    # f0 = TINY / (0.5 * 1e300) underflows to 0, and so does f1 = M * f0.
    with pytest.raises(ValueError, match=r"^f0 must be finite and positive, got 0\.0$"):
        EffSizeScenario(0.5, 1e300, TINY)


def reference_relative_mse_mc(with_meas, without, size, replications, seed,
                              estimator="uncorrected"):
    """``relative_mse_mc`` as it ran on the N-length ``make_population(size, ybar, seed=0)``."""
    meas = with_meas.meas or PERFECT_TEST
    pop = make_population(size, with_meas.ybar, seed=0)
    sel = with_meas.selection
    if estimator == "uncorrected":
        func = "error"
    else:
        def func(p, s):
            return corrected_prevalence(s.ybar_star, meas) - p.prevalence
    rng = np.random.default_rng(seed)
    num = mc_expectation(pop, sel, meas, func, replications, rng)
    den = mc_expectation(pop, sel, PERFECT_TEST, "error", replications, rng)
    ratio = (num.mean / den.mean) ** 2
    se = abs(ratio) * 2.0 * math.sqrt(
        (num.std_error / num.mean) ** 2 + (den.std_error / den.mean) ** 2
    )
    return float(ratio), float(se)


@pytest.mark.parametrize("estimator", ["uncorrected", "corrected"])
@pytest.mark.parametrize("form", ["int", "seed-sequence", "generator"])
@pytest.mark.parametrize("ybar, size", [(0.091, 100_000), (0.3, 20_001), (0.5, 2_001)])
def test_relative_mse_mc_equals_the_make_population_path(ybar, size, form, estimator):
    with_meas = EffSizeScenario(ybar, 1.5, 0.026, MEAS_REF)
    without = EffSizeScenario(ybar, 1.5, 0.026)
    seeds = {"int": lambda: 17, "seed-sequence": lambda: np.random.SeedSequence(17),
             "generator": lambda: np.random.default_rng(17)}[form]
    got = relative_mse_mc(with_meas, without, size, 600, seeds(), estimator)
    assert got == reference_relative_mse_mc(with_meas, without, size, 600, seeds(), estimator)


def test_relative_mse_mc_builds_no_population_vector():
    with_meas = EffSizeScenario(0.091, 1.5, 0.026, MEAS_REF)
    without = EffSizeScenario(0.091, 1.5, 0.026)
    start = time.perf_counter()
    ratio, se = relative_mse_mc(with_meas, without, size=10**12, replications=600, seed=17)
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(ratio) and math.isfinite(se)
    analytic = relative_mse(with_meas, without, adjustment="expectation")
    assert abs(ratio - analytic) < 3 * se
    for size in (1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^size must be an integer >= 2, got {size}$"):
            relative_mse_mc(with_meas, without, size=size, replications=600, seed=17)
    assert PopulationCounts(10**12, round(0.091 * 10**12)).prevalence == 0.091


def scale_free_log_bound(ybar, m, meas=None):
    """log of ((Ybar(M-1)+1)/(M-1))^2 / (Ybar(1-Ybar) D_M^2), the bound f/(1-f)/(rho D_M)^2
    with f/Delta = (Ybar(M-1)+1)/(M-1); no factor of it underflows."""
    # D_M reads f only through Delta/f = (M-1)/(Ybar(M-1)+1); a normal f keeps Delta normal.
    sel = SelectionModel.from_relative_rate(0.25, m, ybar)
    adj = 1.0 if meas is None else d_m(sel, meas, ybar)
    return (2.0 * math.log(abs((ybar * (m - 1.0) + 1.0) / (m - 1.0)))
            - math.log(ybar * (1.0 - ybar)) - 2.0 * math.log(abs(adj)))


def test_neff_cell_whose_square_underflows_takes_the_scale_free_bound():
    # At f = 1e-300, (rho * D_M)^2 underflows to 0 for M within ~1e-12 of 1.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = neff_table([0.5], [1.000000000001, 2.0], 1e-300)
        bound = neff_bound(EffSizeScenario(0.5, 1.000000000001, 1e-300))
    m1 = 1.000000000001 - 1.0
    assert type(bound) is float and bound == ((0.5 * m1 + 1.0) / m1) ** 2 / (0.5 * 0.5)
    assert 3.9992e24 < bound < 3.9994e24
    assert table[0, 0] == math.floor(bound)
    assert table[0, 1] == 9.0 == math.floor(reference_neff_bound(0.5, 2.0, 1e-300))


def subnormal_square_cells():
    """(scenario inputs, bound) of every cell of the seeded grids whose nonzero
    rho * D_M squares below the smallest normal double."""
    rng = np.random.default_rng(20260)
    cells = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(2400):
            ybar, rel_rate, f, meas = random_neff_grid(rng)
            sc = EffSizeScenario(np.array(ybar)[:, None], np.array(rel_rate), f, meas)
            adj = d_m_of_rate(sc.ybar, np.array(rel_rate), meas or PERFECT_TEST)
            scale = binary_rho(sc.delta, sc.ybar, f) * adj
            bound = neff_bound(sc)
            for i, j in zip(*np.nonzero((scale != 0.0) & (scale**2 < TINY))):
                cells.append((ybar[i], rel_rate[j], f, adj[i, j], bound[i, j]))
    return cells


def test_neff_bound_is_exact_where_the_square_is_subnormal():
    # f^2 / (Delta^2 Ybar(1-Ybar) D_M^2) in exact arithmetic, with
    # Delta = f (M-1) / (Ybar(M-1)+1); the plain form was off by up to 4.0e-11 relative.
    cells = subnormal_square_cells()
    assert len(cells) >= 2000
    worst = 0.0
    for ybar, m, f, adj, bound in cells:
        ybar, m, f, adj = map(Fraction, (ybar, m, f, adj))
        delta = f * (m - 1) / (ybar * (m - 1) + 1)
        exact = f**2 / (delta**2 * ybar * (1 - ybar) * adj**2)
        worst = max(worst, abs(float((Fraction(bound) - exact) / exact)))
    assert worst < 1e-14, worst


def test_an_infinite_neff_cell_needs_a_zero_scale_or_a_bound_past_the_largest_double():
    ybar = [1e-300, 1e-12, 0.016, 0.5, 0.9]
    rel_rate = [1.0, 1.0 + 2.0**-52, 1.000000000001, 1.0 + 1e-9, 1.0 - 1e-12, 0.5, 2.0]
    mended = 0
    for f in [1e-300, TINY, 1e-250, 1e-200, 0.026]:
        for meas in [None, MEAS_REF]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                table = neff_table(ybar, rel_rate, f, meas)
            for (i, j), cell in np.ndenumerate(table):
                sc = EffSizeScenario(ybar[i], rel_rate[j], f, meas)
                scale = binary_rho(sc.delta, ybar[i], f) * d_m(
                    sc.selection, meas or PERFECT_TEST, ybar[i])
                if math.isinf(cell) and scale != 0.0:
                    log_bound = scale_free_log_bound(ybar[i], rel_rate[j], meas)
                    assert log_bound > math.log(sys.float_info.max), (i, j, f, meas)
                mended += scale != 0.0 and scale**2 == 0.0 and math.isfinite(cell)
    assert mended >= 20


def test_neff_table_with_finite_cells_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        neff_table([0.016, 0.096], [1.2, 2.0], 0.026, MEAS_REF)
        neff_bound(EffSizeScenario(0.2, 3.0, TINY))


def test_grid_labels_read_back_as_the_grid_values():
    ybar_grid, m_grid = [0.016, 0.1 + 1e-12], [1.2, 1.2000001, 1.000000000001, 2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        table = neff_table(ybar_grid, m_grid, 0.026)
    lines = format_neff_table(table, ybar_grid, m_grid).split("\n")
    assert lines[0] == "ybar,1.2,1.2000001,1.000000000001,2"
    assert [float(line.split(",")[0]) for line in lines[1:-1]] == ybar_grid
    for x in [0.016, 1.2, 2.0, 1e-7, 0.125, 3, np.float64(1.6), math.inf]:
        assert label(x) == f"{x:g}"
    assert label(math.nan) == "nan"
    assert label(np.float64(1.2000001)) == "1.2000001"


def exact_neff_bound(ybar, m, adj):
    """((Ybar(M-1)+1)/(M-1))^2 / (Ybar(1-Ybar) D_M^2) in exact arithmetic, D_M as computed,
    as a (numerator, denominator) pair of integers.

    With Ybar = a/b, M = c/d and D_M = e/g it is ((a(c-d) + bd) g)^2 / ((c-d)^2 a(b-a) e^2).
    """
    (a, b), (c, d), (e, g) = (float(x).as_integer_ratio() for x in (ybar, m, adj))
    return ((a * (c - d) + b * d) * g) ** 2, (c - d) ** 2 * a * (b - a) * e**2


def relative_error(value, exact):
    """|value - exact| / exact for a positive exact (numerator, denominator) pair."""
    p, q = float(value).as_integer_ratio()
    num, den = exact
    return abs(p * den - q * num) / (q * num)  # int / int rounds once, at any size


def test_neff_bound_is_exact_on_every_finite_seeded_cell():
    # Worst 1.4e-15 relative over 14,357 cells; evaluated through rho,
    # f/(1-f)/(rho D_M)^2 is off by up to 4.4e-15 here.
    rng = np.random.default_rng(20260)
    worst, cells = 0.0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(2400):
            ybar, rel_rate, f, meas = random_neff_grid(rng)
            sc = EffSizeScenario(np.array(ybar)[:, None], np.array(rel_rate), f, meas)
            adj = d_m_of_rate(sc.ybar, np.array(rel_rate), meas or PERFECT_TEST)
            bound = neff_bound(sc)
            for i, j in zip(*np.nonzero(np.isfinite(bound))):
                exact = exact_neff_bound(ybar[i], rel_rate[j], adj[i, j])
                worst = max(worst, relative_error(bound[i, j], exact))
                cells += 1
    assert cells >= 14000
    assert worst < 2e-15, worst


def test_perfect_test_neff_bound_does_not_depend_on_f():
    # f cancels from f/(1-f)/(rho D_M)^2 when D_M = 1; evaluated through rho,
    # cells move by up to 4.7e-15 relative between f and 0.37 f.
    rng = np.random.default_rng(20260)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(2400):
            ybar, rel_rate, f, _ = random_neff_grid(rng)
            other = 0.37 * f if 0.37 * f >= TINY else f / 0.37
            at_f = neff_bound(EffSizeScenario(np.array(ybar)[:, None], np.array(rel_rate), f))
            at_other = neff_bound(
                EffSizeScenario(np.array(ybar)[:, None], np.array(rel_rate), other))
            assert np.array_equal(at_f, at_other), (ybar, rel_rate, f)


def test_neff_bound_under_a_test_error_does_not_depend_on_f():
    # D_M reads Delta/f = (M-1)/(Ybar(M-1)+1), not the rounded rates f0 and f1; through
    # them, MEAS_REF's bounds moved on 977 of these grids, by up to 2.1e-11 relative.
    rng = np.random.default_rng(20260)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(2400):
            ybar, rel_rate, f, meas = random_neff_grid(rng)
            other = 0.37 * f if 0.37 * f >= TINY else f / 0.37
            for test in {MEAS_REF, meas or MEAS_REF}:
                at_f, at_other = (neff_bound(EffSizeScenario(
                    np.array(ybar)[:, None], np.array(rel_rate), x, test)) for x in (f, other))
                assert np.array_equal(at_f, at_other), (ybar, rel_rate, f, test)


def test_relative_mse_does_not_depend_on_f():
    # rho * sqrt((1-f)/f) * sigma_Y = (Delta/f) Ybar(1-Ybar), and D_M reads Delta/f alone.
    rng = np.random.default_rng(2323)
    for _ in range(200):
        meas = MeasurementModel(fp=float(rng.uniform(0, 0.2)), fn=float(rng.uniform(0, 0.3)))
        ybar, m, f = (float(rng.uniform(0.01, 0.6)), float(rng.uniform(0.2, 5.0)),
                      float(rng.uniform(0.001, 0.15)))
        for adjustment in ("scenario", "expectation"):
            for estimator in ("uncorrected", "corrected"):
                at_f, at_other = (relative_mse(
                    EffSizeScenario(ybar, m, x, meas), EffSizeScenario(ybar, m, x),
                    estimator=estimator, adjustment=adjustment) for x in (f, 0.37 * f))
                assert at_f == at_other, (ybar, m, f, meas, adjustment, estimator)


def test_a_relative_rate_near_the_largest_double_keeps_every_bracket_finite():
    # (M-1) * Ybar/(1-Ybar) overflows here; Delta/f = (M-1)/(Ybar(M-1)+1) stays near 1/Ybar.
    perfect = EffSizeScenario(0.99, 1e307, 0.5)
    assert neff_bound(perfect) == pytest.approx(99.0, rel=1e-14)
    assert math.isfinite(neff_bound(EffSizeScenario(0.99, 1e307, 0.5, MEAS_REF)))
    assert math.isfinite(relative_mse(EffSizeScenario(0.99, 1e307, 0.5, MEAS_REF), perfect))
    assert meas_adjustment_rel(1e307, PERFECT_TEST, 0.99) == 1.0


@pytest.mark.parametrize("f", [0.026, 0.3])
def test_neff_bound_is_exact_for_a_relative_rate_next_to_one(f):
    # Delta = f1 - f0 keeps only ~7 digits of M - 1 here, so a bound through rho drifts with f.
    bound = neff_bound(EffSizeScenario(0.1, 1.000000001, f))
    assert relative_error(bound, exact_neff_bound(0.1, 1.000000001, 1.0)) < 1e-14
