import math
import re

import numpy as np
import pytest

from casebias import (
    PERFECT_TEST,
    EffSizeScenario,
    MeasurementModel,
    PopulationSummary,
    SelectionModel,
    SirParams,
    _domain,
    binary_rho,
    delta_diff_threshold,
    forward_rho_dm,
    imperfect_error,
    make_population,
    mc_expectation,
    mc_expectation_reference,
    meas_adjustment_rel,
    mse_vs_srs,
    neff_bound,
    period_stats_analytic,
    population_adjustment,
    prevalence_z,
    rt_estimate,
    selection_error,
    solve_delta,
    starred_z,
    sir_simulate,
    srs_variance,
    survey_interval,
    trial_effect_bias,
    verify_identity,
    z_eff,
)

NAN = math.nan
SUMMARY = PopulationSummary(size=1e6, f=0.02, ybar_hat=0.1, rho=0.01, d_m=1.0, sigma_y=0.3)
# Each call once returned nan; the message names the argument that is NaN.
NAN_INPUTS = [
    (population_adjustment, (NAN, 10), "n1"),
    (delta_diff_threshold, (NAN, 10, 0.02, 0.1), "n1"),
    (mse_vs_srs, (NAN, 0.1), "size"),
    (meas_adjustment_rel, (2, PERFECT_TEST, NAN), "ybar"),
    (rt_estimate, (NAN, 0.1, 7), "ybar_t"),
    (survey_interval, (0.1, NAN), "n"),
    (srs_variance, (NAN, 100, 1000), "pop_prevalence"),
    (starred_z, (NAN, 0.1, 10, 10), "rho1"),
    (z_eff, (NAN, 0.1, 15, 15, 0.026, 0.3), "ybar1"),
    (solve_delta, (NAN, 0.1, 0.026, PERFECT_TEST), "target_rho_dm"),
    (forward_rho_dm, (NAN, 0.1, 0.026, PERFECT_TEST), "delta"),
    (trial_effect_bias, (1.0, NAN, 0.1, 0.5), "exp_rho_iu"),
    (prevalence_z, (SUMMARY, SUMMARY, NAN), "sigma_null"),
    (period_stats_analytic, (0.1, NAN, 2.0, PERFECT_TEST), "f"),
]


@pytest.mark.parametrize("func, args, name", NAN_INPUTS, ids=[c[0].__name__ for c in NAN_INPUTS])
def test_nan_input_is_rejected_naming_the_argument(func, args, name):
    with pytest.raises(ValueError, match=rf"^{name} must .*, got nan$"):
        func(*args)


# Each call once returned a number, raised ZeroDivisionError or named another argument.
REFUSED_AT_ENTRY = [
    (starred_z, (0.1, NAN, 10, 10), "rho2", "nan"),
    (starred_z, (0.1, -0.1, 1, 10), "n1", "1"),
    (starred_z, (0.1, -0.1, 10, 1.5), "n2", "1.5"),
    (z_eff, (0.1, NAN, 15, 15, 0.026, 0.3), "ybar2", "nan"),
    (z_eff, (0.1, 1.5, 15, 15, 0.026, 0.3), "ybar2", "1.5"),
    (z_eff, (0.1, 0.05, 15, 15, 0.026, 0.0), "sigma_y", "0.0"),
    (z_eff, (0.1, 0.05, 15, 15, 0.026, math.inf), "sigma_y", "inf"),
    (solve_delta, (0.01, 0.0, 0.026, PERFECT_TEST), "ybar", "0.0"),
    (solve_delta, (0.01, 1.0, 0.026, PERFECT_TEST), "ybar", "1.0"),
    (solve_delta, (math.inf, 0.1, 0.026, PERFECT_TEST), "target_rho_dm", "inf"),
    (forward_rho_dm, (math.inf, 0.1, 0.026, PERFECT_TEST), "delta", "inf"),
    (forward_rho_dm, (-math.inf, 0.1, 0.026, PERFECT_TEST), "delta", "-inf"),
    (mse_vs_srs, (math.inf, 0.01), "size", "inf"),
    (survey_interval, (0.1, math.inf), "n", "inf"),
    (trial_effect_bias, (1.0, 0.1, 0.1, math.inf), "sigma_u", "inf"),
]


@pytest.mark.parametrize(
    "func, args, name, got", REFUSED_AT_ENTRY,
    ids=[f"{c[0].__name__}-{c[2]}-{c[3]}" for c in REFUSED_AT_ENTRY],
)
def test_out_of_domain_input_is_rejected_where_it_enters(func, args, name, got):
    with pytest.raises(ValueError, match=rf"^{name} must .*, got {re.escape(got)}$"):
        func(*args)


# DRIVER is a domain of strings; every other domain is numeric.
NUMERIC = {
    key: value for key, value in vars(_domain).items()
    if isinstance(value, _domain.Domain) and value is not _domain.DRIVER
}


@pytest.mark.parametrize("domain", NUMERIC.values(), ids=NUMERIC.keys())
def test_every_domain_rejects_nan_as_scalar_and_in_arrays(domain):
    inside = next(value for value in (0.5, 2.0) if domain.test(value))
    with pytest.raises(ValueError, match=rf"^x must {re.escape(domain.wording)}, got nan$"):
        _domain.check("x", NAN, domain)
    with pytest.raises(ValueError, match=r", got nan$"):
        _domain.check("x", np.array([inside, NAN]), domain)
    with pytest.raises(ValueError, match=r", got nan$"):
        _domain.check("x", [inside, NAN], domain)


def test_check_returns_the_value_it_was_given():
    values = [0.25, 0.5]
    assert _domain.check("x", values, _domain.OPEN_UNIT) is values
    array = np.array(values)
    assert _domain.check("x", array, _domain.OPEN_UNIT) is array
    assert _domain.check("x", 0.5, _domain.OPEN_UNIT) == 0.5


def test_array_failure_names_its_first_value_outside_the_domain():
    values = np.full((400, 5), 0.5)
    values[123, 2], values[300, 0] = 1.75, -2.0
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], got 1\.75$"):
        _domain.check("x", values, _domain.UNIT)
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], got -2\.0$"):
        _domain.check("x", values[200:], _domain.UNIT)


TINY = _domain.TINY
# Each builds Ybar(1-Ybar)/(f(1-f)) or (1-f)/f from a tested fraction f.
TESTED_FRACTION_USERS = {
    "binary_rho": lambda f: binary_rho(0.01, 0.1, f),
    "EffSizeScenario": lambda f: neff_bound(EffSizeScenario(0.016, 2.0, f)),
    "PopulationSummary": lambda f: PopulationSummary(1e6, f, 0.1, 0.01, 1.0, 0.3).quantity,
    "delta_diff_threshold": lambda f: delta_diff_threshold(1e6, 1e6, f, 0.1),
    "z_eff": lambda f: z_eff(0.1, 0.12, 100.0, 100.0, f, 0.3),
    "selection_error": lambda f: selection_error(0.01, f, 0.3),
    "imperfect_error": lambda f: imperfect_error(0.1, f, 0.01, 0.0, 0.1, 0.0, 0.0).total_error,
}


@pytest.mark.parametrize("use", TESTED_FRACTION_USERS.values(), ids=TESTED_FRACTION_USERS.keys())
def test_tested_fraction_rejects_subnormals_and_keeps_the_smallest_normal_finite(use):
    for f in (5e-324, TINY / 2, 0.0, 1.0):
        with pytest.raises(ValueError, match=r" must lie strictly in \(0, 1\) and be >= "):
            use(f)
    assert math.isfinite(use(TINY))
    assert _domain.TESTED_FRACTION.test(TINY) and not _domain.TESTED_FRACTION.test(TINY / 2)


POP = make_population(200, 0.2, seed=1)
SEL, MEAS = SelectionModel(f0=0.1, f1=0.3), MeasurementModel(fp=0.01, fn=0.1)


def _sir_path(horizon):
    traj = sir_simulate(SirParams(beta=1.4, gamma_rec=0.2, size=100.0, s0=99.0, i0=1.0,
                                  horizon=horizon))
    return traj.times.tolist(), traj.susceptible.tolist(), traj.max_drift


# Each entry point that takes a count: (parameter, smallest count, call returning a comparable).
COUNT_USERS = {
    "make_population": ("size", 2, lambda n: make_population(n, 0.2, seed=1).outcomes.tolist()),
    "SirParams": ("horizon", 1, _sir_path),
    "mc_expectation": ("replications", 2, lambda n: mc_expectation(POP, SEL, MEAS, "error", n, 1)),
    "mc_expectation_reference": (
        "replications", 2, lambda n: mc_expectation_reference(POP, SEL, MEAS, "error", n, 1)
    ),
    "verify_identity": ("replications", 1, lambda n: verify_identity(POP, SEL, MEAS, n, 1)),
}


@pytest.mark.parametrize("name, low, use", COUNT_USERS.values(), ids=COUNT_USERS.keys())
def test_counts_are_checked_where_they_enter(name, low, use):
    for bad in (2.5, NAN, math.inf, low - 1):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {low}, got "
                                             rf"{re.escape(str(bad))}$"):
            use(bad)
    for count in (low, 3):
        assert use(float(count)) == use(count)
