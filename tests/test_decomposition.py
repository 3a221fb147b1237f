import dataclasses
import math

import numpy as np
import pytest

from casebias import (
    DegenerateSampleError,
    EmpiricalStats,
    ErrorDecomposition,
    MeasurementModel,
    PERFECT_TEST,
    SelectionModel,
    adjustment_factors,
    contaminated_prevalence,
    corrected_prevalence,
    d_m,
    decompose_realization,
    empirical_stats,
    imperfect_error,
    joint_counts,
    make_population,
    mc_expectation,
    meas_adjustment,
    meas_adjustment_rel,
    selection_error,
    rho_ipz_from_rho_iy,
    sigma_pz_analytic,
    realize,
    stats_from_counts,
    trial_effect_bias,
    verify_identity,
)

MEAS_REF = MeasurementModel(fp=0.005, fn=0.172)


def test_selection_error_zero_rho():
    assert selection_error(0.0, 0.3, 0.5) == 0.0


def test_selection_error_direct_evaluation():
    # 0.043 * sqrt(0.974/0.026) * sqrt(0.091*0.909), recomputed by hand
    value = selection_error(0.043, 0.026, math.sqrt(0.091 * 0.909))
    expected = 0.043 * math.sqrt(0.974 / 0.026) * math.sqrt(0.091 * 0.909)
    assert value == pytest.approx(expected, rel=1e-14)
    assert value == pytest.approx(0.0756944, abs=1e-6)


def test_selection_error_census_limit():
    assert selection_error(0.5, 1 - 1e-12, 0.5) == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(ValueError):
        selection_error(0.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        selection_error(0.5, 0.0, 0.5)


def test_selection_error_matches_mc_mean():
    pop = make_population(100_000, 0.091, seed=9)
    sel = SelectionModel.from_relative_rate(0.026, 2.0, 0.091)
    est = mc_expectation(pop, sel, PERFECT_TEST, "error", 1200, seed=21)
    rho = sel.delta * math.sqrt(0.091 * 0.909 / (0.026 * 0.974))
    assert abs(est.mean - selection_error(rho, 0.026, pop.sigma_y)) < 3 * est.std_error


def test_imperfect_error_reduces_to_selection_error():
    dec = imperfect_error(ybar=0.2, f=0.05, rho_iy=0.03, rho_ipz=0.0, sigma_pz=0.0, fp=0.0, fn=0.0)
    assert dec.interaction_term == 0.0
    assert dec.bias_term == 0.0
    assert dec.total_error == pytest.approx(selection_error(0.03, 0.05, math.sqrt(0.16)), rel=1e-12)


def test_imperfect_error_total_is_scaled_bracket_sum():
    dec = imperfect_error(ybar=0.1, f=0.02, rho_iy=0.04, rho_ipz=-0.01, sigma_pz=0.05, fp=0.01, fn=0.1)
    bracket = dec.data_quality_term + dec.interaction_term + dec.bias_term
    assert dec.total_error == pytest.approx(math.sqrt(0.98 / 0.02) * bracket, rel=1e-12)
    with pytest.raises(ValueError):
        imperfect_error(ybar=0.1, f=1.0, rho_iy=0.0, rho_ipz=0.0, sigma_pz=0.0, fp=0.0, fn=0.0)


def test_sigma_pz_closed_form():
    # sqrt(2*0.1*(0.005*0.9 + 0.172*0.1)) by direct evaluation
    assert sigma_pz_analytic(0.1, MEAS_REF) == pytest.approx(0.0658787, abs=1e-6)


def test_sigma_pz_exact_matches_population_moment():
    mix = 0.005 * 0.9 + 0.172 * 0.1
    mean_pz = 0.005 * 0.9 - 0.172 * 0.1
    assert sigma_pz_analytic(0.1, MEAS_REF, exact=True) == pytest.approx(
        math.sqrt(mix - mean_pz**2), rel=1e-12
    )


def test_rho_ipz_zero_cases():
    sel = SelectionModel(0.05, 0.05)
    assert rho_ipz_from_rho_iy(0.0, sel, MEAS_REF, 0.1) == 0.0
    assert rho_ipz_from_rho_iy(0.04, SelectionModel(0.02, 0.05), PERFECT_TEST, 0.1) == 0.0


def test_rho_ipz_sign_opposite():
    sel = SelectionModel(0.02, 0.05)
    for fp, fn in ((0.005, 0.172), (0.05, 0.05), (0.2, 0.1)):
        value = rho_ipz_from_rho_iy(0.04, sel, MeasurementModel(fp, fn), 0.1)
        assert value < 0.0


def test_rho_ipz_matches_mc_expectation():
    pop = make_population(100_000, 0.15, seed=102)
    sel = SelectionModel.from_relative_rate(0.026, 2.0, pop.prevalence)
    est_rho = mc_expectation(pop, sel, MEAS_REF, "rho_iy", 600, seed=1002)
    est_ipz = mc_expectation(pop, sel, MEAS_REF, "rho_ipz", 600, seed=2002)
    predicted = rho_ipz_from_rho_iy(est_rho.mean, sel, MEAS_REF, pop.prevalence)
    assert abs(est_ipz.mean - predicted) < 3 * est_ipz.std_error


def test_meas_adjustment_identity_cases():
    assert meas_adjustment(SelectionModel(0.02, 0.02), MEAS_REF, 0.091) == pytest.approx(1.0)
    assert meas_adjustment(SelectionModel(0.02, 0.05), PERFECT_TEST, 0.091) == pytest.approx(1.0)


def test_meas_adjustment_parameterizations_agree():
    sel = SelectionModel.from_relative_rate(0.026, 2.0, 0.091)
    delta_form = meas_adjustment(sel, MEAS_REF, 0.091)
    rel_form = meas_adjustment_rel(2.0, MEAS_REF, 0.091)
    assert delta_form == pytest.approx(rel_form, rel=1e-12)
    assert delta_form == pytest.approx(0.9981467, abs=1e-6)
    # The two forms agree wherever f0 > 0, for any rates and prevalence.
    rng = np.random.default_rng(11)
    for _ in range(300):
        ybar = rng.uniform(0.001, 0.999)
        f0 = rng.uniform(1e-4, 1.0)
        f1 = rng.uniform(0.0, 1.0)
        meas = MeasurementModel(fp=rng.uniform(0.0, 0.45), fn=rng.uniform(0.0, 0.45))
        delta_form = meas_adjustment(SelectionModel(f0, f1), meas, ybar)
        rel_form = meas_adjustment_rel(f1 / f0, meas, ybar)
        assert delta_form == pytest.approx(rel_form, rel=1e-10)


@pytest.mark.parametrize("method", ["linear", "inverse"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_corrected_prevalence_rejects_nonfinite(bad, method):
    with pytest.raises(ValueError):
        corrected_prevalence(bad, MEAS_REF, method=method)


def test_meas_adjustment_sign_law():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ybar = rng.uniform(0.01, 0.99)
        f0 = rng.uniform(0.01, 0.4)
        f1 = rng.uniform(f0 + 1e-4, min(1.0, f0 + 0.5))
        meas = MeasurementModel(fp=rng.uniform(0.001, 0.4), fn=rng.uniform(0.001, 0.4))
        assert meas_adjustment(SelectionModel(f0, f1), meas, ybar) < 1.0


def test_adjustments_invariant_under_rate_rescaling():
    # (f0, f1) -> (c f0, c f1) moves Delta and f together; the brackets only
    # see Delta/f, so they cannot move.
    sel = SelectionModel(0.02, 0.05)
    scaled = SelectionModel(0.04, 0.10)
    for meas in (MEAS_REF, MeasurementModel(0.05, 0.05)):
        assert meas_adjustment(sel, meas, 0.2) == pytest.approx(
            meas_adjustment(scaled, meas, 0.2), rel=1e-12
        )
        assert d_m(sel, meas, 0.2) == pytest.approx(d_m(scaled, meas, 0.2), rel=1e-12)


def test_rel_form_depends_only_on_rate_ratio():
    values = {
        meas_adjustment_rel(1.5, MEAS_REF, 0.1)
        for _ in range(3)
    }
    assert len(values) == 1
    a = meas_adjustment(SelectionModel(0.01, 0.015), MEAS_REF, 0.1)
    b = meas_adjustment(SelectionModel(0.2, 0.3), MEAS_REF, 0.1)
    assert a == pytest.approx(b, rel=1e-12)


def test_d_m_identity_cases():
    assert d_m(SelectionModel(0.02, 0.05), PERFECT_TEST, 0.1) == pytest.approx(1.0)
    assert d_m(SelectionModel(0.02, 0.02), MEAS_REF, 0.1) == pytest.approx(1.0 + 0.005 + 0.172)


def test_adjustment_factors_bundle():
    sel = SelectionModel.from_relative_rate(0.026, 2.0, 0.091)
    factors = adjustment_factors(sel, MEAS_REF, 0.091)
    assert factors.meas_adjustment == pytest.approx(meas_adjustment(sel, MEAS_REF, 0.091))
    assert factors.d_m == pytest.approx(d_m(sel, MEAS_REF, 0.091))


def test_corrected_prevalence_reference_values():
    assert round(corrected_prevalence(0.139, MEAS_REF), 3) == 0.159
    assert round(corrected_prevalence(0.139, MeasurementModel(0.008, 0.116)), 3) == 0.148
    assert round(corrected_prevalence(0.139, MeasurementModel(0.003, 0.240)), 3) == 0.170


def test_corrected_prevalence_perfect_test_identity():
    assert corrected_prevalence(0.37, PERFECT_TEST) == 0.37


def test_corrected_prevalence_clamps_and_warns():
    with pytest.warns(RuntimeWarning):
        value = corrected_prevalence(0.001, MeasurementModel(0.05, 0.0))
    assert value == 0.0


def test_corrected_prevalence_inverse_round_trip():
    meas = MeasurementModel(0.03, 0.2)
    for ybar in (0.01, 0.2, 0.7):
        observed = contaminated_prevalence(ybar, meas)
        assert corrected_prevalence(observed, meas, method="inverse") == pytest.approx(
            ybar, rel=1e-12
        )
    with pytest.raises(ValueError):
        corrected_prevalence(0.5, meas, method="bogus")


def test_trial_effect_bias():
    assert trial_effect_bias(0.0, 0.1, 0.3, 1.0) == 0.0
    assert trial_effect_bias(2.0, 0.0, 0.3, 1.0) == 0.0
    assert trial_effect_bias(1.0, 0.1, 0.5, 1.0) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError):
        trial_effect_bias(1.0, 0.1, 0.0, 1.0)


DECOMPOSITION_FIELDS = [f.name for f in dataclasses.fields(ErrorDecomposition)]


def test_scalar_decompositions_return_python_floats():
    dec = imperfect_error(ybar=0.1, f=0.02, rho_iy=0.04, rho_ipz=-0.01, sigma_pz=0.05, fp=0.01, fn=0.1)
    assert all(type(getattr(dec, name)) is float for name in DECOMPOSITION_FIELDS)
    pop = make_population(2000, 0.1, seed=4)
    stats = empirical_stats(pop, realize(pop, SelectionModel(0.05, 0.2), MEAS_REF, seed=5))
    dec = decompose_realization(pop, stats)
    assert all(type(getattr(dec, name)) is float for name in DECOMPOSITION_FIELDS)


def test_imperfect_error_broadcasts_bit_for_bit():
    rng = np.random.default_rng(31)
    args = {
        "ybar": rng.uniform(0.01, 0.99, 50),
        "f": rng.uniform(0.01, 0.99, 50),
        "rho_iy": rng.uniform(-0.5, 0.5, 50),
        "rho_ipz": rng.uniform(-0.5, 0.5, 50),
        "sigma_pz": rng.uniform(0.0, 0.5, 50),
        "fp": rng.uniform(0.0, 0.4, 50),
        "fn": rng.uniform(0.0, 0.4, 50),
    }
    batch = imperfect_error(**args)
    for i in range(50):
        scalar = imperfect_error(**{key: float(value[i]) for key, value in args.items()})
        for name in DECOMPOSITION_FIELDS:
            assert getattr(batch, name)[i] == getattr(scalar, name), (i, name)
    for bad in (1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="sampling fraction"):
            imperfect_error(**dict(args, f=np.array([0.5, bad])))


@pytest.mark.parametrize(
    "size, prevalence, sel, meas",
    [
        (500, 0.2, SelectionModel(0.05, 0.3), MEAS_REF),
        (300, 0.5, SelectionModel(0.0, 0.4), PERFECT_TEST),
        (40, 0.1, SelectionModel(0.3, 0.9), MeasurementModel(0.2, 0.3)),
    ],
)
def test_decompose_realization_on_array_stats_equals_scalar_calls(size, prevalence, sel, meas):
    pop = make_population(size, prevalence, seed=size)
    counts = np.array([joint_counts(pop, realize(pop, sel, meas, seed)) for seed in range(120)])
    stats, degenerate = stats_from_counts(pop, counts)
    usable = np.flatnonzero(~degenerate)
    kept = EmpiricalStats(*(getattr(stats, f.name)[usable] for f in dataclasses.fields(stats)))
    batch = decompose_realization(pop, kept)
    for j, seed in enumerate(usable.tolist()):
        scalar = decompose_realization(pop, empirical_stats(pop, realize(pop, sel, meas, seed)))
        for name in DECOMPOSITION_FIELDS:
            assert getattr(batch, name)[j] == getattr(scalar, name), (seed, name)


def _identity_reference(pop, sel, meas, replications, seed):
    """The per-replication exact-identity loop ``casebias mc-verify`` used to run."""
    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(2**63))
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    worst = 0.0
    used = 0
    for child in master.spawn(replications):
        r = realize(pop, sel, meas, child)
        try:
            stats = empirical_stats(pop, r)
        except DegenerateSampleError:
            continue
        dec = decompose_realization(pop, stats)
        lhs = stats.ybar_star - pop.prevalence
        denom = max(abs(lhs), 1e-2)
        worst = max(worst, abs(dec.total_error - lhs) / denom)
        used += 1
    return worst, used


def _identity_configs(count):
    """Seeded configurations with every edge the identity check must survive."""
    rng = np.random.default_rng(20201018)
    seed_kinds = (int, np.random.SeedSequence, np.random.default_rng)
    for i in range(count):
        size = int(rng.integers(2, 6)) if i % 4 == 0 else int(10 ** rng.uniform(1, 3.3))
        prevalence = {1: 0.0, 2: 1.0}.get(i % 10, float(rng.uniform(0.0, 1.0)))
        f0, f1 = rng.uniform(0.0, 1.0, 2).tolist()
        if i % 7 == 0:
            f0 = float(i % 2)
        if i % 7 == 3:
            f1 = float(i % 3 == 0)
        fp = float(rng.uniform(0.0, 0.45))
        meas = PERFECT_TEST if i % 5 == 0 else MeasurementModel(fp, float(rng.uniform(0, 0.45)))
        kind = seed_kinds[i % 3]
        yield (size, prevalence, SelectionModel(f0, f1), meas, int(rng.integers(1, 25)),
               kind, int(rng.integers(2**31)))


def test_verify_identity_matches_the_scalar_loop():
    outcomes = {"some degenerate": 0, "all degenerate": 0, "none degenerate": 0}
    kinds = set()
    for size, prevalence, sel, meas, reps, kind, raw in _identity_configs(320):
        pop = make_population(size, prevalence, seed=raw)
        # spawn is stateful and a Generator advances: each call gets a fresh seed.
        got = verify_identity(pop, sel, meas, reps, kind(raw))
        want = _identity_reference(pop, sel, meas, reps, kind(raw))
        assert got == want, (size, prevalence, sel, meas, reps, kind, raw)
        assert type(got[0]) is float and type(got[1]) is int
        worst, used = want
        assert worst < 1e-10
        if used == 0:
            outcomes["all degenerate"] += 1
        elif used < reps:
            outcomes["some degenerate"] += 1
        else:
            outcomes["none degenerate"] += 1
        kinds.add(kind)
    assert min(outcomes.values()) >= 20, outcomes
    assert len(kinds) == 3


def test_verify_identity_rejects_no_replications():
    pop = make_population(100, 0.2, seed=1)
    with pytest.raises(ValueError, match="replications"):
        verify_identity(pop, SelectionModel(0.1, 0.2), MEAS_REF, 0, seed=1)


# A valid call of each public formula, by keyword, and the arguments checked where they enter.
ENTRY_CALLS = {
    "selection_error": (selection_error, dict(rho_iy=0.01, f=0.02, sigma_y=0.3)),
    "imperfect_error": (imperfect_error, dict(ybar=0.1, f=0.02, rho_iy=0.04, rho_ipz=-0.01,
                                              sigma_pz=0.05, fp=0.01, fn=0.1)),
    "sigma_pz_analytic": (sigma_pz_analytic, dict(ybar=0.1, meas=MEAS_REF)),
    "contaminated_prevalence": (contaminated_prevalence, dict(ybar=0.1, meas=MEAS_REF)),
    "rho_ipz_from_rho_iy": (rho_ipz_from_rho_iy, dict(rho_iy=0.04, sel=SelectionModel(0.02, 0.05),
                                                      meas=MEAS_REF, ybar=0.1)),
    "meas_adjustment_rel": (meas_adjustment_rel, dict(rel_rate=2.0, meas=MEAS_REF, ybar=0.1)),
    "trial_effect_bias": (trial_effect_bias, dict(beta1=0.5, exp_rho_iu=0.1, f=0.3, sigma_u=1.0)),
}
ENTRY_CHECKS = [
    ("selection_error", "rho_iy"),
    ("selection_error", "sigma_y"),
    ("imperfect_error", "ybar"),
    ("imperfect_error", "rho_iy"),
    ("sigma_pz_analytic", "ybar"),
    ("contaminated_prevalence", "ybar"),
    ("rho_ipz_from_rho_iy", "rho_iy"),
    ("meas_adjustment_rel", "rel_rate"),
    ("trial_effect_bias", "beta1"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("func, name", ENTRY_CHECKS, ids=[f"{f}-{a}" for f, a in ENTRY_CHECKS])
def test_formulas_refuse_non_finite_input_naming_the_argument(func, name, bad):
    call, kwargs = ENTRY_CALLS[func]
    call(**kwargs)
    with pytest.raises(ValueError, match=rf"^{name} must "):
        call(**dict(kwargs, **{name: bad}))
