import dataclasses
import math
import warnings

import numpy as np
import pytest

from casebias import (
    DegenerateSampleError,
    EmpiricalStats,
    FinitePopulation,
    MeasurementModel,
    PERFECT_TEST,
    SelectionModel,
    decompose_realization,
    empirical_stats,
    joint_counts,
    make_population,
    mc_expectation,
    mc_expectation_reference,
    realize,
    stats_from_counts,
)

FIELDS = [f.name for f in dataclasses.fields(EmpiricalStats)]


def test_make_population_zero_prevalence():
    pop = make_population(1000, 0.0, seed=7)
    assert pop.outcomes.sum() == 0
    assert pop.prevalence == 0.0


def test_make_population_exact_count():
    pop = make_population(1000, 0.091, seed=7)
    assert pop.total == 91
    assert pop.prevalence == 0.091


def test_make_population_sigma_at_half():
    pop = make_population(100_000, 0.5, seed=1)
    assert pop.sigma_y == 0.5


def test_make_population_validation():
    with pytest.raises(ValueError):
        make_population(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        make_population(100, 1.5, seed=0)
    with pytest.raises(ValueError):
        make_population(100, -0.1, seed=0)


def test_make_population_seed_determinism():
    a = make_population(500, 0.3, seed=11)
    b = make_population(500, 0.3, seed=11)
    c = make_population(500, 0.3, seed=12)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_selection_model_derived_quantities():
    sel = SelectionModel(f0=0.02, f1=0.05)
    assert sel.delta == pytest.approx(0.03)
    assert sel.relative_rate == pytest.approx(2.5)
    assert sel.overall_fraction(0.1) == pytest.approx(0.05 * 0.1 + 0.02 * 0.9)
    with pytest.raises(ValueError):
        SelectionModel(f0=-0.1, f1=0.5)
    with pytest.raises(ValueError):
        SelectionModel(f0=0.0, f1=0.5).relative_rate


def test_selection_from_relative_rate_inverts_overall_fraction():
    sel = SelectionModel.from_relative_rate(0.026, 2.0, 0.091)
    assert sel.overall_fraction(0.091) == pytest.approx(0.026, rel=1e-12)
    assert sel.f1 == pytest.approx(2.0 * sel.f0)


def test_measurement_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel(fp=0.6, fn=0.5)
    with pytest.raises(ValueError):
        MeasurementModel(fp=-0.1, fn=0.0)
    assert PERFECT_TEST.is_perfect


def test_realize_census_perfect_test():
    pop = make_population(400, 0.2, seed=3)
    r = realize(pop, SelectionModel(1.0, 1.0), PERFECT_TEST, seed=5)
    assert r.n == 400
    assert np.array_equal(r.observed, pop.outcomes)


def test_realize_empty_sample():
    pop = make_population(400, 0.2, seed=3)
    r = realize(pop, SelectionModel(0.0, 0.0), PERFECT_TEST, seed=5)
    assert r.n == 0


def test_realize_reproducible():
    pop = make_population(10_000, 0.1, seed=1)
    sel = SelectionModel(0.02, 0.05)
    meas = MeasurementModel(0.01, 0.1)
    a = realize(pop, sel, meas, seed=42)
    b = realize(pop, sel, meas, seed=42)
    assert np.array_equal(a.selected, b.selected)
    assert np.array_equal(a.flipped, b.flipped)
    assert np.array_equal(a.observed, b.observed)


def test_realized_fraction_matches_mixture():
    # E[n/N] = f1*prev + f0*(1-prev) = 0.04*0.1 + 0.02*0.9 = 0.022
    pop = make_population(100_000, 0.1, seed=3)
    est = mc_expectation(pop, SelectionModel(0.02, 0.04), PERFECT_TEST, "f_hat", 10_000, seed=7)
    assert abs(est.mean - 0.022) < 3 * est.std_error


def test_empirical_stats_census_degenerate():
    pop = make_population(300, 0.3, seed=2)
    r = realize(pop, SelectionModel(1.0, 1.0), PERFECT_TEST, seed=2)
    with pytest.raises(DegenerateSampleError):
        empirical_stats(pop, r)


def test_empirical_stats_empty_degenerate():
    pop = make_population(300, 0.3, seed=2)
    r = realize(pop, SelectionModel(0.0, 0.0), PERFECT_TEST, seed=2)
    with pytest.raises(DegenerateSampleError):
        empirical_stats(pop, r)


def test_empirical_stats_constant_population_degenerate():
    pop = make_population(300, 0.0, seed=2)
    r = realize(pop, SelectionModel(0.5, 0.5), PERFECT_TEST, seed=2)
    with pytest.raises(DegenerateSampleError):
        empirical_stats(pop, r)


def test_equal_rates_rho_centers_at_zero():
    pop = make_population(10_000, 0.3, seed=5)
    est = mc_expectation(pop, SelectionModel(0.05, 0.05), PERFECT_TEST, "rho_iy", 2000, seed=11)
    assert abs(est.mean) < 3 * est.std_error


def test_equal_rates_rho_sq_one_over_n_minus_1():
    pop = make_population(10_000, 0.3, seed=5)
    est = mc_expectation(pop, SelectionModel(0.05, 0.05), PERFECT_TEST, "rho_iy_sq", 2000, seed=13)
    assert abs(est.mean - 1.0 / 9999.0) < 3 * est.std_error


def test_differential_selection_positive_rho():
    pop = make_population(50_000, 0.1, seed=5)
    est = mc_expectation(pop, SelectionModel(0.02, 0.04), PERFECT_TEST, "rho_iy", 500, seed=17)
    assert est.mean > 3 * est.std_error


def test_equal_rates_mean_unbiased():
    pop = make_population(50_000, 0.1, seed=9)
    est = mc_expectation(pop, SelectionModel(0.05, 0.05), PERFECT_TEST, "ybar_star", 1000, seed=19)
    assert abs(est.mean - 0.1) < 3 * est.std_error


def test_mc_expectation_validation_and_registry():
    pop = make_population(1000, 0.2, seed=1)
    sel = SelectionModel(0.1, 0.1)
    with pytest.raises(ValueError):
        mc_expectation(pop, sel, PERFECT_TEST, "rho_iy", 1, seed=0)
    with pytest.raises(ValueError):
        mc_expectation(pop, sel, PERFECT_TEST, "not_a_stat", 10, seed=0)


def test_mc_expectation_skips_and_counts_degenerate():
    # n=0 happens often at N=40, f=0.02; skipped replications are reported.
    pop = make_population(40, 0.5, seed=1)
    est = mc_expectation(pop, SelectionModel(0.02, 0.02), PERFECT_TEST, "f_hat", 400, seed=23)
    assert est.degenerate > 0
    assert est.replications + est.degenerate == 400


def test_mc_expectation_fails_when_mostly_degenerate():
    pop = make_population(10, 0.5, seed=1)
    with pytest.raises(DegenerateSampleError):
        mc_expectation(pop, SelectionModel(0.001, 0.001), PERFECT_TEST, "f_hat", 100, seed=29)


def test_mc_expectation_deterministic_given_seed():
    pop = make_population(5000, 0.2, seed=4)
    sel = SelectionModel(0.03, 0.06)
    meas = MeasurementModel(0.02, 0.1)
    a = mc_expectation(pop, sel, meas, "ybar_star", 50, seed=31)
    b = mc_expectation(pop, sel, meas, "ybar_star", 50, seed=31)
    assert a == b


def test_exact_error_identity_without_flips():
    # ybar - Ybar = rho * sqrt((1-f)/f) * sigma, realization by realization.
    pop = make_population(20_000, 0.13, seed=8)
    sel = SelectionModel(0.03, 0.09)
    for seed in range(5):
        r = realize(pop, sel, PERFECT_TEST, seed=seed)
        stats = empirical_stats(pop, r)
        lhs = stats.ybar_star - pop.prevalence
        rhs = stats.rho_iy * math.sqrt((1 - stats.f_hat) / stats.f_hat) * pop.sigma_y
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_exact_error_identity_with_flips():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        size = int(10 ** rng.uniform(3, 4.3))
        pop = make_population(size, rng.uniform(0.02, 0.98), seed=int(rng.integers(2**31)))
        if pop.sigma_y == 0.0:
            continue
        sel = SelectionModel(f0=rng.uniform(0.01, 0.5), f1=rng.uniform(0.01, 0.5))
        meas = MeasurementModel(fp=rng.uniform(0, 0.4), fn=rng.uniform(0, 0.4))
        try:
            stats = empirical_stats(pop, realize(pop, sel, meas, int(rng.integers(2**31))))
        except DegenerateSampleError:
            continue
        dec = decompose_realization(pop, stats)
        lhs = stats.ybar_star - pop.prevalence
        assert dec.total_error == pytest.approx(lhs, rel=1e-10, abs=1e-12)
        checked += 1


def test_population_summaries_cached_and_exact():
    pop = make_population(10_000, 0.137, seed=3)
    total = int(pop.outcomes.sum())
    assert pop.total == total
    assert pop.prevalence == total / pop.size
    assert pop.sigma_y == float(np.sqrt(pop.prevalence * (1.0 - pop.prevalence)))
    assert np.array_equal(pop.positive, pop.outcomes == 1)
    assert not pop.positive.flags.writeable
    assert FinitePopulation(pop.outcomes.copy()).total == total


def test_joint_counts_partition_the_population():
    pop = make_population(5_000, 0.2, seed=4)
    r = realize(pop, SelectionModel(0.1, 0.3), MeasurementModel(0.05, 0.1), seed=6)
    cells = joint_counts(pop, r)
    assert cells[:4].sum() == pop.total
    assert cells[4:].sum() == pop.size - pop.total
    assert cells[[0, 1, 4, 5]].sum() == r.n
    assert cells[[0, 2, 4, 6]].sum() == np.count_nonzero(r.flipped)


@pytest.mark.parametrize("meas", [PERFECT_TEST, MeasurementModel(0.03, 0.12)])
def test_kernel_on_realization_counts_equals_empirical_stats(meas):
    pop = make_population(3_000, 0.17, seed=5)
    sel = SelectionModel(0.04, 0.11)
    rows = []
    for seed in range(20):
        r = realize(pop, sel, meas, seed=seed)
        counts = joint_counts(pop, r)
        stats, degenerate = stats_from_counts(pop, counts)
        expected = empirical_stats(pop, r)
        assert not degenerate
        for name in FIELDS:
            assert getattr(stats, name) == getattr(expected, name), name
        if meas.is_perfect:
            assert expected.sigma_pz == 0.0 and expected.rho_ipz == 0.0
        rows.append((counts, expected))
    # Batched over replications, the kernel gives the same bits row by row.
    batch, degenerate = stats_from_counts(pop, np.stack([c for c, _ in rows]))
    assert not degenerate.any()
    for i, (_, expected) in enumerate(rows):
        for name in FIELDS:
            assert getattr(batch, name)[i] == getattr(expected, name), name


@pytest.mark.parametrize(
    "prevalence, rates",
    [(0.3, (0.0, 0.0)), (0.3, (1.0, 1.0)), (0.0, (0.5, 0.5)), (1.0, (0.5, 0.5))],
    ids=["empty", "census", "constant-negative", "constant-positive"],
)
def test_kernel_marks_degenerate_cases(prevalence, rates):
    pop = make_population(300, prevalence, seed=2)
    r = realize(pop, SelectionModel(*rates), MeasurementModel(0.1, 0.1), seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, degenerate = stats_from_counts(pop, joint_counts(pop, r))
    assert degenerate
    with pytest.raises(DegenerateSampleError):
        empirical_stats(pop, r)


def test_count_sampler_matches_realize_cell_means():
    # Both samplers draw the same eight-cell distribution; compare the mean
    # count of every cell against each other and against its expectation.
    pop = make_population(200, 0.3, seed=8)
    sel = SelectionModel(0.2, 0.5)
    meas = MeasurementModel(0.1, 0.2)
    reps = 2000
    rng = np.random.default_rng(41)
    cells_pos = [sel.f1 * meas.fn, sel.f1 * (1 - meas.fn),
                 (1 - sel.f1) * meas.fn, (1 - sel.f1) * (1 - meas.fn)]
    cells_neg = [sel.f0 * meas.fp, sel.f0 * (1 - meas.fp),
                 (1 - sel.f0) * meas.fp, (1 - sel.f0) * (1 - meas.fp)]
    drawn = np.concatenate(
        [rng.multinomial(pop.total, cells_pos, size=reps),
         rng.multinomial(pop.size - pop.total, cells_neg, size=reps)],
        axis=1,
    )
    children = np.random.SeedSequence(43).spawn(reps)
    realized = np.array([joint_counts(pop, realize(pop, sel, meas, c)) for c in children])
    expected = np.concatenate(
        [pop.total * np.array(cells_pos), (pop.size - pop.total) * np.array(cells_neg)]
    )
    se = np.sqrt((drawn.var(axis=0, ddof=1) + realized.var(axis=0, ddof=1)) / reps)
    assert np.all(np.abs(drawn.mean(axis=0) - realized.mean(axis=0)) < 4 * se)
    for sample in (drawn, realized):
        se_one = sample.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(sample.mean(axis=0) - expected) < 4 * se_one)


def test_mc_expectation_perfect_test_emits_no_warning():
    # sigma_PZ = 0 in every replication, and n = 0 in many at this size.
    pop = make_population(40, 0.5, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("rho_iy", "rho_ipz", "ybar_star", "sq_error"):
            est = mc_expectation(pop, SelectionModel(0.05, 0.05), PERFECT_TEST, name, 400, seed=3)
            assert est.degenerate > 0
        est = mc_expectation(
            make_population(1_000, 0.2, seed=1), SelectionModel(0.05, 0.1), PERFECT_TEST,
            "rho_ipz", 200, seed=5,
        )
        assert est.mean == 0.0


def test_mc_expectation_callable_gets_scalar_stats():
    pop = make_population(2_000, 0.2, seed=4)
    sel = SelectionModel(0.03, 0.06)
    meas = MeasurementModel(0.02, 0.1)
    seen = []

    def rho(p, s):
        seen.append(s)
        return s.rho_iy

    by_callable = mc_expectation(pop, sel, meas, rho, 100, seed=9)
    assert len(seen) == by_callable.replications
    assert all(type(getattr(s, name)) is float for s in seen for name in FIELDS)
    assert by_callable == mc_expectation(pop, sel, meas, "rho_iy", 100, seed=9)


@pytest.mark.parametrize("estimate", [mc_expectation, mc_expectation_reference])
def test_mc_seed_forms(estimate):
    pop = make_population(2_000, 0.2, seed=4)
    sel = SelectionModel(0.03, 0.06)
    meas = MeasurementModel(0.02, 0.1)
    args = (pop, sel, meas, "ybar_star", 40)
    by_int = estimate(*args, seed=31)
    assert estimate(*args, seed=np.random.SeedSequence(31)) == by_int
    gen = np.random.default_rng(31)
    first = estimate(*args, seed=gen)
    second = estimate(*args, seed=gen)
    assert first.replications + first.degenerate == 40
    assert first != second  # a Generator advances
    assert estimate(*args, seed=np.random.default_rng(31)) == first


def test_mc_expectation_reference_follows_realize_stream():
    pop = make_population(3_000, 0.2, seed=4)
    sel = SelectionModel(0.03, 0.06)
    meas = MeasurementModel(0.02, 0.1)
    est = mc_expectation_reference(pop, sel, meas, "ybar_star", 30, seed=12)
    values = []
    for child in np.random.SeedSequence(12).spawn(30):
        try:
            values.append(empirical_stats(pop, realize(pop, sel, meas, child)).ybar_star)
        except DegenerateSampleError:
            continue
    sample = np.array(values)
    assert est.mean == float(sample.mean())
    assert est.std_error == float(sample.std(ddof=1) / np.sqrt(sample.size))
    assert est.replications == sample.size
