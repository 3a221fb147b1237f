import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from casebias import (
    DegenerateSampleError,
    EmpiricalStats,
    FinitePopulation,
    MeasurementModel,
    PERFECT_TEST,
    PopulationCounts,
    SelectionModel,
    binary_rho,
    decompose_realization,
    empirical_stats,
    forward_rho_dm,
    joint_counts,
    make_population,
    mc_expectation,
    mc_expectation_reference,
    realize,
    rho_ipz_from_rho_iy,
    stats_from_counts,
)
from casebias.decomposition import verify_identity
from casebias.population import _below, _child_seed_words, _realized_counts

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


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -2.0])
def test_selection_from_relative_rate_rejects_non_finite_or_nonpositive(rate):
    with pytest.raises(ValueError, match=f"finite and positive, got {rate}"):
        SelectionModel.from_relative_rate(0.02, rate, 0.1)
    with pytest.raises(ValueError, match="finite and positive"):
        SelectionModel.from_relative_rate(0.02, np.array([2.0, rate]), 0.1)


@pytest.mark.parametrize("rate", [1e-20, 1e-17, 5e-324])
def test_selection_from_relative_rate_rejects_a_scale_that_rounds_to_zero(rate):
    # prev * (rate - 1) + 1 is positive for every rate > 0, but at prev = 1 it
    # rounds to 0 below rate ~1.1e-16, where f0 = f / scale would divide by 0.
    message = r"prevalence \* \(relative rate - 1\) \+ 1 must be > 0, got 0.0"
    with pytest.raises(ValueError, match=message):
        SelectionModel.from_relative_rate(0.5, rate, 1.0)
    # numpy divides by the zero scale (inf, with its RuntimeWarning), and f0's check names it.
    with pytest.raises(ValueError, match=r"f0 must lie in \[0, 1\], got inf"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        SelectionModel.from_relative_rate(0.5, np.array([2.0, rate]), 1.0)
    # Just above the rounding, the scale is positive and the f0 it gives is out of range.
    with pytest.raises(ValueError, match="f0 must lie in"):
        SelectionModel.from_relative_rate(0.5, 1e-15, 1.0)


@pytest.mark.parametrize("prev", [math.nan, -0.1, 1.5, math.inf, -math.inf])
def test_selection_from_relative_rate_rejects_prevalence_outside_unit_interval(prev):
    with pytest.raises(ValueError, match=f"prevalence must lie in \\[0, 1\\], got {prev}"):
        SelectionModel.from_relative_rate(0.02, 2.0, prev)
    with pytest.raises(ValueError, match="prevalence must lie in"):
        SelectionModel.from_relative_rate(0.02, 2.0, np.array([0.1, prev]))


@pytest.mark.parametrize("prev", [0.0, 1.0])
def test_selection_from_relative_rate_accepts_constant_prevalence(prev):
    sel = SelectionModel.from_relative_rate(0.02, 2.0, prev)
    assert sel.overall_fraction(prev) == pytest.approx(0.02, rel=1e-12)


@pytest.mark.parametrize("bad", [-1, 2, 127, -128])
def test_population_rejects_non_binary_outcomes(bad):
    outcomes = np.zeros(10, dtype=np.int8)
    outcomes[[1, 7]] = 1
    outcomes[4] = bad
    with pytest.raises(ValueError, match="outcomes must be 0/1"):
        FinitePopulation(outcomes)
    with pytest.raises(ValueError, match="outcomes must be 0/1"):
        FinitePopulation(outcomes.astype(np.int64)[::-1])
    assert FinitePopulation(np.where(outcomes == bad, 0, outcomes)).total == 2


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


def _realize_reference(pop, sel, meas, seed):
    """``realize`` written with per-individual rate arrays: the stream it must keep."""
    rng = np.random.default_rng(seed)
    pos = pop.positive
    selected = rng.random(pop.size) < np.where(pos, sel.f1, sel.f0)
    flipped = rng.random(pop.size) < np.where(pos, meas.fn, meas.fp)
    return selected, flipped, (pos ^ flipped).astype(np.int8)


def assert_realize_matches_reference(pop, sel, meas, seed, reference_seed):
    r = realize(pop, sel, meas, seed)
    want = _realize_reference(pop, sel, meas, reference_seed)
    for name, expected in zip(("selected", "flipped", "observed"), want):
        got = getattr(r, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name
        assert not got.flags.writeable, name
    assert r.observed.dtype == np.int8
    return r


SEED_FORMS = {
    "int": lambda: 2024,
    "seed-sequence": lambda: np.random.SeedSequence(2024),
    "generator": lambda: np.random.default_rng(2024),
}


@pytest.mark.parametrize("form", sorted(SEED_FORMS))
@pytest.mark.parametrize(
    "meas", [PERFECT_TEST, MeasurementModel(0.01, 0.15), MeasurementModel(0.2, 0.05)]
)
@pytest.mark.parametrize(
    "rates", [(0.02, 0.05), (0.05, 0.02), (0.03, 0.03), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
)
def test_realize_equals_rate_array_reference(rates, meas, form):
    pop = make_population(500, 0.3, seed=4)
    sel = SelectionModel(*rates)
    seed = SEED_FORMS[form]()
    assert_realize_matches_reference(pop, sel, meas, seed, SEED_FORMS[form]())
    if form == "generator":
        # Both uniform vectors come from the stream: it advanced by exactly 2N doubles.
        fresh = np.random.default_rng(2024)
        fresh.random(2 * pop.size)
        assert seed.random() == fresh.random()


@pytest.mark.parametrize("form", ["int", "seed-sequence"])
def test_realize_draws_no_flip_uniforms_under_a_perfect_test_with_a_private_seed(
    monkeypatch, form
):
    # The realization equals the two-draw reference (above); here the generator
    # realize made has advanced by the N selection uniforms only.
    pop = make_population(500, 0.3, seed=4)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: made.append(
        default_rng(seed)) or made[-1])
    realize(pop, SelectionModel(0.02, 0.05), PERFECT_TEST, SEED_FORMS[form]())
    (rng,) = made
    fresh = default_rng(SEED_FORMS[form]())
    fresh.random(pop.size)
    assert rng.random() == fresh.random()


def test_realize_draws_both_uniform_vectors_from_a_callers_bit_generator():
    pop = make_population(500, 0.3, seed=4)
    sel = SelectionModel(0.02, 0.05)
    bit_generator = np.random.PCG64(2024)
    assert_realize_matches_reference(pop, sel, PERFECT_TEST, bit_generator, 2024)
    fresh = np.random.default_rng(2024)
    fresh.random(2 * pop.size)
    assert np.random.Generator(bit_generator).random() == fresh.random()


@st.composite
def realization_scenarios(draw):
    size = draw(st.integers(2, 2000))
    prevalence = draw(st.floats(0.0, 1.0))
    sel = SelectionModel(f0=draw(st.floats(0.0, 1.0)), f1=draw(st.floats(0.0, 1.0)))
    fp = draw(st.floats(0.0, 0.99))
    fn = draw(st.floats(0.0, 0.99))
    assume(fp + fn < 1.0)
    return size, prevalence, sel, MeasurementModel(fp, fn), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(realization_scenarios())
def test_realize_keeps_reference_stream_and_exact_identity(scenario):
    size, prevalence, sel, meas, seed = scenario
    pop = make_population(size, prevalence, seed=seed)
    r = assert_realize_matches_reference(pop, sel, meas, seed + 1, seed + 1)
    try:
        stats = empirical_stats(pop, r)
    except DegenerateSampleError:
        return
    # Criterion 09's rule: relative residual below 1e-10, with a 1e-2 floor.
    lhs = stats.ybar_star - pop.prevalence
    residual = abs(decompose_realization(pop, stats).total_error - lhs)
    assert residual / max(abs(lhs), 1e-2) < 1e-10


@pytest.mark.parametrize(
    "sel, meas",
    [
        (SelectionModel(0.0217, 0.0434), MeasurementModel(0.005, 0.172)),
        (SelectionModel(0.05, 0.02), MeasurementModel(0.2, 0.05)),
    ],
)
def test_realize_traced_peak_memory(sel, meas):
    # numpy reports its buffers to tracemalloc.  The bound is one float buffer
    # and four bool arrays, plus 64 KiB for small objects.
    size = 100_000
    pop = make_population(size, 0.091, seed=1)
    realize(pop, sel, meas, seed=1)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        r = realize(pop, sel, meas, seed=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert r.selected.size == size
    assert peak <= 8 * size + 4 * size + 64 * 1024


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


@pytest.mark.parametrize("sampler,seed", [(mc_expectation, 1), (mc_expectation_reference, 2)])
def test_mc_expectation_needs_two_usable_replications(sampler, seed):
    # One of the two replications draws an empty sample; the other alone has
    # no standard error, so the request fails instead of returning a NaN.
    pop = make_population(10, 0.5, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSampleError):
            sampler(pop, SelectionModel(0.05, 0.05), PERFECT_TEST, "f_hat", 2, seed=seed)


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


def test_positive_mask_is_a_read_only_view_of_the_outcomes():
    size = 100_000
    outcomes = make_population(size, 0.091, seed=1).outcomes.copy()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pop = FinitePopulation(outcomes)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        if started:
            tracemalloc.stop()
    assert np.shares_memory(pop.positive, pop.outcomes)
    assert pop.positive.dtype == np.bool_
    assert not pop.positive.flags.writeable
    assert np.array_equal(pop.positive, pop.outcomes == 1)
    # One byte per individual: a bool copy of the mask would keep another N bytes.
    assert kept <= 64 * 1024


def test_a_write_through_the_viewed_array_leaves_the_population_alone():
    base = np.array([0, 1, 0, 1], dtype=np.int8)
    pop = FinitePopulation(base[:])
    base[0] = 1
    assert pop.outcomes.tolist() == [0, 1, 0, 1]
    assert pop.positive.tolist() == [False, True, False, True]
    assert (pop.total, pop.prevalence) == (2, 0.5)
    owned = np.array([0, 1, 1], dtype=np.int8)
    assert FinitePopulation(owned).outcomes is owned and not owned.flags.writeable


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


def _realized_counts_reference(pop, sel, meas, replications, seed):
    """One ``realize`` per spawned child, counted: the stream the count path replays."""
    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(2**63))
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.array(
        [joint_counts(pop, realize(pop, sel, meas, c)) for c in master.spawn(replications)]
    )


@pytest.mark.parametrize("form", sorted(SEED_FORMS))
@pytest.mark.parametrize(
    "meas",
    [PERFECT_TEST, MeasurementModel(0.01, 0.15), MeasurementModel(0.0, 0.2),
     MeasurementModel(0.3, 0.0)],
)
def test_realized_counts_replay_realize(meas, form):
    for size, prevalence in [(2, 0.5), (2, 0.0), (3, 1.0), (50, 0.3), (997, 0.1)]:
        pop = make_population(size, prevalence, seed=size)
        for rates in [(0.02, 0.05), (0.3, 0.3), (0.0, 0.4), (0.4, 1.0), (0.0, 1.0), (1.0, 0.0),
                      (1.0, 1.0), (0.0, 0.0)]:
            sel = SelectionModel(*rates)
            seed = SEED_FORMS[form]()
            reference_seed = SEED_FORMS[form]()
            got = _realized_counts(pop, sel, meas, 25, seed)
            want = _realized_counts_reference(pop, sel, meas, 25, reference_seed)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (size, prevalence, rates)
            if form == "generator":
                assert seed.random() == reference_seed.random()


@pytest.mark.parametrize(
    "master",
    [
        *[lambda e=e: np.random.SeedSequence(e) for e in (0, 1, 2**32, 2**63 - 1, 2**70 + 3)],
        lambda: np.random.SeedSequence(),
        lambda: np.random.SeedSequence((3, 2**40, 0)),
        lambda: np.random.SeedSequence(np.arange(9, dtype=np.uint32)),
        lambda: np.random.SeedSequence(5, spawn_key=(7, 2**33)),
        lambda: np.random.SeedSequence(2**100 + 9, pool_size=8),
        lambda: np.random.SeedSequence(11, n_children_spawned=40),
        # The shared words numpy hashes: padded entropy, longer entropy, a wider pool.
        lambda: np.random.SeedSequence(7, spawn_key=(1, 2)),
        lambda: np.random.SeedSequence(np.arange(9, dtype=np.uint32), spawn_key=(4,)),
        lambda: np.random.SeedSequence(2**70 + 3, spawn_key=(2**33, 6), pool_size=8),
    ],
    ids=["0", "1", "2**32", "2**63-1", "2**70+3", "os-entropy", "tuple", "uint32-array",
         "spawn-key", "pool-size-8", "spawned-before", "padded-spawn-key",
         "uint32-array-spawn-key", "pool-size-8-spawn-key"],
)
def test_child_seed_words_equal_spawned_children_state(master):
    master = master()
    master.spawn(3)
    before = master.n_children_spawned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _child_seed_words(master, 60)
    assert master.n_children_spawned == before
    want = np.array([c.generate_state(4, np.uint64) for c in master.spawn(60)])
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_child_seed_words_refuse_indices_past_one_uint32_word():
    # numpy's own spawn does not finish at these indices; build the children directly.
    master = np.random.SeedSequence(3, n_children_spawned=2**32 - 2)
    with pytest.raises(OverflowError):
        _child_seed_words(master, 5)
    want = [np.random.SeedSequence(3, spawn_key=(k,)).generate_state(4, np.uint64)
            for k in (2**32 - 2, 2**32 - 1)]
    assert np.array_equal(_child_seed_words(master, 2), want)


def test_a_callers_seed_sequence_advances_by_the_replications():
    pop = make_population(200, 0.2, seed=3)
    sel, meas = SelectionModel(0.1, 0.3), MeasurementModel(0.01, 0.15)
    seed = np.random.SeedSequence(8, n_children_spawned=5)
    mc_expectation_reference(pop, sel, meas, "ybar_star", 12, seed)
    assert seed.n_children_spawned == 17
    verify_identity(pop, sel, meas, 9, seed)
    assert seed.n_children_spawned == 26


def _below_three_pass(u, pos, rate_pos, rate_neg):
    lo, hi = min(rate_pos, rate_neg), max(rate_pos, rate_neg)
    below = u < hi
    below &= pos if rate_pos >= rate_neg else ~pos
    below |= u < lo
    return below


@pytest.mark.parametrize("rate", [0.0, 0.02, 0.5, 1.0])
def test_below_with_equal_rates_is_the_three_pass_form(rate):
    rng = np.random.default_rng(4)
    u = np.concatenate([rng.random(500), [0.0, rate, np.nextafter(rate, 2.0)]])
    pos = rng.random(u.size) < 0.3
    got = _below(u, pos, rate, rate)
    assert got.dtype == np.bool_
    assert np.array_equal(got, _below_three_pass(u, pos, rate, rate))
    assert np.array_equal(got, u < np.where(pos, rate, rate))


@pytest.mark.parametrize(
    "size, total, message",
    [
        (1, 0, "size must be an integer >= 2, got 1"),
        (2.5, 1, "size must be an integer >= 2, got 2.5"),
        (math.nan, 1, "size must be an integer >= 2, got nan"),
        (math.inf, 1, "size must be an integer >= 2, got inf"),
        (10, -1, r"total must be an integer in \[0, 10\], got -1"),
        (10, 11, r"total must be an integer in \[0, 10\], got 11"),
        (10, 2.5, r"total must be an integer in \[0, 10\], got 2.5"),
        (10, math.nan, r"total must be an integer in \[0, 10\], got nan"),
    ],
)
def test_population_counts_reject_out_of_domain_counts(size, total, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PopulationCounts(size, total)


@pytest.mark.parametrize("size", [2.5, math.inf, math.nan, 1])
def test_make_population_names_a_size_that_is_not_an_integer_of_at_least_2(size):
    with pytest.raises(ValueError, match=f"^size must be an integer >= 2, got {size}$"):
        make_population(size, 0.5, seed=0)


def test_population_counts_derive_prevalence_and_sigma_y():
    counts = PopulationCounts(1000, 91)
    assert (counts.prevalence, counts.sigma_y) == (0.091, math.sqrt(0.091 * 0.909))
    assert PopulationCounts(10**12, 0).sigma_y == 0.0
    assert repr(counts) == "PopulationCounts(size=1000, total=91)"


def old_derivation(outcomes):
    """``FinitePopulation.__post_init__``'s derived fields as it computed them itself."""
    arr = np.asarray(outcomes, dtype=np.int8)
    total = int(arr.sum())
    prevalence = total / arr.size
    return int(arr.size), total, prevalence, float(np.sqrt(prevalence * (1.0 - prevalence)))


def test_finite_population_counts_equal_the_old_derivation():
    rng = np.random.default_rng(515)
    for _ in range(300):
        outcomes = (rng.random(int(rng.integers(2, 3000))) < rng.random()).astype(np.int64)
        pop = FinitePopulation(outcomes)
        assert isinstance(pop, PopulationCounts)
        got = (pop.size, pop.total, pop.prevalence, pop.sigma_y)
        assert got == old_derivation(outcomes)
        assert [type(v) for v in got] == [int, int, float, float]
    with pytest.raises(ValueError, match="^size must be an integer >= 2, got 1$"):
        FinitePopulation([1])
    with pytest.raises(ValueError, match="1-d outcome vector"):
        FinitePopulation([[0, 1], [1, 0]])


def test_population_equality_never_raises_and_reads_the_outcomes():
    a, b = make_population(10, 0.5, seed=0), make_population(10, 0.5, seed=0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != make_population(10, 0.5, seed=1)
    early, late = FinitePopulation([1, 0, 0, 0]), FinitePopulation([0, 0, 0, 1])
    assert early != late and not early == late
    counts = PopulationCounts(4, 1)
    assert early != counts and counts != early
    assert counts == PopulationCounts(4, 1) and hash(counts) == hash(PopulationCounts(4, 1))
    assert early != "population"


def forward_functional(p, s):
    """Criterion 10's callable forward functional."""
    ybar_p = p.prevalence
    mix = s.fp_hat * (1 - ybar_p) + s.fn_hat * ybar_p
    delta_hat = s.f1_hat - s.f0_hat
    d_hat = 1 + s.fp_hat + s.fn_hat - delta_hat * (ybar_p / (1 - ybar_p)) * mix / s.f_hat
    return math.sqrt((1 - s.f_hat) / s.f_hat) * s.rho_iy * d_hat * p.sigma_y


def test_mc_expectation_on_counts_equals_it_on_the_population():
    from test_acceptance import GRID_12

    for idx, (ybar, m, f, fp, fn) in enumerate(GRID_12):
        pop = make_population(100_000, ybar, seed=100 + idx)
        counts = PopulationCounts(pop.size, pop.total)
        sel = SelectionModel.from_relative_rate(f, m, pop.prevalence)
        meas = MeasurementModel(fp, fn)
        for functional in ("rho_iy", forward_functional):
            on_counts = mc_expectation(counts, sel, meas, functional, 300, seed=1000 + idx)
            assert on_counts == mc_expectation(pop, sel, meas, functional, 300, seed=1000 + idx)
        cells = joint_counts(pop, realize(pop, sel, meas, seed=idx))
        stats, degenerate = stats_from_counts(counts, cells)
        assert (stats, degenerate) == stats_from_counts(pop, cells)
        assert decompose_realization(counts, stats) == decompose_realization(pop, stats)


def test_paper_scale_counts_oracle_and_exact_identity():
    # The README's compare --n1 328e6 scale: no 328 MB outcome vector is built.
    start = time.perf_counter()
    pop = PopulationCounts(328_000_000, 32_800_000)
    sel = SelectionModel.from_relative_rate(0.023, 2.0, pop.prevalence)
    meas = MeasurementModel(0.01, 0.15)
    f_true = sel.overall_fraction(pop.prevalence)

    # Criterion 10's three checks, within its 3 SE bound, at 10^4 replications.
    est_rho = mc_expectation(pop, sel, meas, "rho_iy", 10_000, seed=1)
    assert abs(est_rho.mean - binary_rho(sel.delta, pop.prevalence, f_true)) < 3 * est_rho.std_error
    est_ipz = mc_expectation(pop, sel, meas, "rho_ipz", 10_000, seed=2)
    ipz_pred = rho_ipz_from_rho_iy(est_rho.mean, sel, meas, pop.prevalence)
    assert abs(est_ipz.mean - ipz_pred) < 3 * est_ipz.std_error
    est_fwd = mc_expectation(pop, sel, meas, forward_functional, 10_000, seed=3)
    fwd_pred = (math.sqrt((1 - f_true) / f_true) * pop.sigma_y
                * forward_rho_dm(sel.delta, pop.prevalence, f_true, meas))
    assert abs(est_fwd.mean - fwd_pred) < 3 * est_fwd.std_error

    # The exact identity on 10^4 multinomial count draws: positives' cells, then negatives'.
    def cells(f, rate):
        return [f * rate, f * (1 - rate), (1 - f) * rate, (1 - f) * (1 - rate)]

    rng = np.random.default_rng(4)
    counts = np.concatenate([rng.multinomial(pop.total, cells(sel.f1, meas.fn), size=10_000),
                             rng.multinomial(pop.size - pop.total, cells(sel.f0, meas.fp),
                                             size=10_000)], axis=1)
    stats, degenerate = stats_from_counts(pop, counts)
    assert not degenerate.any()
    lhs = stats.ybar_star - pop.prevalence
    residual = np.abs(decompose_realization(pop, stats).total_error - lhs)
    assert (residual / np.maximum(np.abs(lhs), 1e-2)).max() < 1e-10
    assert time.perf_counter() - start < 1.0
