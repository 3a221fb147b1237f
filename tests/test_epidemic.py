import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from casebias import (
    PeakTimes,
    SirParams,
    SirTrajectory,
    new_cases_instant,
    peak_time,
    sir_simulate,
    trajectory_csv,
    true_rt,
)


def fig_params(beta=1.4, horizon=400, dt=0.1, i0=100.0, size=1e6):
    return SirParams(
        beta=beta, gamma_rec=0.2, size=size, s0=size - i0, i0=i0, dt=dt, horizon=horizon
    )


def test_params_validation():
    with pytest.raises(ValueError):
        SirParams(beta=1.0, gamma_rec=0.2, size=100, s0=90, i0=5, r0=0, dt=0.1, horizon=10)
    with pytest.raises(ValueError):
        SirParams(beta=1.0, gamma_rec=0.2, size=100, s0=99, i0=1, dt=0.0, horizon=10)
    with pytest.raises(ValueError):
        SirParams(beta=0.0, gamma_rec=0.2, size=100, s0=99, i0=1, dt=0.1, horizon=10)
    assert fig_params().basic_reproduction == pytest.approx(7.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["beta", "gamma_rec", "dt", "size", "s0", "i0", "r0"])
def test_params_reject_nonfinite(name, bad):
    fields = dict(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6 - 100.0, i0=100.0, r0=0.0, dt=0.1)
    fields[name] = bad
    with pytest.raises(ValueError):
        SirParams(horizon=10, **fields)


def test_disease_free_equilibrium():
    params = SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6, i0=0.0, dt=0.1, horizon=50)
    traj = sir_simulate(params)
    assert np.allclose(traj.infected, 0.0)
    assert np.allclose(traj.new_cases, 0.0)
    assert peak_time(traj) == PeakTimes(0, 0)


def test_conservation_and_shape():
    traj = sir_simulate(fig_params())
    total = traj.susceptible + traj.infected + traj.removed
    assert np.abs(total - 1e6).max() < 1e-9 * 1e6
    assert (np.diff(traj.susceptible) <= 0).all()
    assert (traj.new_cases >= 0).all()
    assert traj.susceptible.size == 401
    assert traj.new_cases.size == 400


def test_single_interior_peak():
    traj = sir_simulate(fig_params())
    diffs = np.sign(np.diff(traj.infected))
    flips = np.count_nonzero(np.diff(diffs[diffs != 0]) != 0)
    assert flips == 1
    peak = peak_time(traj).prevalence_peak
    assert 0 < peak < 400


def test_slower_transmission_peaks_later_and_lower():
    fast = sir_simulate(fig_params(beta=1.4))
    slow = sir_simulate(fig_params(beta=0.9))
    assert peak_time(slow).prevalence_peak > peak_time(fast).prevalence_peak
    assert slow.infected.max() < fast.infected.max()


def test_incidence_peak_precedes_prevalence_peak():
    peaks = peak_time(sir_simulate(fig_params()))
    assert peaks.incidence_peak <= peaks.prevalence_peak


def test_monotone_truncated_run_peaks_at_end():
    traj = sir_simulate(fig_params(horizon=30))
    peaks = peak_time(traj)
    assert peaks.prevalence_peak == 30
    assert peaks.incidence_peak == 29


def test_step_halving_stability():
    coarse = sir_simulate(fig_params(dt=0.1, horizon=400))
    fine = sir_simulate(fig_params(dt=0.05, horizon=800))
    for a, b in (
        (coarse.susceptible, fine.susceptible[::2]),
        (coarse.infected, fine.infected[::2]),
        (coarse.removed, fine.removed[::2]),
    ):
        assert np.abs(a - b).max() < 1e-6 * 1e6


# The analytic oracle: two exact properties of the SIR flow (N = 1e6, I0 = 100, R0 = 0).
def _flow(beta, gamma, dt, t_end):
    return sir_simulate(SirParams(beta=beta, gamma_rec=gamma, size=1e6, s0=1e6 - 100.0,
                                  i0=100.0, dt=dt, horizon=round(t_end / dt)))


def _integral_drift(beta, gamma, dt):
    """Largest drift over t in [0, 40] of the first integral S + I - (gamma/beta) N ln S, per N."""
    traj = _flow(beta, gamma, dt, 40.0)
    h = traj.susceptible + traj.infected - gamma / beta * traj.size * np.log(traj.susceptible)
    return np.abs(h - h[0]).max() / traj.size


# Figure 1's two rates, then four seeded draws.
FLOW_GRID = [(1.4, 0.2), (0.9, 0.2)] + np.random.default_rng(7).uniform(
    (0.5, 0.1), (1.5, 0.3), (4, 2)).round(3).tolist()


@pytest.mark.parametrize("beta, gamma", FLOW_GRID)
def test_sir_keeps_the_first_integral_of_the_flow(beta, gamma):
    # Measured at dt 0.1: 5.0e-10 N at beta 1.4, gamma 0.2, the largest on this grid,
    # 3.2e-11 N at beta 0.9 and 7.5e-14-4.9e-10 N at the draws; the bound is 4x the largest.
    assert _integral_drift(beta, gamma, 0.1) < 2e-9


@pytest.mark.parametrize("beta", [1.4, 0.9])
def test_sir_first_integral_drift_converges_at_fourth_order(beta):
    # RK4: doubling dt multiplies the drift by ~2^4.  Measured orders for dt 0.5 -> 1.0:
    # 4.08 at beta 1.4 and 4.03 at beta 0.9, ~0.2 inside the band.
    order = math.log2(_integral_drift(beta, 0.2, 1.0) / _integral_drift(beta, 0.2, 0.5))
    assert 3.75 < order < 4.25


@pytest.mark.parametrize("beta", [1.4, 0.9])
def test_sir_final_size_solves_the_final_size_relation(beta):
    # s_inf solves ln(s_inf / s0) = -R0 (1 - s_inf) with s0 = S(0)/N; by t = 400, I/N < 1e-30.
    traj = _flow(beta, 0.2, 0.1, 400.0)
    s0, r0 = traj.susceptible[0] / traj.size, beta / 0.2
    s_inf = brentq(lambda s: math.log(s / s0) + r0 * (1.0 - s), 1e-300, s0 * (1.0 - 1e-12))
    # Measured: 3.6e-9 relative at beta 1.4 and 1.5e-10 at beta 0.9; the bound is ~3x the larger.
    assert abs(traj.susceptible[-1] / traj.size / s_inf - 1.0) < 1e-8


def test_new_cases_equal_susceptible_drops():
    traj = sir_simulate(fig_params(horizon=100))
    assert np.allclose(traj.new_cases, traj.susceptible[:-1] - traj.susceptible[1:])
    instant = new_cases_instant(traj, beta=1.4, dt=0.1)
    # The instantaneous rate tracks the per-step drop to first order in dt.
    scale = np.maximum(traj.new_cases, 1e-9)
    assert np.abs(instant - traj.new_cases).max() / scale.max() < 0.2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 0.0])
@pytest.mark.parametrize("name", ["beta", "dt"])
def test_new_cases_instant_rejects_beta_and_dt_as_sir_params_does(name, bad):
    traj = sir_simulate(fig_params(horizon=5))
    rates = dict(beta=1.4, dt=0.1)
    with pytest.raises(ValueError) as params_error:
        fig_params(**{name: bad})
    rates[name] = bad
    with pytest.raises(ValueError, match=rf"^{name} must be finite and positive, got ") as error:
        new_cases_instant(traj, **rates)
    assert str(error.value) == str(params_error.value)


def test_too_large_step_flagged():
    with pytest.warns(RuntimeWarning):
        sir_simulate(
            SirParams(beta=1.4, gamma_rec=3.0, size=1e6, s0=1e6 - 100, i0=100, dt=9.0, horizon=10)
        )


def synthetic_traj(new_cases):
    """Trajectory wrapper around a hand-built new-case series."""
    k = np.asarray(new_cases, dtype=np.float64)
    s = np.concatenate(([1e6], 1e6 - np.cumsum(k)))
    zeros = np.zeros(k.size + 1)
    return SirTrajectory(
        times=np.arange(k.size + 1) * 0.1,
        susceptible=s,
        infected=zeros.copy(),
        removed=1e6 - s,
        new_cases=k,
        size=1e6,
    )


def test_true_rt_constant_series():
    rt = true_rt(synthetic_traj(np.full(50, 123.0)), serial_interval=7.0)
    assert np.allclose(rt[1:], 1.0)


def test_true_rt_doubling_series():
    traj = synthetic_traj(123.0 * 2.0 ** np.arange(20))
    rt = true_rt(traj, serial_interval=7.0)
    assert np.allclose(rt[1:], 1.0 + math.log(2.0) / 7.0)
    with pytest.raises(ValueError):
        true_rt(traj, serial_interval=0.0)


def test_true_rt_crosses_one_at_incidence_peak():
    traj = sir_simulate(fig_params())
    rt = true_rt(traj, serial_interval=7.0)
    kp = peak_time(traj).incidence_peak
    assert (rt[1 : kp + 1] >= 1.0).all()
    assert rt[kp + 1] < 1.0


def test_true_rt_flags_zero_counts():
    traj = synthetic_traj([5.0, 0.0, 4.0, 8.0])
    with pytest.warns(RuntimeWarning):
        rt = true_rt(traj, serial_interval=7.0)
    assert math.isnan(rt[0]) and math.isnan(rt[1]) and math.isnan(rt[2])
    assert rt[3] == pytest.approx(1.0 + math.log(2.0) / 7.0)


def test_trajectory_csv_schema():
    traj = sir_simulate(fig_params(horizon=5))
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "time,S,I,R,K,prevalence"
    assert len(lines) == 6  # header + one row per step
    assert len(lines[1].split(",")) == 6


def _reference_rhs(s, i, beta, gamma, size):
    force = beta * s * i / size
    return -force, force - gamma * i, gamma * i


def reference_sir_paths(params):
    """The tuple-per-stage RK4 that ``sir_simulate`` writes out: same floats, same order."""
    args = (params.beta, params.gamma_rec, params.size)
    state = (float(params.s0), float(params.i0), float(params.r0))
    rows = [state]
    h = params.dt / 4
    for _ in range(params.horizon):
        for _ in range(4):
            s, i, _r = state
            k1 = _reference_rhs(s, i, *args)
            k2 = _reference_rhs(s + 0.5 * h * k1[0], i + 0.5 * h * k1[1], *args)
            k3 = _reference_rhs(s + 0.5 * h * k2[0], i + 0.5 * h * k2[1], *args)
            k4 = _reference_rhs(s + h * k3[0], i + h * k3[1], *args)
            state = tuple(x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                          for x, a, b, c, d in zip(state, k1, k2, k3, k4))
        rows.append(state)
    path = np.array(rows)
    return {
        "times": np.arange(params.horizon + 1) * params.dt,
        "susceptible": path[:, 0],
        "infected": path[:, 1],
        "removed": path[:, 2],
        "new_cases": path[:-1, 0] - path[1:, 0],
    }


def _random_params(rng):
    size = float(10.0 ** rng.uniform(2.0, 9.0))
    i0 = float(size * rng.choice([1e-6, 1e-4, 1e-2, 0.3]) + rng.uniform(0.0, 5.0))
    r0 = float((size - i0) * rng.choice([0.0, 0.0, 0.1, 0.5]))
    return SirParams(
        beta=float(rng.uniform(0.05, 4.0)),
        gamma_rec=float(rng.uniform(0.02, 1.5)),
        size=size,
        s0=size - i0 - r0,
        i0=i0,
        r0=r0,
        dt=float(rng.choice([0.05, 0.1, 0.25, 0.5, 1.0])),
        horizon=int(rng.integers(1, 601)),
    )


def test_sir_simulate_equals_tuple_rk4_reference_bit_for_bit():
    rng = np.random.default_rng(20201)
    for _ in range(220):
        params = _random_params(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            traj = sir_simulate(params)
        for name, expected in reference_sir_paths(params).items():
            assert np.array_equal(getattr(traj, name), expected, equal_nan=True), (params, name)


def test_sir_simulate_reference_covers_edge_states():
    edge = [
        SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=1e6, i0=0.0, horizon=20),
        SirParams(beta=1.4, gamma_rec=0.2, size=1e6, s0=0.0, i0=1e6, horizon=20),
        SirParams(beta=1.4, gamma_rec=0.2, size=100, s0=99, i0=1, r0=0, horizon=1),
        SirParams(beta=3.0, gamma_rec=0.02, size=1e9, s0=1e9 - 1, i0=1.0, dt=1.0, horizon=600),
    ]
    for params in edge:
        traj = sir_simulate(params)
        for name, expected in reference_sir_paths(params).items():
            assert np.array_equal(getattr(traj, name), expected), (params, name)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    beta=st.floats(0.05, 3.0),
    gamma_rec=st.floats(0.02, 1.0),
    dt=st.floats(0.01, 0.5),
    size=st.floats(10.0, 1e9),
    horizon=st.integers(1, 500),
    i_share=st.floats(0.0, 1.0),
    r_share=st.floats(0.0, 1.0),
)
def test_sir_conserves_population_and_stays_nonnegative(
    beta, gamma_rec, dt, size, horizon, i_share, r_share
):
    i0 = size * i_share
    r0 = (size - i0) * r_share
    params = SirParams(beta=beta, gamma_rec=gamma_rec, size=size, s0=size - i0 - r0, i0=i0,
                       r0=r0, dt=dt, horizon=horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = sir_simulate(params)
    total = traj.susceptible + traj.infected + traj.removed
    assert np.abs(total - size).max() <= 1e-9 * size
    for path in (traj.susceptible, traj.infected, traj.removed):
        assert path.min() >= 0.0
    # Every bit, at the continuous dt values the seeded bit-for-bit scenarios do not reach.
    for name, expected in reference_sir_paths(params).items():
        assert np.array_equal(getattr(traj, name), expected), name


def reference_trajectory_csv(traj):
    """The cell-indexing renderer that ``trajectory_csv`` replaces."""
    lines = ["time,S,I,R,K,prevalence"]
    prev = traj.prevalence
    for t in range(traj.new_cases.size):
        lines.append(
            f"{traj.times[t]:.6g},{traj.susceptible[t]:.6g},{traj.infected[t]:.6g},"
            f"{traj.removed[t]:.6g},{traj.new_cases[t]:.6g},{prev[t]:.6g}"
        )
    return "\n".join(lines) + "\n"


def test_trajectory_csv_equals_cell_indexing_reference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = _random_params(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            traj = sir_simulate(params)
        assert trajectory_csv(traj) == reference_trajectory_csv(traj)
    traj = sir_simulate(fig_params())
    assert trajectory_csv(traj) == reference_trajectory_csv(traj)


def test_trajectory_csv_renders_special_cells_like_reference():
    cells = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 123456789.0, -2.5])
    traj = SirTrajectory(
        times=np.append(cells, 9.0),
        susceptible=np.append(cells[::-1], 1.0),
        infected=np.append(np.roll(cells, 3), 1.0),
        removed=np.append(np.roll(cells, 5), 1.0),
        new_cases=np.roll(cells, 1),
        size=2.0,
    )
    text = trajectory_csv(traj)
    assert text == reference_trajectory_csv(traj)
    assert "nan" in text and "-inf" in text and "-0" in text


# Each special value in every float column: the template must render them as format() does.
SPECIAL_CELLS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324])
SPECIAL_TEXT = {"nan", "inf", "-inf", "-0", "4.94066e-324"}


def csv_columns(text):
    """Rendered cells of a CSV table, column by column, header dropped."""
    return list(zip(*(line.split(",") for line in text.splitlines()[1:])))


def test_trajectory_csv_renders_special_values_in_every_column():
    n = SPECIAL_CELLS.size
    states = [np.append(np.roll(SPECIAL_CELLS, j), 1.0) for j in range(4)]
    traj = SirTrajectory(
        times=states[0],
        susceptible=states[1],
        infected=states[2],
        removed=states[3],
        new_cases=np.roll(SPECIAL_CELLS, 4),
        size=1.0,  # prevalence = I / 1 keeps the infected column's cells exactly
    )
    text = trajectory_csv(traj)
    assert text == reference_trajectory_csv(traj)
    columns = csv_columns(text)
    assert len(columns) == 6 and all(len(col) == n for col in columns)
    for col in columns:
        assert set(col) == SPECIAL_TEXT


def test_trajectory_csv_one_row():
    traj = sir_simulate(fig_params(horizon=1))
    text = trajectory_csv(traj)
    assert text == reference_trajectory_csv(traj)
    assert text.count("\n") == 2 and text.endswith("\n")


def test_sir_simulate_records_drift_and_smallest_compartment():
    rng = np.random.default_rng(13)
    params = [_random_params(rng) for _ in range(30)] + [
        fig_params(),
        SirParams(beta=1.4, gamma_rec=3.0, size=1e6, s0=1e6 - 100, i0=100, dt=9.0, horizon=10),
    ]
    for p in params:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            traj = sir_simulate(p)
        path = np.column_stack([traj.susceptible, traj.infected, traj.removed])
        drift = np.abs(path.sum(axis=1) - traj.size).max()
        assert np.array_equal(traj.max_drift, drift, equal_nan=True)
        assert np.array_equal(traj.min_compartment, path.min(), equal_nan=True)
        assert type(traj.max_drift) is float and type(traj.min_compartment) is float
    # The last run is the too-large step that sir_simulate warns about.
    assert not traj.min_compartment >= 0.0


def test_sir_blow_up_gives_only_its_own_two_warnings():
    # inf - inf in the drift and the new cases is numpy's "invalid value" warning;
    # the path's own warning already reports it.
    params = SirParams(beta=8.0, gamma_rec=0.2, size=1e6, s0=1e6 - 100, i0=100, dt=5.0, horizon=6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = sir_simulate(params)
    assert [str(w.message) for w in caught] == [
        "negative or nonfinite compartment encountered; decrease dt",
        "conservation drift nan exceeds 1e-9 * N",
    ]
    assert math.isnan(traj.min_compartment) and math.isnan(traj.max_drift)
    assert np.isnan(traj.new_cases[1:]).all()


def test_sir_diagnostics_default_for_hand_built_trajectories_and_skip_equality():
    traj = synthetic_traj([1.0, 2.0, 3.0])
    assert math.isnan(traj.max_drift) and math.isnan(traj.min_compartment)
    simulated = sir_simulate(fig_params(horizon=20))
    assert simulated.max_drift <= 1e-9 * simulated.size
    assert simulated.min_compartment == simulated.removed.min() == 0.0
    assert replace(simulated, max_drift=1.0, min_compartment=-1.0) == simulated
