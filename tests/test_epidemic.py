import math

import numpy as np
import pytest

from casebias import (
    PeakTimes,
    SirParams,
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


def test_new_cases_equal_susceptible_drops():
    traj = sir_simulate(fig_params(horizon=100))
    assert np.allclose(traj.new_cases, traj.susceptible[:-1] - traj.susceptible[1:])
    instant = new_cases_instant(traj, beta=1.4, dt=0.1)
    # The instantaneous rate tracks the per-step drop to first order in dt.
    scale = np.maximum(traj.new_cases, 1e-9)
    assert np.abs(instant - traj.new_cases).max() / scale.max() < 0.2


def test_too_large_step_flagged():
    with pytest.warns(RuntimeWarning):
        sir_simulate(
            SirParams(beta=1.4, gamma_rec=3.0, size=1e6, s0=1e6 - 100, i0=100, dt=9.0, horizon=10)
        )


def synthetic_traj(new_cases):
    """Trajectory wrapper around a hand-built new-case series."""
    from casebias import SirTrajectory

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
