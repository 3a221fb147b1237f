"""Deterministic SIR integration and trajectory-level summaries.

Fixed-step fourth-order Runge-Kutta on

    dS/dt = -beta*S*I/N,   dI/dt = beta*S*I/N - gamma*I,   dR/dt = +gamma*I.

The four stages are written out on local Python floats; each stage's net
force beta*S*I/N - gamma*I is computed once and serves both its stage point
and the I update.  S, I and R are kept as three lists of floats, one entry per
reported step, and become the rows of one array at the end.  The removal rate
``gamma_rec`` is a model parameter; the serial interval of the
reproduction-number estimators is separate and never defaulted from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._domain import INTEGER_AT_LEAST_1, NON_NEGATIVE, POSITIVE, check, notice, rows

__all__ = [
    "SirParams",
    "SirTrajectory",
    "sir_simulate",
    "new_cases_instant",
    "true_rt",
    "PeakTimes",
    "peak_time",
    "trajectory_csv",
]


@dataclass(frozen=True)
class SirParams:
    beta: float
    gamma_rec: float
    size: float
    s0: float
    i0: float
    r0: float = 0.0
    dt: float = 0.1
    horizon: int = 400

    def __post_init__(self):
        for name in ("beta", "gamma_rec", "size", "dt"):
            check(name, getattr(self, name), POSITIVE)
        horizon = check("horizon", self.horizon, INTEGER_AT_LEAST_1)
        object.__setattr__(self, "horizon", int(horizon))  # 3.0 runs as 3 does
        check("i0", self.i0, NON_NEGATIVE)
        check("r0", self.r0, NON_NEGATIVE)
        if not 0.0 <= self.s0 < math.inf:
            raise ValueError(f"initial compartments must be nonnegative, got s0 = {self.s0}")
        if not np.isclose(self.s0 + self.i0 + self.r0, self.size, rtol=1e-9):
            raise ValueError("s0 + i0 + r0 must equal the population size")

    @property
    def basic_reproduction(self) -> float:
        return self.beta / self.gamma_rec


@dataclass(frozen=True)
class SirTrajectory:
    """Compartment paths on a fixed grid plus the per-step new-case series.

    ``new_cases[t]`` counts infections during step t -> t+1, computed as
    S[t] - S[t+1]; the state arrays have one more entry than ``new_cases``.
    """

    times: np.ndarray
    susceptible: np.ndarray
    infected: np.ndarray
    removed: np.ndarray
    new_cases: np.ndarray
    size: float
    max_drift: float = field(default=math.nan, compare=False)  # max |S+I+R - N| over the grid
    min_compartment: float = field(default=math.nan, compare=False)  # smallest S, I or R value

    def __post_init__(self):
        for name in ("times", "susceptible", "infected", "removed", "new_cases"):
            getattr(self, name).flags.writeable = False

    @property
    def prevalence(self) -> np.ndarray:
        return self.infected / self.size

    @property
    def new_case_fraction(self) -> np.ndarray:
        return self.new_cases / self.size


# Internal RK4 substeps per reported step: keeps the reported grid at dt while
# pushing the truncation error well under the 1e-6 * N step-halving budget.
_SUBSTEPS = 4
# The substep loop walks this tuple: cheaper than a fresh range(_SUBSTEPS) every step.
_SUBSTEP_INDICES = tuple(range(_SUBSTEPS))


def sir_simulate(params: SirParams) -> SirTrajectory:
    """Integrate the SIR system with classical RK4 on a fixed ``dt`` grid.

    Each reported step is integrated with fixed internal substeps.
    Conservation S+I+R = N is a property of the vector field (the stage
    derivatives sum to zero), so it is checked, not enforced by projection.
    Negative compartments flag a too-large step.
    """
    beta, gamma, size = params.beta, params.gamma_rec, params.size
    s, i, r = float(params.s0), float(params.i0), float(params.r0)
    s_path, i_path, r_path = [s], [i], [r]
    h = params.dt / _SUBSTEPS
    hh, h6 = 0.5 * h, h / 6.0
    for _ in range(params.horizon):
        for _ in _SUBSTEP_INDICES:
            # Stage k: force f_k = beta*S*I/N, removal g_k = gamma*I and net force
            # d_k = f_k - g_k on I at the stage point.
            f1, g1 = beta * s * i / size, gamma * i
            d1 = f1 - g1
            s2, i2 = s - hh * f1, i + hh * d1
            f2, g2 = beta * s2 * i2 / size, gamma * i2
            d2 = f2 - g2
            s3, i3 = s - hh * f2, i + hh * d2
            f3, g3 = beta * s3 * i3 / size, gamma * i3
            d3 = f3 - g3
            s4, i4 = s - h * f3, i + h * d3
            f4, g4 = beta * s4 * i4 / size, gamma * i4
            s, i, r = (s - h6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4),
                       i + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + (f4 - g4)),
                       r + h6 * (g1 + 2.0 * g2 + 2.0 * g3 + g4))
        s_path.append(s)
        i_path.append(i)
        r_path.append(r)
    path = np.array((s_path, i_path, r_path))  # one row per compartment

    # Taken over (S, I, R) step by step, the order that fixes the sign of a zero minimum.
    low = path.T.copy().min()
    if not np.isfinite(path).all() or low < 0.0:
        notice("negative or nonfinite compartment encountered; decrease dt")
    susceptible, infected, removed = path
    # A blown-up path holds inf - inf; the warning above already reports it.
    with np.errstate(invalid="ignore", over="ignore"):
        drift = np.abs(susceptible + infected + removed - size).max()
        new_cases = susceptible[:-1] - susceptible[1:]
    if not drift <= 1e-9 * size:
        notice(f"conservation drift {drift:.3g} exceeds 1e-9 * N")
    return SirTrajectory(
        times=np.arange(params.horizon + 1) * params.dt,
        susceptible=susceptible,
        infected=infected,
        removed=removed,
        new_cases=new_cases,
        size=params.size,
        max_drift=float(drift),
        min_compartment=float(low),
    )


def new_cases_instant(traj: SirTrajectory, beta: float, dt: float) -> np.ndarray:
    """Instantaneous-rate variant beta*S_t*I_t/N * dt of the new-case series."""
    check("beta", beta, POSITIVE)
    check("dt", dt, POSITIVE)
    return beta * traj.susceptible[:-1] * traj.infected[:-1] / traj.size * dt


def true_rt(traj: SirTrajectory, serial_interval: float) -> np.ndarray:
    """Reproduction number 1 + log(K_t / K_{t-1}) / serial_interval per step.

    Aligned with ``new_cases``: entry t uses steps t and t-1; entry 0 and any
    step adjoining a nonpositive count are NaN (skipped, with a warning when
    zeros were present).
    """
    out = _true_rt(traj, serial_interval)
    skipped = int(np.isnan(out[1:]).sum())
    if skipped:
        notice(f"{skipped} steps skipped: nonpositive new-case counts")
    return out


def _true_rt(traj: SirTrajectory, serial_interval: float) -> np.ndarray:
    """``true_rt`` without the warning, for callers that report skipped steps themselves."""
    check("serial interval", serial_interval, POSITIVE)
    k = traj.new_cases
    out = np.full(k.size, np.nan)
    valid = (k[1:] > 0.0) & (k[:-1] > 0.0)
    out[1:][valid] = 1.0 + np.log(k[1:][valid] / k[:-1][valid]) / serial_interval
    return out


class PeakTimes(NamedTuple):
    prevalence_peak: int
    incidence_peak: int


def peak_time(traj: SirTrajectory) -> PeakTimes:
    """Step indices of the prevalence (I) and incidence (K) maxima.

    Ties resolve to the earliest index, so a flat disease-free run reports 0.
    """
    return PeakTimes(
        prevalence_peak=int(np.argmax(traj.infected)),
        incidence_peak=int(np.argmax(traj.new_cases)),
    )


def trajectory_csv(traj: SirTrajectory) -> str:
    """CSV rows time,S,I,R,K,prevalence for steps 0..horizon-1.

    Each row carries the state at the start of the step and the new cases
    produced during it.
    """
    cols = (traj.times, traj.susceptible, traj.infected, traj.removed, traj.new_cases,
            traj.prevalence)
    return "time,S,I,R,K,prevalence\n" + rows(
        "%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n", [c[:traj.new_cases.size].tolist() for c in cols])
