"""Deterministic SIR integration and trajectory-level summaries.

Fixed-step fourth-order Runge-Kutta on

    dS/dt = -beta*S*I/N,   dI/dt = beta*S*I/N - gamma*I,   dR/dt = +gamma*I.

The four stages are written out on local Python floats.  The removal rate
``gamma_rec`` is a model parameter; the serial interval of the
reproduction-number estimators is separate and never defaulted from it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._domain import AT_LEAST_1, NON_NEGATIVE, POSITIVE, check

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
        check("horizon", self.horizon, AT_LEAST_1)
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


def sir_simulate(params: SirParams) -> SirTrajectory:
    """Integrate the SIR system with classical RK4 on a fixed ``dt`` grid.

    Each reported step is integrated with fixed internal substeps.
    Conservation S+I+R = N is a property of the vector field (the stage
    derivatives sum to zero), so it is checked, not enforced by projection.
    Negative compartments flag a too-large step.
    """
    beta, gamma, size = params.beta, params.gamma_rec, params.size
    s, i, r = float(params.s0), float(params.i0), float(params.r0)
    rows = [(s, i, r)]
    h = params.dt / _SUBSTEPS
    hh, h6 = 0.5 * h, h / 6.0
    for _ in range(params.horizon):
        for _ in range(_SUBSTEPS):
            # Stage k: force f_k = beta*S*I/N and removal g_k = gamma*I at the stage point.
            f1, g1 = beta * s * i / size, gamma * i
            s2, i2 = s - hh * f1, i + hh * (f1 - g1)
            f2, g2 = beta * s2 * i2 / size, gamma * i2
            s3, i3 = s - hh * f2, i + hh * (f2 - g2)
            f3, g3 = beta * s3 * i3 / size, gamma * i3
            s4, i4 = s - h * f3, i + h * (f3 - g3)
            f4, g4 = beta * s4 * i4 / size, gamma * i4
            s, i, r = (s - h6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4),
                       i + h6 * ((f1 - g1) + 2.0 * (f2 - g2) + 2.0 * (f3 - g3) + (f4 - g4)),
                       r + h6 * (g1 + 2.0 * g2 + 2.0 * g3 + g4))
        rows.append((s, i, r))
    path = np.array(rows)

    if not np.isfinite(path).all() or path.min() < 0.0:
        warnings.warn(
            "negative or nonfinite compartment encountered; decrease dt",
            RuntimeWarning,
            stacklevel=2,
        )
    drift = np.abs(path.sum(axis=1) - size).max()
    if not drift <= 1e-9 * size:
        warnings.warn(
            f"conservation drift {drift:.3g} exceeds 1e-9 * N",
            RuntimeWarning,
            stacklevel=2,
        )
    susceptible = path[:, 0]
    return SirTrajectory(
        times=np.arange(params.horizon + 1) * params.dt,
        susceptible=susceptible,
        infected=path[:, 1],
        removed=path[:, 2],
        new_cases=susceptible[:-1] - susceptible[1:],
        size=params.size,
    )


def new_cases_instant(traj: SirTrajectory, beta: float, dt: float) -> np.ndarray:
    """Instantaneous-rate variant beta*S_t*I_t/N * dt of the new-case series."""
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
        warnings.warn(
            f"{skipped} steps skipped: nonpositive new-case counts",
            RuntimeWarning,
            stacklevel=2,
        )
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
    n = traj.new_cases.size
    cols = (traj.times, traj.susceptible, traj.infected, traj.removed, traj.new_cases,
            traj.prevalence)
    lines = ["time,S,I,R,K,prevalence"]
    lines += [f"{t:.6g},{s:.6g},{i:.6g},{r:.6g},{k:.6g},{p:.6g}"
              for t, s, i, r, k, p in zip(*(c[:n].tolist() for c in cols))]
    return "\n".join(lines) + "\n"
