"""Finite populations, selective testing draws, and Monte Carlo expectations.

The sampling model is Bernoulli selection with status-dependent rates: a
positive individual enters the tested sample with probability ``f1``, a
negative one with probability ``f0``.  Misclassification flips are drawn for
every individual but consumed only where the selection indicator is 1; the
population-wide flip vector is what makes the three-term error identity exact
realization by realization.

Every field of ``EmpiricalStats`` is a function of eight joint counts over
(Y, selected, flipped).  ``stats_from_counts`` is the one kernel that turns
counts into statistics, array in and array out, with a degenerate mask.  Two
samplers feed it:

- ``realize`` is the per-individual reference sampler; ``joint_counts`` counts
  its cells and ``empirical_stats`` applies the kernel to them.
- ``mc_expectation`` draws the counts directly.  Given the population, the
  positives' cells and the negatives' cells are two independent 4-cell
  multinomials, so all replications come from two batched draws at a cost
  independent of N.  ``mc_expectation_reference`` computes the same estimate
  from one ``realize`` per replication instead.

Seeds (``SeedLike``) may be an int, a ``SeedSequence`` or a ``Generator``.  A
``Generator`` is drawn from, so it advances; the other forms start a fresh
stream.

All moments are population moments (1/N normalization).  The exact identities
checked elsewhere hold only under that convention.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Union

import numpy as np

__all__ = [
    "DegenerateSampleError",
    "FinitePopulation",
    "SelectionModel",
    "MeasurementModel",
    "PERFECT_TEST",
    "Realization",
    "EmpiricalStats",
    "MCEstimate",
    "make_population",
    "realize",
    "joint_counts",
    "stats_from_counts",
    "empirical_stats",
    "mc_expectation",
    "mc_expectation_reference",
]

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


class DegenerateSampleError(RuntimeError):
    """A realization cannot support the requested statistic (n=0, n=N, ...)."""


@dataclass(frozen=True)
class FinitePopulation:
    """Fixed binary disease indicators for N individuals.

    The outcomes never change, so the positive mask, the number of positives
    ``total``, ``prevalence`` = total / N and ``sigma_y`` =
    sqrt(prev * (1 - prev)) are computed once, at construction.
    """

    outcomes: np.ndarray
    positive: np.ndarray = field(init=False, repr=False, compare=False)
    total: int = field(init=False, repr=False, compare=False)
    prevalence: float = field(init=False, repr=False, compare=False)
    sigma_y: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.outcomes, dtype=np.int8)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("population needs a 1-d outcome vector of length >= 2")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("outcomes must be 0/1")
        arr.flags.writeable = False
        positive = arr == 1
        positive.flags.writeable = False
        total = int(arr.sum())
        prevalence = total / arr.size
        object.__setattr__(self, "outcomes", arr)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "prevalence", prevalence)
        object.__setattr__(self, "sigma_y", float(np.sqrt(prevalence * (1.0 - prevalence))))

    @property
    def size(self) -> int:
        return int(self.outcomes.size)


@dataclass(frozen=True)
class SelectionModel:
    """Status-dependent testing rates.

    ``f0`` is the probability a negative individual gets tested, ``f1`` the
    probability a positive individual does.
    """

    f0: float
    f1: float

    def __post_init__(self):
        for name in ("f0", "f1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def delta(self) -> float:
        """Testing-rate differential f1 - f0."""
        return self.f1 - self.f0

    @property
    def relative_rate(self) -> float:
        """f1 / f0; undefined for f0 = 0."""
        if self.f0 == 0.0:
            raise ValueError("relative rate undefined when f0 = 0")
        return self.f1 / self.f0

    def overall_fraction(self, prevalence: float) -> float:
        """Expected tested fraction f = f1*prev + f0*(1 - prev)."""
        return self.f1 * prevalence + self.f0 * (1.0 - prevalence)

    @classmethod
    def from_relative_rate(cls, f: float, rel_rate: float, prevalence: float) -> "SelectionModel":
        """Build (f0, f1) from the overall fraction f and the ratio f1/f0.

        Inverts f = f1*prev + f0*(1-prev) with f1 = rel_rate * f0, i.e.
        f0 = f / (prev*(rel_rate - 1) + 1).
        """
        if rel_rate <= 0.0:
            raise ValueError("relative rate must be positive")
        f0 = f / (prevalence * (rel_rate - 1.0) + 1.0)
        return cls(f0=f0, f1=rel_rate * f0)


@dataclass(frozen=True)
class MeasurementModel:
    """False-positive / false-negative rates of the test."""

    fp: float
    fn: float

    def __post_init__(self):
        for name in ("fp", "fn"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if self.fp + self.fn >= 1.0:
            # fp + fn < 1 keeps the test more informative than a coin flip and
            # the linear correction invertible.
            raise ValueError("fp + fn must be < 1")

    @property
    def is_perfect(self) -> bool:
        return self.fp == 0.0 and self.fn == 0.0


PERFECT_TEST = MeasurementModel(0.0, 0.0)


@dataclass(frozen=True)
class Realization:
    """One draw of selection indicators and flip indicators.

    ``observed`` holds Y* = Y(1-P) + (1-Y)P for every individual; it is
    meaningful only where ``selected`` is True, but the flip vector is kept
    population-wide because the error identity sums P*Z against the selection
    indicator over the whole population.
    """

    selected: np.ndarray
    flipped: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        for name in ("selected", "flipped", "observed"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        """Realized sample size."""
        return int(np.count_nonzero(self.selected))


@dataclass(frozen=True)
class EmpiricalStats:
    """Population-level statistics of one realization (1/N moments).

    ``stats_from_counts`` fills the fields with arrays, one entry per
    replication; ``empirical_stats`` and callable functionals see floats.
    """

    f_hat: float
    ybar_star: float
    rho_iy: float
    rho_ipz: float
    sigma_pz: float
    fp_hat: float
    fn_hat: float
    f0_hat: float
    f1_hat: float


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    replications: int
    degenerate: int = 0


def make_population(size: int, prevalence: float, seed: SeedLike) -> FinitePopulation:
    """Population with an exact count of positives, round(prevalence * size).

    The count is deterministic so that the prevalence and problem difficulty
    are known constants; only the placement of positives is randomized.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    if not 0.0 <= prevalence <= 1.0:
        raise ValueError("prevalence must lie in [0, 1]")
    ones = int(round(prevalence * size))
    rng = np.random.default_rng(seed)
    outcomes = np.zeros(size, dtype=np.int8)
    if ones > 0:
        outcomes[rng.choice(size, size=ones, replace=False)] = 1
    return FinitePopulation(outcomes)


def realize(
    pop: FinitePopulation,
    sel: SelectionModel,
    meas: MeasurementModel,
    seed: SeedLike,
) -> Realization:
    """Draw selection and flip indicators for every individual.

    Selection uniforms are drawn before flip uniforms, so a given seed fixes
    the realization exactly.
    """
    rng = np.random.default_rng(seed)
    pos = pop.positive
    p_select = np.where(pos, sel.f1, sel.f0)
    selected = rng.random(pop.size) < p_select
    p_flip = np.where(pos, meas.fn, meas.fp)
    flipped = rng.random(pop.size) < p_flip
    observed = (pos ^ flipped).astype(np.int8)
    return Realization(selected=selected, flipped=flipped, observed=observed)


def joint_counts(pop: FinitePopulation, r: Realization) -> np.ndarray:
    """The eight (Y, selected, flipped) cell counts of a realization.

    Layout, shared with ``mc_expectation``'s draws: the four cells of the
    positives, then the four of the negatives, each ordered (selected and
    flipped, selected only, flipped only, neither).
    """
    pos = pop.positive
    sel = r.selected
    flip = r.flipped
    n = r.n
    sel_pos = int(np.count_nonzero(sel & pos))
    flip_pos = int(np.count_nonzero(flip & pos))
    flip_neg = int(np.count_nonzero(flip)) - flip_pos
    sel_flip = sel & flip
    sel_flip_pos = int(np.count_nonzero(sel_flip & pos))
    sel_flip_neg = int(np.count_nonzero(sel_flip)) - sel_flip_pos
    sel_neg = n - sel_pos
    n_pos = pop.total
    n_neg = pop.size - n_pos
    return np.array([
        sel_flip_pos,
        sel_pos - sel_flip_pos,
        flip_pos - sel_flip_pos,
        n_pos - sel_pos - flip_pos + sel_flip_pos,
        sel_flip_neg,
        sel_neg - sel_flip_neg,
        flip_neg - sel_flip_neg,
        n_neg - sel_neg - flip_neg + sel_flip_neg,
    ])


def stats_from_counts(pop: FinitePopulation, counts) -> tuple[EmpiricalStats, np.ndarray]:
    """Statistics from joint cell counts: the one kernel behind every sampler.

    ``counts`` has the ``joint_counts`` layout on its last axis; any leading
    axes (replications, say) carry through, so the fields of the returned
    ``EmpiricalStats`` are arrays of the leading shape.  Returns
    ``(stats, degenerate)``, where ``degenerate`` marks the empty sample
    (n = 0), the census (n = N) and a constant population (sigma_Y = 0): the
    correlations are undefined there and those entries hold no meaning.
    ``rho_ipz`` is 0 wherever no flips occurred (sigma_PZ = 0; the covariance
    is exactly zero as well, so the identity is unaffected).  No numpy warning
    is emitted for any input.
    """
    counts = np.asarray(counts)
    sel_flip_pos = counts[..., 0]
    sel_pos = sel_flip_pos + counts[..., 1]
    flip_pos = sel_flip_pos + counts[..., 2]
    sel_flip_neg = counts[..., 4]
    sel_neg = sel_flip_neg + counts[..., 5]
    flip_neg = sel_flip_neg + counts[..., 6]
    n = sel_pos + sel_neg
    n_pop = pop.size
    n_pos = pop.total
    ybar = pop.prevalence
    sigma_y = pop.sigma_y
    degenerate = (n == 0) | (n == n_pop) | (sigma_y == 0.0)

    # Degenerate entries divide by zero; they are masked, not reported.
    with np.errstate(divide="ignore", invalid="ignore"):
        f_hat = n / n_pop
        sigma_i = np.sqrt(f_hat * (1.0 - f_hat))
        # Observed positives: unflipped true positives plus flipped negatives.
        ybar_star = ((sel_pos - sel_flip_pos) + sel_flip_neg) / n

        cov_iy = sel_pos / n_pop - f_hat * ybar
        rho_iy = cov_iy / (sigma_i * sigma_y)

        # PZ = P * (1 - 2Y) is +1 on flipped negatives, -1 on flipped positives.
        mean_pz = (flip_neg - flip_pos) / n_pop
        var_pz = (flip_neg + flip_pos) / n_pop - mean_pz ** 2
        sigma_pz = np.sqrt(var_pz)
        cov_ipz = (sel_flip_neg - sel_flip_pos) / n_pop - f_hat * mean_pz
        rho_ipz = np.where(sigma_pz > 0.0, cov_ipz / (sigma_i * sigma_pz), 0.0)

        stats = EmpiricalStats(
            f_hat=f_hat,
            ybar_star=ybar_star,
            rho_iy=rho_iy,
            rho_ipz=rho_ipz,
            sigma_pz=sigma_pz,
            fp_hat=flip_neg / (n_pop - n_pos),
            fn_hat=flip_pos / n_pos,
            f0_hat=sel_neg / (n_pop - n_pos),
            f1_hat=sel_pos / n_pos,
        )
    return stats, degenerate


_FIELDS = tuple(f.name for f in fields(EmpiricalStats))


def empirical_stats(pop: FinitePopulation, r: Realization) -> EmpiricalStats:
    """Finite-population statistics of a realization.

    Counts the realization's cells and applies ``stats_from_counts``.  Raises
    DegenerateSampleError when the sample is empty, when everyone is selected
    (selection variance zero), or when the population itself has no outcome
    variance, since the correlations are undefined in those cases.
    """
    stats, degenerate = stats_from_counts(pop, joint_counts(pop, r))
    if degenerate:
        if stats.f_hat == 0.0:
            raise DegenerateSampleError("empty sample: observed mean undefined")
        if stats.f_hat == 1.0:
            raise DegenerateSampleError("census: selection variance is zero, rho undefined")
        raise DegenerateSampleError("population outcomes are constant, rho undefined")
    return EmpiricalStats(*(float(getattr(stats, name)) for name in _FIELDS))


Functional = Union[str, Callable[[FinitePopulation, EmpiricalStats], float]]

# Each entry also runs unchanged on array-valued stats.
FUNCTIONALS = {
    "rho_iy": lambda pop, s: s.rho_iy,
    "rho_iy_sq": lambda pop, s: s.rho_iy ** 2,
    "rho_ipz": lambda pop, s: s.rho_ipz,
    "ybar_star": lambda pop, s: s.ybar_star,
    "f_hat": lambda pop, s: s.f_hat,
    "error": lambda pop, s: s.ybar_star - pop.prevalence,
    "sq_error": lambda pop, s: (s.ybar_star - pop.prevalence) ** 2,
}


def _check_request(functional: Functional, replications: int) -> None:
    if replications < 2:
        raise ValueError("replications must be >= 2")
    if isinstance(functional, str) and functional not in FUNCTIONALS:
        raise ValueError(
            f"unknown functional {functional!r}; choose from {sorted(FUNCTIONALS)}"
        )


def _summarize(pop: FinitePopulation, counts: np.ndarray, functional: Functional) -> MCEstimate:
    """Mean and standard error of a functional over per-replication counts.

    Degenerate replications are skipped and counted; more than 50%
    degenerate is an error.
    """
    replications = counts.shape[0]
    stats, degenerate = stats_from_counts(pop, counts)
    bad = int(np.count_nonzero(degenerate))
    if bad > replications // 2:
        raise DegenerateSampleError(f"{bad}/{replications} replications degenerate")
    keep = ~degenerate
    if isinstance(functional, str):
        kept = EmpiricalStats(*(getattr(stats, name)[keep] for name in _FIELDS))
        sample = np.asarray(FUNCTIONALS[functional](pop, kept), dtype=np.float64)
    else:
        # Callables get one scalar EmpiricalStats per replication.
        columns = [getattr(stats, name)[keep].tolist() for name in _FIELDS]
        sample = np.array(
            [functional(pop, EmpiricalStats(*row)) for row in zip(*columns)], dtype=np.float64
        )
    used = replications - bad
    mean = float(sample.mean())
    std_error = float(sample.std(ddof=1) / np.sqrt(used))
    return MCEstimate(mean=mean, std_error=std_error, replications=used, degenerate=bad)


def _cell_probabilities(f: float, rate: float) -> list:
    """(selected and flipped, selected only, flipped only, neither)."""
    return [f * rate, f * (1.0 - rate), (1.0 - f) * rate, (1.0 - f) * (1.0 - rate)]


def mc_expectation(
    pop: FinitePopulation,
    sel: SelectionModel,
    meas: MeasurementModel,
    functional: Functional,
    replications: int,
    seed: SeedLike,
) -> MCEstimate:
    """Monte Carlo expectation of a statistic over independent realizations.

    Draws every replication's joint counts at once: one multinomial over the
    positives' cells with rates (f1, FN), then one over the negatives' cells
    with rates (f0, FP), both from ``np.random.default_rng(seed)``.
    Degenerate realizations are skipped and counted; more than 50% degenerate
    is an error.

    Parameters
    ----------
    functional : str or callable
        Either a key of ``FUNCTIONALS``, evaluated as one array expression, or
        a callable ``(pop, stats) -> float`` that is called once per
        non-degenerate replication with a scalar ``EmpiricalStats``.
    seed : int, SeedSequence or Generator
        A Generator is drawn from and advances.
    """
    _check_request(functional, replications)
    rng = np.random.default_rng(seed)
    n_pos = pop.total
    counts = np.concatenate(
        [
            rng.multinomial(n_pos, _cell_probabilities(sel.f1, meas.fn), size=replications),
            rng.multinomial(
                pop.size - n_pos, _cell_probabilities(sel.f0, meas.fp), size=replications
            ),
        ],
        axis=1,
    )
    return _summarize(pop, counts, functional)


def mc_expectation_reference(
    pop: FinitePopulation,
    sel: SelectionModel,
    meas: MeasurementModel,
    functional: Functional,
    replications: int,
    seed: SeedLike,
) -> MCEstimate:
    """``mc_expectation`` on the per-individual reference sampler.

    Replication i is ``realize(pop, sel, meas, children[i])`` with
    ``children = SeedSequence(seed).spawn(replications)`` (a SeedSequence
    seed is spawned from directly; a Generator seeds a SeedSequence from one
    draw).  Its cells go through the same kernel and summary as
    ``mc_expectation``.  It costs O(N) per replication; use it where the
    realization stream itself must be reproduced.
    """
    _check_request(functional, replications)
    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(2**63))
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    counts = np.array(
        [joint_counts(pop, realize(pop, sel, meas, child)) for child in master.spawn(replications)]
    )
    return _summarize(pop, counts, functional)
