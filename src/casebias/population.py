"""Finite populations, selective testing draws, and Monte Carlo expectations.

The sampling model is Bernoulli selection with status-dependent rates: a
positive individual enters the tested sample with probability ``f1``, a
negative one with probability ``f0``.  Misclassification flips are drawn for
every individual but consumed only where the selection indicator is 1; the
population-wide flip vector is what makes the three-term error identity exact
realization by realization.

A population enters the count layer only through its size N and its number
of positives: ``PopulationCounts(size, total)`` holds those two and derives
``prevalence`` = total / N and ``sigma_y`` = sqrt(prev * (1 - prev)), once.
``FinitePopulation`` is a ``PopulationCounts`` built from an outcome vector,
which it keeps read-only with its positive mask, a bool view of the same
bytes (one byte per individual); two are equal when their outcomes are.
``stats_from_counts``, ``mc_expectation`` and
``decomposition.decompose_realization`` take either, so they run at any N;
``realize`` and the replays below place individuals and need the vector.

Every field of ``EmpiricalStats`` is a function of eight joint counts over
(Y, selected, flipped).  ``stats_from_counts`` is the one kernel that turns
counts into statistics, array in and array out, with a degenerate mask.  Two
samplers feed it:

- ``realize`` is the per-individual reference sampler; ``joint_counts`` counts
  its cells and ``empirical_stats`` applies the kernel to them.  It draws
  both uniform vectors into one buffer and compares them with the two scalar
  rates, so it builds no per-individual rate array; its stream is the one
  ``rng.random(N) < np.where(positive, f1, f0)`` followed by the same for
  (FN, FP) would give.
- ``mc_expectation`` draws the counts directly.  Given the population, the
  positives' cells and the negatives' cells are two independent 4-cell
  multinomials, so all replications come from two batched draws at a cost
  independent of N.  ``mc_expectation_reference`` computes the same estimate
  from the cells of one ``realize`` per replication instead;
  ``decomposition.verify_identity`` checks the exact identity on those same
  seeded realizations.  Both replay ``realize``'s stream as counts: they draw
  and compare the uniforms as ``realize`` does but build no ``Realization``,
  and under a perfect test they skip the flip uniforms, which could flip no
  one.  ``joint_counts`` and this replay share one cell-counting helper.
  Their child seeds come from one array pass: numpy's ``SeedSequence``
  hashes the words every child shares once, and the array pass, one lane
  per child, covers only each child's index word and its state output.
  Each child's four state words seed its ``PCG64`` through numpy's
  ``ISeedSequence`` interface, so every stream is the one
  ``default_rng(child)`` gives for the spawned child.

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
from numpy.random.bit_generator import ISeedSequence

from ._domain import ERROR_RATE, INTEGER_AT_LEAST_2, POSITIVE, UNIT, check

__all__ = [
    "DegenerateSampleError",
    "PopulationCounts",
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
class PopulationCounts:
    """N individuals, ``total`` of them positive, with the moments derived from those counts."""

    size: int
    total: int
    prevalence: float = field(init=False, repr=False, compare=False)
    sigma_y: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check("size", self.size, INTEGER_AT_LEAST_2)
        if not (0 <= self.total <= self.size and self.total % 1 == 0):
            raise ValueError(f"total must be an integer in [0, {self.size}], got {self.total}")
        prevalence = self.total / self.size
        object.__setattr__(self, "prevalence", prevalence)
        object.__setattr__(self, "sigma_y", float(np.sqrt(prevalence * (1.0 - prevalence))))


@dataclass(frozen=True)
class FinitePopulation(PopulationCounts):
    """Fixed binary disease indicators for N individuals, with their counts and positive mask.

    ``outcomes`` is a read-only int8 0/1 vector; ``positive`` is a read-only bool view
    of its bytes, not a copy, so the pair costs one byte per individual.  An int8
    array that owns its data is kept as is and made read-only; a view of another
    array is copied, so a write through that array cannot move the outcomes away
    from ``total``.  A view of the kept array taken before construction can still
    write to it.
    """

    size: int = field(init=False)
    total: int = field(init=False)
    outcomes: np.ndarray
    positive: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.outcomes, dtype=np.int8)
        if arr.ndim != 1:  # PopulationCounts checks its length
            raise ValueError("population needs a 1-d outcome vector")
        if not (arr.view(np.uint8) <= 1).all():  # -1..-128 read as 255..128
            raise ValueError("outcomes must be 0/1")
        if arr.base is not None:  # a view: a write through its base would move the outcomes
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "outcomes", arr)
        # The 0/1 bytes checked above read as False/True; a view of read-only arr is read-only.
        object.__setattr__(self, "positive", arr.view(np.bool_))
        object.__setattr__(self, "size", arr.size)
        object.__setattr__(self, "total", int(arr.sum()))
        super().__post_init__()

    # Equal outcome vectors, not equal counts; == on two arrays gives no one bool.
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.outcomes, other.outcomes)

    def __hash__(self):
        return hash((self.size, self.total))


@dataclass(frozen=True)
class SelectionModel:
    """Status-dependent testing rates.

    ``f0`` is the probability a negative individual gets tested, ``f1`` the
    probability a positive individual does.  Both may be arrays.
    """

    f0: float
    f1: float

    def __post_init__(self):
        check("f0", self.f0, UNIT)
        check("f1", self.f1, UNIT)

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
        check("relative rate", rel_rate, POSITIVE)
        check("prevalence", prevalence, UNIT)
        try:
            f0 = f / (prevalence * (rel_rate - 1.0) + 1.0)
        except ZeroDivisionError:
            # Positive in exact arithmetic, the scale rounds to 0 at prevalence 1 for
            # rel_rate < ~1.1e-16.  (Arrays give f0 = inf there, which the f0 check names.)
            raise ValueError("prevalence * (relative rate - 1) + 1 must be > 0, got 0.0") from None
        return cls(f0=f0, f1=rel_rate * f0)


@dataclass(frozen=True)
class MeasurementModel:
    """False-positive / false-negative rates of the test."""

    fp: float
    fn: float

    def __post_init__(self):
        check("fp", self.fp, ERROR_RATE)
        check("fn", self.fn, ERROR_RATE)
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
    size = int(check("size", size, INTEGER_AT_LEAST_2))
    check("prevalence", prevalence, UNIT)
    ones = int(round(prevalence * size))
    rng = np.random.default_rng(seed)
    outcomes = np.zeros(size, dtype=np.int8)
    if ones > 0:
        outcomes[rng.choice(size, size=ones, replace=False)] = 1
    return FinitePopulation(outcomes)


def _below(u: np.ndarray, pos: np.ndarray, rate_pos: float, rate_neg: float) -> np.ndarray:
    """``u < np.where(pos, rate_pos, rate_neg)`` without the per-individual rates.

    With lo <= hi the two rates, u < lo implies u < hi, so
    ``(u < lo) | ((u < hi) & mask)``, where ``mask`` marks the individuals
    whose rate is hi, compares every individual with its own rate.  Equal
    rates need the one compare.
    """
    if rate_pos == rate_neg:
        return u < rate_pos
    lo, hi = min(rate_pos, rate_neg), max(rate_pos, rate_neg)
    below = u < hi
    below &= pos if rate_pos >= rate_neg else ~pos
    below |= u < lo
    return below


def _draw(rng, u: np.ndarray, pos: np.ndarray, sel, meas, private: bool) -> tuple:
    """``(selected, flipped)`` from the N selection uniforms, then the N flip
    uniforms, both drawn into the buffer ``u``.  Under a perfect test no flip
    can occur, so a ``private`` generator skips the flip uniforms and
    ``flipped`` is None."""
    rng.random(out=u)
    selected = _below(u, pos, sel.f1, sel.f0)
    if meas.is_perfect and private:
        return selected, None
    rng.random(out=u)
    return selected, _below(u, pos, meas.fn, meas.fp)


def realize(
    pop: FinitePopulation,
    sel: SelectionModel,
    meas: MeasurementModel,
    seed: SeedLike,
) -> Realization:
    """Draw selection and flip indicators for every individual.

    Individual i is selected when its uniform is below its selection rate
    (``f1`` if positive, ``f0`` if not), and flipped when a second uniform is
    below its flip rate (``fn`` or ``fp``).  The N selection uniforms are
    drawn before the N flip uniforms, into one reused buffer, so a given seed
    fixes the realization exactly and a ``Generator`` advances by 2N draws.
    Under a perfect test no flip can occur, so when the generator is private
    (any seed but a ``Generator`` or bit generator) the N flip uniforms are
    not drawn.  The rates are scalars.
    """
    private = not isinstance(seed, (np.random.Generator, np.random.BitGenerator))
    rng = np.random.default_rng(seed)
    # Held to the return: freed as _draw returns, its pages go back to the OS
    # and fault in again on every call (~180x the minor page faults at N = 10^5).
    u = np.empty(pop.size)
    selected, flipped = _draw(rng, u, pop.positive, sel, meas, private)
    if flipped is None:
        flipped = np.zeros(pop.size, dtype=bool)
    observed = (pop.positive ^ flipped).view(np.int8)
    return Realization(selected=selected, flipped=flipped, observed=observed)


def joint_counts(pop: FinitePopulation, r: Realization) -> np.ndarray:
    """The eight (Y, selected, flipped) cell counts of a realization.

    Layout, shared with ``mc_expectation``'s draws: the four cells of the
    positives, then the four of the negatives, each ordered (selected and
    flipped, selected only, flipped only, neither).
    """
    return np.array(_cells(pop, r.selected, r.flipped))


def _cells(pop: FinitePopulation, selected: np.ndarray, flipped) -> list:
    """``joint_counts``' eight cells from the indicators; ``flipped=None`` means no flips."""
    pos = pop.positive
    n = int(np.count_nonzero(selected))
    sel_pos = int(np.count_nonzero(selected & pos))
    if flipped is None:
        flip_pos = flip_neg = sel_flip_pos = sel_flip_neg = 0
    else:
        flip_pos = int(np.count_nonzero(flipped & pos))
        flip_neg = int(np.count_nonzero(flipped)) - flip_pos
        sel_flip = selected & flipped
        sel_flip_pos = int(np.count_nonzero(sel_flip & pos))
        sel_flip_neg = int(np.count_nonzero(sel_flip)) - sel_flip_pos
    sel_neg = n - sel_pos
    n_pos = pop.total
    n_neg = pop.size - n_pos
    return [
        sel_flip_pos,
        sel_pos - sel_flip_pos,
        flip_pos - sel_flip_pos,
        n_pos - sel_pos - flip_pos + sel_flip_pos,
        sel_flip_neg,
        sel_neg - sel_flip_neg,
        flip_neg - sel_flip_neg,
        n_neg - sel_neg - flip_neg + sel_flip_neg,
    ]


def stats_from_counts(pop: PopulationCounts, counts) -> tuple[EmpiricalStats, np.ndarray]:
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


Functional = Union[str, Callable[[PopulationCounts, EmpiricalStats], float]]

# Each entry also runs unchanged on array-valued stats.
FUNCTIONALS: dict[str, Callable[[PopulationCounts, EmpiricalStats], object]] = {
    "rho_iy": lambda pop, s: s.rho_iy,
    "rho_iy_sq": lambda pop, s: s.rho_iy ** 2,
    "rho_ipz": lambda pop, s: s.rho_ipz,
    "ybar_star": lambda pop, s: s.ybar_star,
    "f_hat": lambda pop, s: s.f_hat,
    "error": lambda pop, s: s.ybar_star - pop.prevalence,
    "sq_error": lambda pop, s: (s.ybar_star - pop.prevalence) ** 2,
}


def _check_request(functional: Functional, replications: int) -> int:
    """The replication count as an int, once it and ``functional`` are checked."""
    replications = int(check("replications", replications, INTEGER_AT_LEAST_2))
    if isinstance(functional, str) and functional not in FUNCTIONALS:
        raise ValueError(
            f"unknown functional {functional!r}; choose from {sorted(FUNCTIONALS)}"
        )
    return replications


def _usable(stats: EmpiricalStats, degenerate: np.ndarray) -> EmpiricalStats:
    """The non-degenerate entries of array-valued stats."""
    keep = ~degenerate
    return EmpiricalStats(*(getattr(stats, name)[keep] for name in _FIELDS))


def _summarize(pop: PopulationCounts, counts: np.ndarray, functional: Functional) -> MCEstimate:
    """Mean and standard error of a functional over per-replication counts.

    Degenerate replications are skipped and counted; more than 50%
    degenerate, or fewer than 2 usable ones, is an error.
    """
    replications = counts.shape[0]
    stats, degenerate = stats_from_counts(pop, counts)
    bad = int(np.count_nonzero(degenerate))
    if bad > replications // 2 or replications - bad < 2:
        raise DegenerateSampleError(f"{bad}/{replications} replications degenerate")
    kept = _usable(stats, degenerate)
    if isinstance(functional, str):
        sample = np.asarray(FUNCTIONALS[functional](pop, kept), dtype=np.float64)
    else:
        # Callables get one scalar EmpiricalStats per replication.
        columns = [getattr(kept, name).tolist() for name in _FIELDS]
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
    pop: PopulationCounts,
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
    replications = _check_request(functional, replications)
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

    Replication i has the cells of ``realize(pop, sel, meas, children[i])``,
    where ``children`` are the ``replications`` children ``SeedSequence(seed)``
    spawns (a SeedSequence seed is spawned from directly; a Generator seeds a
    SeedSequence from one draw).  The cells are replayed from each child's
    stream without building a ``Realization``, and go through the same kernel
    and summary as ``mc_expectation``.  It costs O(N) per replication; use it
    where the realization stream itself must be reproduced.
    """
    replications = _check_request(functional, replications)
    return _summarize(pop, _realized_counts(pop, sel, meas, replications, seed), functional)


def _realized_counts(pop, sel, meas, replications: int, seed: SeedLike) -> np.ndarray:
    """``joint_counts(pop, realize(pop, sel, meas, child))`` per child seed, replayed as counts.

    Each child's stream is drawn by ``realize``'s ``_draw``, into one buffer
    kept across replications, and only its cells are kept; each child generator
    is private to its replication, so skipping the flips moves no later draw.
    The children's seeds come from ``_child_seed_words``; a caller's
    ``SeedSequence`` is still spawned from, so it advances by ``replications``
    children as before.
    """
    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(2**63))
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    words = _child_seed_words(master, replications)
    if master is seed:  # a caller's SeedSequence advances past the children it gave
        seed.spawn(replications)
    u = np.empty(pop.size)
    rows = []
    for child in words:
        rng = np.random.Generator(np.random.PCG64(_Words(child)))
        rows.append(_cells(pop, *_draw(rng, u, pop.positive, sel, meas, private=True)))
    return np.array(rows)


class _Words(ISeedSequence):
    """A seed source that hands ``PCG64`` one child's precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for 4 uint64 words, the ones _child_seed_words computed.
        return self.words


# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _n_words32(value) -> int:
    """How many uint32 words ``SeedSequence`` reads from an int or a sequence of ints."""
    if isinstance(value, (int, np.integer)):
        return max(1, (int(value).bit_length() + 31) // 32)
    return sum(map(_n_words32, value))


def _child_seed_words(master: np.random.SeedSequence, n: int) -> np.ndarray:
    """``[c.generate_state(4, np.uint64) for c in master.spawn(n)]`` as an (n, 4) array.

    Does not spawn: ``master`` is left as it was.  Child k + i
    (k = ``master.n_children_spawned``) hashes the master's entropy words,
    zero-padded to the pool size, then the master's spawn key, then its own
    index k + i.  Only that last word differs between children, so numpy's
    ``SeedSequence`` hashes the shared words once, into the pool of a
    childless copy of ``master``; the array pass here, one lane per child,
    covers only each child's index word and its state output.  Child indices
    past 2**32 - 1, where numpy's own ``spawn`` does not finish, raise
    ``OverflowError``.
    """
    first = master.n_children_spawned
    if first + n > 2**32:
        raise OverflowError(f"child index {first + n - 1} does not fit in one uint32 word")
    size = master.pool_size
    shared = np.random.SeedSequence(master.entropy, spawn_key=master.spawn_key, pool_size=size)
    # The pool fill, cross-mix and remaining words advance the hash constant size times per word.
    n_shared = max(_n_words32(master.entropy), size) + _n_words32(master.spawn_key)
    const = _INIT_A * pow(_MULT_A, n_shared * size, 2**32) & _MASK32
    index = np.arange(first, first + n, dtype=np.uint32)
    pool = list(shared.pool[:, None])  # length-1 arrays: a uint32 scalar product warns on overflow
    for dst in range(size):
        value = index ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ (value >> 16))
        pool[dst] = mixed ^ (mixed >> 16)

    # generate_state(4, np.uint64): 8 uint32 words cycled from the pool, paired low-high.
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % size] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)], axis=1)
