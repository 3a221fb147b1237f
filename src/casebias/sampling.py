"""Stratified sampling design: Neyman allocation and variance comparisons."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._domain import FRACTION, OPEN_UNIT, POPULATION, POSITIVE, UNIT, check

__all__ = [
    "Stratum",
    "validate_strata",
    "neyman_allocation",
    "proportional_allocation",
    "design_variance",
    "srs_variance",
    "strata_from_csv",
]


@dataclass(frozen=True)
class Stratum:
    """Population share and within-stratum prevalence."""

    share: float
    prevalence: float

    def __post_init__(self):
        check("share", self.share, FRACTION)
        check("prevalence", self.prevalence, UNIT)

    @property
    def sd(self) -> float:
        return math.sqrt(self.prevalence * (1.0 - self.prevalence))


def validate_strata(strata: Sequence[Stratum]) -> None:
    total = sum(s.share for s in strata)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"stratum shares must sum to 1, got {total!r}")


def _largest_remainder(weights: np.ndarray, n: int) -> np.ndarray:
    """Integerize n*weights/sum(weights) preserving the total exactly.

    Ties in the remainders break by index, so the result is deterministic and
    permutation-equivariant.
    """
    target = n * weights / weights.sum()
    base = np.floor(target).astype(int)
    short = n - int(base.sum())
    if short:
        remainder = target - base
        order = np.lexsort((np.arange(weights.size), -remainder))
        base[order[:short]] += 1
    return base


def neyman_allocation(strata: Sequence[Stratum], n: int) -> np.ndarray:
    """Integer allocation proportional to share * within-stratum sd.

    Zero-variance strata get nothing; the counts always sum to n exactly.
    """
    validate_strata(strata)
    weights = np.array([s.share * s.sd for s in strata])
    if (weights == 0.0).all():
        raise ValueError("every stratum is degenerate (prevalence 0 or 1)")
    if n < int((weights > 0).sum()):
        raise ValueError("n is smaller than the number of informative strata")
    return _largest_remainder(weights, n)


def proportional_allocation(strata: Sequence[Stratum], n: int) -> np.ndarray:
    """Integer allocation proportional to the population shares."""
    validate_strata(strata)
    weights = np.array([s.share for s in strata])
    return _largest_remainder(weights, n)


def design_variance(
    strata: Sequence[Stratum],
    allocation: Sequence[int],
    fpc: bool = False,
    total_size: Optional[float] = None,
) -> float:
    """Variance of the stratified prevalence estimator.

    sum_h share_h^2 * p_h(1-p_h) / n_h, the with-replacement form; the
    finite-population correction variant (``fpc=True``) needs the total
    population size to size each stratum.  A positive-variance stratum with
    zero allocation makes the estimator undefined and is rejected.
    """
    validate_strata(strata)
    allocation = np.asarray(allocation)
    if len(allocation) != len(strata):
        raise ValueError("allocation length must match the number of strata")
    if fpc and total_size is None:
        raise ValueError("fpc variant needs total_size")
    var = 0.0
    for s, n_h in zip(strata, allocation):
        cell = s.prevalence * (1.0 - s.prevalence)
        if cell == 0.0:
            continue
        if n_h <= 0:
            raise ValueError("positive-variance stratum received no sample")
        term = s.share ** 2 * cell / n_h
        if fpc:
            size_h = s.share * total_size
            term *= (size_h - n_h) / max(size_h - 1.0, 1.0)
        var += term
    return float(var)


def srs_variance(pop_prevalence: float, n: float, size: float, fpc: bool = True) -> float:
    """Variance of the mean under simple random sampling.

    ``fpc=True`` gives (1/(N-1)) * ((1-f)/f) * sigma^2 with f = n/N; without
    the correction this reduces to sigma^2 / n.
    """
    check("pop_prevalence", pop_prevalence, UNIT)
    sigma_sq = pop_prevalence * (1.0 - pop_prevalence)
    if fpc:
        check("size", size, POPULATION)
        f = check("sampling fraction n / size", n / size, OPEN_UNIT)
        return float(sigma_sq * (1.0 - f) / f / (size - 1.0))
    check("n", n, POSITIVE)
    return float(sigma_sq / n)


def strata_from_csv(path) -> list:
    """Read strata from CSV with header stratum_id,share,prevalence."""
    strata = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        expected = {"stratum_id", "share", "prevalence"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise ValueError(
                f"expected header stratum_id,share,prevalence, got {reader.fieldnames}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                strata.append(
                    Stratum(share=float(row["share"]), prevalence=float(row["prevalence"]))
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    if not strata:
        raise ValueError("no data rows")
    validate_strata(strata)
    return strata
