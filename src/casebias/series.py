"""Ingestion and validation of daily case-count series."""
from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np

from ._domain import notice, rows

__all__ = ["CaseCountSeries", "ingest", "series_csv"]

_COUNT_MAX = 2**63 - 1  # counts are held as int64


@dataclass(frozen=True)
class CaseCountSeries:
    """Daily totals and positives on strictly increasing dates."""

    dates: tuple
    total_tests: np.ndarray
    positive_tests: np.ndarray

    def __post_init__(self):
        self.total_tests.flags.writeable = False
        self.positive_tests.flags.writeable = False

    @property
    def positive_fraction(self) -> np.ndarray:
        out = np.full(self.total_tests.size, np.nan)
        nonzero = self.total_tests > 0
        out[nonzero] = self.positive_tests[nonzero] / self.total_tests[nonzero]
        return out

    def gap_days(self) -> list:
        """Dates straddling a jump larger than one day."""
        (jumps,) = np.nonzero(np.diff([day.toordinal() for day in self.dates]) > 1)
        return [(self.dates[i], self.dates[i + 1]) for i in jumps]


def ingest(path, cumulative: bool = False) -> CaseCountSeries:
    """Read and validate a date,total_tests,positive_tests CSV.

    Dates must be ISO-8601 and strictly increasing; duplicates are rejected by
    name.  ``cumulative`` first-differences both count columns, and a negative
    daily value after differencing is a hard error naming the date.  Calendar
    gaps are allowed but flagged with a warning.
    """
    dates = []
    totals = []
    positives = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("no data rows") from None
        if [h.strip() for h in header] != ["date", "total_tests", "positive_tests"]:
            raise ValueError(
                f"expected header date,total_tests,positive_tests, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                day = dt.date.fromisoformat(row[0].strip())
            except ValueError:
                raise ValueError(f"line {lineno}: bad ISO date {row[0]!r}") from None
            try:
                total = int(row[1])
                positive = int(row[2])
            except ValueError:
                raise ValueError(f"line {lineno}: counts must be integers") from None
            if total < 0 or positive < 0:
                raise ValueError(f"line {lineno}: negative count")
            if max(total, positive) > _COUNT_MAX:
                raise ValueError(f"line {lineno}: count exceeds {_COUNT_MAX}")
            if positive > total:
                raise ValueError(
                    f"line {lineno}: positive_tests {positive} exceeds total_tests {total}"
                )
            dates.append(day)
            totals.append(total)
            positives.append(positive)

    if not dates:
        raise ValueError("no data rows")
    steps = np.diff([day.toordinal() for day in dates])
    if (steps <= 0).any():
        i = int(np.argmax(steps <= 0))  # the first step that does not move forward
        problem = "duplicate date" if steps[i] == 0 else "dates not increasing at"
        raise ValueError(f"{problem} {dates[i + 1].isoformat()}")

    totals = np.array(totals, dtype=np.int64)
    positives = np.array(positives, dtype=np.int64)
    if cumulative:
        if len(dates) < 2:
            raise ValueError("cumulative input needs at least 2 rows")
        dates, totals, positives = dates[1:], np.diff(totals), np.diff(positives)
        for bad, problem in (((totals < 0) | (positives < 0), "negative daily value"),
                             (positives > totals, "positive_tests exceed total_tests")):
            if bad.any():
                day = dates[int(np.argmax(bad))]
                raise ValueError(f"{problem} after differencing at {day.isoformat()}")

    series = CaseCountSeries(
        dates=tuple(dates),
        total_tests=totals,
        positive_tests=positives,
    )
    gaps = series.gap_days()
    if gaps:
        spans = ", ".join(f"{a.isoformat()}..{b.isoformat()}" for a, b in gaps)
        notice(f"calendar gaps: {spans}")
    return series


def series_csv(series: CaseCountSeries) -> str:
    """Render a series back to its ingestion schema; ``str`` of a date is its ISO form."""
    return "date,total_tests,positive_tests\n" + rows(
        "%s,%d,%d\n", (series.dates, series.total_tests.tolist(), series.positive_tests.tolist()))
