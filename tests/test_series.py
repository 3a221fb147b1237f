import datetime as dt
import warnings

import numpy as np
import pytest

from casebias import CaseCountSeries, ingest, series_csv


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_basic(tmp_path):
    path = write(
        tmp_path,
        "date,total_tests,positive_tests\n"
        "2020-04-18,100,10\n2020-04-19,150,30\n2020-04-20,120,24\n",
    )
    series = ingest(path)
    assert series.dates == (dt.date(2020, 4, 18), dt.date(2020, 4, 19), dt.date(2020, 4, 20))
    assert list(series.total_tests) == [100, 150, 120]
    assert np.allclose(series.positive_fraction, [0.1, 0.2, 0.2])


def test_ingest_empty_file(tmp_path):
    with pytest.raises(ValueError, match="no data rows"):
        ingest(write(tmp_path, ""))
    with pytest.raises(ValueError, match="no data rows"):
        ingest(write(tmp_path, "date,total_tests,positive_tests\n"))


def test_ingest_duplicate_date(tmp_path):
    path = write(
        tmp_path,
        "date,total_tests,positive_tests\n2020-04-18,100,10\n2020-04-18,150,30\n",
    )
    with pytest.raises(ValueError, match="2020-04-18"):
        ingest(path)


def test_ingest_decreasing_dates(tmp_path):
    path = write(
        tmp_path,
        "date,total_tests,positive_tests\n2020-04-19,100,10\n2020-04-18,150,30\n",
    )
    with pytest.raises(ValueError, match="not increasing"):
        ingest(path)


def test_ingest_row_diagnostics(tmp_path):
    path = write(
        tmp_path,
        "date,total_tests,positive_tests\n2020-04-18,100,10\n2020-04-19,50,60\n",
    )
    with pytest.raises(ValueError, match="line 3"):
        ingest(path)
    bad_date = write(
        tmp_path, "date,total_tests,positive_tests\nApril 18,100,10\n", name="b.csv"
    )
    with pytest.raises(ValueError, match="line 2"):
        ingest(bad_date)
    bad_header = write(tmp_path, "day,total,positive\n2020-04-18,10,1\n", name="c.csv")
    with pytest.raises(ValueError, match="header"):
        ingest(bad_header)


def test_ingest_skips_blank_rows(tmp_path):
    path = write(
        tmp_path,
        "date,total_tests,positive_tests\n2020-04-18,100,10\n\n , ,\n2020-04-19,150,30\n",
    )
    series = ingest(path)
    assert series.dates == (dt.date(2020, 4, 18), dt.date(2020, 4, 19))
    assert list(series.positive_tests) == [10, 30]


@pytest.mark.parametrize(
    "rows, cumulative, message",
    [
        ("2020-04-18,100,10\n2020-04-19,150\n", False, "line 3: expected 3 fields, got 2"),
        ("2020-04-18,100,10.5\n", False, "line 2: counts must be integers"),
        ("2020-04-18,100,-1\n", False, "line 2: negative count"),
        ("2020-04-18,-100,0\n", False, "line 2: negative count"),
        ("2020-04-18,100000000000000000000,1\n", False,
         "line 2: count exceeds 9223372036854775807"),
        ("2020-04-18,10,9223372036854775808\n", False,
         "line 2: count exceeds 9223372036854775807"),
        ("2020-04-18,100,10\n", True, "cumulative input needs at least 2 rows"),
        # Cumulative positives grow by 3 on a day cumulative totals grow by 2.
        ("2020-04-18,10,5\n2020-04-19,12,8\n", True,
         "positive_tests exceed total_tests after differencing at 2020-04-19"),
    ],
    ids=["two-fields", "non-integer", "negative-positives", "negative-totals",
         "totals-past-int64", "positives-past-int64", "cumulative-one-row",
         "cumulative-positives-exceed"],
)
def test_ingest_rejects_bad_rows(tmp_path, rows, cumulative, message):
    path = write(tmp_path, "date,total_tests,positive_tests\n" + rows)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ingest(path, cumulative=cumulative)


def test_ingest_accepts_counts_up_to_the_int64_max(tmp_path):
    top = 2**63 - 1
    path = write(tmp_path, f"date,total_tests,positive_tests\n2020-04-18,{top},{top}\n")
    series = ingest(path)
    assert series.total_tests.tolist() == series.positive_tests.tolist() == [top]


def test_ingest_cumulative_differencing(tmp_path):
    path = write(
        tmp_path,
        "date,total_tests,positive_tests\n"
        "2020-04-18,0,0\n2020-04-19,5,2\n2020-04-20,12,4\n",
    )
    series = ingest(path, cumulative=True)
    assert list(series.total_tests) == [5, 7]
    assert list(series.positive_tests) == [2, 2]
    assert series.dates[0] == dt.date(2020, 4, 19)


def test_ingest_cumulative_negative_daily(tmp_path):
    path = write(
        tmp_path,
        "date,total_tests,positive_tests\n"
        "2020-04-18,10,2\n2020-04-19,8,2\n",
    )
    with pytest.raises(ValueError, match="2020-04-19"):
        ingest(path, cumulative=True)


def test_ingest_gap_flagged(tmp_path):
    path = write(
        tmp_path,
        "date,total_tests,positive_tests\n2020-04-18,100,10\n2020-04-25,150,30\n",
    )
    with pytest.warns(RuntimeWarning, match="gap"):
        series = ingest(path)
    assert series.gap_days() == [(dt.date(2020, 4, 18), dt.date(2020, 4, 25))]


def _pairwise_gaps(dates):
    """The pairwise loop gap_days replaced, kept as its reference."""
    return [(prev, curr) for prev, curr in zip(dates, dates[1:]) if (curr - prev).days > 1]


@pytest.mark.parametrize("cumulative", [False, True], ids=["daily", "cumulative"])
def test_gap_days_equals_the_pairwise_loop(tmp_path, cumulative):
    # Seeded increasing dates with steps of 1-4 days, some runs with no gap at all;
    # cumulative input drops the first date, and with it a gap that starts there.
    rng = np.random.default_rng(24)
    for case in range(200):
        steps = rng.integers(1, 5 if case % 4 else 2, size=int(rng.integers(1, 30)))
        dates = [dt.date(2020, 1, 1) + dt.timedelta(days=int(d)) for d in np.cumsum(steps)]
        series = CaseCountSeries(dates=tuple(dates), total_tests=np.zeros(len(dates)),
                                 positive_tests=np.zeros(len(dates)))
        assert series.gap_days() == _pairwise_gaps(dates)
        if cumulative and len(dates) < 2:
            continue

        rows = "".join(f"{day.isoformat()},{2 * i},{i}\n" for i, day in enumerate(dates))
        path = write(tmp_path, "date,total_tests,positive_tests\n" + rows)
        kept = dates[1:] if cumulative else dates
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ingest(path, cumulative=cumulative).gap_days() == _pairwise_gaps(kept)
        spans = ", ".join(f"{a.isoformat()}..{b.isoformat()}" for a, b in _pairwise_gaps(kept))
        assert [str(w.message) for w in caught] == ([f"calendar gaps: {spans}"] if spans else [])


def test_series_csv_round_trip(tmp_path):
    original = CaseCountSeries(
        dates=(dt.date(2020, 4, 18), dt.date(2020, 4, 19)),
        total_tests=np.array([100, 150]),
        positive_tests=np.array([10, 30]),
    )
    path = tmp_path / "round.csv"
    path.write_text(series_csv(original))
    again = ingest(path)
    assert again.dates == original.dates
    assert list(again.total_tests) == list(original.total_tests)
    assert list(again.positive_tests) == list(original.positive_tests)


@pytest.mark.parametrize(
    "rows, cumulative, message",
    [
        ("2020-04-19,1,0\n2020-04-18,1,0\n2020-04-18,1,0\n", False,
         "dates not increasing at 2020-04-18"),
        ("2020-04-18,1,0\n2020-04-18,1,0\n2020-04-17,1,0\n", False,
         "duplicate date 2020-04-18"),
        # Positives fall on 04-19, totals on 04-20: the earlier day is named.
        ("2020-04-18,10,5\n2020-04-19,12,4\n2020-04-20,11,4\n", True,
         "negative daily value after differencing at 2020-04-19"),
        ("2020-04-18,10,2\n2020-04-19,8,2\n2020-04-20,9,4\n", True,
         "negative daily value after differencing at 2020-04-19"),
        # Every day is checked for a negative value before any for excess positives.
        ("2020-04-18,10,2\n2020-04-19,11,4\n2020-04-20,9,4\n", True,
         "negative daily value after differencing at 2020-04-20"),
        # Date order is checked before any differencing.
        ("2020-04-18,10,2\n2020-04-19,8,2\n2020-04-19,9,4\n", True,
         "duplicate date 2020-04-19"),
    ],
    ids=["decreasing-before-duplicate", "duplicate-before-decreasing", "two-negative-days",
         "negative-before-excess", "excess-before-negative", "order-before-differencing"],
)
def test_ingest_reports_the_first_failing_check(tmp_path, rows, cumulative, message):
    # Several rules fail at once; which one is reported is part of the contract.
    path = write(tmp_path, "date,total_tests,positive_tests\n" + rows)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ingest(path, cumulative=cumulative)
