"""One CSV row renderer, ``_domain.rows``, behind every table the package writes.

Each writer is compared byte for byte with the body it had before it called
``rows`` (kept below as ``prior_*``), on seeded tables whose cells include NaN,
+-inf, -0.0, subnormal and 1e300 values, one-row tables and near-equal grid labels.
"""
import datetime as dt
import math

import numpy as np
import pytest

from casebias import (
    BiasCurves,
    CaseCountSeries,
    RtGap,
    SirTrajectory,
    bias_curves_csv,
    format_neff_table,
    neyman_allocation,
    proportional_allocation,
    rt_gap_csv,
    series_csv,
    strata_from_csv,
    trajectory_csv,
)
from casebias._domain import rows
from casebias.cli import main

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e300, -1e300]
# Grid values whose labels need repr: %g would print them alike.
NEAR_EQUAL = [1.2, 1.2000001, 1.000000000001, math.nextafter(2.0, 3.0), 3, np.float64(0.125)]


def prior_label(x) -> str:
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def prior_trajectory_csv(traj):
    n = traj.new_cases.size
    cols = (traj.times, traj.susceptible, traj.infected, traj.removed, traj.new_cases,
            traj.prevalence)
    cells = [None] * (6 * n)
    for j, col in enumerate(cols):
        cells[j::6] = col[:n].tolist()
    return "time,S,I,R,K,prevalence\n" + ("%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n" * n) % tuple(cells)


def prior_bias_curves_csv(curves):
    steps = curves.steps.tolist()
    cells = [None] * (3 * len(steps) * len(curves.rel_rates))
    cells[0::3] = steps * len(curves.rel_rates)
    cells[1::3] = curves.ratio_bias[:, curves.steps].ravel().tolist()
    cells[2::3] = curves.rt_bias[:, curves.steps].ravel().tolist()
    template = "".join(f"%s,{prior_label(m)},%.6g,%.6g\n" * len(steps) for m in curves.rel_rates)
    return "step,M,ratio_bias,rt_bias\n" + template % tuple(cells)


def prior_rt_gap_csv(gap):
    cols = (gap.true_a, gap.true_b, gap.est_a, gap.est_b, gap.true_gap, gap.est_gap)
    cells = [None] * (7 * gap.steps.size)
    for j, col in enumerate((gap.steps, *(c[gap.steps] for c in cols))):
        cells[j::7] = col.tolist()
    return ("step,true_rt_A,true_rt_B,est_rt_A,est_rt_B,true_gap,est_gap\n"
            + ("%s,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n" * gap.steps.size) % tuple(cells))


def prior_format_neff_table(table, ybar_grid, rel_rate_grid):
    lines = ["ybar," + ",".join(map(prior_label, rel_rate_grid))]
    for ybar, row in zip(ybar_grid, table):
        cells = ",".join(f"{v:.2f}" for v in row)
        lines.append(f"{prior_label(ybar)},{cells}")
    return "\n".join(lines) + "\n"


def prior_series_csv(series):
    lines = ["date,total_tests,positive_tests"]
    for day, total, positive in zip(series.dates, series.total_tests, series.positive_tests):
        lines.append(f"{day.isoformat()},{int(total)},{int(positive)}")
    return "\n".join(lines) + "\n"


def prior_allocation_csv(strata, alloc, prop):
    lines = ["stratum_id,share,prevalence,neyman_n,proportional_n"]
    for i, (s, n_h, p_h) in enumerate(zip(strata, alloc, prop)):
        lines.append(f"{i},{s.share:.6g},{s.prevalence:.6g},{int(n_h)},{int(p_h)}")
    return "\n".join(lines) + "\n"


def seeded_cells(rng, shape):
    """Values over 16 decades with about a third of the cells drawn from SPECIAL."""
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    special = rng.random(shape) < 0.35
    values[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return values


def seeded_grid(rng, size):
    """Grid values: near-equal labels, specials and ordinary values, in random order."""
    pool = NEAR_EQUAL + SPECIAL + rng.uniform(-5, 5, 4).tolist()
    return [pool[i] for i in rng.choice(len(pool), size=size, replace=False)]


SEEDS = range(12)
SIZES = [1, 2, 7]  # one-row tables included


def test_rows_interleaves_equal_length_columns():
    assert rows("%s,%.6g\n", ([1, 2], [0.5, math.nan])) == "1,0.5\n2,nan\n"
    assert rows("%d;\n", (range(3),)) == "0;\n1;\n2;\n"
    assert rows("%s,%s\n", ([], [])) == ""


def test_rows_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError):
        rows("%s,%s\n", ([1, 2], [3]))
    with pytest.raises(ValueError):
        rows("%s,%s\n", ([1], [2, 3]))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_trajectory_csv_equals_its_prior_body(seed, n):
    rng = np.random.default_rng(seed)
    states = seeded_cells(rng, (4, n + 1))
    traj = SirTrajectory(times=states[0], susceptible=states[1], infected=states[2],
                         removed=states[3], new_cases=seeded_cells(rng, n),
                         size=float(rng.choice([1.0, 1e6, 3e-300])))
    with np.errstate(all="ignore"):
        assert trajectory_csv(traj) == prior_trajectory_csv(traj)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_bias_curves_csv_equals_its_prior_body(seed, n):
    rng = np.random.default_rng(100 + seed)
    rel_rates = tuple(seeded_grid(rng, int(rng.integers(1, 5))))
    shape = (len(rel_rates), n)
    curves = BiasCurves(steps=np.arange(n), rel_rates=rel_rates,
                        ratio_bias=seeded_cells(rng, shape), rt_bias=seeded_cells(rng, shape),
                        flagged=())
    assert bias_curves_csv(curves) == prior_bias_curves_csv(curves)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_rt_gap_csv_equals_its_prior_body(seed, n):
    rng = np.random.default_rng(200 + seed)
    a, b, c, d = seeded_cells(rng, (4, n))
    gap = RtGap(steps=np.arange(n), true_a=a, true_b=b, est_a=c, est_b=d, flagged=())
    with np.errstate(all="ignore"):
        assert rt_gap_csv(gap) == prior_rt_gap_csv(gap)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_format_neff_table_equals_its_prior_body(seed, n):
    rng = np.random.default_rng(300 + seed)
    ybar_grid = seeded_grid(rng, n)
    m_grid = seeded_grid(rng, int(rng.integers(1, 6)))
    table = np.floor(seeded_cells(rng, (n, len(m_grid))))
    assert format_neff_table(table, ybar_grid, m_grid) == prior_format_neff_table(
        table, ybar_grid, m_grid)
    as_lists = table.tolist()
    assert format_neff_table(as_lists, ybar_grid, m_grid) == prior_format_neff_table(
        as_lists, ybar_grid, m_grid)


@pytest.mark.parametrize("grids", [([0.1, 0.2, 0.3], [1.5, 2]), ([0.1, 0.2], [1.5, 2, 3]),
                                   ([0.1], [1.5, 2]), ([], [])],
                         ids=["extra-ybar", "extra-m", "missing-ybar", "empty"])
def test_format_neff_table_rejects_grids_that_do_not_match_the_table(grids):
    # The prior body dropped an extra row label, and wrote a header wider than the rows.
    with pytest.raises(ValueError, match=r"^table shape \(2, 2\) does not match the grids "):
        format_neff_table([[1, 2], [3, 4]], *grids)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_series_csv_equals_its_prior_body(seed, n):
    rng = np.random.default_rng(400 + seed)
    start = dt.date(2020, 1, 1).toordinal()
    days = start + np.cumsum(rng.integers(1, 4, n))
    top = np.iinfo(np.int64).max
    totals = np.where(rng.random(n) < 0.3, rng.choice([0, 1, top], n),
                      rng.integers(0, 10**12, n))
    positives = np.minimum(totals, rng.integers(0, 10**6, n))
    series = CaseCountSeries(dates=tuple(dt.date.fromordinal(int(d)) for d in days),
                             total_tests=totals, positive_tests=positives)
    assert series_csv(series) == prior_series_csv(series)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_allocation_csv_equals_its_prior_body(tmp_path, seed, n):
    rng = np.random.default_rng(500 + seed)
    # A tiny share only on a zero-variance stratum: a positive-variance one needs a sample.
    tiny = rng.random(n - 1) < 0.5
    others = np.where(tiny, rng.choice([5e-324, 2.5e-310, 1e-300], n - 1),
                      rng.uniform(0.01, 0.12, n - 1))
    shares = [float(1.0 - others.sum()), *others.tolist()]
    prevalences = [0.3, *np.where(tiny, rng.choice([0.0, -0.0, 1.0], n - 1),
                                  rng.uniform(0.01, 0.99, n - 1)).tolist()]
    path = tmp_path / "strata.csv"
    path.write_text("stratum_id,share,prevalence\n" + "".join(
        f"{i},{s!r},{p!r}\n" for i, (s, p) in enumerate(zip(shares, prevalences))))
    size = int(rng.integers(1000, 10**6))
    assert main(["allocate", "--strata", str(path), "--n", str(size),
                 "--out", str(tmp_path / "out")]) == 0
    strata = strata_from_csv(path)
    expected = prior_allocation_csv(strata, neyman_allocation(strata, size),
                                    proportional_allocation(strata, size))
    assert (tmp_path / "out" / "allocation.csv").read_text() == expected
