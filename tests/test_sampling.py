import math

import numpy as np
import pytest

from casebias import (
    Stratum,
    design_variance,
    neyman_allocation,
    proportional_allocation,
    srs_variance,
    strata_from_csv,
    validate_strata,
)


def test_symmetric_strata_split_evenly():
    strata = [Stratum(0.5, 0.3), Stratum(0.5, 0.3)]
    assert list(neyman_allocation(strata, 100)) == [50, 50]


def test_zero_variance_stratum_gets_nothing():
    strata = [Stratum(0.5, 0.5), Stratum(0.5, 0.0)]
    assert list(neyman_allocation(strata, 100)) == [100, 0]


def test_heterogeneous_reference_allocation():
    # weights 0.8*sqrt(0.0099) and 0.2*sqrt(0.1875): 478.9 and 521.1
    strata = [Stratum(0.8, 0.01), Stratum(0.2, 0.25)]
    assert list(neyman_allocation(strata, 1000)) == [479, 521]


def test_allocation_total_exact():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        shares = rng.dirichlet(np.ones(k))
        strata = [Stratum(float(s), float(p)) for s, p in zip(shares, rng.uniform(0.01, 0.99, k))]
        n = int(rng.integers(k, 5000))
        assert neyman_allocation(strata, n).sum() == n
        assert proportional_allocation(strata, n).sum() == n


def test_allocation_permutation_equivariant():
    strata = [Stratum(0.5, 0.02), Stratum(0.3, 0.2), Stratum(0.2, 0.4)]
    forward = neyman_allocation(strata, 997)
    backward = neyman_allocation(strata[::-1], 997)
    assert list(forward) == list(backward[::-1])


def test_allocation_validation():
    with pytest.raises(ValueError):
        neyman_allocation([Stratum(0.5, 0.0), Stratum(0.5, 1.0)], 100)
    with pytest.raises(ValueError):
        neyman_allocation([Stratum(0.5, 0.2), Stratum(0.5, 0.3)], 1)
    with pytest.raises(ValueError):
        validate_strata([Stratum(0.5, 0.2), Stratum(0.4, 0.3)])
    with pytest.raises(ValueError):
        Stratum(0.0, 0.5)
    with pytest.raises(ValueError):
        Stratum(0.5, 1.5)


def test_single_stratum_matches_binomial():
    strata = [Stratum(1.0, 0.3)]
    assert design_variance(strata, [200]) == pytest.approx(0.3 * 0.7 / 200, rel=1e-12)


def test_zero_variance_stratum_may_go_unsampled():
    # A prevalence-0 stratum adds no variance, so an empty allocation there is skipped.
    strata = [Stratum(0.6, 0.0), Stratum(0.4, 0.3)]
    assert design_variance(strata, [0, 100]) == pytest.approx(0.4**2 * 0.3 * 0.7 / 100, rel=1e-12)
    with pytest.raises(ValueError, match="positive-variance stratum received no sample"):
        design_variance(strata, [100, 0])


def test_variance_ordering_reference_example():
    strata = [Stratum(0.8, 0.01), Stratum(0.2, 0.25)]
    ney = design_variance(strata, neyman_allocation(strata, 1000))
    prop = design_variance(strata, proportional_allocation(strata, 1000))
    pooled = 0.8 * 0.01 + 0.2 * 0.25
    srs = srs_variance(pooled, 1000, 0, fpc=False)
    assert ney <= prop <= srs


def test_homogeneous_strata_neyman_equals_proportional():
    strata = [Stratum(0.7, 0.2), Stratum(0.3, 0.2)]
    ney = design_variance(strata, neyman_allocation(strata, 500))
    prop = design_variance(strata, proportional_allocation(strata, 500))
    assert ney == pytest.approx(prop, rel=1e-12)


def test_variance_rejects_starved_stratum():
    strata = [Stratum(0.5, 0.2), Stratum(0.5, 0.3)]
    with pytest.raises(ValueError):
        design_variance(strata, [500, 0])
    with pytest.raises(ValueError):
        design_variance(strata, [500])


def test_fpc_variant_shrinks_variance():
    strata = [Stratum(0.6, 0.1), Stratum(0.4, 0.3)]
    alloc = neyman_allocation(strata, 400)
    wr = design_variance(strata, alloc)
    fpc = design_variance(strata, alloc, fpc=True, total_size=10_000)
    assert fpc < wr
    with pytest.raises(ValueError):
        design_variance(strata, alloc, fpc=True)


def _left_to_right(values):
    """A running sum from 0.0, one value at a time."""
    total = 0.0
    for value in values:
        total += value
    return total


def test_share_total_adds_left_to_right():
    # Eleven shares of 0.1 add to 1.0999999999999999 left to right; a compensated sum,
    # as sum() is from Python 3.12, gives 1.1.
    shares = [0.1] * 11
    total = _left_to_right(shares)
    assert total != math.fsum(shares)
    with pytest.raises(ValueError) as error:
        validate_strata([Stratum(share, 0.3) for share in shares])
    assert str(error.value) == f"stratum shares must sum to 1, got {total!r}"


def _design_variance_loop(strata, allocation, fpc=False, total_size=None):
    # Per-stratum reference: each term added to a running sum, left to right.
    var = 0.0
    for s, n_h in zip(strata, np.asarray(allocation)):
        cell = s.prevalence * (1.0 - s.prevalence)
        if cell == 0.0:
            continue
        term = s.share ** 2 * cell / n_h
        if fpc:
            size_h = s.share * total_size
            term *= (size_h - n_h) / max(size_h - 1.0, 1.0)
        var += term
    return float(var)


@pytest.mark.parametrize("fpc", [False, True], ids=["wr", "fpc"])
def test_design_variance_equals_the_left_to_right_loop(fpc):
    # 9 to 60 strata, past the 8 terms where numpy's .sum() starts adding in pairs.
    rng = np.random.default_rng(20260)
    for _ in range(300):
        k = int(rng.integers(9, 61))
        shares = rng.dirichlet(np.full(k, 0.5))
        prevalence = rng.uniform(0.0, 1.0, k)
        prevalence[rng.random(k) < 0.15] = rng.choice([0.0, 1.0])
        strata = [Stratum(float(a), float(p)) for a, p in zip(shares, prevalence)]
        alloc = rng.integers(1, 5000, k)
        alloc[(prevalence == 0.0) | (prevalence == 1.0)] = 0
        size = float(rng.choice([1e4, 1e6, 3.3e8])) if fpc else None
        got = design_variance(strata, alloc, fpc=fpc, total_size=size)
        assert got.hex() == _design_variance_loop(strata, alloc, fpc, size).hex()


def test_srs_variance_forms():
    # (1/(N-1)) * ((1-f)/f) * sigma^2 at f = n/N
    value = srs_variance(0.1, 26, 1000)
    expected = 0.09 * (1 - 0.026) / 0.026 / 999.0
    assert value == pytest.approx(expected, rel=1e-12)
    assert srs_variance(0.1, 26, 0, fpc=False) == pytest.approx(0.09 / 26, rel=1e-12)
    with pytest.raises(ValueError):
        srs_variance(0.1, 1000, 1000)


def test_strata_from_csv(tmp_path):
    path = tmp_path / "strata.csv"
    path.write_text("stratum_id,share,prevalence\na,0.8,0.01\nb,0.2,0.25\n")
    strata = strata_from_csv(path)
    assert len(strata) == 2
    assert strata[0].share == 0.8

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("id,share,prev\na,0.8,0.01\n")
    with pytest.raises(ValueError):
        strata_from_csv(bad_header)

    bad_row = tmp_path / "badrow.csv"
    bad_row.write_text("stratum_id,share,prevalence\na,0.8,x\n")
    with pytest.raises(ValueError, match="line 2"):
        strata_from_csv(bad_row)

    empty = tmp_path / "empty.csv"
    empty.write_text("stratum_id,share,prevalence\n")
    with pytest.raises(ValueError, match="no data rows"):
        strata_from_csv(empty)
