import math
import re

import numpy as np
import pytest

from casebias import (
    PERFECT_TEST,
    _domain,
    delta_diff_threshold,
    meas_adjustment_rel,
    mse_vs_srs,
    population_adjustment,
    rt_estimate,
    srs_variance,
    survey_interval,
)

NAN = math.nan
# Each call once returned nan; the message names the argument that is NaN.
NAN_INPUTS = [
    (population_adjustment, (NAN, 10), "n1"),
    (delta_diff_threshold, (NAN, 10, 0.02, 0.1), "n1"),
    (mse_vs_srs, (NAN, 0.1), "size"),
    (meas_adjustment_rel, (2, PERFECT_TEST, NAN), "ybar"),
    (rt_estimate, (NAN, 0.1, 7), "ybar_t"),
    (survey_interval, (0.1, NAN), "n"),
    (srs_variance, (NAN, 100, 1000), "pop_prevalence"),
]


@pytest.mark.parametrize("func, args, name", NAN_INPUTS, ids=[c[0].__name__ for c in NAN_INPUTS])
def test_nan_input_is_rejected_naming_the_argument(func, args, name):
    with pytest.raises(ValueError, match=rf"^{name} must .*, got nan$"):
        func(*args)


# DRIVER is a domain of strings; every other domain is numeric.
NUMERIC = {
    key: value for key, value in vars(_domain).items()
    if isinstance(value, _domain.Domain) and value is not _domain.DRIVER
}


@pytest.mark.parametrize("domain", NUMERIC.values(), ids=NUMERIC.keys())
def test_every_domain_rejects_nan_as_scalar_and_in_arrays(domain):
    inside = next(value for value in (0.5, 2.0) if domain.test(value))
    with pytest.raises(ValueError, match=rf"^x must {re.escape(domain.wording)}, got nan$"):
        _domain.check("x", NAN, domain)
    for values in (np.array([inside, NAN]), [inside, NAN]):
        with pytest.raises(ValueError, match=r", got \[.* nan\]$"):
            _domain.check("x", values, domain)


def test_check_returns_the_value_it_was_given():
    values = [0.25, 0.5]
    assert _domain.check("x", values, _domain.OPEN_UNIT) is values
    array = np.array(values)
    assert _domain.check("x", array, _domain.OPEN_UNIT) is array
    assert _domain.check("x", 0.5, _domain.OPEN_UNIT) == 0.5
