"""Parameter domains shared by the library and the command line.

A domain is a ``(wording, test)`` pair.  Each test is written with ``&`` on
comparisons, so NaN fails it and it works element-wise on arrays.  ``check``
is the one place that applies a domain and words its failure:
``<name> must <wording>, got <value>``.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

__all__: list = []


class Domain(NamedTuple):
    wording: str
    test: Callable


UNIT = Domain("lie in [0, 1]", lambda x: (0.0 <= x) & (x <= 1.0))
FRACTION = Domain("lie in (0, 1]", lambda x: (0.0 < x) & (x <= 1.0))
OPEN_UNIT = Domain("lie strictly in (0, 1)", lambda x: (0.0 < x) & (x < 1.0))
ERROR_RATE = Domain("lie in [0, 1)", lambda x: (0.0 <= x) & (x < 1.0))
CORRELATION = Domain("lie in [-1, 1]", lambda x: (-1.0 <= x) & (x <= 1.0))
FINITE = Domain("be finite", lambda x: (-np.inf < x) & (x < np.inf))
POSITIVE = Domain("be finite and positive", lambda x: (0.0 < x) & (x < np.inf))
NON_NEGATIVE = Domain("be finite and >= 0", lambda x: (0.0 <= x) & (x < np.inf))
NEFF = Domain("be finite and > 1", lambda x: (1.0 < x) & (x < np.inf))
POPULATION = Domain("be finite and >= 2", lambda x: (2.0 <= x) & (x < np.inf))
AT_LEAST_0 = Domain("be >= 0", lambda x: x >= 0)
AT_LEAST_1 = Domain("be >= 1", lambda x: x >= 1)
AT_LEAST_2 = Domain("be >= 2", lambda x: x >= 2)
SEED = Domain("be a non-negative integer", lambda x: x >= 0)
DRIVER = Domain("be cases or prevalence", lambda x: x in ("cases", "prevalence"))


def _all(ok) -> bool:
    """``all`` for a bool or a bool array, without ``np.all``'s cost on scalars."""
    return ok.all() if isinstance(ok, np.ndarray) else ok


def check(name: str, value, domain: Domain):
    """``value`` if it lies in ``domain``, element-wise for arrays and lists."""
    ok = all(map(domain.test, value)) if type(value) is list else domain.test(value)
    if ok is not True and not _all(ok):  # True from a scalar test needs no _all
        raise ValueError(f"{name} must {domain.wording}, got {value}")
    return value
