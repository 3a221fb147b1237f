"""Parameter domains shared by the library and the command line.

A domain is a ``(wording, test)`` pair.  Each test is written with ``&`` on
comparisons, so NaN fails it and it works element-wise on arrays.  ``check``
is the one place that applies a domain and words its failure:
``<name> must <wording>, got <value>``, where an array's or a list's value
is its first element outside the domain.  ``notice`` is the one place that
reports a recoverable condition: a ``RuntimeWarning`` attributed to the first
frame outside the ``casebias`` package, so a public function that calls
another reports at the line that called the outer one.

``rows`` is the one CSV row renderer: every table the package writes is a
header plus the text of ``rows(row_format, columns)``, one ``%`` over one
template (``bias_curves_csv`` calls it once per M block), and ``label`` is
the one way a grid value becomes a CSV label that reads back.

``float_or_array`` is the one "scalars give floats" rule: a formula's result
stays an array when it is one and becomes a Python float otherwise.
"""
from __future__ import annotations

import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

__all__: list = []
_PACKAGE = __name__.partition(".")[0]


class Domain(NamedTuple):
    wording: str
    test: Callable


UNIT = Domain("lie in [0, 1]", lambda x: (0.0 <= x) & (x <= 1.0))
FRACTION = Domain("lie in (0, 1]", lambda x: (0.0 < x) & (x <= 1.0))
OPEN_UNIT = Domain("lie strictly in (0, 1)", lambda x: (0.0 < x) & (x < 1.0))
# A tested fraction of at least the smallest normal double keeps Ybar(1-Ybar)/(f(1-f))
# and (1-f)/f at most 1/TINY; a subnormal f overflows them to inf.
TINY = float(np.finfo(float).tiny)
TESTED_FRACTION = Domain(
    f"lie strictly in (0, 1) and be >= {TINY!r}", lambda x: (TINY <= x) & (x < 1.0)
)
ERROR_RATE = Domain("lie in [0, 1)", lambda x: (0.0 <= x) & (x < 1.0))
CORRELATION = Domain("lie in [-1, 1]", lambda x: (-1.0 <= x) & (x <= 1.0))
FINITE = Domain("be finite", lambda x: (-np.inf < x) & (x < np.inf))
POSITIVE = Domain("be finite and positive", lambda x: (0.0 < x) & (x < np.inf))
NON_NEGATIVE = Domain("be finite and >= 0", lambda x: (0.0 <= x) & (x < np.inf))
NEFF = Domain("be finite and > 1", lambda x: (1.0 < x) & (x < np.inf))
POPULATION = Domain("be finite and >= 2", lambda x: (2.0 <= x) & (x < np.inf))
# Counts: an integral float such as 3.0 passes; inf % 1 is NaN, so inf fails as NaN does.
INTEGER_AT_LEAST_1 = Domain("be an integer >= 1", lambda x: (1 <= x) & (x % 1 == 0))
INTEGER_AT_LEAST_2 = Domain("be an integer >= 2", lambda x: (2 <= x) & (x % 1 == 0))
AT_LEAST_0 = Domain("be >= 0", lambda x: x >= 0)
AT_LEAST_1 = Domain("be >= 1", lambda x: x >= 1)
AT_LEAST_2 = Domain("be >= 2", lambda x: x >= 2)
SEED = Domain("be a non-negative integer", lambda x: x >= 0)
DRIVER = Domain("be cases or prevalence", lambda x: x in ("cases", "prevalence"))


def check(name: str, value, domain: Domain):
    """``value`` if it lies in ``domain``, element-wise for arrays and lists."""
    ok = domain.test(np.array(value) if type(value) is list else value)
    # A test gives a bool, a numpy bool or a bool array; .all() covers the last two.
    if ok is not True and (ok is False or not ok.all()):
        got = np.asarray(value)[~ok][0] if isinstance(ok, np.ndarray) else value
        raise ValueError(f"{name} must {domain.wording}, got {got}")
    return value


def notice(message: str) -> None:
    """Report ``message`` as a ``RuntimeWarning``, attributed to the first calling
    frame outside the ``casebias`` package."""
    # warnings.warn(skip_file_prefixes=...) does this from Python 3.12 only.
    frame, level = sys._getframe(1), 2  # level: warnings.warn's stacklevel for frame
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def rows(row_format: str, columns) -> str:
    """``row_format % row`` for each row of the equal-length ``columns``, concatenated.

    One ``%`` over ``row_format`` repeated once per row, on one interleaved cell
    list, so no format call runs per row; columns of unequal length raise
    ``ValueError``.
    """
    cells = [None] * (len(columns) * len(columns[0]))
    for j, column in enumerate(columns):
        cells[j::len(columns)] = column
    return (row_format * len(columns[0])) % tuple(cells)


def float_or_array(value):
    """``value`` if it is an array, else ``float(value)``."""
    return value if isinstance(value, np.ndarray) else float(value)


def label(x) -> str:
    """A grid value as a CSV label: ``{x:g}``, or ``repr`` where that would not read back as x."""
    return short if float(short := f"{x:g}") == x else repr(float(x))
