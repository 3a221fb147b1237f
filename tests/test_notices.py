"""Every recoverable condition the library reports: a RuntimeWarning, its exact
text, and the line it is attributed to.

Each trigger below is a one-line lambda, so a notice attributed to the line that
called the public function points at the lambda's own line.  A notice raised by
a public function that another one calls (``neff_bound`` inside ``neff_table``,
``corrected_prevalence`` inside ``relative_mse_mc``) points at the line that
called the outer function too.
"""
import ast
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import casebias
from casebias import (
    EffSizeScenario,
    MeasurementModel,
    SirParams,
    SirTrajectory,
    bias_curves,
    corrected_prevalence,
    ingest,
    neff_bound,
    neff_table,
    relative_mse_mc,
    rt_gap,
    sir_simulate,
    survey_interval,
    true_rt,
)

HERE = os.path.basename(__file__)
# One step of dt = 15 overshoots to negative compartments whose sum drifts from N.
BLOW_UP = SirParams(beta=1.4, gamma_rec=3.0, size=1e6, s0=1e6 - 100, i0=100, dt=15.0, horizon=1)
CLAMP = MeasurementModel(0.05, 0.0)
NEGATIVE = "negative or nonfinite compartment encountered; decrease dt"
INFINITE = ("neff bound is infinite: (rho * D_M)^2 is 0 (equal-probability sampling) "
            "or so small that the bound exceeds a double")


def _traj(new_cases):
    """A trajectory around a hand-built new-case series."""
    k = np.asarray(new_cases, dtype=float)
    s = np.concatenate(([1e6], 1e6 - np.cumsum(k)))
    return SirTrajectory(times=np.arange(k.size + 1) * 0.1, susceptible=s,
                         infected=np.zeros(k.size + 1), removed=1e6 - s, new_cases=k, size=1e6)


def _gap_csv(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("date,total_tests,positive_tests\n"
                    "2020-04-17,100,5\n2020-04-18,100,6\n2020-04-21,100,7\n")
    return path


# name: (trigger, the notices it reports, in order)
TRIGGERS = {
    "corrected_prevalence": (
        lambda tmp_path: corrected_prevalence(0.001, CLAMP),
        ["corrected prevalence -0.04895 outside [0, 1]; clamping"],
    ),
    "neff_bound": (lambda tmp_path: neff_bound(EffSizeScenario(0.1, 1.0, 0.026)), [INFINITE]),
    "sir_simulate": (
        lambda tmp_path: sir_simulate(BLOW_UP),
        [NEGATIVE, "conservation drift 9.37e+14 exceeds 1e-9 * N"],
    ),
    "true_rt": (
        lambda tmp_path: true_rt(_traj([5.0, 0.0, 4.0, 8.0]), 7.0),
        ["2 steps skipped: nonpositive new-case counts"],
    ),
    "bias_curves": (
        lambda tmp_path: bias_curves(_traj([5.0, 0.0, 4.0, 8.0]), 0.02, CLAMP, [2.0], 7.0),
        ["2 steps flagged (zero shares or log-domain failures)"],
    ),
    "rt_gap": (
        lambda tmp_path: rt_gap(_traj([5.0, 0.0, 4.0]), _traj([5.0, 6.0]), 0.02, CLAMP, 2.0, 7.0),
        ["1 steps flagged (zero shares or log-domain failures)"],
    ),
    "survey_interval": (
        lambda tmp_path: survey_interval(0.01, 10),
        ["survey interval [-0.0529285, 0.0729285] outside [0, 1]; clamping"],
    ),
    "ingest": (
        lambda tmp_path: ingest(_gap_csv(tmp_path)),
        ["calendar gaps: 2020-04-18..2020-04-21"],
    ),
}


def _notices(trigger, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trigger(tmp_path)
    return [(w.category, str(w.message), os.path.basename(w.filename), w.lineno) for w in caught]


@pytest.mark.parametrize("name", TRIGGERS)
def test_notice_is_attributed_to_the_calling_line(tmp_path, name):
    trigger, messages = TRIGGERS[name]
    line = trigger.__code__.co_firstlineno
    assert _notices(trigger, tmp_path) == [(RuntimeWarning, m, HERE, line) for m in messages]


def test_neff_table_notice_points_at_its_neff_bound_call(tmp_path):
    # The notice of the neff_bound call inside neff_table points at neff_table's caller.
    trigger = lambda tmp_path: neff_table([0.05, 0.1], [1.0], 0.026)
    line = trigger.__code__.co_firstlineno
    assert _notices(trigger, tmp_path) == [(RuntimeWarning, INFINITE, HERE, line)]


def test_relative_mse_mc_clamp_notices_point_at_the_calling_line(tmp_path):
    # The corrected estimator clamps some replications through corrected_prevalence.
    scenario = EffSizeScenario(0.01, 2.0, 0.02, CLAMP)
    trigger = lambda tmp_path: relative_mse_mc(
        scenario, EffSizeScenario(0.01, 2.0, 0.02), 10000, 200, 1, estimator="corrected")
    line = trigger.__code__.co_firstlineno
    notices = _notices(trigger, tmp_path)
    assert notices
    for category, message, filename, lineno in notices:
        assert message.startswith("corrected prevalence ") and message.endswith("; clamping")
        assert (category, filename, lineno) == (RuntimeWarning, HERE, line)


def test_relative_mse_mc_reports_one_clamp_notice_with_the_count():
    # 181 of the 2000 corrected estimates leave [0, 1]; one notice per
    # replication gave 181 notices, 106 of them distinct.  The result keeps its bits.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = relative_mse_mc(EffSizeScenario(0.01, 2.0, 0.02, MeasurementModel(0.05, 0.1)),
                              EffSizeScenario(0.01, 2.0, 0.02), 10000, 2000, 1,
                              estimator="corrected")
    assert [(w.category, str(w.message)) for w in caught] == [(
        RuntimeWarning,
        "corrected prevalence outside [0, 1] in 181 of 2000 replications; clamping")]
    assert got == (float.fromhex("0x1.70d8ed190642fp+1"), float.fromhex("0x1.89e3cd7430ea5p-3"))


def _warnings_use(tree):
    """Whether ``tree`` imports ``warnings``, and the enclosing function of each
    ``warnings.warn(...)`` call in it."""
    imports = any(
        isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "warnings"
        for node in ast.walk(tree)
    )
    callers = [
        func.name
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "warn" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "warnings"
    ]
    return imports, callers


def test_only_domain_notice_calls_warnings_warn():
    # _domain.notice is the one place that sets a notice's category and attribution;
    # cli imports warnings only to record notices as flag: lines.
    package = Path(casebias.__file__).parent
    use = {path.name: _warnings_use(ast.parse(path.read_text()))
           for path in sorted(package.glob("*.py"))}
    assert {name for name, (imports, _) in use.items() if imports} == {"_domain.py", "cli.py"}
    assert {name: callers for name, (_, callers) in use.items() if callers} == {
        "_domain.py": ["notice"]}


def _csv_text_builds(tree):
    """The lines of ``tree`` that apply ``% tuple(...)`` or call ``"\\n".join(...)``."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
        and isinstance(node.right, ast.Call) and isinstance(node.right.func, ast.Name)
        and node.right.func.id == "tuple"
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "join" and isinstance(node.func.value, ast.Constant)
        and node.func.value.value == "\n"
    ]


def test_only_domain_rows_builds_csv_text():
    # _domain.rows is the one CSV row renderer; every table the package writes goes through it.
    package = Path(casebias.__file__).parent
    builds = {path.name: _csv_text_builds(ast.parse(path.read_text()))
              for path in sorted(package.glob("*.py"))}
    assert {name: len(lines) for name, lines in builds.items() if lines} == {"_domain.py": 1}


def _json_writes(tree):
    """The lines of ``tree`` that call ``json.dump`` or ``json.dumps``, or import either."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps") and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        or isinstance(node, ast.ImportFrom) and node.module == "json"
        and any(alias.name in ("dump", "dumps") for alias in node.names)
    ]


def test_no_module_calls_json_dumps():
    # cli._json is the one JSON writer; every JSON file the package writes goes through it.
    package = Path(casebias.__file__).parent
    writes = {path.name: _json_writes(ast.parse(path.read_text()))
              for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in writes.items() if lines} == {}
