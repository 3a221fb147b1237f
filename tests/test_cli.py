import argparse
import contextlib
import errno
import functools
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from casebias import InfeasibleScenarioError, _domain, cli, srs_variance
from casebias.cli import _OPTION_TABLES, _build_parser, _parse_floats, _resolve, main

SURFACE = Path(__file__).parent / "data" / "cli_surface.json"
# mc_verify.json of a run whose three expectation checks and identity check all
# use a perfect test; rewritten with the parser surface (see the end of the file).
MC_VERIFY_PERFECT = Path(__file__).parent / "data" / "mc_verify_perfect.json"
MC_VERIFY_PERFECT_ARGS = ["mc-verify", "--seed", "2", "--reps", "200", "--fp", "0", "--fn", "0"]
COMMANDS = ["decompose", "neff", "sir", "bias-curves", "rt-gap", "sensitivity", "compare",
            "allocate", "mc-verify"]
SURFACE_CASES = {
    "help": ["--help"],
    "h": ["-h"],
    **{f"{cmd}-help": [cmd, "--help"] for cmd in COMMANDS},
    "version": ["--version"],
    "no-arguments": [],
    "unknown-command": ["comp"],
    "unknown-option": ["compare", "--n1", "1", "--bogus", "2"],
    "ambiguous-prefix": ["compare", "--n", "1"],
    "unique-prefix": ["sir", "--beta", "1.4", "--gamma", "0.2"],
    "sir-blow-up": ["sir", "--beta", "8", "--gamma-rec", "0.2", "--dt", "5", "--horizon", "6"],
    "bias-curves-blow-up": ["bias-curves", "--beta", "8", "--dt", "5", "--horizon", "6"],
    "rt-gap-blow-up": ["rt-gap", "--beta-a", "8", "--dt", "5", "--horizon", "6"],
    "neff-square-underflow": ["neff", "--f", "1e-300", "--ybar-grid", "0.5",
                              "--m-grid", "1.000000000001,2"],
}


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def test_neff_default_grid(tmp_path):
    assert run(tmp_path, "neff", "--f", "0.026") == 0
    lines = (tmp_path / "neff_table.csv").read_text().strip().split("\n")
    assert lines[0] == "ybar,1.2,1.4,1.6,1.8,2"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0.016"
    assert abs(float(first[1]) - 1598) <= 1


@pytest.mark.parametrize("f", ["0.026", "0.3"])
def test_neff_cell_does_not_move_with_the_tested_fraction(tmp_path, f):
    # The exact bound for these doubles is 289.0000000000001; f cancels from it.
    assert run(tmp_path, "neff", "--f", f, "--ybar-grid", "0.1", "--m-grid", "1.2") == 0
    assert (tmp_path / "neff_table.csv").read_text() == "ybar,1.2\n0.1,289.00\n"


def test_neff_missing_required():
    assert main(["neff"]) == 1


def test_neff_fp_without_fn(tmp_path):
    assert run(tmp_path, "neff", "--f", "0.026", "--fp", "0.005") == 1


def test_neff_equal_rates_exit_2(tmp_path, capsys):
    # The table is kept on exit 2, and the warning recorded on the way is still a flag line.
    assert run(tmp_path, "neff", "--f", "0.026", "--m-grid", "1") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["neff_table.csv"]
    assert capsys.readouterr().err == (
        "flag: neff bound is infinite: (rho * D_M)^2 is 0 (equal-probability sampling) or so "
        "small that the bound exceeds a double\n"
        "infeasible: every cell is infinite (equal-probability design)\n"
    )


@pytest.mark.parametrize(
    "argv, filename, flags",
    [(["bias-curves", "--i0", "0", "--horizon", "5"], "bias_curves.csv",
      "flag: 4 steps flagged (zero shares or log-domain failures)\n"),
     (["rt-gap", "--horizon", "1"], "rt_gap.csv", "")],
    ids=["bias-curves", "rt-gap"],
)
def test_every_step_flagged_keeps_the_csv_and_exits_2(tmp_path, capsys, argv, filename, flags):
    assert run(tmp_path, *argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [filename]
    assert capsys.readouterr() == (
        f"{tmp_path / filename}\n", f"{flags}infeasible: every step flagged\n"
    )


def test_rt_gap_with_one_finite_step_exits_0(tmp_path, capsys):
    # Step 0 has no previous step and is always flagged; step 1 of a two-step gap is finite.
    assert run(tmp_path, "rt-gap", "--horizon", "2") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rt_gap.csv"]
    assert capsys.readouterr() == (f"{tmp_path / 'rt_gap.csv'}\n", "")


def test_rt_gap_without_cases_is_infeasible_and_writes_nothing(tmp_path, capsys):
    # No first case, so no aligned step to tabulate: unlike bias-curves, no CSV is kept.
    assert run(tmp_path, "rt-gap", "--i0", "0", "--horizon", "5") == 2
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr() == ("", "infeasible: country A's trajectory has no cases\n")


@pytest.mark.parametrize(
    "argv",
    [SURFACE_CASES["sir-blow-up"], SURFACE_CASES["bias-curves-blow-up"],
     SURFACE_CASES["rt-gap-blow-up"], ["rt-gap", "--beta-b", "8", "--dt", "5", "--horizon", "6"]],
    ids=["sir", "bias-curves", "rt-gap-beta-a", "rt-gap-beta-b"],
)
def test_sir_blown_up_trajectory_is_infeasible_and_writes_nothing(tmp_path, capsys, argv):
    # At dt = 5 the RK4 path leaves the double range: inf, then nan cells.  Only
    # sir_simulate's own two warnings are flag lines; numpy's inf - inf warning is not,
    # and bias-curves and rt-gap stop before tabulating the path.
    assert run(tmp_path, *argv) == 2
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr() == ("", (
        "flag: negative or nonfinite compartment encountered; decrease dt\n"
        "flag: conservation drift nan exceeds 1e-9 * N\n"
        "infeasible: --dt: the smallest compartment is nan; decrease --dt\n"
    ))


def test_sensitivity_direct(tmp_path):
    assert (
        run(
            tmp_path,
            "sensitivity",
            "--survey-prev", "0.159",
            "--observed-prev", "0.325",
            "--f", "0.001",
            "--fp", "0.005",
            "--fn", "0.172",
        )
        == 0
    )
    payload = json.loads((tmp_path / "sensitivity.json").read_text())
    assert payload["outputs"]["m"] == pytest.approx(2.29, abs=0.05)
    assert payload["outputs"]["error"] == pytest.approx(0.166, abs=1e-9)
    assert set(payload) == {"inputs", "outputs", "flags"}


def _sensitivity(tmp_path, series, *argv):
    """Run ``sensitivity`` into ``tmp_path / "out"``, from a --series file holding ``series``
    rows when it is given."""
    if series is not None:
        (tmp_path / "cases.csv").write_text("date,total_tests,positive_tests\n" + series)
        argv = ("--series", str(tmp_path / "cases.csv"), *argv)
    return run(tmp_path / "out", "sensitivity", "--f", "0.001", "--fp", "0.005", "--fn", "0.172",
               *argv)


@pytest.mark.parametrize(
    "series, argv, err",
    [
        # A small anchor cannot produce a large negative error; no differential fits.
        (None, ["--survey-prev", "0.5", "--observed-prev", "0.01", "--ybar-anchor", "0.05"],
         "infeasible: no feasible differential: target -0.0711322 outside [-0.0085485, 0.160381]\n"),
        # A share derived from --survey-raw or --series is checked after its correction.
        (None, ["--survey-raw", "0.004", "--observed-prev", "0.325"],
         "flag: corrected prevalence -0.000292 outside [0, 1]; clamping\n"
         "infeasible: --survey-raw/--fp/--fn: the share 0.004 corrects to 0, outside (0, 1)\n"),
        (None, ["--survey-raw", "0", "--observed-prev", "0.325", "--fp", "0", "--fn", "0"],
         "infeasible: --survey-raw/--fp/--fn: the share 0 corrects to 0, outside (0, 1)\n"),
        ("2020-04-18,10,0\n2020-04-19,100,0\n", ["--survey-prev", "0.05", "--date", "2020-04-19"],
         "flag: corrected prevalence -0.005 outside [0, 1]; clamping\n"
         "infeasible: --series/--date/--fp/--fn: the share 0 corrects to 0, outside (0, 1)\n"),
    ],
    ids=["no-feasible-differential", "survey-raw-clamped", "survey-raw-zero",
         "series-no-positives"],
)
def test_sensitivity_infeasible_exit_2(tmp_path, capsys, series, argv, err):
    assert _sensitivity(tmp_path, series, *argv) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr() == ("", err)


def test_sensitivity_series_mode(tmp_path):
    series = tmp_path / "cases.csv"
    series.write_text(
        "date,total_tests,positive_tests\n"
        "2020-04-18,10000,2800\n"
        "2020-04-19,11000,3200\n"
        "2020-04-20,10500,3000\n"
    )
    code = run(
        tmp_path,
        "sensitivity",
        "--series", str(series),
        "--date", "2020-04-20",
        "--survey-raw", "0.139",
        "--f", "0.001",
        "--fp", "0.005",
        "--fn", "0.172",
        "--alpha", "0.3",
    )
    assert code == 0
    payload = json.loads((tmp_path / "sensitivity.json").read_text())
    assert payload["outputs"]["m"] > 1.0


@pytest.mark.parametrize(
    "series, date, err",
    [
        ("2020-04-18,10,1\n", [], "error: --date is required with --series\n"),
        # A day with no tests has no positive share, and smoothing carries it forward.
        ("2020-04-18,0,0\n2020-04-19,100,5\n", ["--date", "2020-04-18"],
         "error: --series/--date: observed prevalence must be finite, got nan\n"),
        ("2020-04-18,0,0\n2020-04-19,100,5\n", ["--date", "2020-04-19"],
         "error: --series/--date: observed prevalence must be finite, got nan\n"),
        ("2020-04-18,10,1\n", ["--date", "2020-13-01"], "error: --date: bad ISO date '2020-13-01'\n"),
        ("2020-04-18,10,1\n", ["--date", "2021-01-01"],
         "error: --date 2021-01-01 not present in --series\n"),
    ],
    ids=["no-date", "no-tests-on-date", "no-tests-before-date", "bad-date", "date-not-in-series"],
)
def test_sensitivity_series_requires_date(tmp_path, capsys, series, date, err):
    assert _sensitivity(tmp_path, series, "--survey-raw", "0.139", *date) == 1
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr() == ("", err)


BOTH_SHARES = ["--observed-prev", "0.3", "--survey-prev", "0.15"]


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--survey-prev", "0.15"], "give --observed-prev or --series with --date"),
        (["--observed-prev", "0.3"], "give --survey-prev or --survey-raw"),
        ([*BOTH_SHARES, "--fp-range", "0.003,0.008"],
         "--fp-range and --fn-range must be given together"),
        ([*BOTH_SHARES, "--fp-range", "0.003", "--fn-range", "0.1,0.2"],
         "--fp-range/--fn-range must be lo,hi pairs"),
    ],
    ids=["no-observed-share", "no-survey-share", "fp-range-alone", "fp-range-not-a-pair"],
)
def test_sensitivity_incomplete_input_is_an_error_line(tmp_path, capsys, argv, err):
    assert _sensitivity(tmp_path, None, *argv) == 1
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_mc_verify_zero_reps_is_validation_error(tmp_path):
    assert run(tmp_path, "mc-verify", "--seed", "1", "--reps", "0") == 1


def test_mc_verify_missing_seed(tmp_path):
    assert run(tmp_path, "mc-verify", "--reps", "100") == 1


def test_mc_verify_passes(tmp_path):
    assert run(tmp_path, "mc-verify", "--seed", "3", "--reps", "300", "--size", "5000") == 0
    payload = json.loads((tmp_path / "mc_verify.json").read_text())
    assert payload["outputs"]["all_passed"] is True
    assert payload["outputs"]["checks"]["exact_identity"]["passed"] is True


def test_mc_verify_perfect_test_output_is_pinned(tmp_path):
    assert run(tmp_path, *MC_VERIFY_PERFECT_ARGS) == 0
    assert (tmp_path / "mc_verify.json").read_bytes() == MC_VERIFY_PERFECT.read_bytes()


MC_VERIFY_ARGS = ["mc-verify", "--seed", "1", "--reps", "10"]


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("size", "1", "--size must be >= 2, got 1"),
        ("size", "-4", "--size must be >= 2, got -4"),
        *[(opt, v, f"--{opt} must lie in [0, 1], got {float(v)}")
          for opt in ("prevalence", "f0", "f1") for v in ("nan", "inf", "-0.1", "1.5")],
    ],
)
def test_mc_verify_rejects_inputs_outside_their_domain(tmp_path, capsys, option, value, message):
    assert run(tmp_path, *MC_VERIFY_ARGS, f"--{option}={value}") == 1
    assert not (tmp_path / "mc_verify.json").exists()
    assert message in capsys.readouterr().err


def test_mc_verify_has_no_ceiling_on_size_or_reps():
    # Checked through the validator alone: a run this large is never started.
    opts = {"seed": 0, "reps": 10**12, "size": 10**12, "prevalence": 0.1, "f0": 0.0, "f1": 1.0}
    resolved = _resolve(argparse.Namespace(config=None, **opts), _OPTION_TABLES["mc-verify"])
    assert {key: resolved[key] for key in opts} == opts


def test_decompose_analytic(tmp_path):
    code = run(
        tmp_path,
        "decompose",
        "--ybar", "0.091", "--f", "0.026", "--m", "2",
        "--fp", "0.005", "--fn", "0.172",
    )
    assert code == 0
    payload = json.loads((tmp_path / "decomposition.json").read_text())
    assert payload["outputs"]["rho_iy"] == pytest.approx(0.043, abs=1e-3)


def test_decompose_empirical_requires_seed(tmp_path):
    assert (
        run(
            tmp_path,
            "decompose",
            "--ybar", "0.091", "--f", "0.026", "--m", "2",
            "--empirical", "true",
        )
        == 1
    )


def test_decompose_empirical_identity(tmp_path):
    code = run(
        tmp_path,
        "decompose",
        "--ybar", "0.091", "--f", "0.026", "--m", "2",
        "--fp", "0.005", "--fn", "0.172",
        "--empirical", "true", "--size", "20000", "--seed", "11",
    )
    assert code == 0
    payload = json.loads((tmp_path / "decomposition.json").read_text())
    assert abs(payload["outputs"]["identity_residual"]) < 1e-10


DECOMPOSE_ARGS = ["decompose", "--ybar", "0.091", "--f", "0.026", "--m", "2"]


@pytest.mark.parametrize("empirical", [[], ["--empirical", "true", "--seed", "1"]])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1", "2"])
def test_decompose_rejects_ybar_outside_unit_interval(tmp_path, capsys, value, empirical):
    argv = [*DECOMPOSE_ARGS, *empirical, f"--ybar={value}", "--size", "1000"]
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / "decomposition.json").exists()
    assert f"--ybar must lie in [0, 1], got {float(value)}" in capsys.readouterr().err


def test_decompose_empirical_must_be_a_boolean(tmp_path, capsys):
    assert run(tmp_path, *DECOMPOSE_ARGS, "--empirical", "maybe") == 1
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr() == ("", "error: --empirical: expected a boolean, got 'maybe'\n")


@pytest.mark.parametrize("value", ["no", "false", "0"])
def test_decompose_empirical_off_runs_the_analytic_path(tmp_path, value):
    assert run(tmp_path / "off", *DECOMPOSE_ARGS, "--empirical", value) == 0
    assert run(tmp_path / "default", *DECOMPOSE_ARGS) == 0
    written = (tmp_path / "off" / "decomposition.json").read_text()
    assert written == (tmp_path / "default" / "decomposition.json").read_text()
    assert "identity_residual" not in json.loads(written)["outputs"]


@pytest.mark.parametrize("value", ["0", "1"])
def test_decompose_empirical_constant_population_is_infeasible(tmp_path, capsys, value):
    argv = [*DECOMPOSE_ARGS, "--ybar", value, "--empirical", "true", "--seed", "1"]
    assert run(tmp_path, *argv, "--size", "1000") == 2
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().err == (
        "infeasible: population outcomes are constant, rho undefined\n"
    )


@pytest.mark.parametrize(
    "argv, filename",
    [
        ([*DECOMPOSE_ARGS, "--empirical", "true", "--seed", "-3"], "decomposition.json"),
        ([*DECOMPOSE_ARGS, "--seed", "-3"], "decomposition.json"),
        (["mc-verify", "--seed", "-5", "--reps", "10"], "mc_verify.json"),
    ],
)
def test_negative_seed_names_the_flag(tmp_path, capsys, argv, filename):
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / filename).exists()
    assert "--seed must be a non-negative integer, got -" in capsys.readouterr().err


@pytest.mark.parametrize("empirical", [[], ["--empirical", "true", "--seed", "1"]])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.1", "2"])
def test_decompose_rejects_f_outside_its_domain(tmp_path, capsys, value, empirical):
    argv = [*DECOMPOSE_ARGS, *empirical, f"--f={value}", "--size", "1000"]
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / "decomposition.json").exists()
    assert f"--f must lie in (0, 1], got {float(value)}" in capsys.readouterr().err


def test_decompose_empirical_census_at_f_one_is_infeasible(tmp_path):
    # --f = 1 passes the flag check; with m = 1 everyone is tested.
    argv = ["decompose", "--ybar", "0.1", "--f", "1", "--m", "1", "--empirical", "true"]
    assert run(tmp_path, *argv, "--seed", "1", "--size", "1000") == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--ybar", "0.1", "--f", "0.9", "--m", "2"], "--f/--m/--ybar: f1 must lie in [0, 1]"),
        (["--ybar", "0.1", "--f", "0.9", "--m", "2", "--empirical", "true", "--seed", "1"],
         "--f/--m/--ybar: f1 must lie in [0, 1]"),
        (["--ybar", "0.1", "--f", "1", "--m", "1"], "--f must lie strictly in (0, 1)"),
        (["--ybar", "0", "--f", "0.02", "--m", "2"], "--ybar must lie strictly in (0, 1)"),
    ],
    ids=["f1-above-one", "f1-above-one-empirical", "analytic-f-one", "analytic-ybar-zero"],
)
def test_decompose_joint_domain_names_the_flags(tmp_path, capsys, argv, message):
    assert run(tmp_path, "decompose", *argv, "--size", "1000") == 1
    assert not (tmp_path / "decomposition.json").exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("empirical", [[], ["--empirical", "true", "--seed", "1"]])
def test_decompose_checks_size_on_both_paths(tmp_path, capsys, empirical):
    # size lands in decomposition.json even when no realization is drawn.
    assert run(tmp_path, *DECOMPOSE_ARGS, *empirical, "--size", "1") == 1
    assert not (tmp_path / "decomposition.json").exists()
    assert "--size must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ybar, size", [("1", "10"), ("0.9999999999999999", "100000")], ids=["one", "rounds-to-one"]
)
def test_decompose_relative_rate_that_rounds_the_scale_to_zero_names_the_flags(
    tmp_path, capsys, ybar, size
):
    # At prevalence 1, prev * (m - 1) + 1 rounds to 0 for m below ~1.1e-16.
    argv = ["decompose", "--ybar", ybar, "--f", "0.5", "--m", "1e-20", "--empirical", "true",
            "--size", size, "--seed", "1"]
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / "decomposition.json").exists()
    assert capsys.readouterr().err == (
        "error: --f/--m/--ybar: prevalence * (relative rate - 1) + 1 must be > 0, got 0.0\n"
    )


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv, filename",
    [(DECOMPOSE_ARGS[:-2], "decomposition.json"), (["rt-gap", "--horizon", "20"], "rt_gap.csv")],
    ids=["decompose", "rt-gap"],
)
def test_relative_rate_names_the_flag(tmp_path, capsys, argv, filename, value):
    assert run(tmp_path, *argv, f"--m={value}") == 1
    assert not (tmp_path / filename).exists()
    assert f"--m must be finite and positive, got {float(value)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, filename",
    [
        (["sir", "--beta", "1.4", "--gamma-rec", "0.2"], "trajectory.csv"),
        (["bias-curves"], "bias_curves.csv"),
        (["rt-gap"], "rt_gap.csv"),
    ],
    ids=["sir", "bias-curves", "rt-gap"],
)
def test_horizon_names_the_flag(tmp_path, capsys, argv, filename):
    assert run(tmp_path, *argv, "--horizon", "0") == 1
    assert not (tmp_path / filename).exists()
    assert "--horizon must be >= 1, got 0" in capsys.readouterr().err


def test_sir_has_no_ceiling_on_horizon():
    # Checked through the option table alone: a run this long is never started.
    args = argparse.Namespace(config=None, beta="1.4", gamma_rec="0.2", horizon=str(10**12))
    assert _resolve(args, _OPTION_TABLES["sir"])["horizon"] == 10**12


@pytest.mark.parametrize(
    "argv, filename",
    [
        ([*DECOMPOSE_ARGS, "--empirical", "true", "--seed", "1"], "decomposition.json"),
        (["mc-verify", "--seed", "1", "--reps", "10"], "mc_verify.json"),
    ],
    ids=["decompose", "mc-verify"],
)
def test_allocation_failure_is_an_error_line(tmp_path, capsys, monkeypatch, argv, filename):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr("casebias.cli.make_population", refuse)
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / filename).exists()
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in err


STRATA = "stratum_id,share,prevalence\na,0.8,0.01\nb,0.2,0.25\n"
# A scenario each command runs to exit 0, and the files it writes, in write order;
# "{tmp}" is the test's directory, where allocate's strata file is written.
DOMAIN_BASE = {
    "decompose": ({"ybar": "0.091", "f": "0.026", "m": "2"}, ["decomposition.json"]),
    "neff": ({"f": "0.026"}, ["neff_table.csv"]),
    "sir": ({"beta": "1.4", "gamma-rec": "0.2", "horizon": "20"}, ["trajectory.csv"]),
    "bias-curves": ({"horizon": "20"}, ["bias_curves.csv"]),
    "rt-gap": ({"horizon": "20"}, ["rt_gap.csv"]),
    "sensitivity": (
        {"f": "0.001", "fp": "0.005", "fn": "0.172", "observed-prev": "0.325",
         "survey-prev": "0.159"},
        ["sensitivity.json"],
    ),
    "compare": (
        {"n1": "328e6", "n2": "38e6", "f1": "0.023", "f2": "0.023", "ybar1": "0.1",
         "ybar2": "0.1", "neff1": "15", "neff2": "15"},
        ["compare.json"],
    ),
    "allocate": (
        {"strata": "{tmp}/strata.csv", "n": "1000", "population": "1e6"},
        ["allocation.csv", "allocation.json"],
    ),
    "mc-verify": ({"seed": "1", "reps": "10", "size": "1000"}, ["mc_verify.json"]),
}
# One value outside each declared domain; a name shared by commands is outside all of them.
OUT_OF_DOMAIN = {
    "ybar": "1.5", "f": "0", "m": "-2", "size": "0", "seed": "-1", "horizon": "0",
    "driver": "incidence", "alpha": "1.5", "survey-raw": "-0.1", "ybar-anchor": "1",
    "reps": "1", "prevalence": "2", "f0": "-0.5", "f1": "nan",
    "beta": "0", "beta-a": "-1", "beta-b": "inf", "gamma-rec": "nan", "dt": "0",
    "i0": "-1", "r0": "inf", "serial-interval": "-7",
    "n1": "1", "n2": "inf", "f2": "1", "ybar1": "-0.1", "ybar2": "nan", "rho1": "5",
    "rho2": "-1.5", "d1": "inf", "d2": "nan", "neff1": "1", "neff2": "-inf",
    "fp": "1", "fn": "-0.1", "ybar-grid": "0.1,1", "m-grid": "2,inf", "fp-range": "0,1",
    "fn-range": "-0.1,0.1", "survey-prev": "0", "observed-prev": "nan", "n": "0",
    "population": "1",
}
# Numeric options with no declared domain, and why.  Every numeric option has one;
# joint conditions (fp + fn < 1, s0 + i0 + r0 = size, n < population) are checked
# where the options meet, in messages that name every flag involved.
UNDECLARED: set = set()
DOMAIN_OPTS = [
    (command, opt) for command, table in _OPTION_TABLES.items() for opt in table if opt.domain
]


def _domain_ids(cases):
    return [f"{command}-{opt.name}" for command, opt in cases]


def _base_argv(tmp_path, command, skip=None):
    """Flags of ``command``'s base scenario without ``--skip``."""
    base, _ = DOMAIN_BASE[command]
    if "strata" in base:
        (tmp_path / "strata.csv").write_text(STRATA)
    return [tok for key, val in base.items() if key != skip
            for tok in (f"--{key}", val.format(tmp=tmp_path))]


def test_every_command_with_a_domain_has_a_base_scenario():
    assert {command for command, _ in DOMAIN_OPTS} == set(DOMAIN_BASE)


def test_every_numeric_option_has_a_domain_or_is_listed():
    numeric = {
        (command, opt.name): opt.domain is not None
        for command, table in _OPTION_TABLES.items()
        for opt in table
        if opt.typ in (int, float, _parse_floats)
    }
    assert {key for key, declared in numeric.items() if not declared} == UNDECLARED


@pytest.mark.parametrize("command", sorted(DOMAIN_BASE))
def test_domain_base_scenarios_run(tmp_path, capsys, command):
    # stdout is the written paths in write order, and --out holds those files only.
    argv = _base_argv(tmp_path, command)
    out = tmp_path / "out"
    assert run(out, command, *argv) == 0
    names = DOMAIN_BASE[command][1]
    assert capsys.readouterr().out.splitlines() == [str(out / name) for name in names]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, opt", DOMAIN_OPTS, ids=_domain_ids(DOMAIN_OPTS))
def test_declared_domain_is_checked(tmp_path, capsys, command, opt, source):
    # The base scenario runs to exit 0 without this one out-of-domain value.
    bad = OUT_OF_DOMAIN[opt.name]
    argv = _base_argv(tmp_path, command, skip=opt.name)
    if source == "flag":
        argv.append(f"--{opt.name}={bad}")
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{opt.name} = {bad}\n")
        argv += ["--config", str(config)]
    out = tmp_path / "out"
    assert run(out, command, *argv) == 1
    assert not out.exists()
    assert f"--{opt.name} must" in capsys.readouterr().err


FLOAT_DOMAIN_OPTS = [(command, opt) for command, opt in DOMAIN_OPTS if opt.typ is float]


@pytest.mark.parametrize("command, opt", FLOAT_DOMAIN_OPTS, ids=_domain_ids(FLOAT_DOMAIN_OPTS))
def test_float_domains_reject_nan(command, opt):
    assert not opt.domain[1](float("nan"))


def _is_domain(value):
    return (isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], str)
            and callable(value[1]))


def test_every_domain_is_one_of_the_shared_vocabulary():
    # The CLI and the library word and test a domain in one place, casebias._domain.
    shared = {id(value) for value in vars(_domain).values() if isinstance(value, _domain.Domain)}
    declared = [opt.domain for table in _OPTION_TABLES.values() for opt in table if opt.domain]
    own = [value for value in vars(cli).values() if _is_domain(value)]
    assert declared and own
    assert {id(domain) for domain in declared + own} <= shared


def test_sir_writes_trajectory(tmp_path):
    code = run(tmp_path, "sir", "--beta", "1.4", "--gamma-rec", "0.2", "--horizon", "50")
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "time,S,I,R,K,prevalence"
    assert len(lines) == 51


def test_bias_curves_and_rt_gap(tmp_path):
    assert run(tmp_path, "bias-curves", "--horizon", "60") == 0
    lines = (tmp_path / "bias_curves.csv").read_text().strip().split("\n")
    assert lines[0] == "step,M,ratio_bias,rt_bias"
    assert run(tmp_path, "rt-gap", "--horizon", "60") == 0
    lines = (tmp_path / "rt_gap.csv").read_text().strip().split("\n")
    assert lines[0] == "step,true_rt_A,true_rt_B,est_rt_A,est_rt_B,true_gap,est_gap"


def test_compare_outputs(tmp_path):
    code = run(
        tmp_path,
        "compare",
        "--n1", "328e6", "--n2", "38e6",
        "--f1", "0.023", "--f2", "0.023",
        "--ybar1", "0.1", "--ybar2", "0.1",
        "--neff1", "15", "--neff2", "15",
    )
    assert code == 0
    payload = json.loads((tmp_path / "compare.json").read_text())
    assert payload["outputs"]["population_adjustment"] == pytest.approx(5835.64, abs=0.1)
    assert payload["outputs"]["z_eff"] == 0.0


def test_allocate(tmp_path):
    strata = tmp_path / "strata.csv"
    strata.write_text("stratum_id,share,prevalence\na,0.8,0.01\nb,0.2,0.25\n")
    assert run(tmp_path, "allocate", "--strata", str(strata), "--n", "1000") == 0
    lines = (tmp_path / "allocation.csv").read_text().strip().split("\n")
    assert lines[1].endswith("479,800")
    payload = json.loads((tmp_path / "allocation.json").read_text())
    assert payload["outputs"]["neyman_variance"] <= payload["outputs"]["proportional_variance"]


def test_allocate_pooled_prevalence_adds_left_to_right(tmp_path):
    # Ten strata of share 0.1 whose share * prevalence terms add to 0.452 left to right;
    # a compensated sum, as sum() is from Python 3.12, gives 0.45200000000000007.
    prevalence = [0.14, 0.84, 0.76, 0.26, 0.5, 0.45, 0.65, 0.78, 0.1, 0.04]
    strata = tmp_path / "strata.csv"
    strata.write_text("stratum_id,share,prevalence\n"
                      + "".join(f"s{i},0.1,{p}\n" for i, p in enumerate(prevalence)))
    terms = [0.1 * p for p in prevalence]
    pooled = 0.0
    for term in terms:
        pooled += term
    assert pooled != math.fsum(terms)
    run = cli._cmd_allocate({"strata": str(strata), "n": 1000, "population": 1e6})
    outputs = run.files["allocation.json"]
    assert outputs["pooled_prevalence"].hex() == pooled.hex()
    assert outputs["srs_variance"] == srs_variance(pooled, 1000, 1e6)
    assert outputs["srs_variance_wr"] == srs_variance(pooled, 1000, 0, fpc=False)


@pytest.mark.parametrize("population", ["1", "nan", "500"])
def test_allocate_bad_population_writes_nothing(tmp_path, capsys, population):
    # 1 and nan fail --population's domain; 500 fails the joint n < population.
    strata = tmp_path / "strata.csv"
    strata.write_text(STRATA)
    argv = ["allocate", "--strata", str(strata), "--n", "1000", "--population", population]
    out = tmp_path / "out"
    assert run(out, *argv) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: --")
    assert "--population" in err
    assert "Traceback" not in err


def test_sensitivity_corner_that_empties_the_survey_is_infeasible(tmp_path, capsys):
    # At fp = 0.1 the raw survey share corrects (and clamps) to 0: no anchor is left.
    argv = ["sensitivity", "--f", "0.02", "--fp", "0.01", "--fn", "0.1", "--survey-prev", "0.05",
            "--observed-prev", "0.1", "--fp-range", "0.01,0.1", "--fn-range", "0,0.1"]
    assert run(tmp_path, *argv) == 2
    assert not (tmp_path / "sensitivity.json").exists()
    assert capsys.readouterr().err == (
        "flag: corrected prevalence -0.0405405 outside [0, 1]; clamping\n"
        "infeasible: the corner fp = 0.1, fn = 0 corrects the survey share to 0, outside (0, 1)\n"
    )


@pytest.mark.parametrize(
    "fp_range, fn_range", [("0.001,0.01", "0.1,0.995"), ("0.01,0.001", "0.995,0.1")],
    ids=["lo-hi", "hi-lo"],
)
def test_sensitivity_corner_outside_the_joint_domain_names_the_flags(
    tmp_path, capsys, fp_range, fn_range
):
    # Every end is a valid rate, but fp = 0.01 with fn = 0.995 breaks fp + fn < 1.
    argv = ["sensitivity", "--f", "0.001", "--fp", "0.005", "--fn", "0.172", "--survey-prev",
            "0.4", "--observed-prev", "0.6", "--fp-range", fp_range, "--fn-range", fn_range]
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / "sensitivity.json").exists()
    assert capsys.readouterr().err == "error: --fp-range/--fn-range: fp + fn must be < 1\n"


def test_neff_derived_rate_outside_unit_interval_names_the_flags(tmp_path, capsys):
    # f = 0.5 with M = 10 at ybar = 0.016 puts f1 = M * f0 above 1.
    assert run(tmp_path, "neff", "--f", "0.5", "--m-grid", "10") == 1
    assert not (tmp_path / "neff_table.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: --f/--m-grid/--ybar-grid: f1 must lie in [0, 1], got 4.37")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, filename, prefix",
    [
        (["bias-curves", "--f", "0.9"], "bias_curves.csv", "--f/--m-grid"),
        (["rt-gap", "--f", "0.5", "--m", "100"], "rt_gap.csv", "--f/--m"),
    ],
    ids=["bias-curves", "rt-gap"],
)
def test_per_step_derived_rate_error_is_one_short_line_naming_the_flags(
    tmp_path, capsys, argv, filename, prefix
):
    # f1 = M f / (ybar (M - 1) + 1) leaves [0, 1] at hundreds of steps; the message names one.
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / filename).exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}: f1 must lie in [0, 1], got ")
    assert len(err) < 200 and err.count("\n") == 1


F1_49 = "error: --f/--m-grid: f1 must lie in [0, 1], got 49.926487271968824\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        # The grid is checked in one pass: the cell named does not depend on where M = 100 sits.
        (["--f", "0.5", "--m-grid", "1.5,100", "--horizon", "20"], F1_49),
        (["--f", "0.5", "--m-grid", "100,1.5", "--horizon", "20"], F1_49),
        # Each check covers the whole grid, in formula order: f0 = f / (ybar (M - 1) + 1)
        # above 1 at M = 0.01 is named before f1 above 1 at M = 100, wherever each sits.
        (["--f", "0.99", "--m-grid", "100,0.01", "--horizon", "60"],
         "error: --f/--m-grid: f0 must lie in [0, 1], got 1.0008785710153552\n"),
    ],
    ids=["failing-m-last", "failing-m-first", "f0-before-f1"],
)
def test_bias_curves_grid_error_precedence(tmp_path, capsys, argv, err):
    assert run(tmp_path, "bias-curves", *argv) == 1
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", err)


SUBNORMAL_F = [
    (["neff", "--f", "5e-324", "--m-grid", "2"], "neff_table.csv", "--f"),
    (["decompose", "--ybar", "0.1", "--f", "5e-324", "--m", "2"], "decomposition.json", "--f"),
    (["compare", "--n1", "1e6", "--n2", "1e6", "--f1", "5e-324", "--f2", "0.02", "--ybar1",
      "0.1", "--ybar2", "0.1"], "compare.json", "--f1"),
    (["compare", "--n1", "1e6", "--n2", "1e6", "--f1", "0.02", "--f2", "5e-324", "--ybar1",
      "0.1", "--ybar2", "0.1"], "compare.json", "--f2"),
    (["sensitivity", "--f", "5e-324", "--fp", "0.005", "--fn", "0.172", "--survey-prev",
      "0.159", "--observed-prev", "0.325"], "sensitivity.json", "--f"),
    (["bias-curves", "--f", "5e-324", "--horizon", "5"], "bias_curves.csv", "--f"),
    (["rt-gap", "--f", "5e-324", "--horizon", "5"], "rt_gap.csv", "--f"),
]


@pytest.mark.parametrize(
    "argv, filename, flag", SUBNORMAL_F, ids=[f"{c[0][0]}{c[2]}" for c in SUBNORMAL_F]
)
def test_subnormal_tested_fraction_names_the_flag(tmp_path, capsys, argv, filename, flag):
    # A subnormal f overflows Ybar(1-Ybar)/(f(1-f)) and (1-f)/f to inf.
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / filename).exists()
    err = capsys.readouterr().err
    assert err == (
        f"error: {flag} must lie strictly in (0, 1) and be >= 2.2250738585072014e-308, "
        "got 5e-324\n"
    )
    assert len(err) < 200


def test_neff_accepts_the_smallest_normal_tested_fractions(tmp_path):
    assert run(tmp_path, "neff", "--f", "1e-300", "--m-grid", "2") == 0
    assert (tmp_path / "neff_table.csv").read_text().split("\n")[1] == "0.016,65.00"
    assert run(tmp_path, "neff", "--f", "2.2250738585072014e-308", "--m-grid", "2") == 0


def test_neff_cell_whose_square_underflows_is_finite_and_unflagged(tmp_path, capsys):
    # (rho * D_M)^2 underflows to 0 in the first cell; its bound is ~4e24, not inf.
    assert run(tmp_path, *SURFACE_CASES["neff-square-underflow"]) == 0
    assert (tmp_path / "neff_table.csv").read_text() == (
        "ybar,1.000000000001,2\n0.5,3999288890173793973043200.00,9.00\n")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, filename",
    [(["neff", "--f", "0.026"], "neff_table.csv"),
     (["bias-curves", "--horizon", "3"], "bias_curves.csv")],
    ids=["neff", "bias-curves"],
)
def test_close_grid_values_get_distinct_labels(tmp_path, argv, filename):
    assert run(tmp_path, *argv, "--m-grid", "1.2,1.2000001") == 0
    text = (tmp_path / filename).read_text()
    if filename == "neff_table.csv":
        assert text.split("\n")[0] == "ybar,1.2,1.2000001"
    else:
        labels = [line.split(",")[1] for line in text.splitlines()[1:]]
        assert labels == ["1.2"] * 3 + ["1.2000001"] * 3  # steps 0, 1 and 2 per M


def test_config_file_and_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# scenario\nf = 0.026\nybar-grid = 0.016,0.096\n")
    out1 = tmp_path / "a"
    assert main(["neff", "--config", str(config), "--out", str(out1)]) == 0
    lines = (out1 / "neff_table.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    # flag overrides the config value
    out2 = tmp_path / "b"
    assert main(
        ["neff", "--config", str(config), "--ybar-grid", "0.016", "--out", str(out2)]
    ) == 0
    assert len((out2 / "neff_table.csv").read_text().strip().split("\n")) == 2


def test_config_unknown_key(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("not_a_key = 3\n")
    assert main(["neff", "--config", str(config), "--f", "0.026"]) == 1


@pytest.mark.parametrize(
    "argv, filename",
    [
        (["neff", "--f", "0.026", "--config"], "neff_table.csv"),
        (["allocate", "--n", "100", "--strata"], "allocation.csv"),
        (["sensitivity", "--f", "0.001", "--fp", "0.005", "--fn", "0.172",
          "--survey-prev", "0.159", "--date", "2020-04-20", "--series"], "sensitivity.json"),
    ],
    ids=["config", "strata", "series"],
)
def test_missing_input_file_names_the_flag(tmp_path, capsys, argv, filename):
    missing = tmp_path / "nope.csv"
    assert run(tmp_path, *argv, str(missing)) == 1
    assert not (tmp_path / filename).exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-1]}: cannot read {str(missing)!r}")
    assert "Traceback" not in err


STRATA_ARGV = ["allocate", "--n", "100", "--strata"]
SERIES_ARGV = ["sensitivity", "--f", "0.001", "--fp", "0.005", "--fn", "0.172",
               "--survey-prev", "0.159", "--date", "2020-04-20", "--series"]
CONFIG_ARGV = ["neff", "--f", "0.026", "--config"]
UNDECODABLE = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
OVERLONG = b'"' + b"x" * 140_000 + b'"'  # one quoted field past csv's 131072-character limit


@pytest.mark.parametrize(
    "argv, content, err",
    [
        (STRATA_ARGV, b"a,b\n1,2\n",
         "--strata: expected header stratum_id,share,prevalence, got ['a', 'b']"),
        (STRATA_ARGV, b"\xff\xfe\x00", f"--strata: {UNDECODABLE}"),
        (SERIES_ARGV, b"a,b\n1,2\n",
         "--series: expected header date,total_tests,positive_tests, got ['a', 'b']"),
        (SERIES_ARGV, b"\xff\xfe\x00", f"--series: {UNDECODABLE}"),
        (CONFIG_ARGV, b"\xff\xfe\x00", f"--config: {UNDECODABLE}"),
        (CONFIG_ARGV, b"f = 0.02\ngarbage\n",
         "--config: line 2: expected 'key = value', got 'garbage'"),
        (STRATA_ARGV, b"stratum_id,share,prevalence\n" + OVERLONG + b",1,0.1\n",
         "--strata: field larger than field limit (131072)"),
        (SERIES_ARGV, b"date,total_tests,positive_tests\n" + OVERLONG + b",10,1\n",
         "--series: field larger than field limit (131072)"),
        (SERIES_ARGV, b"date,total_tests,positive_tests\n2020-04-20,100000000000000000000,1\n",
         "--series: line 2: count exceeds 9223372036854775807"),
    ],
    ids=["strata-header", "strata-binary", "series-header", "series-binary", "config-binary",
         "config-line", "strata-overlong-field", "series-overlong-field", "series-past-int64"],
)
def test_unparsable_input_file_names_the_flag(tmp_path, capsys, argv, content, err):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert run(tmp_path / "out", *argv, str(path)) == 1
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("under", ["", "/x"], ids=["file", "under-file"])
@pytest.mark.parametrize("argv", [["sir", "--beta", "1", "--gamma-rec", "0.2", "--horizon", "5"],
                                  DECOMPOSE_ARGS], ids=["csv", "json"])
def test_unwritable_out_names_the_flag(tmp_path, capsys, argv, under):
    # --out is a regular file, or a path below one: one error line naming --out, no traceback.
    afile = tmp_path / "afile"
    afile.write_text("")
    out = f"{afile}{under}"
    assert main([*argv, "--out", out]) == 1
    reason = os.strerror(errno.ENOTDIR if under else errno.EEXIST)
    assert capsys.readouterr() == ("", f"error: --out: cannot write {out!r}: {reason}\n")
    assert afile.read_text() == ""


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize(
    "argv, writes",
    [(["sir", "--beta", "1", "--gamma-rec", "0.2", "--horizon", "5"], 0), (DECOMPOSE_ARGS, 0),
     ([*STRATA_ARGV, "{tmp}/strata.csv"], 1)],
    ids=["csv", "json", "allocate-second-file"],
)
def test_failed_write_names_the_flag_and_closes_the_file(tmp_path, capsys, monkeypatch, argv,
                                                         writes):
    # os.write runs `writes` times, then fails: one error line, nothing printed on
    # stdout, no file left under --out and no descriptor left open.
    real_write, calls = os.write, []

    def full(fd, data):
        calls.append(fd)
        if len(calls) > writes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data)

    (tmp_path / "strata.csv").write_text(STRATA)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    out = str(tmp_path / "out")
    before = _open_fds()
    monkeypatch.setattr(os, "write", full)
    assert main([*argv, "--out", out]) == 1
    monkeypatch.undo()
    assert capsys.readouterr() == (
        "", f"error: --out: cannot write {out!r}: No space left on device\n")
    assert len(calls) == writes + 1
    assert os.listdir(out) == []
    assert _open_fds() == before


def test_no_subcommand_is_validation_error():
    assert main([]) == 1


def test_emitted_csvs_reparse_under_their_schema(tmp_path):
    strata = tmp_path / "strata.csv"
    strata.write_text("stratum_id,share,prevalence\na,0.8,0.01\nb,0.2,0.25\n")
    runs = {
        "neff_table.csv": ["neff", "--f", "0.026"],
        "trajectory.csv": ["sir", "--beta", "1.4", "--gamma-rec", "0.2", "--horizon", "20"],
        "bias_curves.csv": ["bias-curves", "--horizon", "20"],
        "rt_gap.csv": ["rt-gap", "--horizon", "20"],
        "allocation.csv": ["allocate", "--strata", str(strata), "--n", "100"],
    }
    import csv as csv_mod

    for filename, args in runs.items():
        out = tmp_path / filename.replace(".csv", "")
        assert main([*args, "--out", str(out)]) == 0
        with open(out / filename, newline="") as handle:
            rows = list(csv_mod.reader(handle))
        header = rows[0]
        assert len(rows) > 1
        for row in rows[1:]:
            assert len(row) == len(header)
            for cell in row[1:]:
                float(cell)  # numeric payload throughout


def test_bad_flag_value_names_option(tmp_path, capsys):
    assert run(tmp_path, "neff", "--f", "not_a_number") == 1
    assert "--f" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option", ["n1", "f1", "ybar1", "rho1", "d1", "neff1"])
def test_compare_rejects_non_finite_input(tmp_path, option, value):
    args = {
        "n1": "328e6", "n2": "38e6", "f1": "0.023", "f2": "0.023",
        "ybar1": "0.1", "ybar2": "0.1", "neff1": "15", "neff2": "15",
    }
    args[option] = value
    argv = ["compare"] + [tok for key, val in args.items() for tok in (f"--{key}", val)]
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / "compare.json").exists()


@pytest.mark.parametrize(
    "n1, n2, adjustment",
    [("1e308", "1e6", 999.999), ("1e308", "1e308", 7.07107e153), ("2", "1e308", 1.0)],
)
def test_compare_size_factors_stay_finite_at_the_largest_sizes(tmp_path, n1, n2, adjustment):
    argv = ["compare", "--n1", n1, "--n2", n2, "--f1", "0.02", "--f2", "0.02",
            "--ybar1", "0.1", "--ybar2", "0.1"]
    assert run(tmp_path, *argv) == 0
    outputs = json.loads((tmp_path / "compare.json").read_text())["outputs"]
    assert outputs["population_adjustment"] == adjustment
    threshold = outputs["delta_diff_threshold"]
    assert isinstance(threshold, float) and 0.0 < threshold < 1.0


def test_compare_non_finite_output_is_infeasible_and_writes_nothing(tmp_path, capsys):
    # Each n * sigma * rho * q * D product overflows to +-inf, and inf - inf is NaN.
    argv = ["compare", "--n1", "1.7e308", "--n2", "1.7e308", "--f1", "0.02", "--f2", "0.02",
            "--ybar1", "0.1", "--ybar2", "0.1", "--rho1", "0.5", "--rho2=-0.5",
            "--d1", "1e300", "--d2=-1e300"]
    assert run(tmp_path, *argv) == 2
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr() == ("", "infeasible: count_selection_term is nan\n")


def test_non_finite_json_value_is_named_by_its_dotted_key():
    with pytest.raises(InfeasibleScenarioError, match=r"^checks\.a\.value is -inf$"):
        cli._json({"checks": {"a": {"value": [1.0, -math.inf]}}})


def test_first_non_finite_json_value_in_insertion_order_is_named():
    # The text sorts "a" first; the walk meets "b" first, as the separate rounding pass did.
    with pytest.raises(InfeasibleScenarioError, match=r"^b is nan$"):
        cli._json({"b": math.nan, "a": math.nan})


def test_non_finite_input_is_named_before_an_output():
    with pytest.raises(InfeasibleScenarioError, match=r"^x is inf$"):
        cli._text({"a": math.nan}, {"x": math.inf}, [])


def ref_round6(value, key: str = ""):
    """The rounding pass that ran before json.dumps wrote the JSON files."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InfeasibleScenarioError(f"{key} is {value}")
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: ref_round6(v, f"{key}.{k}" if key else k) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_round6(v, key) for v in value]
    return value


_JSON_TEXT = st.text(st.characters(), max_size=6)  # control, non-ASCII and lone surrogates
_JSON_SCALAR = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e300, 0.1234565, -123456.5])
    | st.integers(-(2**70), 2**70) | st.booleans() | st.none() | _JSON_TEXT
)
_JSON_VALUE = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(payload=_JSON_VALUE)
def test_json_text_is_json_dumps_of_the_rounded_payload(payload):
    expected = json.dumps(ref_round6(payload), sort_keys=True, indent=2) + "\n"
    assert cli._json(payload) + "\n" == expected


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), {"a": object()}],
                         ids=["int64", "numpy-bool", "object"])
def test_json_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        cli._json(value)


def test_json_text_keys_must_be_strings():
    # Every payload the commands write has string keys; json.dumps would write "1".
    with pytest.raises(TypeError):
        cli._json({1: 0.5})


@pytest.mark.parametrize("ybar", ["0", "1"])
def test_compare_with_zero_pooled_variance_is_infeasible(tmp_path, capsys, ybar):
    argv = ["compare", "--n1", "328e6", "--n2", "38e6", "--f1", "0.023", "--f2", "0.023",
            "--ybar1", ybar, "--ybar2", ybar]
    assert run(tmp_path, *argv) == 2
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().err == (
        "infeasible: zero pooled variance: the Z-score is undefined\n"
    )


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["sir", "--beta", "1.4", "--gamma-rec", "0.2", "--i0", "2e6"], "--size/--i0/--r0"),
        (["sir", "--beta", "1.4", "--gamma-rec", "0.2", "--r0", "2e6"], "--size/--i0/--r0"),
        (["bias-curves", "--i0", "2e6"], "--size/--i0"),
        (["rt-gap", "--size", "50"], "--size/--i0"),
    ],
    ids=["sir-i0", "sir-r0", "bias-curves", "rt-gap"],
)
def test_sir_joint_domain_names_the_flags(tmp_path, capsys, argv, flags):
    assert run(tmp_path, *argv, "--horizon", "5") == 1
    assert not any(tmp_path.iterdir())
    assert f"error: {flags}: initial compartments must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-0.1", "2"])
@pytest.mark.parametrize("option", ["ybar1", "ybar2"])
def test_compare_rejects_prevalence_outside_unit_interval(tmp_path, capsys, option, value):
    args = {
        "n1": "328e6", "n2": "38e6", "f1": "0.023", "f2": "0.023", "ybar1": "0.1", "ybar2": "0.1",
    }
    args[option] = value
    argv = ["compare"] + [tok for key, val in args.items() for tok in (f"--{key}", val)]
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / "compare.json").exists()
    assert f"--{option} must lie in [0, 1], got {float(value)}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, filename", [("bias-curves", "bias_curves.csv"), ("rt-gap", "rt_gap.csv")]
)
def test_serial_interval_must_be_finite(tmp_path, capsys, command, filename, value):
    assert run(tmp_path, command, "--serial-interval", value, "--horizon", "20") == 1
    assert not (tmp_path / filename).exists()
    assert f"--serial-interval must be finite and positive, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "2,inf", "2,-inf", "0"])
def test_bias_curves_rejects_non_finite_relative_rate(tmp_path, capsys, value):
    assert run(tmp_path, "bias-curves", "--m-grid", value, "--horizon", "20") == 1
    assert not (tmp_path / "bias_curves.csv").exists()
    err = capsys.readouterr().err
    assert "--m-grid must be finite and positive, got " in err
    assert len(err) < 200


@pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
@pytest.mark.parametrize(
    "argv, err",
    [(["bias-curves", "--horizon", "20"], "error: --f/--m-grid: rel_rates must be nonempty\n"),
     (["neff", "--f", "0.026"], "error: --f/--m-grid/--ybar-grid: grids must be nonempty\n")],
    ids=["bias-curves", "neff"],
)
def test_empty_m_grid_is_an_error_line(tmp_path, capsys, argv, err, value):
    assert run(tmp_path, *argv, "--m-grid", value) == 1
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", err)


SENSITIVITY_ARGS = ["sensitivity", "--f", "0.001", "--fp", "0.005", "--fn", "0.172",
                    "--observed-prev", "0.325"]


@pytest.mark.parametrize(
    "argv, err",
    [(["neff", "--f", "0.02", "--m-grid", "1,-2"],
      "error: --m-grid must be finite and positive, got -2.0\n"),
     (["neff", "--f", "0.02", "--ybar-grid", "0.1,nan"],
      "error: --ybar-grid must lie strictly in (0, 1), got nan\n"),
     ([*SENSITIVITY_ARGS, "--survey-prev", "0.159", "--fp-range", "0.01,1.5",
       "--fn-range", "0.1,0.2"], "error: --fp-range must lie in [0, 1), got 1.5\n")],
    ids=["m-grid", "ybar-grid", "fp-range"],
)
def test_a_list_option_names_its_first_value_outside_the_domain(tmp_path, capsys, argv, err):
    # The whole list was printed: got [1.0, -2.0].
    assert run(tmp_path, *argv) == 1
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.2", "1.5"])
def test_sensitivity_rejects_alpha_outside_unit_interval(tmp_path, capsys, value):
    # --alpha is checked even on the direct path, which does not smooth.
    assert run(tmp_path, *SENSITIVITY_ARGS, "--survey-prev", "0.159", f"--alpha={value}") == 1
    assert not (tmp_path / "sensitivity.json").exists()
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("survey", [[], ["--survey-prev", "0.159"]])
def test_sensitivity_rejects_non_finite_survey_raw(tmp_path, capsys, survey, value):
    assert run(tmp_path, *SENSITIVITY_ARGS, *survey, f"--survey-raw={value}") == 1
    assert not (tmp_path / "sensitivity.json").exists()
    assert "--survey-raw" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1.5", "-0.2", "1.0000001"])
@pytest.mark.parametrize("survey", [[], ["--survey-prev", "0.159"]])
def test_sensitivity_rejects_survey_raw_outside_unit_interval(tmp_path, capsys, survey, value):
    assert run(tmp_path, *SENSITIVITY_ARGS, *survey, f"--survey-raw={value}") == 1
    assert not (tmp_path / "sensitivity.json").exists()
    assert "--survey-raw must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "1"])
def test_sensitivity_accepts_unused_survey_raw_at_the_ends(tmp_path, value):
    assert run(tmp_path, *SENSITIVITY_ARGS, "--survey-prev", "0.159", f"--survey-raw={value}") == 0
    assert (tmp_path / "sensitivity.json").exists()


@pytest.mark.parametrize("value", ["0", "1", "2", "-0.5", "nan"])
def test_sensitivity_rejects_ybar_anchor_outside_unit_interval(tmp_path, capsys, value):
    argv = [*SENSITIVITY_ARGS, "--survey-prev", "0.159", f"--ybar-anchor={value}"]
    assert run(tmp_path, *argv) == 1
    assert not (tmp_path / "sensitivity.json").exists()
    assert "--ybar-anchor must lie strictly in (0, 1)" in capsys.readouterr().err


def test_sensitivity_accepts_alpha_at_one(tmp_path):
    assert run(tmp_path, *SENSITIVITY_ARGS, "--survey-prev", "0.159", "--alpha", "1") == 0
    assert (tmp_path / "sensitivity.json").exists()


# Import-time work of the CLI, seen from a fresh interpreter: which modules it loads
# beyond numpy's, the threads it starts and the parsers it builds.
IMPORT_PROBE = """
import json, sys, numpy.random
before = set(sys.modules)
import casebias.cli as cli
loaded = set(sys.modules) - before
import threading
print(json.dumps({
    "scipy": "scipy" in sys.modules,
    "foreign": sorted(name for name in loaded if name.partition(".")[0] != "casebias"
                      and name.partition(".")[0] not in sys.stdlib_module_names),
    "threads": threading.active_count(),
    "parsers": cli._build_parser.cache_info().currsize,
}))
"""


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"scipy": False, "foreign": [], "threads": 1, "parsers": 0}


def _surface(argv):
    """stdout, stderr and exit status of one in-process run (SystemExit's code for
    --help and --version)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "status": status}


def test_surface_cases_match_the_pinned_file():
    assert set(json.loads(SURFACE.read_text())) == set(SURFACE_CASES)


@pytest.mark.parametrize("case", sorted(SURFACE_CASES))
def test_parser_surface_is_pinned(tmp_path, monkeypatch, case):
    # Help, usage and every parser error, byte for byte; unique-prefix runs sir
    # and prints the trajectory path relative to the working directory.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert _surface(SURFACE_CASES[case]) == json.loads(SURFACE.read_text())[case]


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _fresh_parser(monkeypatch):
    """``cli._build_parser`` with an empty cache of its own for the test; the module's
    cached parser is put back after it."""
    fresh = functools.cache(cli._build_parser.__wrapped__)
    monkeypatch.setattr(cli, "_build_parser", fresh)
    return fresh


@pytest.fixture
def fresh_parser(monkeypatch):
    return _fresh_parser(monkeypatch)


@pytest.mark.parametrize("first", [None, "--help", "-h", "--version", "comp", "--out"])
def test_parser_builds_every_subparser_without_a_command(fresh_parser, first):
    # An argv that does not start with a command name goes to the one parser,
    # which holds all nine commands.
    _surface([] if first is None else [first])
    assert fresh_parser.cache_info().misses == 1
    assert list(_subparsers(fresh_parser())) == COMMANDS


COMPARE_ARGS = ["compare", "--n1", "328e6", "--n2", "38e6", "--f1", "0.023", "--f2", "0.023",
                "--ybar1", "0.1", "--ybar2", "0.1"]
# The same scenario in a form that only argparse reads.
COMPARE_EQUALS = ["compare", "--n1=328e6", *COMPARE_ARGS[3:]]
_SIR = ["sir", "--beta", "1.4", "--gamma-rec", "0.2", "--horizon", "3"]
PARSE_CORPUS = {
    "help-after-command": ["compare", "-h"],
    "help-after-options": [*COMPARE_ARGS, "--help"],
    "help-abbreviated": ["neff", "--he"],
    "help-with-attached-value": ["neff", "-hx"],
    "version-after-command": ["compare", "--version"],
    "version-after-options": [*COMPARE_ARGS, "--version"],
    "version-prefix-after-command": ["sir", "--vers"],
    "unique-prefix": ["sir", "--beta", "1.4", "--gamma", "0.2", "--hor", "3"],
    "ambiguous-prefix": ["compare", "--n", "1"],
    "ambiguous-prefix-help-horizon": ["sir", "--h"],
    "equals-value": ["compare", "--n1=328e6", "--n2=38e6", "--f1=0.023", "--f2=0.023",
                     "--ybar1=0.1", "--ybar2=0.1"],
    "equals-prefix": [*_SIR[:3], "--gamma=0.2", "--horizon=3"],
    "equals-empty": [*_SIR, "--dt="],
    "equals-no-option": [*COMPARE_ARGS, "--=x"],
    "equals-no-option-first": ["neff", "--=", "--f", "0.026"],
    "double-dash-end": [*COMPARE_ARGS, "--"],
    "double-dash-before-options": ["compare", "--", *COMPARE_ARGS[1:]],
    "double-dash-then-equals": ["compare", "--", "--=x"],
    "negative-value": [*COMPARE_ARGS, "--rho1", "-0.5"],
    "negative-exponent-value": [*COMPARE_ARGS, "--rho2", "-1e-3"],  # read as an option
    "negative-value-equals": [*COMPARE_ARGS, "--rho1=-0.5"],
    "negative-value-domain": [*_SIR, "--dt", "-1"],
    "repeated-flag": [*COMPARE_ARGS, "--n1", "1e6", "--n1", "2e6"],
    "repeated-flag-prefix": [*_SIR, "--beta", "2", "--bet", "1.5"],
    "missing-value": ["compare", "--n1"],
    "option-as-value": ["compare", "--n1", "--n2", "38e6"],
    "unknown-option-after-command": ["compare", "--bogus", *COMPARE_ARGS[1:]],
    "unknown-option-after-options": [*COMPARE_ARGS, "--bogus", "2"],
    "unknown-option-equals": [*COMPARE_ARGS, "--bogus=2"],
    "unknown-option-before-command": ["--bogus", *COMPARE_ARGS],
    "out-before-command": ["--out", "o", *COMPARE_ARGS],
    "short-unknown": [*COMPARE_ARGS, "-x"],
    "stray-word": ["compare", "stray", *COMPARE_ARGS[1:]],
    "command-twice": ["compare", *COMPARE_ARGS],
    "value-with-space": [*_SIR[:2], "1.4 2"],
    "out-given": [*COMPARE_ARGS, "--out", "sub"],
    "out-equals": [*_SIR, "--out=sub"],
    "config-missing": [*COMPARE_ARGS, "--config", "missing.cfg"],
    "no-options": ["neff"],
    "boolean-option": ["decompose", "--ybar", "0.1", "--f", "0.02", "--m", "2", "--emp", "no"],
    "infeasible": ["neff", "--f", "0.026", "--m-grid", "1"],
    "exact-name-that-prefixes-others": ["neff", "--f", "0.026", "--fp", "0.01", "--fn", "0.1"],
    "empty-value": [*_SIR, "--dt", ""],
    "space-led-value": [*_SIR, "--dt", " -1"],
    "dash-value": [*COMPARE_ARGS, "--out", "-"],
    "double-dash-value": [*COMPARE_ARGS, "--out", "--"],
    "value-with-equals": [*_SIR, "--out", "a=b"],
    "flag-with-trailing-space": [*COMPARE_ARGS, "--n1 ", "5"],
    "flag-in-other-case": [*COMPARE_ARGS, "--N1", "5"],
    "odd-count": [*COMPARE_ARGS, "--neff1", "15", "--neff2"],
}


@pytest.mark.parametrize(
    "argv, pair",
    [
        (["neff", "--f", "0.026", "--fp", "0.01"], "--fp and --fn"),
        (["neff", "--f", "0.026", "--fn", "0.1"], "--fp and --fn"),
        (["sensitivity", "--f", "0.001", "--fp", "0.005", "--fn", "0.172", *BOTH_SHARES,
          "--fn-range", "0.1,0.2"], "--fp-range and --fn-range"),
        ([*COMPARE_ARGS, "--neff1", "15"], "--neff1 and --neff2"),
        ([*COMPARE_ARGS, "--neff2", "15"], "--neff1 and --neff2"),
    ],
    ids=["neff-fp-alone", "neff-fn-alone", "sensitivity-fn-range-alone", "compare-neff1-alone",
         "compare-neff2-alone"],
)
def test_paired_option_alone_is_an_error_line(tmp_path, capsys, argv, pair):
    assert run(tmp_path / "out", *argv) == 1
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr() == ("", f"error: {pair} must be given together\n")


def _surface_and_files(monkeypatch, argv, workdir):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    return _surface(argv), {str(p.relative_to(workdir)): p.read_bytes()
                            for p in sorted(workdir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", sorted(PARSE_CORPUS))
def test_flat_parse_matches_the_nested_parse(tmp_path, monkeypatch, fresh_parser, case):
    # Exit code, stdout, stderr and written files of each argv, read as main reads it
    # (exact --name value pairs flat, without argparse; the rest by the nine-command
    # parser) and read by the nine-command parser alone.
    monkeypatch.setenv("COLUMNS", "80")
    argv = PARSE_CORPUS[case]
    flat = _surface_and_files(monkeypatch, argv, tmp_path / "flat")
    monkeypatch.setattr(cli, "_exact_args", lambda argv: None)
    assert _surface_and_files(monkeypatch, argv, tmp_path / "nested") == flat


# Values that argparse reads in a way of its own: empty, space-led, negative, "-"-led.
EDGE_VALUES = ["", " ", " -1", "-0.5", "-1e-3", "-", "--", "-x", "1.4 2", "a=b", "nan", "0.1",
               "2", "20", "true"]
EDGE_FLAGS = ["--", "--=x", "--=", "--bogus", "-x", "-h", "--help", "--version", "--n1 "]


@st.composite
def _edge_argv(draw):
    """A command's base scenario with up to three exact ``--name value`` pairs
    inserted between its pairs (repeats included), then up to two insertions
    anywhere of a pair, an exact name alone, a unique or ambiguous prefix,
    ``--name=value``, an edge flag or a bare value."""
    command = draw(st.sampled_from(COMMANDS))
    base, _ = DOMAIN_BASE[command]
    args = [tok for key, val in base.items() for tok in (f"--{key}", val)]
    name = st.sampled_from([opt.name for opt in _OPTION_TABLES[command] + cli._COMMON])
    value = st.sampled_from(EDGE_VALUES)
    pair = st.tuples(name, value).map(lambda nv: [f"--{nv[0]}", nv[1]])
    for _ in range(draw(st.integers(0, 3))):
        at = 2 * draw(st.integers(0, len(args) // 2))
        args[at:at] = draw(pair)
    other = st.one_of(
        pair,
        name.map(lambda n: [f"--{n}"]),
        st.tuples(name, st.integers(1, 12)).map(lambda nk: [f"--{nk[0][:nk[1]]}"]),
        st.tuples(name, value).map(lambda nv: [f"--{nv[0]}={nv[1]}"]),
        st.sampled_from(EDGE_FLAGS).map(lambda flag: [flag]),
        value.map(lambda v: [v]),
    )
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(args)))
        args[at:at] = draw(other)
    return [command, *args]


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_edge_argv())
def test_exact_pairs_read_as_argparse_reads_them(tmp_path, monkeypatch, argv):
    # Where the exact path answers, its Namespace is the nine-command parser's; either
    # way, main's exit code, stdout, stderr and files are those of argparse alone.
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "strata.csv").write_text(STRATA)
    argv = [tok.replace("{tmp}", str(tmp_path)) for tok in argv]
    exact = cli._exact_args(argv)
    if exact is not None:
        assert exact == _build_parser().parse_args(argv)
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        got = _surface_and_files(monkeypatch, argv, Path(work) / "exact")
        with monkeypatch.context() as off:
            off.setattr(cli, "_exact_args", lambda argv: None)
            assert _surface_and_files(off, argv, Path(work) / "argparse") == got


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), COLUMNS="80")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=60
    )


def test_module_entry_point_reads_sys_argv(tmp_path, monkeypatch):
    # python -m casebias and the console script call main() with argv=None.
    assert main([*COMPARE_ARGS, "--out", str(tmp_path / "inproc")]) == 0
    done = _python("-m", "casebias", *COMPARE_ARGS, "--out", "sub", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sub" / "compare.json").read_bytes() == (
        tmp_path / "inproc" / "compare.json"
    ).read_bytes()

    monkeypatch.setenv("COLUMNS", "80")
    done = _python("-m", "casebias", "--help")
    assert done.returncode == 0
    assert done.stdout == _surface(["--help"])["stdout"]
    assert done.stderr == ""


def test_main_builds_each_parser_once(tmp_path, fresh_parser):
    # Exact --name value pairs of a command build no parser.
    for _ in range(2):
        assert main([*COMPARE_ARGS, "--out", str(tmp_path)]) == 0
    assert fresh_parser.cache_info()[:2] == (0, 0)  # (hits, misses): never called
    # Every other argv shares the one parser that holds all nine, built once.
    argvs = [["comp"], ["x"], [], ["--out", "o"], ["-n"], ["Compare"],
             *([command, "--bogus"] for command in COMMANDS)]
    for argv in argvs:
        assert main(argv) == 1
    assert fresh_parser.cache_info()[:2] == (len(argvs) - 1, 1)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.skipif(not (PERFBENCH / "workloads.py").exists(), reason="perfbench/ is absent")
def test_benchmark_cli_argv_is_read_without_argparse(tmp_path, monkeypatch):
    # Every argv the cli-reports workload runs, on the seeds 1-10 its benchmark uses, is
    # read by the exact path into the nine-command parser's Namespace; main builds no parser.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    parser = _build_parser()
    fresh = _fresh_parser(monkeypatch)
    read = []

    def stop(args, table):  # record what main resolves, then fail before any command runs
        read.append(args)
        raise cli._CliError("stop")

    monkeypatch.setattr(cli, "_resolve", stop)
    for seed in range(1, 11):
        (tmp_path / str(seed)).mkdir()
        bench = workloads.CliReports(seed, "full", tmp_path / str(seed))
        assert bench.commands
        for label, argv in bench.commands:
            full = [*argv, "--out", str(bench.out_root / label)]
            assert cli._exact_args(full) is not None, (seed, label)
            read.clear()
            assert _surface(full) == {"stdout": "", "stderr": "error: stop\n", "status": 1}
            assert read == [parser.parse_args(full)], (seed, label)
    assert fresh.cache_info()[:2] == (0, 0)


def _compare_json(out, *extra):
    assert main([*COMPARE_EQUALS, *extra, "--out", str(out)]) == 0
    return (out / "compare.json").read_bytes()


def test_a_cached_parser_carries_no_option_into_the_next_call(tmp_path, monkeypatch):
    _fresh_parser(monkeypatch)
    first_call = _compare_json(tmp_path / "first")
    _fresh_parser(monkeypatch)
    with_neff = _compare_json(tmp_path / "neff", "--neff1", "15", "--neff2", "20")
    assert "z_eff" in json.loads(with_neff)["outputs"]
    again = _compare_json(tmp_path / "again")
    assert "z_eff" not in json.loads(again)["outputs"]
    assert again == first_call


@pytest.mark.parametrize(
    "failing",
    [["compare", "--n1", "1", "--bogus", "2"], ["compare", "--n", "1"], ["compare", "--n1"],
     ["compare", "--n1", "nan"], [*COMPARE_ARGS, "--neff1", "15"]],
    ids=["unknown-option", "ambiguous-prefix", "missing-value", "domain", "neff-alone"],
)
def test_a_failed_call_leaves_the_cached_parser_unchanged(tmp_path, monkeypatch, failing):
    _fresh_parser(monkeypatch)
    want = _surface([*COMPARE_EQUALS, "--out", str(tmp_path / "first")])
    first_call = (tmp_path / "first" / "compare.json").read_bytes()
    _fresh_parser(monkeypatch)
    assert _surface([*failing, "--out", str(tmp_path / "failed")])["status"] == 1
    assert not (tmp_path / "failed").exists()
    got = _surface([*COMPARE_EQUALS, "--out", str(tmp_path / "again")])
    assert got == {**want, "stdout": want["stdout"].replace("first", "again")}
    assert (tmp_path / "again" / "compare.json").read_bytes() == first_call


@pytest.mark.parametrize("reverse", [False, True], ids=["sorted", "reversed"])
def test_parser_surface_is_pinned_when_every_parser_is_reused(
    tmp_path, monkeypatch, fresh_parser, reverse
):
    # Each case runs twice in one process, the second time on the parser that
    # another case built, in the other order.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    pinned = json.loads(SURFACE.read_text())
    order = sorted(SURFACE_CASES, reverse=reverse)
    for case in order + order[::-1]:
        assert _surface(SURFACE_CASES[case]) == pinned[case], case
    assert fresh_parser.cache_info().misses == 1


@pytest.mark.parametrize("case", ["help", "compare-help"])
def test_cached_parser_lays_out_help_for_the_width_at_print_time(monkeypatch, fresh_parser, case):
    monkeypatch.setenv("COLUMNS", "200")
    wide = _surface(SURFACE_CASES[case])
    monkeypatch.setenv("COLUMNS", "80")
    assert _surface(SURFACE_CASES[case]) == json.loads(SURFACE.read_text())[case] != wide


if __name__ == "__main__":
    # Rewrite the pinned parser surface from the code on sys.path:
    #   COLUMNS=80 PYTHONPATH=src python tests/test_cli.py   (run from a scratch directory)
    pinned = {case: _surface(argv) for case, argv in SURFACE_CASES.items()}
    SURFACE.parent.mkdir(exist_ok=True)
    SURFACE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    main([*MC_VERIFY_PERFECT_ARGS, "--out", "."])
    MC_VERIFY_PERFECT.write_bytes(Path("mc_verify.json").read_bytes())
