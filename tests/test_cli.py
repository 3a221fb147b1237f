import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from casebias import _domain, cli
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


def test_neff_missing_required():
    assert main(["neff"]) == 1


def test_neff_fp_without_fn(tmp_path):
    assert run(tmp_path, "neff", "--f", "0.026", "--fp", "0.005") == 1


def test_neff_equal_rates_exit_2(tmp_path):
    assert run(tmp_path, "neff", "--f", "0.026", "--m-grid", "1") == 2


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


def test_sensitivity_infeasible_exit_2(tmp_path):
    # A small anchor cannot produce a large negative error; no differential fits.
    assert (
        run(
            tmp_path,
            "sensitivity",
            "--survey-prev", "0.5",
            "--observed-prev", "0.01",
            "--ybar-anchor", "0.05",
            "--f", "0.001",
            "--fp", "0.005",
            "--fn", "0.172",
        )
        == 2
    )


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


def test_sensitivity_series_requires_date(tmp_path):
    series = tmp_path / "cases.csv"
    series.write_text("date,total_tests,positive_tests\n2020-04-18,10,1\n")
    assert (
        run(
            tmp_path,
            "sensitivity",
            "--series", str(series),
            "--survey-raw", "0.139",
            "--f", "0.001",
            "--fp", "0.005",
            "--fn", "0.172",
        )
        == 1
    )


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


@pytest.mark.parametrize("value", ["0", "1"])
def test_decompose_empirical_constant_population_is_infeasible(tmp_path, value):
    argv = [*DECOMPOSE_ARGS, "--ybar", value, "--empirical", "true", "--seed", "1"]
    assert run(tmp_path, *argv, "--size", "1000") == 2


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
# A scenario each command runs to exit 0, and the file it writes; "{tmp}" is the
# test's directory, where allocate's strata file is written.
DOMAIN_BASE = {
    "decompose": ({"ybar": "0.091", "f": "0.026", "m": "2"}, "decomposition.json"),
    "neff": ({"f": "0.026"}, "neff_table.csv"),
    "sir": ({"beta": "1.4", "gamma-rec": "0.2", "horizon": "20"}, "trajectory.csv"),
    "bias-curves": ({"horizon": "20"}, "bias_curves.csv"),
    "rt-gap": ({"horizon": "20"}, "rt_gap.csv"),
    "sensitivity": (
        {"f": "0.001", "fp": "0.005", "fn": "0.172", "observed-prev": "0.325",
         "survey-prev": "0.159"},
        "sensitivity.json",
    ),
    "compare": (
        {"n1": "328e6", "n2": "38e6", "f1": "0.023", "f2": "0.023", "ybar1": "0.1",
         "ybar2": "0.1", "neff1": "15", "neff2": "15"},
        "compare.json",
    ),
    "allocate": (
        {"strata": "{tmp}/strata.csv", "n": "1000", "population": "1e6"}, "allocation.csv"
    ),
    "mc-verify": ({"seed": "1", "reps": "10", "size": "1000"}, "mc_verify.json"),
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
def test_domain_base_scenarios_run(tmp_path, command):
    argv = _base_argv(tmp_path, command)
    filename = DOMAIN_BASE[command][1]
    assert run(tmp_path, command, *argv) == 0
    assert (tmp_path / filename).exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, opt", DOMAIN_OPTS, ids=_domain_ids(DOMAIN_OPTS))
def test_declared_domain_is_checked(tmp_path, capsys, command, opt, source):
    # The base scenario runs to exit 0 without this one out-of-domain value.
    filename = DOMAIN_BASE[command][1]
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
    assert not (out / filename).exists()
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
    err = capsys.readouterr().err
    assert err.startswith("infeasible: the corner fp = 0.1")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("ybar", ["0", "1"])
def test_compare_with_zero_pooled_variance_is_infeasible(tmp_path, capsys, ybar):
    argv = ["compare", "--n1", "328e6", "--n2", "38e6", "--f1", "0.023", "--f2", "0.023",
            "--ybar1", ybar, "--ybar2", ybar]
    assert run(tmp_path, *argv) == 2
    assert not (tmp_path / "compare.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("infeasible: zero pooled variance")
    assert "Traceback" not in err


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


SENSITIVITY_ARGS = ["sensitivity", "--f", "0.001", "--fp", "0.005", "--fn", "0.172",
                    "--observed-prev", "0.325"]


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


def test_cli_import_does_not_load_scipy():
    code = "import sys, casebias.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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


def _subcommands(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


@pytest.mark.parametrize("first", [None, "--help", "-h", "--version", "comp", "--out"])
def test_parser_builds_every_subparser_without_a_command(first):
    assert _subcommands(_build_parser(first)) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_builds_only_the_named_subparser(command):
    assert _subcommands(_build_parser(command)) == [command]


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), COLUMNS="80")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=60
    )


COMPARE_ARGS = ["compare", "--n1", "328e6", "--n2", "38e6", "--f1", "0.023", "--f2", "0.023",
                "--ybar1", "0.1", "--ybar2", "0.1"]


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


if __name__ == "__main__":
    # Rewrite the pinned parser surface from the code on sys.path:
    #   COLUMNS=80 PYTHONPATH=src python tests/test_cli.py   (run from a scratch directory)
    pinned = {case: _surface(argv) for case, argv in SURFACE_CASES.items()}
    SURFACE.parent.mkdir(exist_ok=True)
    SURFACE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    main([*MC_VERIFY_PERFECT_ARGS, "--out", "."])
    MC_VERIFY_PERFECT.write_bytes(Path("mc_verify.json").read_bytes())
