"""Exact stdout of the result-printing commands on the fixtures.

Each case's expected output is a file under `fixtures/cli/`, compared byte
for byte, so a reordered, missing or mis-rendered line fails here even where
the substring checks of `test_cli.py` would pass.
"""
import pytest

from repcause.cli import main

from conftest import fixture_path

REGISTRAR_Q2_JOHN = ("example_registrar.cdl", "--query", "Q2", "--answer", "john")

CASES = {
    "repairs_tuple": ("repairs", "example1.cdl"),
    "repairs_tuple_disjunctive": ("repairs", "example2.cdl"),
    "repairs_tuple_cardinality": ("repairs", "example5.cdl", "--minimality", "cardinality"),
    "repairs_null": ("repairs", "example6.cdl", "--semantics", "null"),
    "repairs_null_cardinality": (
        "repairs", "example6.cdl", "--semantics", "null", "--minimality", "cardinality",
    ),
    "repairs_ics": ("repairs", *REGISTRAR_Q2_JOHN, "--ics"),
    "causes_tuple": ("causes", "example1.cdl"),
    "causes_tuple_ics": ("causes", *REGISTRAR_Q2_JOHN, "--ics"),
    "causes_null_attribute": ("causes", "example7.cdl", "--semantics", "null"),
    "causes_null_tuple": (
        "causes", "example7.cdl", "--semantics", "null", "--level", "tuple",
    ),
    "responsibility_tuple": ("responsibility", "example1.cdl"),
    "responsibility_tuple_ics": ("responsibility", *REGISTRAR_Q2_JOHN, "--ics"),
    "responsibility_null_attribute": (
        "responsibility", "example6.cdl", "--semantics", "null",
    ),
    "responsibility_null_tuple": (
        "responsibility", "example6.cdl", "--semantics", "null", "--level", "tuple",
    ),
    "check_tuple": (
        "check", "example1.cdl", "--models", str(fixture_path("example1_models.txt")),
    ),
    "check_null": (
        "check", "example6.cdl", "--semantics", "null",
        "--models", str(fixture_path("example6_models.txt")),
    ),
    # one solver model for three repairs: two repairs stay unmatched, exit 1
    "check_mismatch": (
        "check", "example1.cdl", "--models", str(fixture_path("example1_models_best.txt")),
    ),
    "eval_boolean": ("eval", "example1.cdl"),
    "eval_open": ("eval", "example_registrar.cdl", "--query", "Q2"),
    "eval_grounded": ("eval", "example_registrar.cdl", "--query", "Q2", "--answer", "zoe"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(capsys, case, fmt):
    command, fixture, *flags = CASES[case]
    code = main([command, str(fixture_path(fixture)), *flags, "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1 if case == "check_mismatch" else 0, "")
    expected = fixture_path("cli") / f"{case}.{fmt}"
    assert captured.out == expected.read_text(encoding="utf-8")



# `--help` of the program and of each command; the text is wrapped to
# COLUMNS, so the test pins it
HELP = {
    "help_repcause": (),
    **{f"help_{c}": (c,) for c in (
        "repairs", "causes", "responsibility", "emit-asp", "check", "eval",
    )},
}

EXAMPLE1 = str(fixture_path("example1.cdl"))

# usage errors: exit 1, the usage line and the message on stderr
USAGE_ERRORS = {
    "usage_unknown_flag": ("repairs", EXAMPLE1, "--nope"),
    "usage_bad_choice": ("repairs", EXAMPLE1, "--format", "JSON"),
    "usage_no_input": ("repairs",),
    "usage_no_models": ("check", EXAMPLE1),
}


@pytest.mark.parametrize("case", sorted(HELP))
def test_help_matches_golden(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    code = main([*HELP[case], "--help"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (fixture_path("cli") / f"{case}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_matches_golden(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(USAGE_ERRORS[case]))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (fixture_path("cli") / f"{case}.err").read_text(encoding="utf-8")
