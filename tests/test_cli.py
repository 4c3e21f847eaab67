import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repcause
from repcause import programs_equivalent
from repcause.cli import main

from conftest import fixture_path, read_fixture


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRepairs:
    def test_tuple_semantics_text(self, capsys):
        code, out, _ = run(capsys, "repairs", fixture_path("example1.cdl"))
        assert code == 0
        assert "repair 1: removed {6}" in out
        assert "repair 2: removed {1, 3}" in out
        assert "repair 3: removed {3, 4}" in out

    def test_tuple_semantics_json(self, capsys):
        code, out, _ = run(
            capsys, "repairs", fixture_path("example1.cdl"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["removed"] for r in payload["repairs"]] == [[6], [1, 3], [3, 4]]
        assert all("tuples" in r for r in payload["repairs"])

    def test_cardinality_minimality(self, capsys):
        code, out, _ = run(
            capsys,
            "repairs",
            fixture_path("example1.cdl"),
            "--minimality",
            "cardinality",
        )
        assert code == 0
        assert "removed {6}" in out
        assert "removed {1, 3}" not in out

    def test_null_semantics_cardinality(self, capsys):
        code, out, _ = run(
            capsys,
            "repairs",
            fixture_path("example6.cdl"),
            "--semantics",
            "null",
            "--minimality",
            "cardinality",
        )
        assert code == 0
        assert out.count("repair ") == 1
        assert "delta {S[5;1]}" in out

    def test_null_semantics_json_delta(self, capsys):
        code, out, _ = run(
            capsys,
            "repairs",
            fixture_path("example12.cdl"),
            "--semantics",
            "null",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["delta"] for r in payload["repairs"]] == [["P[8;2]"], ["R[9;1]"]]

    def test_hard_ics(self, capsys):
        code, out, _ = run(
            capsys,
            "repairs",
            fixture_path("example_registrar.cdl"),
            "--ics",
            "--query",
            "Q2",
            "--answer",
            "john",
        )
        assert code == 0
        assert "removed {1, 4, 8}" in out

    def test_ics_with_null_semantics_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "repairs",
            fixture_path("example6.cdl"),
            "--semantics",
            "null",
            "--ics",
        )
        assert code == 1
        assert "tuple semantics" in err


class TestCauses:
    def test_tuple_causes_text(self, capsys):
        code, out, _ = run(capsys, "causes", fixture_path("example1.cdl"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tid 6: responsibility 1 (counterfactual)"
        assert "tid 1: responsibility 1/2" in out
        assert "  contingency {3}" in out

    def test_tuple_causes_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "causes", fixture_path("example1.cdl"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        first = payload["causes"][0]
        assert first == {
            "id": 6,
            "responsibility": {"num": 1, "den": 1},
            "counterfactual": True,
            "contingency_sets": [[]],
        }

    def test_attribute_causes_for_null_semantics(self, capsys):
        code, out, _ = run(
            capsys, "causes", fixture_path("example7.cdl"), "--semantics", "null"
        )
        assert code == 0
        assert "S[2;1] = a3: responsibility 1 (counterfactual)" in out
        assert "R[3;1] = a3: responsibility 1/3" in out

    def test_tuple_level_causes_for_null_semantics(self, capsys):
        code, out, _ = run(
            capsys,
            "causes",
            fixture_path("example7.cdl"),
            "--semantics",
            "null",
            "--level",
            "tuple",
        )
        assert code == 0
        assert "tid 2: responsibility 1" in out
        assert "tid 3: responsibility 1/3" in out

    def test_causes_under_hard_ics(self, capsys):
        code, out, _ = run(
            capsys,
            "causes",
            fixture_path("example_registrar.cdl"),
            "--ics",
            "--query",
            "Q2",
            "--answer",
            "john",
        )
        assert code == 0
        assert "tid 4: responsibility 1/3" in out
        assert "tid 8: responsibility 1/3" in out

    def test_open_query_requires_an_answer(self, capsys):
        code, _, err = run(
            capsys, "causes", fixture_path("example_registrar.cdl"), "--query", "Q2"
        )
        assert code == 1
        assert "--answer" in err

    @pytest.mark.parametrize(
        "flag", ["--max-contingency-count", "--max-contingency-size"]
    )
    def test_negative_contingency_cap_is_a_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "causes", fixture_path("example1.cdl"), flag, "-1")
        assert code == 1
        assert out == ""
        assert "non-negative" in err

    def test_contingency_caps_trim_the_listing(self, capsys):
        code, out, _ = run(
            capsys,
            "causes",
            fixture_path("example1.cdl"),
            "--max-contingency-count",
            "0",
        )
        assert code == 0
        assert "tid 1: responsibility 1/2" in out
        assert "contingency" not in out

    @pytest.mark.parametrize(
        "flag", ["--max-contingency-count", "--max-contingency-size"]
    )
    def test_contingency_caps_apply_under_ics(self, capsys, flag):
        code, out, _ = run(
            capsys,
            "causes",
            fixture_path("example_registrar.cdl"),
            "--query",
            "Q2",
            "--answer",
            "john",
            "--ics",
            flag,
            "0",
        )
        assert code == 0
        assert out == "tid 4: responsibility 1/3\ntid 8: responsibility 1/3\n"

    def test_responsibility_omits_contingency_sets(self, capsys):
        code, out, _ = run(capsys, "responsibility", fixture_path("example1.cdl"))
        assert code == 0
        assert "contingency" not in out
        assert "tid 6: responsibility 1 (counterfactual)" in out


class TestEmitAsp:
    def test_tuple_program_matches_golden(self, capsys):
        code, out, _ = run(capsys, "emit-asp", fixture_path("example1.cdl"))
        assert code == 0
        assert programs_equivalent(out, read_fixture("example1_nondisj.dlv"))

    def test_null_program_matches_golden(self, capsys):
        code, out, _ = run(
            capsys, "emit-asp", fixture_path("example7.cdl"), "--semantics", "null"
        )
        assert code == 0
        assert programs_equivalent(out, read_fixture("example7_null.dlv"))

    def test_include_blocks(self, capsys):
        code, out, _ = run(
            capsys,
            "emit-asp",
            fixture_path("example1.cdl"),
            "--include",
            "causes,cau_cont,contingency_sets,pre_rho,weak_constraints",
        )
        assert code == 0
        assert programs_equivalent(out, read_fixture("example1_weak.dlv"))

    def test_bad_include_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "emit-asp", fixture_path("example1.cdl"), "--include", "bogus"
        )
        assert code == 1
        assert "bogus" in err


class TestCheck:
    def test_matching_models_exit_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("example1.cdl"),
            "--models",
            fixture_path("example1_models.txt"),
        )
        assert code == 0
        assert "bijective" in out

    def test_null_models(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("example13.cdl"),
            "--semantics",
            "null",
            "--models",
            fixture_path("example13_models.txt"),
        )
        assert code == 0
        assert "bijective" in out

    def test_mismatch_exits_one(self, capsys, tmp_path):
        models = tmp_path / "models.txt"
        models.write_text("{S_a(6,a3,d)}\n")
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("example1.cdl"),
            "--models",
            models,
        )
        assert code == 1
        assert "MISMATCH" in out


    def test_missing_models_file_exits_one(self, capsys, tmp_path):
        missing = tmp_path / "no-such-models.txt"
        code, out, err = run(
            capsys, "check", fixture_path("example1.cdl"), "--models", missing
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"repcause: cannot read {missing}")


class TestEval:
    def test_boolean_query(self, capsys):
        code, out, _ = run(capsys, "eval", fixture_path("example1.cdl"))
        assert code == 0
        assert out.strip() == "true"

    def test_open_query_rows(self, capsys):
        code, out, _ = run(
            capsys, "eval", fixture_path("example_registrar.cdl"), "--query", "Q2"
        )
        assert code == 0
        assert out.splitlines() == ["eli", "john", "kevin", "patrick"]

    def test_open_query_with_answer(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            fixture_path("example_registrar.cdl"),
            "--query",
            "Q2",
            "--answer",
            "zoe",
        )
        assert code == 0
        assert out.strip() == "false"


class TestExitCodes:
    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.cdl"
        bad.write_text("R(a,.\n")
        code, _, err = run(capsys, "eval", bad)
        assert code == 2
        assert "parse error" in err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="integer-string conversion has no limit before Python 3.11",
    )
    def test_over_long_integer_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.cdl"
        bad.write_text("R(1; a).\nR(2; " + "9" * 5000 + ").\n")
        code, out, err = run(capsys, "repairs", bad)
        assert (code, out) == (2, "")
        assert err == (
            "repcause: parse error: integer literal too long (5000 digits) "
            "(line 2, column 6)\n"
        )

    def test_malformed_inclusion_dependency_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.cdl"
        bad.write_text("R(1; a). S(2; b).\nR(X) -> S(X, c).\n")
        code, _, err = run(capsys, "repairs", bad, "--ics")
        assert code == 2
        assert "inclusion dependency" in err

    def test_constraint_with_1200_atoms_is_evaluated(self, capsys, tmp_path):
        # the body matcher walks the atoms without recursion, so a body far
        # longer than the interpreter's recursion limit still matches
        deep = tmp_path / "deep.cdl"
        atoms = ", ".join(f"S(X{i})" for i in range(1, 1201))
        deep.write_text(f"S(1; a).\n:- {atoms}.\n")
        code, out, err = run(capsys, "repairs", deep)
        assert code == 0
        assert out == "repair 1: removed {1}\n  {}\n"
        assert err == ""

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_input_too_large_exits_one_without_traceback(
        self, capsys, monkeypatch, error
    ):
        def boom(*args, **kwargs):
            raise error("too big")

        monkeypatch.setattr("repcause.cli.s_repairs", boom)
        code, out, err = run(capsys, "repairs", fixture_path("example1.cdl"))
        assert code == 1
        assert out == ""
        assert err == f"repcause: input too large: {error.__name__}\n"

    def test_runs_as_python_module(self, capsys):
        # `python -m repcause` is the CLI, byte for byte
        src = str(Path(repcause.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "repcause", "causes", str(fixture_path("example1.cdl"))],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        code, out, _ = run(capsys, "causes", fixture_path("example1.cdl"))
        assert (result.returncode, result.stdout) == (code, out)

    def test_missing_file_exits_one(self, capsys):
        code, _, _ = run(capsys, "eval", "no-such-file.cdl")
        assert code == 1

    def test_unknown_flag_exits_one(self, capsys):
        code, _, _ = run(capsys, "repairs", fixture_path("example1.cdl"), "--nope")
        assert code == 1


class TestEnvironmentDefaults:
    def test_env_sets_format(self, capsys, monkeypatch):
        monkeypatch.setenv("REPCAUSE_FORMAT", "json")
        code, out, _ = run(capsys, "repairs", fixture_path("example1.cdl"))
        assert code == 0
        json.loads(out)

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPCAUSE_FORMAT", "json")
        code, out, _ = run(
            capsys, "repairs", fixture_path("example1.cdl"), "--format", "text"
        )
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


    @pytest.mark.parametrize(
        "name, value",
        [
            ("FORMAT", "JSON"),  # checked against the flag's choices
            ("SEMANTICS", "tupel"),
            ("MINIMALITY", "card"),
            ("FLAVOR", "disjunct"),
            ("MAXINT", "abc"),  # checked by the flag's type
            ("ICS", "true"),  # 1 or 0
        ],
    )
    def test_bad_env_value_is_a_usage_error(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(f"REPCAUSE_{name}", value)
        code, out, err = run(capsys, "repairs", fixture_path("example1.cdl"))
        assert (code, out) == (1, "")
        assert err == f"repcause: invalid value for REPCAUSE_{name}: {value!r}\n"

    @pytest.mark.parametrize("value, removed", [("1", "{1, 4, 8}"), ("0", "{4, 8}")])
    def test_env_sets_ics(self, capsys, monkeypatch, value, removed):
        monkeypatch.setenv("REPCAUSE_ICS", value)
        code, out, _ = run(
            capsys, "repairs", fixture_path("example_registrar.cdl"),
            "--query", "Q2", "--answer", "john",
        )
        assert code == 0
        assert out.startswith(f"repair 1: removed {removed}\n")

    def test_env_sets_maxint(self, capsys, monkeypatch):
        monkeypatch.setenv("REPCAUSE_MAXINT", "7")
        code, out, _ = run(
            capsys, "emit-asp", fixture_path("example1.cdl"),
            "--include", "causes,cau_cont,pre_rho",
        )
        assert code == 0
        assert "#maxint = 7." in out.splitlines()


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_consecutive_runs_are_byte_identical(self, capsys, fmt):
        runs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "causes", fixture_path("example1.cdl"), "--format", fmt
            )
            runs.append(out)
        assert runs[0] == runs[1]
