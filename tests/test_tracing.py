"""The benchmark's tracer (`perfbench/tracing.py`) finds every engine
function it names in `TARGETS` and records spans for them, so renaming or
deleting one of them fails here rather than only in a traced benchmark run.
"""
import sys
from pathlib import Path

from repcause import cli

from conftest import fixture_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer  # noqa: E402


def test_tracer_records_the_engine_layers(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        causes = ["causes", str(fixture_path("example_registrar.cdl")), "--ics"]
        assert cli.main([*causes, "--query", "Q2", "--answer", "john"]) == 0
        repairs = ["repairs", str(fixture_path("example6.cdl")), "--semantics", "null"]
        assert cli.main(repairs) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = {name for name, _ in tracer.calls}
    assert {
        "cli.main",
        "lang.parse_problem",
        "model.Instance.add_fact",
        "lang.satisfies_ids",
        "lang.unsupported_premises",
        "lang.violations",
        "tuple_repairs.conflict_hypergraph",
        "tuple_repairs.minimal_hitting_sets",
        "tuple_causes.actual_causes_under_ics",
        "null_repairs.null_repairs",
    } <= recorded
    assert not hasattr(cli.main, "__wrapped__")
