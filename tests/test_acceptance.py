"""End-to-end acceptance checks.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output) and covers one advertised guarantee of
the package.
"""
import io
from contextlib import redirect_stdout
from fractions import Fraction

from repcause import (
    EmitOptions,
    PositionRef,
    actual_causes,
    actual_causes_under_ics,
    attr_causes,
    c_repairs,
    cardinality_null_repairs,
    conflict_hypergraph,
    emit_null_repair_program,
    emit_tuple_repair_program,
    most_responsible_causes,
    negate_query_to_dc,
    null_repairs,
    parse_problem,
    programs_equivalent,
    s_repairs,
    s_repairs_under_hard_ics,
    substitute_answer,
    sym,
    tuple_null_causes,
    verify_model_correspondence,
)
from repcause.cli import main as cli_main

from conftest import fixture_path, read_fixture


def report(number, description):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}", flush=True)
                raise
            print(f"criterion {number}: PASS - {description}", flush=True)

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


def load(name):
    return parse_problem(read_fixture(name))


def refs(*specs):
    return frozenset(PositionRef(rel, tid, pos) for rel, tid, pos in specs)


@report(1, "join-query causes, S-repairs and C-repair")
def test_criterion_01_join_query_reproduction():
    problem = load("example1.cdl")
    query = problem.query("q")
    reports = {r.tid: r for r in actual_causes(problem.instance, query)}
    assert {t: r.responsibility for t, r in reports.items()} == {
        6: Fraction(1),
        1: Fraction(1, 2),
        3: Fraction(1, 2),
        4: Fraction(1, 2),
    }
    dcs = negate_query_to_dc(query)
    assert [set(r.removed) for r in s_repairs(problem.instance, dcs)] == [
        {6},
        {1, 3},
        {3, 4},
    ]
    assert [set(r.removed) for r in c_repairs(problem.instance, dcs)] == [{6}]


@report(2, "union query causes and repairs under two constraints")
def test_criterion_02_union_query_reproduction():
    problem = load("example2.cdl")
    query = problem.query("q")
    reports = {r.tid: r for r in actual_causes(problem.instance, query)}
    assert set(reports) == {1, 3, 4}  # P(a), Q(a,b), R(a,c)
    assert reports[1].responsibility == Fraction(1)
    assert most_responsible_causes(problem.instance, query) == [1]
    dcs = negate_query_to_dc(query)
    repairs = {frozenset(r.removed): r.repair for r in s_repairs(problem.instance, dcs)}
    assert set(repairs) == {frozenset({1}), frozenset({3, 4})}
    assert repairs[frozenset({3, 4})].render() == "{P(1;a), P(2;e)}"
    assert repairs[frozenset({1})].render() == "{P(2;e), Q(3;a,b), R(4;a,c)}"
    assert [set(r.removed) for r in c_repairs(problem.instance, dcs)] == [{1}]


@report(3, "conflict hypergraph, repair counts and a shared-tuple responsibility")
def test_criterion_03_hypergraph_reproduction():
    problem = load("example5.cdl")
    graph = conflict_hypergraph(problem.instance, problem.dcs)
    assert graph.edges == {
        frozenset({2, 5}),
        frozenset({2, 3, 4}),
        frozenset({1, 3}),
    }
    assert len(s_repairs(problem.instance, problem.dcs)) == 4
    minimum = c_repairs(problem.instance, problem.dcs)
    assert len(minimum) == 3
    assert all(len(r.removed) == 2 for r in minimum)
    reports = {r.tid: r for r in actual_causes(problem.instance, problem.query("q"))}
    assert reports[1].responsibility == Fraction(1, 2)


@report(4, "value-to-null repairs of the triangle instance")
def test_criterion_04_null_repair_reproduction():
    problem = load("example6.cdl")
    dcs = negate_query_to_dc(problem.query("q"))
    deltas = {r.delta for r in null_repairs(problem.instance, dcs)}
    listed = {
        refs(("S", 5, 1)),
        refs(("R", 2, 1), ("R", 3, 2)),
        refs(("R", 2, 2), ("R", 3, 2)),
        refs(("R", 2, 2), ("R", 3, 1)),
        refs(("R", 2, 1), ("S", 6, 1)),
        refs(("R", 2, 2), ("S", 6, 1)),
    }
    assert listed <= deltas
    # one further minimal change set exists; the solver cross-check below
    # (criterion 9 fixtures) exhibits the same seven models
    assert deltas - listed == {refs(("R", 2, 1), ("R", 3, 1))}
    assert {r.delta for r in cardinality_null_repairs(problem.instance, dcs)} == {
        refs(("S", 5, 1))
    }
    attr = {r.position: r for r in attr_causes(problem.instance, problem.query("q"))}
    assert attr[PositionRef("R", 2, 1)].responsibility == Fraction(1, 2)
    tup = {r.tid: r for r in tuple_null_causes(problem.instance, problem.query("q"))}
    assert tup[2].responsibility == Fraction(1, 2)


@report(5, "fan-out instance: attribute causes and counterfactual position")
def test_criterion_05_fan_out_reproduction():
    problem = load("example7.cdl")
    query = problem.query("q")
    dcs = negate_query_to_dc(query)
    sizes = sorted(len(r.delta) for r in null_repairs(problem.instance, dcs))
    assert sizes == [1, 3]
    attr = {r.position: r for r in attr_causes(problem.instance, query)}
    for tid in (3, 4, 5):
        assert attr[PositionRef("R", tid, 1)].responsibility == Fraction(1, 3)
        assert PositionRef("R", tid, 2) not in attr  # responsibility 0
    assert attr[PositionRef("S", 2, 1)].counterfactual


@report(6, "two-tuple chain: exactly two minimal null repairs")
def test_criterion_06_chain_reproduction():
    problem = load("example12.cdl")
    dcs = negate_query_to_dc(problem.query("q"))
    records = null_repairs(problem.instance, dcs)
    assert {r.repair.render() for r in records} == {
        "{P(8;1,null), R(9;2,1)}",
        "{P(8;1,2), R(9;null,1)}",
    }
    assert all(len(r.delta) == 1 for r in records)


@report(7, "hard inclusion dependency changes responsibilities and repairs")
def test_criterion_07_hard_dependency_reproduction():
    problem = load("example_registrar.cdl")
    q2 = substitute_answer(problem.query("Q2"), [sym("john")])
    plain = {r.tid: r for r in actual_causes(problem.instance, q2)}
    assert plain[4].responsibility == Fraction(1, 2)
    assert plain[8].responsibility == Fraction(1, 2)
    hard = {r.tid: r for r in actual_causes_under_ics(problem.instance, q2, problem.ids)}
    assert hard[4].responsibility == Fraction(1, 3)
    assert hard[8].responsibility == Fraction(1, 3)
    q1 = substitute_answer(problem.query("Q1"), [sym("john")])
    under_q1 = {
        r.tid: r for r in actual_causes_under_ics(problem.instance, q1, problem.ids)
    }
    assert under_q1[1].counterfactual
    dcs = negate_query_to_dc(q2)
    records = s_repairs_under_hard_ics(problem.instance, dcs, problem.ids)
    assert [set(r.removed) for r in records] == [{1, 4, 8}]


@report(8, "oracle equivalence on a random corpus")
def test_criterion_08_oracle_equivalence():
    import test_properties

    test_properties.test_repair_based_causes_match_counterfactual_search()
    test_properties.test_pruned_null_repairs_match_exhaustive_search()


@report(9, "golden program emission and solver-model correspondence")
def test_criterion_09_golden_emission():
    cases = [
        ("example1.cdl", emit_tuple_repair_program, EmitOptions(), "example1_nondisj.dlv"),
        (
            "example5.cdl",
            emit_tuple_repair_program,
            EmitOptions(include=frozenset({"causes", "cau_cont"})),
            "example5_program.dlv",
        ),
        (
            "example7.cdl",
            emit_null_repair_program,
            EmitOptions(),
            "example7_null.dlv",
        ),
        (
            "example13.cdl",
            emit_null_repair_program,
            EmitOptions(),
            "example13_null.dlv",
        ),
    ]
    for fixture, emit, options, golden in cases:
        problem = load(fixture)
        dcs = list(problem.dcs) or negate_query_to_dc(problem.query("q"))
        text = emit(problem.instance, dcs, options)
        assert programs_equivalent(text, read_fixture(golden)), golden

    problem = load("example1.cdl")
    report_ = verify_model_correspondence(
        problem.instance,
        negate_query_to_dc(problem.query("q")),
        read_fixture("example1_models.txt"),
        semantics="tuple",
    )
    assert report_.ok and len(report_.matches) == 3
    problem = load("example13.cdl")
    report_ = verify_model_correspondence(
        problem.instance,
        negate_query_to_dc(problem.query("q")),
        read_fixture("example13_models.txt"),
        semantics="null",
    )
    assert report_.ok and len(report_.matches) == 2


@report(10, "byte-identical output across consecutive runs")
def test_criterion_10_determinism():
    commands = [
        ["repairs", "example1.cdl"],
        ["repairs", "example1.cdl", "--format", "json"],
        ["causes", "example1.cdl"],
        ["causes", "example2.cdl", "--format", "json"],
        ["causes", "example5.cdl"],
        ["repairs", "example6.cdl", "--semantics", "null"],
        ["causes", "example7.cdl", "--semantics", "null", "--format", "json"],
        ["repairs", "example12.cdl", "--semantics", "null"],
        ["emit-asp", "example13.cdl", "--semantics", "null"],
        ["causes", "example_registrar.cdl", "--ics", "--query", "Q2", "--answer", "john"],
    ]
    for argv in commands:
        argv = [str(fixture_path(a)) if a.endswith(".cdl") else a for a in argv]
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(argv)
            assert code == 0, argv
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1], argv
