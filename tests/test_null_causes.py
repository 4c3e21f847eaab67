from fractions import Fraction

import pytest

from repcause import (
    LangError,
    PositionRef,
    attr_causes,
    diff_null,
    eval_bcq,
    is_actual_attr_cause,
    parse_problem,
    tuple_null_causes,
)


def by_position(reports):
    return {r.position: r for r in reports}


def by_tid(reports):
    return {r.tid: r for r in reports}


@pytest.mark.parametrize("causes", [attr_causes, tuple_null_causes])
def test_open_query_is_rejected(causes):
    problem = parse_problem("S(a).\nq(X) :- S(X)?")
    with pytest.raises(LangError, match="open"):
        causes(problem.instance, problem.query("q"))


class TestAttributeCauses:
    def test_fan_out_instance(self, load):
        problem = load("example7.cdl")
        reports = by_position(attr_causes(problem.instance, problem.query("q")))
        assert set(reports) == {
            PositionRef("S", 2, 1),
            PositionRef("R", 3, 1),
            PositionRef("R", 4, 1),
            PositionRef("R", 5, 1),
        }
        s21 = reports[PositionRef("S", 2, 1)]
        assert s21.responsibility == Fraction(1)
        assert s21.counterfactual
        for tid in (3, 4, 5):
            r = reports[PositionRef("R", tid, 1)]
            assert r.responsibility == Fraction(1, 3)
            assert not r.counterfactual

    def test_second_attribute_positions_are_not_causes(self, load):
        problem = load("example7.cdl")
        reports = by_position(attr_causes(problem.instance, problem.query("q")))
        for tid in (3, 4, 5):
            assert PositionRef("R", tid, 2) not in reports

    def test_triangle_instance_responsibilities(self, load):
        problem = load("example6.cdl")
        reports = by_position(attr_causes(problem.instance, problem.query("q")))
        assert reports[PositionRef("S", 5, 1)].responsibility == Fraction(1)
        assert reports[PositionRef("R", 2, 1)].responsibility == Fraction(1, 2)
        assert reports[PositionRef("R", 3, 2)].responsibility == Fraction(1, 2)

    def test_original_values_are_reported(self, load):
        problem = load("example6.cdl")
        reports = by_position(attr_causes(problem.instance, problem.query("q")))
        assert reports[PositionRef("S", 5, 1)].original_value.render() == "a3"

    def test_false_query_has_no_causes(self):
        problem = parse_problem("S(a).\nq :- S(X), R(X, Y)?")
        assert attr_causes(problem.instance, problem.query("q")) == []

    def test_sorted_by_responsibility_then_position(self, load):
        problem = load("example7.cdl")
        reports = attr_causes(problem.instance, problem.query("q"))
        assert reports[0].position == PositionRef("S", 2, 1)
        assert [r.position.tid for r in reports[1:]] == [3, 4, 5]


class TestTupleLevelCauses:
    def test_fan_out_instance(self, load):
        problem = load("example7.cdl")
        reports = by_tid(tuple_null_causes(problem.instance, problem.query("q")))
        assert set(reports) == {2, 3, 4, 5}
        assert reports[2].responsibility == Fraction(1)
        for tid in (3, 4, 5):
            assert reports[tid].responsibility == Fraction(1, 3)

    def test_triangle_instance(self, load):
        problem = load("example6.cdl")
        reports = by_tid(tuple_null_causes(problem.instance, problem.query("q")))
        assert reports[5].responsibility == Fraction(1)
        assert reports[2].responsibility == Fraction(1, 2)

    def test_false_query_has_no_causes(self):
        problem = parse_problem("S(a).\nR(b, a).\nq :- S(X), R(X, Y)?")
        assert tuple_null_causes(problem.instance, problem.query("q")) == []

    def test_witness_positions_belong_to_the_tuple(self, load):
        problem = load("example6.cdl")
        for report in tuple_null_causes(problem.instance, problem.query("q")):
            assert report.witness_positions
            assert all(p.tid == report.tid for p in report.witness_positions)


class TestDiffNull:
    def test_change_sets_through_a_position(self, load):
        problem = load("example6.cdl")
        sets = diff_null(problem.instance, problem.query("q"), PositionRef("R", 2, 1))
        assert all(PositionRef("R", 2, 1) in d for d in sets)
        assert {len(d) for d in sets} == {2}

    def test_counterfactual_position_has_a_singleton_set(self, load):
        problem = load("example6.cdl")
        sets = diff_null(problem.instance, problem.query("q"), PositionRef("S", 5, 1))
        assert sets == [frozenset({PositionRef("S", 5, 1)})]


class TestDirectDefinitions:
    def test_counterfactual_check(self, load):
        problem = load("example7.cdl")
        q = problem.query("q")
        # a true query's counterfactual causes are the positions whose
        # nulling alone falsifies it
        flagged = {r.position for r in attr_causes(problem.instance, q) if r.counterfactual}
        assert flagged == {
            ref
            for ref in problem.instance.non_null_positions()
            if not eval_bcq(problem.instance.apply_update([ref]), q)
        }
        assert PositionRef("S", 2, 1) in flagged
        assert PositionRef("R", 3, 1) not in flagged

    def test_actual_cause_check_agrees_with_repair_route(self, load):
        problem = load("example7.cdl")
        q = problem.query("q")
        repair_route = {r.position for r in attr_causes(problem.instance, q)}
        for ref in problem.instance.non_null_positions():
            assert is_actual_attr_cause(problem.instance, q, ref) == (
                ref in repair_route
            )
