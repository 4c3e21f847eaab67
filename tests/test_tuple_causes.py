from fractions import Fraction
from itertools import product

import pytest

from repcause import (
    actual_causes,
    actual_causes_under_ics,
    causes_oracle,
    most_responsible_causes,
    parse_problem,
    substitute_answer,
    sym,
)


def by_tid(reports):
    return {r.tid: r for r in reports}


class TestActualCauses:
    def test_join_query_example(self, load):
        problem = load("example1.cdl")
        reports = by_tid(actual_causes(problem.instance, problem.query("q")))
        assert set(reports) == {1, 3, 4, 6}
        assert reports[6].responsibility == Fraction(1)
        assert reports[6].counterfactual
        assert reports[6].contingency_sets == (frozenset(),)
        assert reports[1].responsibility == Fraction(1, 2)
        assert reports[1].contingency_sets == (frozenset({3}),)
        assert reports[3].responsibility == Fraction(1, 2)
        assert set(reports[3].contingency_sets) == {frozenset({1}), frozenset({4})}
        assert reports[4].responsibility == Fraction(1, 2)
        assert reports[4].contingency_sets == (frozenset({3}),)

    def test_contingency_tids_on_a_family_too_big_for_the_oracle(self):
        # 8 disjoint matches {R(ai), S(ai)}: τ's sets take one tuple of each
        # other match, 2^7 of size 7; R and S tids interleave across matches
        k = 8
        matches = [(i, 2 * k + 1 - i) for i in range(1, k + 1)]
        facts = [f"R({r}; a{r}). S({s}; a{r})." for r, s in matches]
        problem = parse_problem("\n".join(facts + ["q :- R(X), S(X)?"]))
        reports = actual_causes(problem.instance, problem.query("q"))
        assert [r.tid for r in reports] == list(range(1, 2 * k + 1))
        for r in reports:
            tids = r.contingency_tids
            assert len(tids) == 2 ** (k - 1)
            assert all(a < b for g in tids for a, b in zip(g, g[1:]))
            assert list(tids) == sorted(tids, key=lambda g: (len(g), g))
            others = [m for m in matches if r.tid not in m]
            assert set(tids) == {tuple(sorted(p)) for p in product(*others)}
            assert r.contingency_sets == tuple(map(frozenset, tids))
            assert r.responsibility == Fraction(1, k)

    def test_reports_sorted_by_responsibility_then_tid(self, load):
        problem = load("example1.cdl")
        reports = actual_causes(problem.instance, problem.query("q"))
        assert [r.tid for r in reports] == [6, 1, 3, 4]

    def test_ucq_example(self, load):
        problem = load("example2.cdl")
        reports = by_tid(actual_causes(problem.instance, problem.query("q")))
        assert set(reports) == {1, 3, 4}
        assert reports[1].responsibility == Fraction(1)
        assert reports[3].responsibility == Fraction(1, 2)
        assert reports[4].responsibility == Fraction(1, 2)

    def test_false_query_has_no_causes(self):
        problem = parse_problem("S(a).\nq :- S(X), R(X, Y)?")
        assert actual_causes(problem.instance, problem.query("q")) == []

    def test_exogenous_tuples_are_never_causes(self, load):
        problem = load("example1.cdl")
        inst = problem.instance._clone_schema()
        for t in problem.instance.tuples():
            inst.add_fact(t.relation, t.values, tid=t.tid, endogenous=t.tid != 3)
        reports = by_tid(actual_causes(inst, problem.query("q")))
        assert set(reports) == {6}

    def test_caps_trim_reported_sets_only(self, load):
        problem = load("example1.cdl")
        reports = by_tid(
            actual_causes(problem.instance, problem.query("q"), max_contingency_count=1)
        )
        assert len(reports[3].contingency_sets) == 1
        assert reports[3].responsibility == Fraction(1, 2)
        reports = by_tid(
            actual_causes(problem.instance, problem.query("q"), max_contingency_size=0)
        )
        assert reports[3].contingency_sets == ()
        assert reports[3].responsibility == Fraction(1, 2)
        # a set of exactly the capped size is kept
        assert reports[6].contingency_sets == (frozenset(),)
        reports = by_tid(
            actual_causes(problem.instance, problem.query("q"), max_contingency_size=1)
        )
        assert reports[1].contingency_sets == (frozenset({3}),)


class TestMostResponsibleCauses:
    def test_join_query_example(self, load):
        problem = load("example1.cdl")
        assert most_responsible_causes(problem.instance, problem.query("q")) == [6]

    def test_ucq_example(self, load):
        problem = load("example2.cdl")
        assert most_responsible_causes(problem.instance, problem.query("q")) == [1]


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "fixture", ["example1.cdl", "example2.cdl", "example12.cdl"]
    )
    def test_repair_route_equals_counterfactual_search(self, load, fixture):
        problem = load(fixture)
        query = problem.query("q")
        assert actual_causes(problem.instance, query) == causes_oracle(
            problem.instance, query
        )


class TestCausesUnderInclusionDependencies:
    def test_course_query_without_dependency(self, load):
        problem = load("example_registrar.cdl")
        q2 = substitute_answer(problem.query("Q2"), [sym("john")])
        reports = by_tid(actual_causes(problem.instance, q2))
        assert set(reports) == {4, 8}
        assert reports[4].responsibility == Fraction(1, 2)
        assert reports[8].responsibility == Fraction(1, 2)

    def test_course_query_with_hard_dependency(self, load):
        problem = load("example_registrar.cdl")
        q2 = substitute_answer(problem.query("Q2"), [sym("john")])
        reports = by_tid(actual_causes_under_ics(problem.instance, q2, problem.ids))
        assert set(reports) == {4, 8}
        assert reports[4].responsibility == Fraction(1, 3)
        assert reports[8].responsibility == Fraction(1, 3)
        assert frozenset({1, 8}) in reports[4].contingency_sets
        assert frozenset({1, 4}) in reports[8].contingency_sets

    def test_department_tuple_counterfactual_for_join_query(self, load):
        problem = load("example_registrar.cdl")
        q1 = substitute_answer(problem.query("Q1"), [sym("john")])
        reports = by_tid(actual_causes_under_ics(problem.instance, q1, problem.ids))
        assert reports[1].counterfactual
        assert reports[1].responsibility == Fraction(1)

    def test_no_dependencies_falls_back_to_plain_causes(self, load):
        problem = load("example1.cdl")
        query = problem.query("q")
        assert actual_causes_under_ics(problem.instance, query, []) == actual_causes(
            problem.instance, query
        )

    def test_chain_of_dependent_pairs_in_closed_form(self):
        # R(ai, bi) needs S(bi): deleting S(bi) cascades R(ai, bi) away, so
        # only the R tuples are causes, each needing every other R deleted
        k = 8
        facts = [f"R({i}; a{i}, b{i}). S({k + i}; b{i})." for i in range(1, k + 1)]
        problem = parse_problem(
            "\n".join(facts + ["q :- R(X, Y), S(Y)?", "R(X, Y) -> S(Y)."])
        )
        query = problem.query("q")
        reports = actual_causes_under_ics(problem.instance, query, problem.ids)
        r_tids = set(range(1, k + 1))
        assert [r.tid for r in reports] == sorted(r_tids)
        for r in reports:
            assert r.contingency_sets == (frozenset(r_tids - {r.tid}),)
            assert r.responsibility == Fraction(1, k)
            assert not r.counterfactual

    def test_premise_is_no_cause_when_its_witness_must_go(self):
        # falsifying q deletes S(b), and then R(a, b) has no witness, so the
        # candidate {S(b)} for R(a, b) fails the dependency on D∖Γ
        problem = parse_problem(
            "R(1; a, b). S(2; b).\nq :- R(X, Y)?\nq :- S(Y)?\nR(X, Y) -> S(Y)."
        )
        reports = actual_causes_under_ics(
            problem.instance, problem.query("q"), problem.ids
        )
        expected = [(2, (frozenset({1}),))]
        assert [(r.tid, r.contingency_sets) for r in reports] == expected

    def test_caps_trim_reported_sets_only(self, load):
        problem = load("example_registrar.cdl")
        q2 = substitute_answer(problem.query("Q2"), [sym("john")])
        for caps in ({"max_contingency_count": 0}, {"max_contingency_size": 1}):
            reports = actual_causes_under_ics(problem.instance, q2, problem.ids, **caps)
            assert [(r.tid, r.contingency_sets) for r in reports] == [(4, ()), (8, ())]
            assert {r.responsibility for r in reports} == {Fraction(1, 3)}

    def test_oracle_agrees_on_the_registrar(self, load):
        problem = load("example_registrar.cdl")
        for name in ("Q1", "Q2"):
            query = substitute_answer(problem.query(name), [sym("john")])
            assert actual_causes_under_ics(
                problem.instance, query, problem.ids
            ) == causes_oracle(problem.instance, query, problem.ids)

    def test_violating_instance_rejected(self, load):
        problem = load("example_registrar.cdl")
        q2 = substitute_answer(problem.query("Q2"), [sym("john")])
        broken = problem.instance.delete_tuples({4, 8})
        with pytest.raises(ValueError):
            actual_causes_under_ics(broken, q2, problem.ids)
