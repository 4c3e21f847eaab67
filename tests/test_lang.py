import pytest

from repcause import (
    LangError,
    ParseError,
    eval_bcq,
    eval_open,
    is_consistent,
    negate_query_to_dc,
    parse_problem,
    render_problem,
    satisfies_ids,
    substitute_answer,
    sym,
    violations,
)
from repcause.lang import CrossTypeComparisonError
from repcause.model import NULL, PositionRef, num
from repcause.null_repairs import _candidate_edges


class TestParsing:
    def test_facts_with_and_without_tids(self):
        problem = parse_problem("R(7; a, b).\nS(c).\n")
        assert sorted(problem.instance.tids()) == [1, 7]
        assert problem.instance.get(7).render() == "R(7;a,b)"

    def test_numbers_symbols_and_null(self):
        problem = parse_problem("T(1; 3, abc, null).")
        assert problem.instance.get(1).values == (num(3), sym("abc"), NULL)

    def test_comments_and_blank_lines_ignored(self):
        problem = parse_problem("% header\n\nS(a). % trailing\n")
        assert len(problem.instance) == 1

    def test_denial_constraint(self):
        problem = parse_problem("S(a).\n:- S(X), R(X, Y).")
        assert len(problem.dcs) == 1
        assert len(problem.dcs[0].body.atoms) == 2

    def test_builtin_in_constraint(self):
        problem = parse_problem(":- R(X, Y), X != Y.")
        assert len(problem.dcs[0].body.builtins) == 1

    def test_boolean_query_headless(self):
        problem = parse_problem("q :- S(X), R(X, Y)?")
        q = problem.query("q")
        assert q.is_boolean()

    def test_open_query_with_head(self):
        q = parse_problem("Q1(X) :- Dep(Y, X)?").query("Q1")
        assert [v.name for v in q.head_vars] == ["X"]

    def test_disjuncts_share_the_query_name(self):
        q = parse_problem("q :- P(X)?\nq :- R(X)?").query("q")
        assert len(q.disjuncts) == 2

    def test_inclusion_dependency(self):
        problem = parse_problem("Dep(X, Y) -> Course(U, Y).")
        assert len(problem.ids) == 1
        assert problem.ids[0].premise.relation == "Dep"

    @pytest.mark.parametrize(
        "dependency",
        [
            "R(X) -> S(X, c).",  # constant in the conclusion
            "R(X, y) -> S(X).",  # constant in the premise
            "R(X, X) -> S(X).",  # repeated premise variable
            "R(X) -> S(X, X).",  # repeated conclusion variable
        ],
    )
    def test_inclusion_dependency_needs_distinct_variables(self, dependency):
        with pytest.raises(LangError, match="inclusion dependency"):
            parse_problem(f"R(1; a). S(2; b, a).\n{dependency}")

    def test_query_lookup_by_name_and_default(self):
        problem = parse_problem("q :- P(X)?\nr :- R(X)?")
        assert problem.query("r").name == "r"
        with pytest.raises(LangError):
            problem.query(None)
        with pytest.raises(LangError):
            problem.query("missing")

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("S(a).\nR(b,).")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            # a CRLF ends a line at its "\n"; a comment is skipped whole
            ("R(1; a).\r\n% c\r\nR(2; b) x", "expected '.', found 'x'", 3, 9),
            ("R(1; a", "expected ')', found ''", 1, 7),  # end of input
            ("R(1; a).\n  $", "unexpected character '$'", 2, 3),
            # a statement-level error points at the statement's name
            ("S(1; a).\nR(1; b).\n\n\nT(c).", "duplicate tid 1", 2, 1),
            ("S(a). S(a, b).", "arity conflict for S: declared 1, got 2", 1, 7),
            (
                "q(X) :- S(X)?\n\n  q :- S(a)?\nS(a).",
                "query q redeclared with different head",
                3,
                3,
            ),
        ],
    )
    def test_parse_error_line_and_column(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            parse_problem(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"{message} (line {line}, column {column})"

    @pytest.mark.parametrize(
        "text",
        [
            "S(a)",  # missing terminator
            ":- .",  # empty constraint body
            "q :- ?",  # empty query body
            "S(a). S(a, b).",  # arity conflict
            "S(1; a). R(1; b).",  # duplicate tid
        ],
    )
    def test_rejects_malformed_input(self, text):
        with pytest.raises(ParseError):
            parse_problem(text)

    def test_render_round_trips(self):
        text = "R(1;a,b).\nS(2;b).\n:- R(X, Y), S(Y).\nq :- R(X, Y)?\n"
        problem = parse_problem(text)
        again = parse_problem(render_problem(problem))
        assert again.instance == problem.instance
        assert len(again.dcs) == len(problem.dcs)
        assert len(again.queries) == len(problem.queries)


class TestEvaluation:
    def test_bcq_true_and_false(self):
        problem = parse_problem("S(a). R(a, b).\nq :- S(X), R(X, Y)?")
        assert eval_bcq(problem.instance, problem.query("q"))
        gone = problem.instance.delete_tuples({1})
        assert not eval_bcq(gone, problem.query("q"))

    def test_ucq_is_true_when_any_disjunct_holds(self):
        problem = parse_problem("P(a).\nq :- P(X), Q(X)?\nq :- P(X)?")
        assert eval_bcq(problem.instance, problem.query("q"))

    def test_open_query_answers(self):
        problem = parse_problem(
            "Course(1; c1, john). Course(2; c2, kevin).\nQ(X) :- Course(Y, X)?"
        )
        assert eval_open(problem.instance, problem.query("Q")) == {
            (sym("john"),),
            (sym("kevin"),),
        }

    def test_substitute_answer_grounds_the_head(self):
        problem = parse_problem("Course(1; c1, john).\nQ(X) :- Course(Y, X)?")
        bcq = substitute_answer(problem.query("Q"), [sym("john")])
        assert bcq.is_boolean()
        assert eval_bcq(problem.instance, bcq)
        miss = substitute_answer(problem.query("Q"), [sym("zoe")])
        assert not eval_bcq(problem.instance, miss)

    def test_constants_in_query_bodies(self):
        problem = parse_problem("Course(1; c1, john).\nq :- Course(X, john)?")
        assert eval_bcq(problem.instance, problem.query("q"))

    def test_null_never_satisfies_a_join(self):
        problem = parse_problem("S(1; null). R(2; null, b).\nq :- S(X), R(X, Y)?")
        assert not eval_bcq(problem.instance, problem.query("q"))

    def test_single_occurrence_variable_may_bind_null(self):
        problem = parse_problem("R(1; a, null). S(2; a).\nq :- S(X), R(X, Y)?")
        assert eval_bcq(problem.instance, problem.query("q"))

    def test_builtin_with_null_operand_is_false(self):
        problem = parse_problem("R(1; null, b).\nq :- R(X, Y), X != Y?")
        assert not eval_bcq(problem.instance, problem.query("q"))

    def test_order_builtins_on_numbers(self):
        problem = parse_problem("R(1; 2, 5).\nq :- R(X, Y), X < Y?")
        assert eval_bcq(problem.instance, problem.query("q"))

    def test_cross_type_order_comparison_raises(self):
        problem = parse_problem("R(1; a, 5).\nq :- R(X, Y), X < Y?")
        with pytest.raises(CrossTypeComparisonError):
            eval_bcq(problem.instance, problem.query("q"))


class TestConstraints:
    def test_negate_query_one_dc_per_disjunct(self):
        problem = parse_problem("q :- P(X), Q(X, Y)?\nq :- P(X), R(X, Y)?")
        dcs = negate_query_to_dc(problem.query("q"))
        assert len(dcs) == 2

    def test_negate_open_query_rejected(self):
        problem = parse_problem("Q(X) :- P(X)?")
        with pytest.raises(LangError):
            negate_query_to_dc(problem.query("Q"))

    def test_violation_witnesses(self, load):
        problem = load("example1.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        tid_sets = {frozenset(tids) for _, tids in violations(problem.instance, dcs)}
        assert tid_sets == {frozenset({4, 1, 6}), frozenset({6, 3})}

    def test_is_consistent(self, load):
        problem = load("example1.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert not is_consistent(problem.instance, dcs)
        assert is_consistent(problem.instance.delete_tuples({6}), dcs)

    def test_candidate_positions_cover_builtin_and_constant_slots(self):
        problem = parse_problem("R(1; a, a).\n:- R(X, Y), X = Y.")
        (edge,) = _candidate_edges(problem.instance, problem.dcs)
        assert edge == frozenset(
            {PositionRef("R", 1, 1), PositionRef("R", 1, 2)}
        )

    def test_candidate_positions_cover_join_slots(self):
        problem = parse_problem("R(1; a, b). S(2; b).\n:- R(X, Y), S(Y).")
        (edge,) = _candidate_edges(problem.instance, problem.dcs)
        assert edge == frozenset(
            {PositionRef("R", 1, 2), PositionRef("S", 2, 1)}
        )

    def test_candidate_positions_of_a_self_join_matched_by_one_tuple(self):
        # both atoms read the same tuple, so their slots name the same positions
        problem = parse_problem("R(1; a, a).\n:- R(X, Y), R(Y, X).")
        ((_, tids),) = violations(problem.instance, problem.dcs)
        assert tids == (1, 1)
        (edge,) = _candidate_edges(problem.instance, problem.dcs)
        assert edge == frozenset(
            {PositionRef("R", 1, 1), PositionRef("R", 1, 2)}
        )

    def test_satisfies_ids(self, load):
        problem = load("example_registrar.cdl")
        assert satisfies_ids(problem.instance, problem.ids)
        # dropping john's last course leaves Dep(computing, john) unwitnessed
        broken = problem.instance.delete_tuples({4, 8})
        assert not satisfies_ids(broken, problem.ids)

    def test_null_at_a_shared_premise_position_is_unsupported(self):
        # null never witnesses a join, so the dependency cannot be satisfied
        # through it
        problem = parse_problem(
            "Dep(1; d, null). Course(2; c, k).\nDep(X, Y) -> Course(U, Y)."
        )
        assert not satisfies_ids(problem.instance, problem.ids)

    @pytest.mark.parametrize("s_fact", ["S(2; b).", "S(2; b, c, d)."])
    def test_conclusion_of_the_wrong_arity_is_an_error(self, s_fact):
        # the dependency is read against an instance whose S has another arity
        dep = parse_problem("R(X, Y) -> S(Z, Y).").ids
        instance = parse_problem(f"R(1; a, b). {s_fact}").instance
        with pytest.raises(LangError, match="arity mismatch for S"):
            satisfies_ids(instance, dep)
