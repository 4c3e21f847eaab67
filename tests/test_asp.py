import random
from itertools import permutations

import pytest

from repcause import (
    CanonicalFormError,
    EmitOptions,
    canonical_program,
    emit_null_repair_program,
    emit_tuple_repair_program,
    negate_query_to_dc,
    parse_problem,
    programs_equivalent,
    verify_model_correspondence,
)
from repcause import asp
from repcause.asp import EmitError, parse_models

from conftest import read_fixture


def query_dcs(problem, name="q"):
    return negate_query_to_dc(problem.query(name))


ALL_EXTRAS = frozenset(
    {"causes", "cau_cont", "contingency_sets", "pre_rho", "weak_constraints"}
)


class TestEmitOptions:
    def test_unknown_flavor_rejected(self, load):
        problem = load("example1.cdl")
        with pytest.raises(EmitError):
            emit_tuple_repair_program(
                problem.instance, query_dcs(problem), EmitOptions(flavor="odd")
            )

    def test_unknown_include_rejected(self, load):
        problem = load("example1.cdl")
        with pytest.raises(EmitError):
            emit_tuple_repair_program(
                problem.instance,
                query_dcs(problem),
                EmitOptions(include=frozenset({"bogus"})),
            )

    def test_contingency_sets_require_cau_cont(self, load):
        problem = load("example1.cdl")
        with pytest.raises(EmitError):
            emit_tuple_repair_program(
                problem.instance,
                query_dcs(problem),
                EmitOptions(include=frozenset({"causes", "contingency_sets"})),
            )

    def test_maxint_must_cover_the_instance(self, load):
        problem = load("example1.cdl")
        with pytest.raises(EmitError):
            emit_tuple_repair_program(
                problem.instance,
                query_dcs(problem),
                EmitOptions(
                    include=frozenset({"causes", "cau_cont", "pre_rho"}), maxint=2
                ),
            )


class TestTupleProgramGoldens:
    def test_plain_non_disjunctive(self, load):
        problem = load("example1.cdl")
        text = emit_tuple_repair_program(problem.instance, query_dcs(problem)).text
        assert programs_equivalent(text, read_fixture("example1_nondisj.dlv"))

    def test_disjunctive(self, load):
        problem = load("example1.cdl")
        text = emit_tuple_repair_program(
            problem.instance, query_dcs(problem), EmitOptions(flavor="disjunctive")
        ).text
        assert programs_equivalent(text, read_fixture("example1_disj.dlv"))

    def test_with_cause_and_contingency_blocks(self, load):
        problem = load("example1.cdl")
        opts = EmitOptions(
            include=frozenset({"causes", "cau_cont", "contingency_sets", "pre_rho"})
        )
        text = emit_tuple_repair_program(problem.instance, query_dcs(problem), opts).text
        assert programs_equivalent(text, read_fixture("example1_extended.dlv"))

    def test_with_weak_constraints(self, load):
        problem = load("example1.cdl")
        opts = EmitOptions(include=ALL_EXTRAS)
        text = emit_tuple_repair_program(problem.instance, query_dcs(problem), opts).text
        assert programs_equivalent(text, read_fixture("example1_weak.dlv"))

    def test_multi_constraint_unary_instance(self, load):
        problem = load("example5.cdl")
        opts = EmitOptions(include=frozenset({"causes", "cau_cont"}))
        text = emit_tuple_repair_program(problem.instance, list(problem.dcs), opts).text
        assert programs_equivalent(text, read_fixture("example5_program.dlv"))

    def test_two_constraints_from_a_ucq(self, load):
        problem = load("example2.cdl")
        opts = EmitOptions(include=frozenset({"causes", "cau_cont"}))
        text = emit_tuple_repair_program(problem.instance, query_dcs(problem), opts).text
        assert programs_equivalent(text, read_fixture("example2_program.dlv"))


class TestNullProgramGoldens:
    def test_fan_out_instance(self, load):
        problem = load("example7.cdl")
        text = emit_null_repair_program(problem.instance, query_dcs(problem)).text
        assert programs_equivalent(text, read_fixture("example7_null.dlv"))

    def test_two_tuple_chain(self, load):
        problem = load("example13.cdl")
        text = emit_null_repair_program(problem.instance, query_dcs(problem)).text
        assert programs_equivalent(text, read_fixture("example13_null.dlv"))

    def test_triangle_instance(self, load):
        problem = load("example6.cdl")
        text = emit_null_repair_program(problem.instance, query_dcs(problem)).text
        assert programs_equivalent(text, read_fixture("example6_null.dlv"))


class TestCanonicalisation:
    def test_whitespace_and_order_insensitive(self):
        a = "p(X) :- q(X), r(X).\ns(a)."
        b = "s(a).\np( Y ) :-\n    r(Y), q(Y)."
        assert canonical_program(a) == canonical_program(b)

    def test_comments_are_stripped(self):
        assert programs_equivalent("p(a). % note", "p(a).")

    def test_variable_renaming_is_consistent(self):
        assert not programs_equivalent("p(X, Y) :- q(X, Y).", "p(X, Y) :- q(Y, X).")

    def test_different_programs_differ(self):
        assert not programs_equivalent("p(a).", "p(b).")

    def test_long_chains_equal_their_reversals(self):
        for n in (8, 9, 12):
            chain = [f"r(X{i},X{i + 1})" for i in range(n)]
            assert programs_equivalent(
                ":- " + ", ".join(chain) + ".", ":- " + ", ".join(chain[::-1]) + "."
            )

    def test_tie_search_past_its_budget_raises(self, monkeypatch):
        # every literal of a complete bipartite join looks alike, so the
        # order search branches at each step
        rule = ":- " + ", ".join(f"r(X{i},Y{j})" for i in range(3) for j in range(4)) + "."
        assert programs_equivalent(rule, rule)
        monkeypatch.setattr(asp, "_TIE_BUDGET", 200)
        with pytest.raises(CanonicalFormError):
            programs_equivalent(rule, rule)


# Literals of random rules, as (template, arity); the arguments fill `{}`
LITERALS = [("r({})", 2), ("r({})", 2), ("s({})", 1), ("not t({})", 2), ("{} != {}", 2)]


def random_rule(rng, size):
    """A rule of `size` literals as (head, body), each a list of
    (template, arguments), with at least one body literal."""
    pool = [f"X{i}" for i in range(rng.randint(1, size + 1))] + ["a", "1"]

    def literal(choices):
        template, arity = rng.choice(choices)
        return template, [rng.choice(pool) for _ in range(arity)]

    heads = rng.randint(0, min(2, size - 1))
    head = [literal([("p({})", 1), ("q({})", 2)]) for _ in range(heads)]
    return head, [literal(LITERALS) for _ in range(size - heads)]


def is_var(arg):
    return arg[0].isupper()


def render_rule(rule, rename=lambda v: v):
    def text(template, args):
        args = [rename(a) if is_var(a) else a for a in args]
        if template.count("{}") > 1:
            return template.format(*args)
        return template.format(",".join(args))

    head, body = rule
    return (
        " v ".join(text(*lit) for lit in head)
        + " :- "
        + ", ".join(text(*lit) for lit in body)
        + "."
    )


def shuffled_and_renamed(rng, rule):
    head, body = (rng.sample(part, len(part)) for part in rule)
    names = sorted({a for _, args in head + body for a in args if is_var(a)})
    fresh = dict(zip(names, rng.sample([f"V{i}" for i in range(40)], len(names))))
    return render_rule((head, body), fresh.__getitem__)


def with_one_argument(rng, rule, value):
    """The rule with one random argument of a body literal set to `value`."""
    head, body = rule
    k = rng.randrange(len(body))
    template, args = body[k]
    args = list(args)
    args[rng.randrange(len(args))] = value
    return head, body[:k] + [(template, args)] + body[k + 1 :]


def same_up_to_order_and_renaming(a, b):
    """Brute force: some order of b's head and body literals matches a's,
    literal by literal, under one bijective renaming of the variables."""

    def fits(xs, ys):
        forward, backward = {}, {}
        for (tx, ax), (ty, ay) in zip(xs, ys):
            if tx != ty:
                return False
            for u, v in zip(ax, ay):
                if is_var(u) != is_var(v) or (not is_var(u) and u != v):
                    return False
                if is_var(u) and (
                    forward.setdefault(u, v) != v or backward.setdefault(v, u) != u
                ):
                    return False
        return True

    (ha, ba), (hb, bb) = a, b
    if len(ha) != len(hb) or len(ba) != len(bb):
        return False
    return any(
        fits(ha + ba, list(h) + list(bo))
        for h in permutations(hb)
        for bo in permutations(bb)
    )


def test_canonical_form_ignores_literal_order_and_variable_names():
    rng = random.Random(20261018)
    for case in range(400):
        rule = random_rule(rng, 1 + case % 12)
        text = render_rule(rule)
        assert programs_equivalent(text, shuffled_and_renamed(rng, rule)), text
        # a constant found nowhere else in the rule makes it a different rule
        changed = with_one_argument(rng, rule, "c0")
        assert not programs_equivalent(text, shuffled_and_renamed(rng, changed)), text


def test_canonical_form_agrees_with_brute_force_equivalence():
    rng = random.Random(20261019)
    equal = 0  # the pairs found equal; some must be, or the check is idle
    for case in range(600):
        a = random_rule(rng, 1 + case % 6)
        if case % 2:
            b = random_rule(rng, 1 + case % 6)
        else:
            b = with_one_argument(rng, a, rng.choice(["X0", "X1", "X2", "a"]))
        verdict = same_up_to_order_and_renaming(a, b)
        equal += verdict
        text_a, text_b = render_rule(a), shuffled_and_renamed(rng, b)
        assert programs_equivalent(text_a, text_b) == verdict, (text_a, text_b)
    assert equal >= 60


class TestModelParsing:
    def test_parse_models_counts(self):
        assert len(parse_models(read_fixture("example1_models.txt"))) == 3
        assert len(parse_models(read_fixture("example6_models.txt"))) == 7

    def test_best_model_prefix_and_cost_trailer_ignored(self):
        models = parse_models(read_fixture("example1_models_best.txt"))
        assert len(models) == 1
        predicates = {a.predicate for a in models[0]}
        assert {"cause", "preRho", "cont"} <= predicates

    def test_unbalanced_braces_rejected(self):
        with pytest.raises(EmitError):
            parse_models("{p(a), q(b)")


class TestModelCorrespondence:
    def test_three_models_match_three_repairs(self, load):
        problem = load("example1.cdl")
        report = verify_model_correspondence(
            problem.instance,
            query_dcs(problem),
            read_fixture("example1_models.txt"),
            semantics="tuple",
        )
        assert report.ok
        assert len(report.matches) == 3

    def test_two_null_models_match_two_null_repairs(self, load):
        problem = load("example13.cdl")
        report = verify_model_correspondence(
            problem.instance,
            query_dcs(problem),
            read_fixture("example13_models.txt"),
            semantics="null",
        )
        assert report.ok
        assert len(report.matches) == 2

    def test_seven_null_models_match_seven_null_repairs(self, load):
        problem = load("example6.cdl")
        report = verify_model_correspondence(
            problem.instance,
            query_dcs(problem),
            read_fixture("example6_models.txt"),
            semantics="null",
        )
        assert report.ok
        assert len(report.matches) == 7

    def test_empty_model_list_against_consistent_instance(self):
        problem = parse_problem("S(a).\n:- S(X), R(X, Y).")
        report = verify_model_correspondence(problem.instance, problem.dcs, "")
        assert not report.ok
        assert report.unmatched_repairs == [0]

    def test_mismatch_is_reported_on_both_sides(self, load):
        problem = load("example13.cdl")
        report = verify_model_correspondence(
            problem.instance,
            query_dcs(problem),
            "{P_a(1,null,null,s), R_a(2,2,1,s)}",
            semantics="null",
        )
        assert not report.ok
        assert report.unmatched_models == [0]
        assert len(report.unmatched_repairs) == 2
        assert "MISMATCH" in report.render()


class TestSelfContainedness:
    @pytest.mark.parametrize(
        "fixture,emit,opts",
        [
            ("example1.cdl", "tuple", EmitOptions(include=ALL_EXTRAS)),
            ("example5.cdl", "tuple", EmitOptions()),
            ("example6.cdl", "null", EmitOptions()),
        ],
    )
    def test_every_predicate_is_defined_or_derived(self, load, fixture, emit, opts):
        import re

        problem = load(fixture)
        dcs = list(problem.dcs) or query_dcs(problem)
        fn = emit_tuple_repair_program if emit == "tuple" else emit_null_repair_program
        text = fn(problem.instance, dcs, opts).text
        facts = set(problem.instance.schema)
        heads = set()
        for stmt in text.split("."):
            stmt = stmt.strip()
            m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(", stmt)
            if m:
                heads.add(m.group(1))
        # built-in aggregates/sets like #union(...) are not user predicates
        used = set(re.findall(r"(?<!#)\b([A-Za-z_][A-Za-z0-9_]*)\s*\(", text))
        for predicate in used:
            assert (
                predicate in facts
                or predicate in heads
                or predicate.endswith("_a")
            ), predicate
