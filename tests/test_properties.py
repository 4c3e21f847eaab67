"""Randomized cross-validation of the search-based algorithms.

The pruned, repair-based routes must agree exactly with the brute-force
definitions on a large corpus of small random instances.
"""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcause import (
    actual_causes,
    actual_causes_under_ics,
    causes_oracle,
    is_consistent,
    negate_query_to_dc,
    null_repairs,
    null_repairs_oracle,
    parse_problem,
    s_repairs,
    violations,
)
from repcause.lang import (
    CrossTypeComparisonError,
    QuerySpec,
    Var,
    _match_body,
    eval_builtin,
    eval_open,
)
from repcause.tuple_repairs import _cascade_ids

SEED = 20260823
RELATIONS = [("S", 1), ("R", 2), ("T", 3)]
CONSTANTS = ["a", "b", "c", "1", "2"]


def random_facts(rng, max_tuples, allow_null=False, constants=CONSTANTS):
    lines = []
    for tid in range(1, rng.randint(1, max_tuples) + 1):
        relation, arity = rng.choice(RELATIONS)
        values = [
            "null" if allow_null and rng.random() < 0.1 else rng.choice(constants)
            for _ in range(arity)
        ]
        lines.append(f"{relation}({tid}; {', '.join(values)}).")
    return lines


def random_body(rng, max_atoms=3, constants=CONSTANTS):
    parts = []
    seen_vars = []
    for _ in range(rng.randint(1, max_atoms)):
        relation, arity = rng.choice(RELATIONS)
        args = []
        for _ in range(arity):
            if rng.random() < 0.65:
                var = rng.choice("XYZ")
                args.append(var)
                seen_vars.append(var)
            else:
                args.append(rng.choice(constants))
        parts.append(f"{relation}({', '.join(args)})")
    distinct = sorted(set(seen_vars))
    if len(distinct) >= 2 and rng.random() < 0.3:
        a, b = rng.sample(distinct, 2)
        parts.append(f"{a} != {b}")
    return ", ".join(parts)


def test_repair_based_causes_match_counterfactual_search():
    rng = random.Random(SEED)
    checked = 0
    nontrivial = 0
    while checked < 320:
        lines = random_facts(rng, max_tuples=7)
        for _ in range(rng.randint(1, 2)):
            lines.append(f"q :- {random_body(rng)}?")
        problem = parse_problem("\n".join(lines))
        query = problem.query("q")
        fast = actual_causes(problem.instance, query)
        slow = causes_oracle(problem.instance, query)
        assert fast == slow, "\n".join(lines)
        checked += 1
        nontrivial += bool(fast)
    assert nontrivial >= 30  # the corpus must actually exercise the search


# inclusion dependencies over RELATIONS, chains and cycles among them
ID_MENU = [
    "R(X, Y) -> S(Y).",
    "R(X, Y) -> S(X).",
    "S(X) -> R(Y, X).",
    "S(X) -> R(X, Y).",
    "T(X, Y, Z) -> R(X, Y).",
    "R(X, Y) -> T(Y, X, Z).",
    "T(X, Y, Z) -> S(Z).",
    "S(X) -> T(Y, Z, X).",
]
ICS_CONSTANTS = ["a", "b", "1"]


def ics_case(text, exogenous):
    """The instance of `text` with the premises its inclusion dependencies
    leave unwitnessed cascaded out, so that it satisfies them, and the tids
    in `exogenous` marked exogenous; with the query `q` and the
    dependencies."""
    problem = parse_problem(text)
    cascaded = _cascade_ids(problem.instance, problem.ids)
    instance = cascaded._clone_schema()
    for t in cascaded.tuples():
        instance.add_fact(
            t.relation, t.values, tid=t.tid, endogenous=t.tid not in exogenous
        )
    return instance, problem.query("q"), problem.ids


def test_causes_under_ics_match_counterfactual_search():
    rng = random.Random(SEED + 4)
    nonempty = 0
    changed = 0  # cases where the dependencies change the causes
    for _ in range(2000):
        # a small constant pool keeps the random queries often true
        lines = random_facts(rng, max_tuples=9, constants=ICS_CONSTANTS)
        lines += rng.sample(ID_MENU, rng.randint(1, 3))
        for _ in range(rng.randint(1, 2)):
            lines.append(f"q :- {random_body(rng, constants=ICS_CONSTANTS)}?")
        text = "\n".join(lines)
        exogenous = set()
        if rng.random() < 0.3:
            exogenous = set(rng.sample(range(1, 10), rng.randint(1, 4)))
        instance, query, ids = ics_case(text, exogenous)
        fast = actual_causes_under_ics(instance, query, ids)
        assert fast == causes_oracle(instance, query, ids), (text, exogenous)
        nonempty += bool(fast)
        changed += fast != actual_causes(instance, query)
    assert nonempty >= 250
    assert changed >= 80


def atoms(terms):
    """(relation, terms) pairs over RELATIONS, each term drawn from `terms`."""
    return st.sampled_from(RELATIONS).flatmap(
        lambda rel: st.tuples(
            st.just(rel[0]),
            st.lists(st.sampled_from(terms), min_size=rel[1], max_size=rel[1]),
        )
    )


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    facts=st.lists(atoms("ab"), max_size=8),
    ids=st.lists(st.sampled_from(ID_MENU), min_size=1, max_size=3, unique=True),
    bodies=st.lists(
        st.lists(atoms("aXYZ"), min_size=1, max_size=3), min_size=1, max_size=2
    ),
    exogenous=st.sets(st.integers(1, 8), max_size=3),
)
def test_causes_under_ics_match_counterfactual_search_property(
    facts, ids, bodies, exogenous
):
    lines = [
        f"{rel}({tid}; {', '.join(values)})."
        for tid, (rel, values) in enumerate(facts, start=1)
    ]
    for body in bodies:
        conjuncts = ", ".join(f"{rel}({', '.join(terms)})" for rel, terms in body)
        lines.append(f"q :- {conjuncts}?")
    text = "\n".join(lines + ids)
    instance, query, deps = ics_case(text, exogenous)
    assert actual_causes_under_ics(instance, query, deps) == causes_oracle(
        instance, query, deps
    )


def test_pruned_null_repairs_match_exhaustive_search():
    rng = random.Random(SEED + 1)
    checked = 0
    nontrivial = 0
    while checked < 180:
        # a tiny constant pool keeps the random constraints frequently violated
        lines = random_facts(rng, max_tuples=5, allow_null=True, constants=["a", "b"])
        for _ in range(rng.randint(1, 3)):
            lines.append(f":- {random_body(rng, max_atoms=2, constants=['a', 'b'])}.")
        problem = parse_problem("\n".join(lines))
        if len(problem.instance.non_null_positions()) > 10:
            continue
        fast = {r.delta for r in null_repairs(problem.instance, problem.dcs)}
        slow = {r.delta for r in null_repairs_oracle(problem.instance, problem.dcs)}
        assert fast == slow, "\n".join(lines)
        for record in null_repairs(problem.instance, problem.dcs):
            assert is_consistent(record.repair, problem.dcs)
        checked += 1
        nontrivial += bool(fast and max(len(d) for d in fast) > 0)
    assert nontrivial >= 20


def test_tuple_repairs_are_consistent_and_incomparable():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        lines = random_facts(rng, max_tuples=8)
        for _ in range(rng.randint(1, 3)):
            lines.append(f":- {random_body(rng)}.")
        problem = parse_problem("\n".join(lines))
        records = s_repairs(problem.instance, problem.dcs)
        removed = [r.removed for r in records]
        for rec in records:
            assert is_consistent(rec.repair, problem.dcs)
            # maximality: adding back any removed tuple is inconsistent
            for tid in rec.removed:
                grown = problem.instance.delete_tuples(rec.removed - {tid})
                assert not is_consistent(grown, problem.dcs)
        for a in removed:
            for b in removed:
                assert a == b or not a <= b


# column types of the matcher corpus: X, Y and Z only ever sit in integer
# columns and A and B in symbol ones, and order comparisons read only X, Y,
# Z and integers, so the brute-force reference never raises
TYPED_RELATIONS = [("S", ("int",)), ("R", ("sym", "int")), ("T", ("int", "int", "int"))]
TYPED_VALUES = {"int": ["1", "2", "3"], "sym": ["a", "b"]}


def brute_force_matches(instance, body):
    """Every combination of one tuple per atom, in tid order, on which each
    repeated variable, each constant and each built-in holds under null
    semantics, as (tids, value of each variable's first occurrence)."""
    per_atom = [[t for t in instance.tuples() if t.relation == a.relation] for a in body.atoms]
    out = []
    for combo in itertools.product(*per_atom):
        first = {}
        holds = True
        for atom, tup in zip(body.atoms, combo):
            for term, value in zip(atom.terms, tup.values):
                if not isinstance(term, Var):
                    holds = holds and eval_builtin("=", value, term)
                elif term.name in first:
                    holds = holds and eval_builtin("=", first[term.name], value)
                else:
                    first[term.name] = value

        def operand(t):
            return first[t.name] if isinstance(t, Var) else t

        if holds and all(
            eval_builtin(b.op, operand(b.left), operand(b.right)) for b in body.builtins
        ):
            out.append((tuple(t.tid for t in combo), first))
    return out


def random_typed_problem(rng):
    lines = []
    for tid in range(1, rng.randint(1, 12) + 1):
        relation, types = rng.choice(TYPED_RELATIONS)
        values = [
            "null" if rng.random() < 0.1 else rng.choice(TYPED_VALUES[t]) for t in types
        ]
        lines.append(f"{relation}({tid}; {', '.join(values)}).")
    parts = []
    seen_vars = set()
    for _ in range(rng.choice([1, 2, 2, 3])):
        relation, types = rng.choice(TYPED_RELATIONS)
        args = []
        for t in types:
            if rng.random() < 0.75:
                var = rng.choice("XYZ" if t == "int" else "AB")
                seen_vars.add(var)
                args.append(var)
            else:
                args.append("null" if rng.random() < 0.1 else rng.choice(TYPED_VALUES[t]))
        parts.append(f"{relation}({', '.join(args)})")
    for _ in range(rng.choice([0, 1, 1, 2])):
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        pool = sorted(v for v in seen_vars if op in ("=", "!=") or v in "XYZ")
        constants = ["1", "3"] + (["a", "null"] if op in ("=", "!=") else [])
        if pool:
            right = rng.choice(pool) if rng.random() < 0.6 else rng.choice(constants)
            parts.append(f"{rng.choice(pool)} {op} {right}")
    lines.append(f":- {', '.join(parts)}.")
    return "\n".join(lines)


def test_indexed_matcher_matches_nested_loop_reference():
    rng = random.Random(SEED + 3)
    # a second stream for the heads keeps the matcher corpus as it was
    head_rng = random.Random(SEED + 9)
    nontrivial = 0
    answered = 0
    for _ in range(2000):
        text = random_typed_problem(rng)
        problem = parse_problem(text)
        body = problem.dcs[0].body
        fast = list(_match_body(problem.instance, body._plan))
        slow = brute_force_matches(problem.instance, body)
        assert fast == [tids for tids, _ in slow], text
        # a match through a hash-index probe
        nontrivial += bool(fast) and any(s.key_positions for s in body._plan.steps[1:])
        # the same body as an open query, its head drawn from the atom variables
        atom_vars = sorted({v.name for a in body.atoms for v in a.variables()})
        head = head_rng.sample(atom_vars, head_rng.randint(0, len(atom_vars)))
        query = QuerySpec("q", tuple(Var(v) for v in head), (body,))
        expected = {tuple(first[v] for v in head) for _, first in slow}
        assert eval_open(problem.instance, query) == expected, f"{text}\nhead {head}"
        answered += bool(head) and bool(expected)
    assert nontrivial >= 120
    assert answered >= 200


@pytest.mark.parametrize(
    "s_fact, order_check, raises",
    [
        ("S(2; 1, 5).", "X < Z", True),  # the join holds, so a < 5 is compared
        ("S(2; 2, 5).", "X < Z", False),  # the join fails first: nothing compared
        ("S(2; 2, 5).", "X < 3", True),  # a < 3 is compared before the join
    ],
)
def test_order_comparison_raises_only_once_its_operands_match(s_fact, order_check, raises):
    text = f"R(1; a, 1). {s_fact}\n:- R(X, Y), S(Y, Z), {order_check}.\n"
    problem = parse_problem(text)
    if raises:
        with pytest.raises(CrossTypeComparisonError):
            violations(problem.instance, problem.dcs)
    else:
        assert violations(problem.instance, problem.dcs) == []
