"""Randomized cross-validation of the search-based algorithms.

The pruned, repair-based routes must agree exactly with the brute-force
definitions on a large corpus of small random instances.
"""
import random

from repcause import (
    actual_causes,
    causes_oracle,
    is_consistent,
    negate_query_to_dc,
    null_repairs,
    null_repairs_oracle,
    parse_problem,
    s_repairs,
)

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
