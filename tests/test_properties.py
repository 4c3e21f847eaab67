"""Randomized cross-validation of the search-based algorithms.

The pruned, repair-based routes must agree exactly with the brute-force
definitions on a large corpus of small random instances.
"""
import dataclasses
import io
import itertools
import json
import os
import random
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcause import (
    actual_causes,
    actual_causes_under_ics,
    c_repairs,
    cardinality_null_repairs,
    causes_oracle,
    is_consistent,
    null_repairs,
    null_repairs_oracle,
    parse_problem,
    s_repairs,
    s_repairs_under_hard_ics,
    satisfies_ids,
    verify_model_correspondence,
    violations,
)
from repcause import cli
from repcause.asp import _MODEL_ATOM, CorrespondenceReport, EmitError, ModelAtom, parse_models
from repcause.lang import (
    CrossTypeComparisonError,
    QuerySpec,
    Var,
    _match_body,
    eval_builtin,
    eval_open,
    unsupported_premises,
)
from repcause.oracles import minimal_subsets

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


def with_exogenous(problem, exogenous):
    """`problem` with the tids in `exogenous` marked exogenous, which the
    text format cannot express."""
    instance = problem.instance._clone_schema()
    for t in problem.instance.tuples():
        instance.add_fact(
            t.relation, t.values, tid=t.tid, endogenous=t.tid not in exogenous
        )
    return dataclasses.replace(problem, instance=instance)


def ics_case(text, exogenous):
    """The instance of `text` with the premises its inclusion dependencies
    leave unwitnessed cascaded out, so that it satisfies them, and the tids
    in `exogenous` marked exogenous; with the query `q` and the
    dependencies."""
    problem = parse_problem(text)
    cascaded = problem.instance
    while True:  # on instances, apart from the production closure on tid sets
        bad = unsupported_premises(cascaded, problem.ids)
        if not bad:
            break
        cascaded = cascaded.delete_tuples(bad)
    problem = with_exogenous(dataclasses.replace(problem, instance=cascaded), exogenous)
    return problem.instance, problem.query("q"), problem.ids


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


def capped(report, count, size):
    """`report` with its contingency sets first filtered to those of size
    at most `size`, then cut to the first `count`; None is no cap."""
    kept = [g for g in report.contingency_tids if size is None or len(g) <= size]
    return dataclasses.replace(report, contingency_tids=tuple(kept[:count]))


@pytest.mark.parametrize("with_ids", [False, True], ids=["plain", "ics"])
def test_contingency_caps_filter_by_size_then_cut_to_the_count(with_ids):
    rng = random.Random(SEED + 9)
    trimmed = {"count": 0, "size": 0}  # capped runs that drop some set
    for _ in range(400):
        lines = random_facts(rng, max_tuples=9, constants=ICS_CONSTANTS)
        if with_ids:
            lines += rng.sample(ID_MENU, rng.randint(1, 3))
        for _ in range(rng.randint(1, 2)):
            lines.append(f"q :- {random_body(rng, constants=ICS_CONSTANTS)}?")
        instance, query, ids = ics_case("\n".join(lines), set())

        def causes(count, size):
            if with_ids:
                return actual_causes_under_ics(instance, query, ids, count, size)
            return actual_causes(instance, query, count, size)

        full = causes(None, None)
        for count, size in itertools.product([0, 1, 2, None], [0, 1, None]):
            expected = [capped(r, count, size) for r in full]
            # the caps never move responsibility or the counterfactual flag
            assert causes(count, size) == expected, (lines, count, size)
            if expected != full:
                trimmed["size" if count is None else "count"] += 1
    assert trimmed["count"] >= 250 and trimmed["size"] >= 40, trimmed


def hard_ics_repairs_agree(text):
    """`s_repairs_under_hard_ics` on `text`, checked against the minimal X
    whose D∖X, built as an instance, satisfies both the DCs and the
    dependencies; returns whether some repair deletes a tuple."""
    problem = parse_problem(text)
    instance, dcs, ids = problem.instance, problem.dcs, problem.ids

    def is_repair(removed):
        rest = instance.delete_tuples(removed)
        return is_consistent(rest, dcs) and satisfies_ids(rest, ids)

    expected = list(minimal_subsets(sorted(instance.tids()), is_repair))
    records = s_repairs_under_hard_ics(instance, dcs, ids)
    assert [r.removed for r in records] == expected, text
    return any(expected)


def test_repairs_under_hard_ics_match_exhaustive_search():
    rng = random.Random(SEED + 5)
    nonempty = 0
    for _ in range(1500):
        # not cascaded first: the instance may itself violate the dependencies
        lines = random_facts(rng, max_tuples=8, constants=ICS_CONSTANTS)
        lines += rng.sample(ID_MENU, rng.randint(1, 3))
        for _ in range(rng.randint(1, 2)):
            lines.append(f":- {random_body(rng, constants=ICS_CONSTANTS)}.")
        nonempty += hard_ics_repairs_agree("\n".join(lines))
    assert nonempty >= 1000


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    facts=st.lists(atoms("ab"), max_size=8),
    ids=st.lists(st.sampled_from(ID_MENU), min_size=1, max_size=3, unique=True),
    bodies=st.lists(
        st.lists(atoms("aXYZ"), min_size=1, max_size=3), min_size=1, max_size=2
    ),
)
def test_repairs_under_hard_ics_match_exhaustive_search_property(facts, ids, bodies):
    lines = [
        f"{rel}({tid}; {', '.join(values)})."
        for tid, (rel, values) in enumerate(facts, start=1)
    ]
    for body in bodies:
        conjuncts = ", ".join(f"{rel}({', '.join(terms)})" for rel, terms in body)
        lines.append(f":- {conjuncts}.")
    hard_ics_repairs_agree("\n".join(lines + ids))


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


# `repairs` output and `check` matching, read from each record's removed or
# delta, against references built from the repaired instance `r.repair`

REPAIRS = {
    ("tuple", "subset"): s_repairs,
    ("tuple", "cardinality"): c_repairs,
    ("null", "subset"): null_repairs,
    ("null", "cardinality"): cardinality_null_repairs,
}


def cli_stdout(problem, command, *flags):
    """The CLI's exit code and stdout on `problem`, handed over as parsed."""
    out = io.StringIO()
    with mock.patch.object(cli, "parse_problem", lambda text: problem):
        with redirect_stdout(out):
            code = cli.main([command, os.devnull, *flags])
    return code, out.getvalue()


def reference_repairs_stdout(records, semantics, fmt):
    key = "removed" if semantics == "tuple" else "delta"
    entries = []
    for r in records:
        if semantics == "tuple":
            diff = sorted(r.removed)
        else:
            diff = [p.render() for p in sorted(r.delta)]
        entries.append((diff, [t.render() for t in r.repair.tuples()]))
    if fmt == "json":
        payload = {"repairs": [{key: d, "tuples": ts} for d, ts in entries]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return "".join(
        f"repair {i}: {key} {{{', '.join(str(d) for d in diff)}}}\n"
        f"  {{{', '.join(tuples)}}}\n"
        for i, (diff, tuples) in enumerate(entries, start=1)
    )


def model_atom(t, mark):
    values = "".join(f",{v.render()}" for v in t.values)
    return f"{t.relation}_a({t.tid}{values},{mark})"


def solver_models(instance, records, rng):
    """Solver-style models of `records`: some dropped, duplicated or
    corrupted, in shuffled order with shuffled atoms."""
    models = []
    for r in records:
        kept = {t.tid: t for t in r.repair.tuples()}
        models.append(
            [
                model_atom(kept[t.tid], "s") if t.tid in kept else model_atom(t, "d")
                for t in instance.tuples()
            ]
        )
    if models and rng.random() < 0.3:
        models.pop(rng.randrange(len(models)))
    for _ in range(rng.randint(0, 2) if models else 0):
        models.append(list(rng.choice(models)))
    originals = len(models)
    for _ in range(rng.randint(0, 2) if models else 0):
        corrupt = list(models[rng.randrange(originals)])
        i = rng.randrange(len(corrupt))
        if rng.random() < 0.5:
            del corrupt[i]
        else:  # one atom's first value replaced
            parts = corrupt[i].split(",")
            parts[1] = rng.choice(["null", "a", "zz", "7"])
            corrupt[i] = ",".join(parts)
        models.append(corrupt)
    rng.shuffle(models)
    for atoms in models:
        rng.shuffle(atoms)
    return "\n".join("{" + ", ".join(atoms) + "}" for atoms in models)


def reference_split_chunks(text):
    """The non-blank pieces of `text` between its depth-0 commas, found one
    character at a time."""
    parts = []
    depth = 0
    start = 0
    for idx, ch in enumerate(text):
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:idx])
            start = idx + 1
    parts.append(text[start:])
    return [p for p in parts if p.strip()]


def reference_parse_models(text):
    """`parse_models`, reading the text one character at a time."""
    models = []
    depth = 0
    start = None
    for idx, ch in enumerate(text):
        if ch == "{":
            if depth == 0:
                start = idx
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise EmitError("unbalanced braces in model text")
            if depth == 0:
                atoms = []
                for chunk in reference_split_chunks(text[start + 1 : idx]):
                    m = _MODEL_ATOM.match(chunk)
                    if not m:
                        raise EmitError(f"cannot parse model atom {chunk.strip()!r}")
                    args = tuple(a.strip() for a in reference_split_chunks(m.group(2)))
                    atoms.append(ModelAtom(m.group(1), args))
                models.append(atoms)
    if depth != 0:
        raise EmitError("unbalanced braces in model text")
    return models


def read_models(reader, text):
    """`reader`'s models of `text`, or the message of the error it raises."""
    try:
        return reader(text)
    except EmitError as exc:
        return str(exc)


def scrambled(text, rng):
    """`text` with a few brackets, commas or blanks inserted or deleted."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(chars) + 1)
        if chars and i < len(chars) and rng.random() < 0.3:
            del chars[i]
        else:
            chars.insert(i, rng.choice("{}()[], "))
    return "".join(chars)


def fact_values(args):
    return parse_problem(f"P(1; {', '.join(args)}).").instance.get(1).values


def reference_correspondence(instance, dcs, models_text, semantics):
    """Each model, in order, takes the first unused repair whose instance's
    (relation, tid, values) set equals the model's s-annotated atoms."""
    fn = s_repairs if semantics == "tuple" else null_repairs
    repair_keys = [
        frozenset((t.relation, t.tid, t.values) for t in r.repair.tuples())
        for r in fn(instance, dcs)
    ]
    report = CorrespondenceReport()
    used = set()
    for mi, atoms in enumerate(reference_parse_models(models_text)):
        # the values go through the problem parser, not the model reader
        key = frozenset(
            (a.predicate[:-2], int(a.args[0]), fact_values(a.args[1:-1]))
            for a in atoms
            if a.predicate.endswith("_a") and a.args[-1] == "s"
        )
        hit = next(
            (ri for ri, rk in enumerate(repair_keys) if ri not in used and rk == key),
            None,
        )
        if hit is None:
            report.unmatched_models.append(mi)
        else:
            used.add(hit)
            report.matches.append((mi, hit))
    report.unmatched_repairs = [i for i in range(len(repair_keys)) if i not in used]
    return report


REPAIR_CONSTANTS = ["a", "1"]
# joins on different columns of one tuple, so that one repair may null
# several of its positions
JOIN_MENU = [
    "R(X, Y), S(X)",
    "R(X, Y), S(Y)",
    "T(X, Y, Z), S(X)",
    "T(X, Y, Z), S(Z)",
    "T(X, Y, Z), R(Y, W)",
]


def check_repairs_and_check(facts, dcs, exogenous, rng):
    """Compare every `repairs` variant and `check` on both semantics with
    the references; the problem, its null records and the `check` reports,
    for the corpus floors."""
    text = "\n".join(facts + [f":- {body}." for body in dcs])
    case = f"{text}\nexogenous {sorted(exogenous)}"
    problem = with_exogenous(parse_problem(text), exogenous)
    reports = []
    for (semantics, minimality), fn in REPAIRS.items():
        records = fn(problem.instance, problem.dcs)
        for fmt in ("text", "json"):
            flags = ("--semantics", semantics, "--minimality", minimality, "--format", fmt)
            expected = reference_repairs_stdout(records, semantics, fmt)
            assert cli_stdout(problem, "repairs", *flags) == (0, expected), case
        if minimality == "subset":
            models = solver_models(problem.instance, records, rng)
            for text in (models, scrambled(models, rng)):
                assert read_models(parse_models, text) == read_models(
                    reference_parse_models, text
                ), text
            report = verify_model_correspondence(
                problem.instance, problem.dcs, models, semantics
            )
            assert report == reference_correspondence(
                problem.instance, problem.dcs, models, semantics
            ), f"{case}\n{models}"
            reports.append(report)
    return problem, null_repairs(problem.instance, problem.dcs), reports


def test_repairs_output_and_check_match_instance_references():
    rng = random.Random(SEED + 5)
    multi_null = with_null = with_int = with_exo = 0
    unmatched_models = unmatched_repairs = bijective = 0
    for _ in range(300):
        facts = random_facts(rng, max_tuples=6, allow_null=True, constants=REPAIR_CONSTANTS)
        dcs = [
            random_body(rng, max_atoms=2, constants=REPAIR_CONSTANTS)
            for _ in range(rng.randint(0, 2))
        ]
        dcs += rng.sample(JOIN_MENU, rng.randint(0 if dcs else 1, 3))
        exogenous = set()
        if rng.random() < 0.3:
            exogenous = set(rng.sample(range(1, 7), rng.randint(1, 3)))
        problem, nulled, reports = check_repairs_and_check(facts, dcs, exogenous, rng)
        unmatched_models += any(r.unmatched_models for r in reports)
        unmatched_repairs += any(r.unmatched_repairs for r in reports)
        bijective += any(r.ok and r.matches for r in reports)
        changed = any(r.delta for r in nulled)
        values = [v for t in problem.instance.tuples() for v in t.values]
        multi_null += any(
            len({p.position for p in r.delta if p.tid == tid}) >= 2
            for r in nulled
            for tid in {p.tid for p in r.delta}
        )
        with_null += changed and any(v.is_null() for v in values)
        with_int += changed and any(v.kind == "integer" for v in values)
        with_exo += changed and any(not t.endogenous for t in problem.instance.tuples())
    # the corpus must reach each case that printing and keying treat apart
    assert multi_null >= 15  # a repair nulls two positions of one tuple
    assert with_null >= 40
    assert with_int >= 80
    assert with_exo >= 20
    assert unmatched_models >= 200
    assert unmatched_repairs >= 100
    assert bijective >= 30
    # relations interleaved in tid order, auto and explicit tids, so rows
    # sit in (relation, tid) order and not in tid order: the tuple route's
    # removed {2, 5} sits at slots 2 and 1 (R1, R5, S2, S4, T3)
    facts = ["S(2; a).", "R(a, 1).", "T(a, 1, a).", "S(1).", "R(5; 1, a)."]
    problem, _, _ = check_repairs_and_check(
        facts, ["R(X, Y), S(X)", "T(X, Y, Z), S(Z)"], set(), rng
    )
    slot = {t.tid: i for i, t in enumerate(problem.instance.tuples())}
    assert any(
        sorted(r.removed, key=slot.get) != sorted(r.removed)
        for r in s_repairs(problem.instance, problem.dcs)
    )


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    facts=st.lists(atoms(["a", "1", "null"]), min_size=1, max_size=6),
    bodies=st.lists(
        st.lists(atoms(["a", "1", "X", "Y", "Z"]), min_size=1, max_size=2),
        max_size=2,
    ),
    joins=st.lists(st.sampled_from(JOIN_MENU), max_size=3, unique=True),
    exogenous=st.sets(st.integers(1, 6), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_repairs_output_and_check_match_instance_references_property(
    facts, bodies, joins, exogenous, seed
):
    lines = [
        f"{rel}({tid}; {', '.join(values)})."
        for tid, (rel, values) in enumerate(facts, start=1)
    ]
    dcs = [", ".join(f"{rel}({', '.join(terms)})" for rel, terms in body) for body in bodies]
    dcs = (dcs + joins) or JOIN_MENU[:1]
    check_repairs_and_check(lines, dcs, exogenous, random.Random(seed))


# `causes` and `responsibility` output on tuple semantics, against references
# printed from the library's reports with f-strings and `json.dumps`


def reference_causes_stdout(reports, with_sets, fmt):
    if fmt == "json":
        causes = []
        for r in reports:
            entry = {
                "id": r.tid,
                "responsibility": {
                    "num": r.responsibility.numerator, "den": r.responsibility.denominator,
                },
                "counterfactual": r.counterfactual,
            }
            if with_sets:
                entry["contingency_sets"] = [sorted(g) for g in r.contingency_sets]
            causes.append(entry)
        return json.dumps({"causes": causes}, indent=2, sort_keys=True) + "\n"
    out = []
    for r in reports:
        flag = " (counterfactual)" if r.counterfactual else ""
        out.append(f"tid {r.tid}: responsibility {r.responsibility}{flag}\n")
        if with_sets:
            out.extend(
                f"  contingency {{{', '.join(str(t) for t in sorted(g))}}}\n"
                for g in r.contingency_sets
            )
    return "".join(out)


CAPS = [(None, None), (1, None), (None, 0), (None, 1), (2, 1), (0, None)]
# queries whose joins often match over two constants, so that causes have
# several contingency sets
QUERY_MENU = [
    "S(X), R(X, Y), S(Y)",
    "R(X, Y), S(Y)",
    "R(X, Y), R(Y, Z)",
    "T(X, Y, Z), S(X)",
    "R(X, Y), T(Y, Z, W)",
]


def test_causes_output_matches_report_references():
    rng = random.Random(SEED + 11)
    seen = {"sets": 0, "many_sets": 0, "counterfactual": 0, "two_digit": 0,
            "ics": 0, "exogenous": 0, "trimmed": 0}
    for _ in range(400):
        # tids drawn from 1..30, so that a set mixes one- and two-digit tids
        tids = sorted(rng.sample(range(1, 31), rng.randint(2, 10)))
        lines = []
        for tid in tids:
            relation, arity = rng.choice(RELATIONS)
            values = ", ".join(rng.choice("ab") for _ in range(arity))
            lines.append(f"{relation}({tid}; {values}).")
        with_ids = rng.random() < 0.3
        if with_ids:
            lines += rng.sample(ID_MENU, rng.randint(1, 2))
        for _ in range(rng.randint(1, 2)):
            body = rng.choice(QUERY_MENU) if rng.random() < 0.7 else random_body(rng)
            lines.append(f"q :- {body}?")
        text = "\n".join(lines)
        exogenous = set()
        if rng.random() < 0.3:
            exogenous = set(rng.sample(tids, rng.randint(1, len(tids))))
        instance, query, ids = ics_case(text, exogenous)
        problem = dataclasses.replace(parse_problem(text), instance=instance)
        ics = ("--ics",) if with_ids else ()

        def reports(count, size):
            if with_ids:
                return actual_causes_under_ics(instance, query, ids, count, size)
            return actual_causes(instance, query, count, size)

        full = reports(None, None)
        for count, size in [CAPS[0], rng.choice(CAPS[1:])]:
            flags = ics
            if count is not None:
                flags += ("--max-contingency-count", str(count))
            if size is not None:
                flags += ("--max-contingency-size", str(size))
            capped_reports = reports(count, size)
            seen["trimmed"] += capped_reports != full
            for fmt in ("text", "json"):
                expected = reference_causes_stdout(capped_reports, True, fmt)
                got = cli_stdout(problem, "causes", *flags, "--format", fmt)
                assert got == (0, expected), (text, exogenous, flags, fmt)
        for fmt in ("text", "json"):
            expected = reference_causes_stdout(full, False, fmt)
            got = cli_stdout(problem, "responsibility", *ics, "--format", fmt)
            assert got == (0, expected), (text, exogenous, fmt)
        sets = [g for r in full for g in r.contingency_sets]
        seen["sets"] += any(sets)
        seen["many_sets"] += any(len(r.contingency_sets) >= 2 for r in full)
        seen["counterfactual"] += any(r.counterfactual for r in full)
        seen["two_digit"] += any(min(g) < 10 <= max(g) for g in sets if g)
        seen["ics"] += with_ids and bool(full)
        seen["exogenous"] += bool(exogenous) and bool(full)
    # the corpus must reach each case that the printing treats apart
    assert seen["sets"] >= 100 and seen["many_sets"] >= 30, seen
    assert seen["counterfactual"] >= 70 and seen["two_digit"] >= 45, seen
    assert seen["ics"] >= 35 and seen["exogenous"] >= 15 and seen["trimmed"] >= 70, seen
