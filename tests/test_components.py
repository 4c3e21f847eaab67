"""Transversals per connected component, against the whole-graph search.

`tuple_repairs.component_transversals` runs Berge's step on each connected
component of a hypergraph, and two readers use its families:
`ordered_product` lists every transversal, `smallest_holding` gives the size
of the smallest one through each vertex. These tests hold both, and every
route built on them, to the whole-graph Berge of `berge.py`, to the full
enumerations and to the exhaustive oracles, on seeded corpora and under
`hypothesis`, and count the sets the per-component search builds.
"""
import dataclasses
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repcause import (
    actual_causes,
    attr_causes,
    c_repairs,
    cardinality_null_repairs,
    causes_oracle,
    conflict_hypergraph,
    minimal_hitting_sets,
    most_responsible_causes,
    negate_query_to_dc,
    null_repairs,
    null_repairs_oracle,
    parse_problem,
    s_repairs,
    tuple_null_causes,
)
from repcause import tuple_causes, tuple_repairs
from repcause.cli import main
from repcause.tuple_repairs import (
    component_transversals,
    minimum_families,
    ordered_product,
    smallest_holding,
)

from berge import whole_graph_berge
from test_properties import RELATIONS, atoms, with_exogenous

SEED = 20261018


def smallest_through(transversals):
    """Each vertex of `transversals` with the size of the smallest one that
    holds it, read off the full list."""
    smallest = {}
    for h in transversals:
        for v in h:
            smallest[v] = min(len(h), smallest.get(v, len(h)))
    return smallest


def smallest_only(items, size=len):
    """The items of least `size`, in their order: the size filter of a
    full listing."""
    least = min(map(size, items), default=0)
    return [item for item in items if size(item) == least]


def check_hypergraph(edges, allowed):
    expected = [tuple(sorted(h)) for h in whole_graph_berge(edges, allowed)]
    families = component_transversals(edges, allowed)
    assert ordered_product(families) == expected
    cut = edges if allowed is None else [e & allowed for e in edges]
    assert minimal_hitting_sets(cut) == expected
    assert smallest_holding(families) == smallest_through(expected)
    assert ordered_product(minimum_families(families)) == smallest_only(expected)
    vertices = [set().union(*family) for family in families]
    assert sum(map(len, vertices)) == len(set().union(*vertices))
    return len(families)


def random_blocks(rng):
    """Edges on up to four disjoint vertex ranges, with duplicate, nested
    and now and then empty edges, and an optional `allowed` set."""
    edges = []
    for block in range(rng.randint(1, 4)):
        vertices = range(10 * block, 10 * block + rng.randint(1, 5))
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, min(len(vertices), 3))
            edges.append(frozenset(rng.sample(vertices, size)))
    if rng.random() < 0.3:
        edges.append(rng.choice(edges))
    if rng.random() < 0.3:
        edges.append(rng.choice(edges) | {rng.choice(sorted(rng.choice(edges)))})
    if rng.random() < 0.05:
        edges.append(frozenset())
    if rng.random() < 0.05:
        edges = []
    rng.shuffle(edges)
    allowed = None
    if rng.random() < 0.4:
        everything = sorted(set().union(*edges))
        allowed = set(rng.sample(everything, rng.randint(0, len(everything))))
    return edges, allowed


class TestComponentTransversals:
    def test_an_allowed_set_can_split_a_component(self):
        edges = [frozenset({1, 2}), frozenset({2, 3})]
        families = component_transversals(edges, allowed={1, 3})
        assert {tuple(f) for f in families} == {((1,),), ((3,),)}
        assert ordered_product(families) == [(1, 3)]
        assert smallest_holding(families) == {1: 2, 3: 2}
        assert check_hypergraph(edges, {1, 3}) == 2

    def test_no_edges_and_an_empty_edge(self):
        assert component_transversals([]) == []
        assert ordered_product([]) == [()]
        assert smallest_holding([]) == {}
        for edges in ([frozenset()], [frozenset({1}), frozenset()]):
            assert component_transversals(edges) == [[]]
            assert ordered_product([[]]) == []
            assert smallest_holding([[]]) == {}
            check_hypergraph(edges, None)

    def test_duplicate_and_nested_edges(self):
        edges = [frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2, 5}),
                 frozenset({7}), frozenset({7, 8}), frozenset({3, 4})]
        assert check_hypergraph(edges, None) == 3

    def test_a_union_is_its_chained_parts_sorted(self):
        # the second family's members come before the first's, so a union
        # chained part by part is out of order until it is sorted
        assert ordered_product([[(5, 6)], [(1, 9)]]) == [(1, 5, 6, 9)]
        assert ordered_product([[(2,), (5, 6)], [(1, 9), (3, 4, 7)]]) == [
            (1, 2, 9), (1, 5, 6, 9), (2, 3, 4, 7), (3, 4, 5, 6, 7)
        ]

    def test_one_component_is_returned_as_it_is(self):
        path = [frozenset({i, i + 1}) for i in range(1, 9)]
        (family,) = component_transversals(path)
        assert ordered_product([family]) is family

    def test_matches_whole_graph_berge(self):
        rng = random.Random(SEED)
        split = 0
        for _ in range(400):
            split += check_hypergraph(*random_blocks(rng)) > 1
        assert split >= 150
        # one edge, which `minimal_hitting_sets` answers without Berge's
        # sorts: sizes 0 (the empty edge) to 4, alone and duplicated, with
        # no `allowed`, an `allowed` set around part of it, and one missing it
        for size in range(5):
            edge = frozenset(rng.sample(range(10), size))
            for edges in ([edge], [edge, frozenset(edge)]):
                part = set(rng.sample(sorted(edge), size // 2)) | {10, 11}
                for allowed in (None, part, {10}):
                    assert check_hypergraph(edges, allowed) == 1

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        edges=st.lists(st.frozensets(st.integers(0, 11), max_size=4), max_size=8),
        allowed=st.none() | st.sets(st.integers(0, 11)),
    )
    def test_matches_whole_graph_berge_property(self, edges, allowed):
        check_hypergraph(edges, allowed)


def grouped_problem(facts, bodies, exogenous):
    """The problem whose facts are `(group, (relation, values))` pairs, each
    value suffixed with its fact's group so that facts of different groups
    share no constant, with the query `q` of one disjunct per body of
    `(relation, variables)` atoms, and the tids in `exogenous` exogenous.
    So the matches and the violations of ¬q fall into several components."""
    lines = [
        f"{relation}({tid}; {', '.join(value + str(group) for value in values)})."
        for tid, (group, (relation, values)) in enumerate(facts, start=1)
    ]
    for body in bodies:
        conjuncts = ", ".join(f"{relation}({', '.join(terms)})" for relation, terms in body)
        lines.append(f"q :- {conjuncts}?")
    return with_exogenous(parse_problem("\n".join(lines)), exogenous)


def random_grouped_problem(rng):
    def atom(terms):
        relation, arity = rng.choice(RELATIONS)
        return relation, [rng.choice(terms) for _ in range(arity)]

    facts = [(rng.randrange(4), atom("ab")) for _ in range(rng.randint(1, 9))]
    bodies = [[atom("XYZ") for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 2))]
    return grouped_problem(facts, bodies, set(rng.sample(range(1, 10), rng.randint(0, 2))))


def check_routes(problem):
    instance, query = problem.instance, problem.query("q")
    full = actual_causes(instance, query)
    bare = [dataclasses.replace(r, contingency_tids=()) for r in full]
    oracle = [
        dataclasses.replace(r, contingency_tids=()) for r in causes_oracle(instance, query)
    ]
    assert actual_causes(instance, query, max_contingency_count=0) == bare == oracle
    top = [r.tid for r in bare if r.responsibility == bare[0].responsibility]
    assert most_responsible_causes(instance, query) == top

    dcs = negate_query_to_dc(query)
    removed = smallest_only(s_repairs(instance, dcs), lambda r: len(r.removed))
    assert c_repairs(instance, dcs) == removed
    listed = null_repairs(instance, dcs)
    delta = smallest_only(listed, lambda r: len(r.delta))
    assert cardinality_null_repairs(instance, dcs) == delta
    if len(instance.non_null_positions()) <= 9:
        oracle_deltas = [r.delta for r in null_repairs_oracle(instance, dcs)]
        assert oracle_deltas == [r.delta for r in listed]

    smallest = smallest_through([r.delta for r in listed])
    attr = attr_causes(instance, query)
    assert {r.position: 1 / r.responsibility for r in attr} == smallest
    assert all(r.counterfactual == (r.responsibility == 1) for r in attr)
    by_tid = {}
    for ref, size in smallest.items():
        by_tid.setdefault(ref.tid, []).append((size, ref))
    assert {
        r.tid: (1 / r.responsibility, r.witness_positions)
        for r in tuple_null_causes(instance, query)
    } == {
        tid: (min(size for size, _ in sized), frozenset(ref for _, ref in sized))
        for tid, sized in by_tid.items()
    }
    return len(component_transversals(conflict_hypergraph(instance, dcs).edges))


def test_routes_on_the_families_match_the_full_lists_and_oracles():
    rng = random.Random(SEED + 1)
    split = 0
    for _ in range(400):
        split += check_routes(random_grouped_problem(rng)) > 1
    assert split >= 70


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    facts=st.lists(st.tuples(st.integers(0, 3), atoms("ab")), max_size=9),
    bodies=st.lists(st.lists(atoms("XYZ"), min_size=1, max_size=3), min_size=1, max_size=2),
    exogenous=st.sets(st.integers(1, 9), max_size=2),
)
def test_routes_on_the_families_match_the_full_lists_and_oracles_property(
    facts, bodies, exogenous
):
    check_routes(grouped_problem(facts, bodies, exogenous))


def pairs_text(k):
    """q :- R(X), S(X)? on k disjoint matches R(ai), S(ai)."""
    facts = [f"R(a{i}).\nS(a{i})." for i in range(k)]
    return "\n".join(facts) + "\nq :- R(X), S(X)?"


def pairs(k):
    return parse_problem(pairs_text(k))


def test_the_per_component_search_builds_no_product(monkeypatch):
    # the whole-graph search on pairs-k builds 2^k transversals; split into
    # components it builds k families of two sets each
    sizes = []
    search = tuple_repairs.minimal_hitting_sets

    def counted(edges):
        family = search(edges)
        sizes.append(len(family))
        return family

    monkeypatch.setattr(tuple_repairs, "minimal_hitting_sets", counted)
    problem = pairs(16)
    reports = actual_causes(problem.instance, problem.query("q"), max_contingency_count=0)
    assert {r.responsibility for r in reports} == {Fraction(1, 16)} and len(reports) == 32
    assert sizes == [2] * 16
    sizes.clear()
    problem = pairs(12)
    reports = attr_causes(problem.instance, problem.query("q"))
    assert {r.responsibility for r in reports} == {Fraction(1, 12)} and len(reports) == 24
    assert sizes == [2] * 12


def test_responsibility_alone_builds_no_product(monkeypatch, tmp_path, capsys):
    # `most_responsible_causes` and the `responsibility` command read the
    # sizes off the families; only a listing of contingency sets takes the
    # product of the query's transversals
    calls = []
    product = tuple_causes.ordered_product

    def counted(families):
        calls.append(len(families))
        return product(families)

    monkeypatch.setattr(tuple_causes, "ordered_product", counted)
    problem = pairs(12)
    assert most_responsible_causes(problem.instance, problem.query("q")) == list(range(1, 25))
    assert calls == []
    source = tmp_path / "pairs.cdl"
    source.write_text(pairs_text(12))
    assert main(["responsibility", str(source), "--query", "q"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 24
    assert calls == []
    assert main(["causes", str(source), "--query", "q"]) == 0
    assert calls == [12]
