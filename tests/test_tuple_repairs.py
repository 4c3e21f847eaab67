import random
from itertools import chain, combinations

from repcause import (
    RepairRecord,
    c_repairs,
    conflict_hypergraph,
    diff_sets,
    is_consistent,
    minimal_hitting_sets,
    negate_query_to_dc,
    parse_problem,
    s_repairs,
    s_repairs_under_hard_ics,
)
from repcause.oracles import minimal_subsets
from repcause.tuple_repairs import component_transversals, ordered_product


def removed_sets(records):
    return [set(r.removed) for r in records]


class TestMinimalHittingSets:
    def test_single_edge(self):
        assert minimal_hitting_sets([frozenset({1, 2})]) == [(1,), (2,)]

    def test_overlapping_edges(self):
        hits = minimal_hitting_sets([frozenset({1, 2}), frozenset({2, 3})])
        assert hits == [(2,), (1, 3)]

    def test_no_edges_gives_empty_transversal(self):
        assert minimal_hitting_sets([]) == [()]

    def test_an_empty_edge_has_no_transversal(self):
        assert minimal_hitting_sets([frozenset()]) == []
        assert minimal_hitting_sets([frozenset({1}), frozenset()]) == []

    def test_allowed_filter(self):
        edges = [frozenset({1, 2}), frozenset({2, 3})]
        assert ordered_product(component_transversals(edges, allowed={2})) == [(2,)]
        assert ordered_product(component_transversals(edges, allowed={1})) == []

    def test_results_are_pairwise_incomparable(self):
        edges = [frozenset(e) for e in [{1, 2, 3}, {3, 4}, {1, 5}, {2, 4, 5}]]
        hits = minimal_hitting_sets(edges)
        for a in hits:
            for b in hits:
                assert a == b or not set(a) <= set(b)

    def test_deep_search_does_not_hit_the_recursion_limit(self):
        # one singleton edge per tuple: the only transversal picks every
        # vertex, one search level each, deeper than the default stack allows
        problem = parse_problem(
            "\n".join(f"S({t}; a)." for t in range(1, 1201)) + "\n:- S(a)."
        )
        (record,) = s_repairs(problem.instance, problem.dcs)
        assert record.removed == frozenset(range(1, 1201))
        assert len(record.repair) == 0

    def test_matches_brute_force(self):
        # one fixed hypergraph plus a seeded corpus of random ones, with
        # duplicate and nested edges and an optional `allowed` set; the
        # output must equal the brute-force minimal transversals in
        # (size, sorted members) order
        rng = random.Random(2017)
        cases = [([frozenset(e) for e in [{1, 2, 3}, {3, 4}, {1, 5}, {2, 4, 5}]], None)]
        for _ in range(300):
            vertices = range(1, rng.randint(1, 8) + 1)
            edges = [
                frozenset(rng.sample(vertices, rng.randint(1, min(len(vertices), 4))))
                for _ in range(rng.randint(0, 6))
            ]
            if edges and rng.random() < 0.5:
                edges.append(rng.choice(edges))
            if edges and rng.random() < 0.5:
                edges.append(rng.choice(edges) | {rng.choice(vertices)})
            allowed = None
            if rng.random() < 0.4:
                allowed = set(rng.sample(vertices, rng.randint(0, len(vertices))))
            cases.append((edges, allowed))
        for edges, allowed in cases:
            universe = sorted(set(chain.from_iterable(edges)))
            if allowed is not None:
                universe = [v for v in universe if v in allowed]
            all_hits = [
                frozenset(c)
                for size in range(len(universe) + 1)
                for c in combinations(universe, size)
                if all(set(c) & e for e in edges)
            ]
            expected = [h for h in all_hits if not any(o < h for o in all_hits)]
            expected.sort(key=lambda h: (len(h), sorted(h)))
            assert ordered_product(component_transversals(edges, allowed=allowed)) == [
                tuple(sorted(h)) for h in expected
            ]

    def test_path_and_cycle_counts_follow_padovan_and_perrin(self):
        # the minimal vertex covers of the path on n vertices number
        # Padovan(n + 1), those of the n-cycle Perrin(n); both sequences
        # satisfy a(n) = a(n - 2) + a(n - 3)
        padovan, perrin = [1, 1, 1], [3, 0, 2]
        while len(padovan) < 27:
            padovan.append(padovan[-2] + padovan[-3])
            perrin.append(perrin[-2] + perrin[-3])
        for n in range(2, 26):
            path = [frozenset({i, i + 1}) for i in range(1, n)]
            assert len(minimal_hitting_sets(path)) == padovan[n + 1]
            if n >= 3:
                cycle = path + [frozenset({n, 1})]
                assert len(minimal_hitting_sets(cycle)) == perrin[n]


class TestMinimalSubsets:
    def test_smallest_first_and_supersets_skipped(self):
        asked = []

        def holds(subset):
            asked.append(subset)
            return subset in ({2}, {1, 3}, {1, 2, 3})

        found = list(minimal_subsets([1, 2, 3], holds))
        assert found == [frozenset({2}), frozenset({1, 3})]
        # every superset of {2} or of {1, 3} was skipped unasked
        assert asked == [
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({1, 3}),
        ]

    def test_empty_set_is_a_result(self):
        assert next(minimal_subsets([1, 2], lambda s: True), None) == frozenset()
        assert list(minimal_subsets([1, 2], lambda s: False)) == []


class TestSRepairs:
    def test_join_query_example(self, load):
        problem = load("example1.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert removed_sets(s_repairs(problem.instance, dcs)) == [
            {6},
            {1, 3},
            {3, 4},
        ]

    def test_two_constraint_example(self, load):
        problem = load("example2.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert removed_sets(s_repairs(problem.instance, dcs)) == [{1}, {3, 4}]

    def test_every_repair_is_consistent_and_maximal(self, load):
        problem = load("example1.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        for rec in s_repairs(problem.instance, dcs):
            assert is_consistent(rec.repair, dcs)
            for tid in rec.removed:
                grown = rec.repair._clone_schema()
                grown._tuples = dict(rec.repair._tuples)
                grown._tuples[tid] = problem.instance.get(tid)
                assert not is_consistent(grown, dcs)

    def test_consistent_instance_repairs_to_itself(self):
        problem = parse_problem("S(a).\n:- S(X), R(X, Y).")
        records = s_repairs(problem.instance, problem.dcs)
        assert removed_sets(records) == [set()]
        assert records[0].repair == problem.instance


class TestRepairRecord:
    def test_stores_the_increasing_removed_tids(self, load):
        problem = load("example1.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        records = s_repairs(problem.instance, dcs)
        assert [r.removed_tids for r in records] == [(6,), (1, 3), (3, 4)]
        for r in records:
            assert r.removed == frozenset(r.removed_tids)
            assert not hasattr(r, "__dict__")
        # the source takes no part in equality or hashing
        other = RepairRecord(parse_problem("S(a).").instance, (1, 3))
        assert other == records[1] and hash(other) == hash(records[1])
        assert other != RepairRecord(problem.instance, (3, 4))


class TestCRepairs:
    def test_minimum_size_selection(self, load):
        problem = load("example1.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert removed_sets(c_repairs(problem.instance, dcs)) == [{6}]

    def test_three_edge_example_has_three_minimum_repairs(self, load):
        problem = load("example5.cdl")
        records = c_repairs(problem.instance, problem.dcs)
        assert removed_sets(records) == [{1, 2}, {2, 3}, {3, 5}]


class TestConflictHypergraph:
    def test_three_constraint_hyperedges(self, load):
        problem = load("example5.cdl")
        graph = conflict_hypergraph(problem.instance, problem.dcs)
        assert graph.edges == {
            frozenset({2, 5}),
            frozenset({2, 3, 4}),
            frozenset({1, 3}),
        }


class TestDiffSets:
    def test_subset_mode(self, load):
        problem = load("example1.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert diff_sets(s_repairs(problem.instance, dcs), 1) == [
            frozenset({1, 3})
        ]

    def test_cardinality_mode(self, load):
        problem = load("example1.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert diff_sets(c_repairs(problem.instance, dcs), 6) == [
            frozenset({6})
        ]

    def test_never_removed_tuple(self, load):
        problem = load("example1.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert diff_sets(s_repairs(problem.instance, dcs), 2) == []


class TestHardInclusionDependencies:
    def _course_dc(self, problem):
        from repcause import substitute_answer, sym

        q2 = substitute_answer(problem.query("Q2"), [sym("john")])
        return negate_query_to_dc(q2)

    def test_cascade_extends_the_removed_set(self, load):
        problem = load("example_registrar.cdl")
        dcs = self._course_dc(problem)
        records = s_repairs_under_hard_ics(problem.instance, dcs, problem.ids)
        assert removed_sets(records) == [{1, 4, 8}]

    def test_without_ids_matches_plain_repairs(self, load):
        problem = load("example_registrar.cdl")
        dcs = self._course_dc(problem)
        plain = s_repairs(problem.instance, dcs)
        assert removed_sets(plain) == [{4, 8}]
        assert removed_sets(
            s_repairs_under_hard_ics(problem.instance, dcs, [])
        ) == removed_sets(plain)

    def test_repairs_satisfy_both_constraint_kinds(self, load):
        from repcause import satisfies_ids

        problem = load("example_registrar.cdl")
        dcs = self._course_dc(problem)
        for rec in s_repairs_under_hard_ics(problem.instance, dcs, problem.ids):
            assert is_consistent(rec.repair, dcs)
            assert satisfies_ids(rec.repair, problem.ids)
