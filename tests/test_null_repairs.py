import pytest

from repcause import (
    NullRepairRecord,
    PositionRef,
    cardinality_null_repairs,
    is_consistent,
    negate_query_to_dc,
    null_repairs,
    null_repairs_oracle,
    parse_problem,
)


def deltas(records):
    return {r.delta for r in records}


def refs(*specs):
    return frozenset(PositionRef(rel, tid, pos) for rel, tid, pos in specs)


class TestNullRepairs:
    def test_two_tuple_chain(self, load):
        problem = load("example12.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert deltas(null_repairs(problem.instance, dcs)) == {
            refs(("P", 8, 2)),
            refs(("R", 9, 1)),
        }

    def test_chain_repairs_by_content(self, load):
        problem = load("example12.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        rendered = {r.repair.render() for r in null_repairs(problem.instance, dcs)}
        assert rendered == {
            "{P(8;1,null), R(9;2,1)}",
            "{P(8;1,2), R(9;null,1)}",
        }

    def test_three_change_candidate_is_not_minimal(self, load):
        problem = load("example12.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        big = refs(("P", 8, 1), ("P", 8, 2), ("R", 9, 1))
        assert is_consistent(problem.instance.apply_update(big), dcs)
        assert big not in deltas(null_repairs(problem.instance, dcs))

    def test_fan_out_instance(self, load):
        problem = load("example7.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert deltas(null_repairs(problem.instance, dcs)) == {
            refs(("S", 2, 1)),
            refs(("R", 3, 1), ("R", 4, 1), ("R", 5, 1)),
        }

    def test_triangle_instance_change_sets(self, load):
        problem = load("example6.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert deltas(null_repairs(problem.instance, dcs)) == {
            refs(("S", 5, 1)),
            refs(("R", 2, 1), ("R", 3, 2)),
            refs(("R", 2, 2), ("R", 3, 2)),
            refs(("R", 2, 1), ("R", 3, 1)),
            refs(("R", 2, 2), ("R", 3, 1)),
            refs(("R", 2, 1), ("S", 6, 1)),
            refs(("R", 2, 2), ("S", 6, 1)),
        }

    def test_consistent_instance_needs_no_change(self):
        problem = parse_problem("S(a).\nq :- S(X), R(X, Y)?")
        dcs = negate_query_to_dc(problem.query("q"))
        records = null_repairs(problem.instance, dcs)
        assert len(records) == 1 and records[0].delta == frozenset()

    def test_violation_without_candidate_positions_has_no_repair(self):
        # X occurs once and feeds no built-in, so nulling S's value still
        # leaves S(X) matched: no change set repairs the instance
        problem = parse_problem("S(1; a).\n:- S(X).")
        assert null_repairs(problem.instance, problem.dcs) == []
        assert cardinality_null_repairs(problem.instance, problem.dcs) == []

    def test_every_repair_is_consistent_and_minimal(self, load):
        problem = load("example6.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        for rec in null_repairs(problem.instance, dcs):
            assert is_consistent(rec.repair, dcs)
            for ref in rec.delta:
                smaller = problem.instance.apply_update(rec.delta - {ref})
                assert not is_consistent(smaller, dcs)


class TestNullRepairRecord:
    def test_stores_the_increasing_changes(self, load):
        problem = load("example7.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        records = null_repairs(problem.instance, dcs)
        assert [r.changes for r in records] == [
            (PositionRef("S", 2, 1),),
            (PositionRef("R", 3, 1), PositionRef("R", 4, 1), PositionRef("R", 5, 1)),
        ]
        for r in records:
            assert r.delta == frozenset(r.changes)
            assert not hasattr(r, "__dict__")
        # the source takes no part in equality or hashing
        other = NullRepairRecord(parse_problem("S(a).").instance, records[1].changes)
        assert other == records[1] and hash(other) == hash(records[1])
        assert other != NullRepairRecord(problem.instance, records[0].changes)
        # the oracle lists the same stored tuples in the same order
        assert null_repairs_oracle(problem.instance, dcs) == records


class TestCardinalityNullRepairs:
    def test_unique_minimum_change(self, load):
        problem = load("example6.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        records = cardinality_null_repairs(problem.instance, dcs)
        assert deltas(records) == {refs(("S", 5, 1))}

    def test_singleton_beats_triple(self, load):
        problem = load("example7.cdl")
        dcs = negate_query_to_dc(problem.query("q"))
        assert deltas(cardinality_null_repairs(problem.instance, dcs)) == {
            refs(("S", 2, 1))
        }


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "fixture", ["example6.cdl", "example7.cdl", "example12.cdl"]
    )
    def test_pruned_search_equals_exhaustive(self, load, fixture):
        problem = load(fixture)
        dcs = negate_query_to_dc(problem.query("q"))
        assert deltas(null_repairs(problem.instance, dcs)) == deltas(
            null_repairs_oracle(problem.instance, dcs)
        )
