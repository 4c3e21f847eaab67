import pytest

from repcause import (
    NULL,
    Instance,
    ModelError,
    PositionRef,
    num,
    sym,
)


def small_instance() -> Instance:
    inst = Instance()
    inst.add_fact("R", [sym("a4"), sym("a3")], tid=1)
    inst.add_fact("S", [sym("a4")], tid=4)
    return inst


class TestConstants:
    def test_null_is_a_distinct_singleton(self):
        assert NULL.is_null()
        assert NULL != sym("null_like")
        assert NULL != sym("a")
        assert NULL != num(0)

    def test_symbols_and_numbers_never_collide(self):
        assert sym("1") != num(1)
        assert num(3) == num(3)
        assert sym("a") == sym("a")

    def test_render(self):
        assert sym("a4").render() == "a4"
        assert num(7).render() == "7"
        assert NULL.render() == "null"


class TestInstance:
    def test_tid_uniqueness_enforced(self):
        inst = small_instance()
        with pytest.raises(ModelError):
            inst.add_fact("S", [sym("b")], tid=1)

    def test_tid_must_be_positive(self):
        inst = Instance()
        with pytest.raises(ModelError):
            inst.add_fact("S", [sym("b")], tid=0)

    def test_auto_tid_takes_smallest_free(self):
        inst = small_instance()
        assert inst.add_fact("S", [sym("b")]) == 2

    def test_auto_tid_skips_a_tid_given_earlier(self):
        # R(2; a). R(b). R(c).
        inst = Instance()
        inst.add_fact("R", [sym("a")], tid=2)
        assert inst.add_fact("R", [sym("b")]) == 1
        assert inst.add_fact("R", [sym("c")]) == 3

    def test_arity_conflict_rejected(self):
        inst = small_instance()
        with pytest.raises(ModelError):
            inst.add_fact("R", [sym("x")], tid=9)

    def test_tuple_render_includes_tid(self):
        inst = small_instance()
        assert inst.get(1).render() == "R(1;a4,a3)"

    def test_canonical_iteration_order(self):
        inst = Instance()
        inst.add_fact("S", [sym("b")], tid=9)
        inst.add_fact("R", [sym("a"), sym("b")], tid=2)
        inst.add_fact("R", [sym("c"), sym("d")], tid=1)
        assert [t.tid for t in inst.tuples()] == [1, 2, 9]

    def test_tuples_of_is_in_tid_order_and_sees_later_facts(self):
        inst = Instance()
        inst.add_fact("R", [sym("a")], tid=5)
        inst.add_fact("S", [sym("b")], tid=1)
        inst.add_fact("R", [sym("c")], tid=3)
        assert [t.tid for t in inst.tuples_of("R")] == [3, 5]
        inst.add_fact("R", [sym("d")], tid=4)
        assert [t.tid for t in inst.tuples_of("R")] == [3, 4, 5]
        assert [t.tid for t in inst.delete_tuples({4}).tuples_of("R")] == [3, 5]
        assert inst.tuples_of("T") == ()

    def test_delete_is_persistent(self):
        inst = small_instance()
        smaller = inst.delete_tuples({4})
        assert 4 in inst and 4 not in smaller
        assert len(inst) == 2 and len(smaller) == 1

    def test_delete_unknown_tid_fails(self):
        with pytest.raises(ModelError):
            small_instance().delete_tuples({99})

    def test_apply_update_nulls_positions(self):
        inst = small_instance()
        ref = PositionRef("R", 1, 2)
        updated = inst.apply_update([ref])
        assert updated.value_at(ref).is_null()
        assert not inst.value_at(ref).is_null()
        assert updated.get(1).values[0] == sym("a4")

    def test_apply_update_validates_position(self):
        inst = small_instance()
        with pytest.raises(ModelError):
            inst.apply_update([PositionRef("R", 1, 3)])
        with pytest.raises(ModelError):
            inst.apply_update([PositionRef("S", 1, 1)])

    def test_equality_is_value_semantics(self):
        assert small_instance() == small_instance()
        assert small_instance() != small_instance().delete_tuples({1})


class TestPositionRef:
    def test_render(self):
        assert PositionRef("R", 2, 1).render() == "R[2;1]"

    def test_sort_key_orders_by_relation_tid_position(self):
        refs = [PositionRef("S", 1, 1), PositionRef("R", 2, 2), PositionRef("R", 2, 1)]
        ordered = sorted(refs, key=PositionRef.sort_key)
        assert [r.render() for r in ordered] == ["R[2;1]", "R[2;2]", "S[1;1]"]
