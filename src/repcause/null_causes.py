"""Attribute- and tuple-level causes under the null-update repair semantics.

A positioned value is an actual cause for a Boolean query when it belongs to
the change set of some minimal null-update repair of the negated query; its
responsibility is 1 over the size of the smallest such change set, and it is
counterfactual when nulling it alone falsifies the query. Tuple-level
responsibility aggregates over the tuple's positions. The counterfactual
characterization (null the position inside some prior update) is also
implemented directly, as an independent cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Set, Tuple

from .lang import QuerySpec, eval_bcq, negate_query_to_dc
from .model import Constant, Instance, PositionRef
from .null_repairs import null_repairs
from .tuple_repairs import minimal_subsets


def _repair_deltas(
    instance: Instance, query: QuerySpec
) -> Tuple[FrozenSet[PositionRef], ...]:
    dcs = negate_query_to_dc(query)
    return tuple(r.delta for r in null_repairs(instance, dcs))


@dataclass(frozen=True)
class AttrCauseReport:
    position: PositionRef
    original_value: Constant
    counterfactual: bool
    responsibility: Fraction


@dataclass(frozen=True)
class TupleNullCauseReport:
    tid: int
    responsibility: Fraction
    witness_positions: FrozenSet[PositionRef]


def diff_null(
    instance: Instance, query: QuerySpec, position: PositionRef
) -> List[FrozenSet[PositionRef]]:
    """Change sets of the minimal null-repairs (of the negated query) that
    null the given position."""
    return [d for d in _repair_deltas(instance, query) if position in d]


def attr_causes(instance: Instance, query: QuerySpec) -> List[AttrCauseReport]:
    best: Dict[PositionRef, int] = {}
    for delta in _repair_deltas(instance, query):
        for ref in delta:
            size = len(delta)
            if ref not in best or size < best[ref]:
                best[ref] = size
    reports = [
        AttrCauseReport(
            position=ref,
            original_value=instance.value_at(ref),
            counterfactual=size == 1,
            responsibility=Fraction(1, size),
        )
        for ref, size in best.items()
    ]
    reports.sort(key=lambda r: (-r.responsibility, r.position.sort_key()))
    return reports


def tuple_null_causes(
    instance: Instance, query: QuerySpec, multiplicity_adjusted: bool = False
) -> List[TupleNullCauseReport]:
    """Tuples owning at least one attribute-level cause.

    Responsibility is 1 over the smallest change set touching the tuple.
    With `multiplicity_adjusted`, several changes inside the same tuple
    count as one: the change set's size drops by one per extra position of
    that tuple it nulls.
    """
    best: Dict[int, int] = {}
    witnesses: Dict[int, Set[PositionRef]] = {}
    for delta in _repair_deltas(instance, query):
        by_tid: Dict[int, int] = {}
        for ref in delta:
            by_tid[ref.tid] = by_tid.get(ref.tid, 0) + 1
            witnesses.setdefault(ref.tid, set()).add(ref)
        for tid, own in by_tid.items():
            size = len(delta) - (own - 1) if multiplicity_adjusted else len(delta)
            if tid not in best or size < best[tid]:
                best[tid] = size
    reports = [
        TupleNullCauseReport(
            tid=tid,
            responsibility=Fraction(1, size),
            witness_positions=frozenset(witnesses[tid]),
        )
        for tid, size in best.items()
    ]
    reports.sort(key=lambda r: (-r.responsibility, r.tid))
    return reports


def is_counterfactual_attr_cause(
    instance: Instance, query: QuerySpec, position: PositionRef
) -> bool:
    """Nulling just this position falsifies the (currently true) query."""
    if not eval_bcq(instance, query):
        return False
    return not eval_bcq(instance.apply_update([position]), query)


def is_actual_attr_cause(
    instance: Instance, query: QuerySpec, position: PositionRef
) -> bool:
    """Some update U avoiding the position leaves the query true while the
    position has become counterfactual in the updated instance.

    Direct search over all update sets; exponential, so meant for small
    inputs and as a cross-check of `attr_causes`.
    """
    if not eval_bcq(instance, query):
        return False
    if instance.value_at(position).is_null():
        return False
    others = [p for p in instance.non_null_positions() if p != position]

    def leaves_position_counterfactual(update: FrozenSet[PositionRef]) -> bool:
        updated = instance.apply_update(update)
        return eval_bcq(updated, query) and not eval_bcq(
            updated.apply_update([position]), query
        )

    # the empty update is a valid (falsy) witness, so compare against None
    witnesses = minimal_subsets(others, leaves_position_counterfactual)
    return next(witnesses, None) is not None
