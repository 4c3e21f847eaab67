"""Attribute- and tuple-level causes under the null-update repair semantics.

A positioned value is an actual cause for a Boolean query when it belongs to
the change set of some minimal null-update repair of the negated query; its
responsibility is 1 over the size of the smallest such change set, and it is
counterfactual when nulling it alone falsifies the query. Tuple-level
responsibility aggregates over the tuple's positions. The counterfactual
characterization (null the position inside some prior update) is searched
directly by `oracles.is_actual_attr_cause`, as an independent cross-check.

The change sets are the unions of one minimal transversal per connected
component of the candidate-position hypergraph, so the smallest one holding
a position is read off the per-component families by
`tuple_repairs.smallest_holding` with no repair listed: its part in the
position's component is the smallest set there that holds it, and every
other part is that component's minimum. A tuple's smallest change set is
the smallest over its positions, and its witnesses are its positions that
lie in some change set, i.e. in some family.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Set

from .lang import QuerySpec, negate_query_to_dc
from .model import Constant, Instance, PositionRef
from .null_repairs import null_repairs, position_transversals
from .tuple_repairs import smallest_holding


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


def _smallest_change_sets(instance: Instance, query: QuerySpec) -> Dict[PositionRef, int]:
    """For each position in some change set of the negated query's minimal
    null repairs, the size of the smallest one that holds it."""
    refs, families = position_transversals(instance, negate_query_to_dc(query))
    return {refs[i]: size for i, size in smallest_holding(families).items()}


def diff_null(
    instance: Instance, query: QuerySpec, position: PositionRef
) -> List[FrozenSet[PositionRef]]:
    """Change sets of the minimal null-repairs (of the negated query) that
    null the given position."""
    repairs = null_repairs(instance, negate_query_to_dc(query))
    return [r.delta for r in repairs if position in r.changes]


def attr_causes(instance: Instance, query: QuerySpec) -> List[AttrCauseReport]:
    reports = [
        AttrCauseReport(
            position=ref,
            original_value=instance.value_at(ref),
            counterfactual=size == 1,
            responsibility=Fraction(1, size),
        )
        for ref, size in _smallest_change_sets(instance, query).items()
    ]
    reports.sort(key=lambda r: (-r.responsibility, r.position))
    return reports


def tuple_null_causes(
    instance: Instance, query: QuerySpec
) -> List[TupleNullCauseReport]:
    """Tuples owning at least one attribute-level cause. Responsibility is 1
    over the smallest change set touching the tuple."""
    best: Dict[int, int] = {}
    witnesses: Dict[int, Set[PositionRef]] = {}
    for ref, size in _smallest_change_sets(instance, query).items():
        best[ref.tid] = min(size, best.get(ref.tid, size))
        witnesses.setdefault(ref.tid, set()).add(ref)
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
