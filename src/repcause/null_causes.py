"""Attribute- and tuple-level causes under the null-update repair semantics.

A positioned value is an actual cause for a Boolean query when it belongs to
the change set of some minimal null-update repair of the negated query; its
responsibility is 1 over the size of the smallest such change set, and it is
counterfactual when nulling it alone falsifies the query. Tuple-level
responsibility aggregates over the tuple's positions. The counterfactual
characterization (null the position inside some prior update) is searched
directly by `oracles.is_actual_attr_cause`, as an independent cross-check.
`null_repairs` lists the change sets smallest first, so the first one that
holds a position or a tuple gives its responsibility.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Set, Tuple

from .lang import QuerySpec, negate_query_to_dc
from .model import Constant, Instance, PositionRef
from .null_repairs import null_repairs


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
            best.setdefault(ref, len(delta))
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
    instance: Instance, query: QuerySpec
) -> List[TupleNullCauseReport]:
    """Tuples owning at least one attribute-level cause. Responsibility is 1
    over the smallest change set touching the tuple."""
    best: Dict[int, int] = {}
    witnesses: Dict[int, Set[PositionRef]] = {}
    for delta in _repair_deltas(instance, query):
        for ref in delta:
            best.setdefault(ref.tid, len(delta))
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
