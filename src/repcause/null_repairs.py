"""Attribute-level repairs that replace values by null.

Nulling a position can only falsify constraint-body assignments, never
create new ones, so a minimal change set is exactly a minimal hitting set
over the violations' candidate positions: the slots each violating
assignment reads through a join variable, a built-in variable, or a
constant. A violation none of whose candidate positions is nulled survives
verbatim, so hitting every edge is also necessary. An exhaustive oracle over
all subsets of non-null positions validates the reduction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence

from .lang import DenialConstraint, is_consistent, violations
from .model import Instance, PositionRef
from .tuple_repairs import minimal_hitting_sets, minimal_subsets


@dataclass(frozen=True)
class NullRepairRecord:
    repair: Instance
    delta: FrozenSet[PositionRef]
    kind: str  # "subset-minimal" | "cardinality-minimal"


def _candidate_edges(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[FrozenSet[PositionRef]]:
    """One hyperedge per violating assignment: the nullable positions whose
    change falsifies it. Join positions carrying null already fail the
    assignment, so every collected position is non-null in D."""
    return [w.candidate_positions for w in violations(instance, dcs)]


def _records_from_deltas(
    instance: Instance, deltas: Sequence[FrozenSet[PositionRef]], kind: str
) -> List[NullRepairRecord]:
    ordered = sorted(
        deltas, key=lambda d: (len(d), sorted(r.sort_key() for r in d))
    )
    return [NullRepairRecord(instance.apply_update(d), d, kind) for d in ordered]


def null_repairs(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[NullRepairRecord]:
    """All consistent instances reachable by a ⊆-minimal set of
    value-to-null changes, with their change sets."""
    edges = _candidate_edges(instance, dcs)
    if not edges:
        return [NullRepairRecord(instance, frozenset(), "subset-minimal")]
    # an edge with no candidate position would be an unrepairable violation;
    # impossible, since a violating assignment always reads a join variable,
    # a builtin variable or a constant somewhere — but guard anyway
    if any(not e for e in edges):
        return []

    index: Dict[PositionRef, int] = {}
    for e in edges:
        for ref in e:
            index.setdefault(ref, len(index))
    back = {i: ref for ref, i in index.items()}
    int_edges = [frozenset(index[r] for r in e) for e in edges]
    hits = minimal_hitting_sets(int_edges)
    deltas = [frozenset(back[i] for i in h) for h in hits]
    return _records_from_deltas(instance, deltas, "subset-minimal")


def cardinality_null_repairs(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[NullRepairRecord]:
    subs = null_repairs(instance, dcs)
    if not subs:
        return []
    best = min(len(r.delta) for r in subs)
    return [
        NullRepairRecord(r.repair, r.delta, "cardinality-minimal")
        for r in subs
        if len(r.delta) == best
    ]


def null_repairs_oracle(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[NullRepairRecord]:
    """Exhaustive check of every subset of non-null positions; exponential,
    for validation only."""
    deltas = minimal_subsets(
        instance.non_null_positions(),
        lambda delta: is_consistent(instance.apply_update(delta), dcs),
    )
    return _records_from_deltas(instance, list(deltas), "subset-minimal")
