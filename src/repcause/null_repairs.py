"""Attribute-level repairs that replace values by null.

Nulling a position can only falsify constraint-body assignments, never
create new ones, so a minimal change set is exactly a minimal hitting set
over the violations' candidate positions: the slots each violating
assignment reads through a join variable, a built-in variable, or a
constant. A violation none of whose candidate positions is nulled survives
verbatim, so hitting every edge is also necessary. An exhaustive oracle over
all subsets of non-null positions, `oracles.null_repairs_oracle`, validates
the reduction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import FrozenSet, List, Sequence

from .lang import DenialConstraint, candidate_slots, violations
from .model import Instance, PositionRef
from .tuple_repairs import minimal_hitting_sets


@dataclass(frozen=True)
class NullRepairRecord:
    """A null repair, held as the set of positions it nulls in `source`."""

    source: Instance = field(compare=False, repr=False)
    delta: FrozenSet[PositionRef]

    @property
    def repair(self) -> Instance:
        """The updated instance with every position of `delta` nulled, built
        on each read."""
        return self.source.apply_update(self.delta)


def _candidate_edges(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[FrozenSet[PositionRef]]:
    """One hyperedge per violating assignment: the nullable positions whose
    change falsifies it. Join positions carrying null already fail the
    assignment, so every collected position is non-null in D."""
    edges: List[FrozenSet[PositionRef]] = []
    # `violations` lists the matches DC by DC, so each DC's slots are read once
    for dc, matches in groupby(violations(instance, dcs), key=itemgetter(0)):
        slots = [(dc.body.atoms[i].relation, i, j) for i, j in candidate_slots(dc.body)]
        edges.extend(
            frozenset(PositionRef(rel, tids[i], j) for rel, i, j in slots)
            for _, tids in matches
        )
    return edges


def null_repairs(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[NullRepairRecord]:
    """All consistent instances reachable by a ⊆-minimal set of
    value-to-null changes, by (size, sorted positions) of their change sets.

    A violation with no candidate position cannot be repaired, and then
    there is no repair at all.
    """
    edges = _candidate_edges(instance, dcs)
    # number the positions in sort-key order, so that the hitting sets'
    # (size, sorted members) order is also the order of their change sets
    refs = sorted({ref for e in edges for ref in e}, key=PositionRef.sort_key)
    index = {ref: i for i, ref in enumerate(refs)}
    hits = minimal_hitting_sets([frozenset(index[r] for r in e) for e in edges])
    return [
        NullRepairRecord(instance, frozenset(refs[i] for i in h)) for h in hits
    ]


def cardinality_null_repairs(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[NullRepairRecord]:
    """The null repairs of minimum size; `null_repairs` lists the smallest
    first."""
    subs = null_repairs(instance, dcs)
    return [r for r in subs if len(r.delta) == len(subs[0].delta)]
