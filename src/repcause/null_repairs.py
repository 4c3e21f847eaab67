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
from typing import FrozenSet, List, Sequence, Tuple

from .lang import DenialConstraint, candidate_slots, violations
from .model import Instance, PositionRef
from .tuple_repairs import component_transversals, minimum_families, ordered_product


@dataclass(frozen=True, slots=True)
class NullRepairRecord:
    """A null repair, held as the increasing tuple of the positions it nulls
    in `source`; `delta` gives them as a frozenset, built on each read."""

    source: Instance = field(compare=False, repr=False)
    changes: Tuple[PositionRef, ...]

    @property
    def delta(self) -> FrozenSet[PositionRef]:
        """The nulled positions as a frozenset."""
        return frozenset(self.changes)

    @property
    def repair(self) -> Instance:
        """The updated instance with every position of `changes` nulled,
        built on each read."""
        return self.source.apply_update(self.changes)


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


def position_transversals(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> Tuple[List[PositionRef], List[List[Tuple[int, ...]]]]:
    """The candidate positions of the violations, in (relation, tid,
    position) order, and `component_transversals` of the hypergraph on their
    indices in that list. Numbering the positions in order makes each
    increasing tuple of indices name its positions in increasing order, and
    the (size, members) order of the index tuples that of their change
    sets."""
    edges = _candidate_edges(instance, dcs)
    refs = sorted(frozenset().union(*edges))
    index = {ref: i for i, ref in enumerate(refs)}
    families = component_transversals([frozenset(index[r] for r in e) for e in edges])
    return refs, families


def _records(
    instance: Instance, refs: List[PositionRef], hits: List[Tuple[int, ...]]
) -> List[NullRepairRecord]:
    return [NullRepairRecord(instance, tuple(map(refs.__getitem__, h))) for h in hits]


def null_repairs(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[NullRepairRecord]:
    """All consistent instances reachable by a ⊆-minimal set of
    value-to-null changes, by (size, sorted positions) of their change sets.

    A violation with no candidate position cannot be repaired, and then
    there is no repair at all.
    """
    refs, families = position_transversals(instance, dcs)
    return _records(instance, refs, ordered_product(families))


def cardinality_null_repairs(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[NullRepairRecord]:
    """The null repairs of minimum size, in the order of `null_repairs`: the
    product of each component's minimum-size change sets, since a change
    set's size is the sum of its parts' sizes and each part is chosen on its
    own."""
    refs, families = position_transversals(instance, dcs)
    return _records(instance, refs, ordered_product(minimum_families(families)))
