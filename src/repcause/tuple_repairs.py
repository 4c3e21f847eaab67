"""Tuple-deletion repairs for denial constraints.

Subset-maximal consistent subinstances are the complements of the minimal
hitting sets (transversals) of the conflict hypergraph, whose hyperedges are
the tid-sets of constraint violations. `component_transversals` splits the
hypergraph into connected components and runs `minimal_hitting_sets`, Berge's
edge-by-edge algorithm, on each one; the null-update repairs share it. Two
readers turn the per-component families into answers:

- `ordered_product`: the minimal transversals of the whole hypergraph are
  exactly the unions of one minimal transversal per component. The
  components share no vertex, so a set hits every edge exactly when its
  part in each component hits that component's edges, and dropping a vertex
  can only unhit edges of the vertex's own component.
- `smallest_holding`: the size of such a union is the sum of its parts'
  sizes, each chosen on its own, so the smallest one holding v takes the
  smallest set of v's family that holds v and the minimum of every other.

The same sum makes the cardinality-minimal repairs the product of each
component's minimum-size sets (`minimum_families`). Hard inclusion
dependencies close a removed set under the deletions of the premise tuples
it leaves unwitnessed, on tid sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from .lang import DenialConstraint, InclusionDependency, id_witnesses, violations
from .model import Instance


@dataclass(frozen=True)
class ConflictHypergraph:
    edges: FrozenSet[FrozenSet[int]]


def conflict_hypergraph(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> ConflictHypergraph:
    edges = frozenset(frozenset(tids) for _, tids in violations(instance, dcs))
    return ConflictHypergraph(edges)


def size_ordered(sets: Iterable[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """`sets` by (size, sorted members): sorted by members, then stably by
    size, two passes whose keys are C functions."""
    ordered = sorted(sets, key=sorted)
    ordered.sort(key=len)
    return ordered


def minimal_hitting_sets(
    edges: Iterable[FrozenSet[int]],
    allowed: Optional[Set[int]] = None,
) -> List[FrozenSet[int]]:
    """All subset-minimal sets intersecting every edge, ordered by
    (size, sorted members). `component_transversals` runs it on each
    connected component of a hypergraph.

    Berge's algorithm: starting from the empty set, add the deduplicated
    edges one at a time, smallest first, keeping the minimal transversals of
    the edges seen so far. A set that already hits the new edge is kept; a
    set that misses it is extended by each vertex of the edge in turn. An
    extended set is dropped exactly when it contains a kept set, and that
    one check suffices: two extended sets are never comparable, since that
    needs the vertex added to one to lie in the other, which misses the
    edge; and an extended set is never inside a kept set, since two minimal
    sets of the previous round are never comparable. With no edges the
    result is the empty set alone; an empty edge makes it empty. With
    `allowed` given, only those vertices may be picked, so an edge with no
    allowed vertex makes the result empty too. One edge is answered
    directly: its (allowed) vertices as singletons, in order.
    """
    edge_set = set(edges)
    if len(edge_set) == 1:
        (edge,) = edge_set
        if allowed is not None:
            edge = edge.intersection(allowed)
        return [frozenset((v,)) for v in sorted(edge)]
    edge_list = size_ordered(edge_set)
    if allowed is not None:
        edge_list = [e.intersection(allowed) for e in edge_list]
        if any(not e for e in edge_list):
            return []

    hits: List[FrozenSet[int]] = [frozenset()]
    for edge in edge_list:
        kept = [h for h in hits if h & edge]
        extended = [h | {v} for h in hits if not h & edge for v in edge]
        hits = kept + [x for x in extended if not any(map(x.issuperset, kept))]
    return size_ordered(hits)


def component_transversals(
    edges: Iterable[FrozenSet[int]], allowed: Optional[Set[int]] = None
) -> List[List[FrozenSet[int]]]:
    """The minimal transversals of each connected component of the
    hypergraph, one family per component, each by (size, sorted members).

    With `allowed` given, the edges are cut down to those vertices first, and
    the components are found after the cut, which can disconnect one. An
    edge left empty has no transversal, given as one empty family; with no
    edges there is no family, and the product of none is the empty set.
    """
    cut = set(edges) if allowed is None else {e.intersection(allowed) for e in edges}
    if frozenset() in cut:
        return [[]]
    parent = {v: v for e in cut for v in e}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in cut:
        roots = {find(v) for v in e}
        top = roots.pop()
        for root in roots:
            parent[root] = top
    components: Dict[int, List[FrozenSet[int]]] = {}
    for e in cut:
        components.setdefault(find(min(e)), []).append(e)
    return [minimal_hitting_sets(component) for component in components.values()]


def ordered_product(families: Sequence[List[FrozenSet[int]]]) -> List[FrozenSet[int]]:
    """Every union of one set per family, by (size, sorted members): the
    minimal transversals of the whole hypergraph when the families are
    `component_transversals` (proof in the module docstring). One family is
    returned as it is."""
    if len(families) == 1:
        return families[0]
    return size_ordered(frozenset().union(*parts) for parts in product(*families))


def smallest_holding(families: Sequence[List[FrozenSet[int]]]) -> Dict[int, int]:
    """For each vertex v of some set of `component_transversals`, the size of
    the smallest minimal transversal of the whole hypergraph that holds v:
    the smallest set of v's family that holds v plus the minimum of every
    other family (proof in the module docstring). Empty when some family is,
    as there is then no transversal at all."""
    if not all(families):
        return {}
    minima = [len(family[0]) for family in families]
    total = sum(minima)
    smallest: Dict[int, int] = {}
    for family, least in zip(families, minima):
        for h in family:  # smallest first, so v's first set is its smallest
            for v in h:
                smallest.setdefault(v, total - least + len(h))
    return smallest


def minimum_families(
    families: Sequence[List[FrozenSet[int]]],
) -> List[List[FrozenSet[int]]]:
    """Each family cut to its sets of minimum size. A union of one set per
    family is as small as it can be exactly when each part is, since its
    size is the sum of theirs, so `ordered_product` of these is the
    minimum-size minimal transversals."""
    return [[h for h in family if len(h) == len(family[0])] for family in families]


@dataclass(frozen=True)
class RepairRecord:
    """A subset repair, held as the set of tids it deletes from `source`."""

    source: Instance = field(compare=False, repr=False)
    removed: FrozenSet[int]

    @property
    def repair(self) -> Instance:
        """The repaired instance D ∖ removed, built on each read."""
        return self.source.delete_tuples(self.removed)


def s_repairs(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[RepairRecord]:
    """All subset-maximal consistent subinstances, by (size, sorted members)
    of their removed sets."""
    families = component_transversals(conflict_hypergraph(instance, dcs).edges)
    return [RepairRecord(instance, h) for h in ordered_product(families)]


def c_repairs(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[RepairRecord]:
    """The S-repairs of minimum size, in the order of `s_repairs`: the
    product of each component's minimum-size transversals, since a removed
    set's size is the sum of its parts' sizes and each part is chosen on its
    own."""
    families = component_transversals(conflict_hypergraph(instance, dcs).edges)
    return [RepairRecord(instance, h) for h in ordered_product(minimum_families(families))]


def diff_sets(records: Iterable[RepairRecord], tid: int) -> List[FrozenSet[int]]:
    """The removed sets of the given repairs that delete `tid`: its diff
    sets over `s_repairs`, or over `c_repairs` for the cardinality ones."""
    return [r.removed for r in records if tid in r.removed]


def subset_minimal(sets: Set[FrozenSet[int]]) -> Set[FrozenSet[int]]:
    """The members of `sets` with no proper subset in `sets`."""
    return {s for s in sets if not any(other < s for other in sets)}


def ids_closure(
    witnesses: Dict[int, List[FrozenSet[int]]], removed: FrozenSet[int]
) -> FrozenSet[int]:
    """cl(removed): `removed` plus, to a fixpoint, every premise tuple one of
    whose witness sets the deletions so far cover, where `witnesses` is
    `id_witnesses(D, ids)`. So D ∖ cl(removed) is what cascading the
    unwitnessed premises out of D ∖ removed leaves, and a set X is closed
    (D ∖ X satisfies the dependencies) exactly when cl(X) = X."""
    closed = set(removed)
    while True:
        gone = [
            tid
            for tid, sets in witnesses.items()
            if tid not in closed and any(s <= closed for s in sets)
        ]
        if not gone:
            return frozenset(closed)
        closed.update(gone)


def s_repairs_under_hard_ics(
    instance: Instance,
    dcs: Sequence[DenialConstraint],
    ids: Sequence[InclusionDependency],
) -> List[RepairRecord]:
    """Subset-maximal D' ⊆ D satisfying both the DCs and the inclusion
    dependencies, deletion-only.

    Every such D' is contained in some DC-only repair, and deleting tuples
    never introduces a DC violation, so closing the removed set of each
    DC-only repair under the dependencies (`ids_closure`) reaches every
    candidate; a maximality filter finishes the job.
    """
    if not ids:
        return s_repairs(instance, dcs)
    witnesses = id_witnesses(instance, ids)
    candidates = {ids_closure(witnesses, rec.removed) for rec in s_repairs(instance, dcs)}
    return [RepairRecord(instance, r) for r in size_ordered(subset_minimal(candidates))]
