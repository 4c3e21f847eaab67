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
from itertools import chain, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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


def increasing(sets: Iterable[Iterable[int]]) -> List[Tuple[int, ...]]:
    """Each set as the increasing tuple of its members, sorted once, and
    the tuples by (size, members): a plain sort, then a stable one by size,
    both keyed in C."""
    ordered = sorted(map(tuple, map(sorted, sets)))
    ordered.sort(key=len)
    return ordered


def minimal_hitting_sets(edges: Iterable[FrozenSet[int]]) -> List[Tuple[int, ...]]:
    """All subset-minimal sets intersecting every edge, each as the
    increasing tuple of its members, ordered by (size, members).
    `component_transversals` runs it on each connected component of a
    hypergraph.

    Berge's algorithm: starting from the empty set, add the deduplicated
    edges one at a time, smallest first, keeping the minimal transversals of
    the edges seen so far. A set that already hits the new edge is kept; a
    set that misses it is extended by each vertex of the edge in turn. An
    extended set is dropped exactly when it contains a kept set, and that
    one check suffices: two extended sets are never comparable, since that
    needs the vertex added to one to lie in the other, which misses the
    edge; and an extended set is never inside a kept set, since two minimal
    sets of the previous round are never comparable. With no edges the
    result is the empty tuple alone; an empty edge makes it empty. One edge
    is answered directly: its vertices as singletons, in order.
    """
    edge_set = set(edges)
    if len(edge_set) == 1:
        (edge,) = edge_set
        return [(v,) for v in sorted(edge)]

    hits: List[FrozenSet[int]] = [frozenset()]
    for edge in increasing(edge_set):
        kept = [h for h in hits if not h.isdisjoint(edge)]
        extended = [h | {v} for h in hits if h.isdisjoint(edge) for v in edge]
        hits = kept + [x for x in extended if not any(map(x.issuperset, kept))]
    return increasing(hits)


def component_transversals(
    edges: Iterable[FrozenSet[int]], allowed: Optional[Set[int]] = None
) -> List[List[Tuple[int, ...]]]:
    """The minimal transversals of each connected component of the
    hypergraph, one family per component, each as `minimal_hitting_sets`
    gives it.

    With `allowed` given, the edges are cut down to those vertices first, and
    the components are found after the cut, which can disconnect one. An
    edge left empty has no transversal, given as one empty family; with no
    edges there is no family, and the product of none is the empty tuple.
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


def ordered_product(families: Sequence[List[Tuple[int, ...]]]) -> List[Tuple[int, ...]]:
    """Every union of one set per family, each as the increasing tuple of
    its members, by (size, members): the minimal transversals of the whole
    hypergraph when the families are `component_transversals` (proof in the
    module docstring). The families share no member, so a union is its
    parts chained, sorted once. One family is returned as it is."""
    if len(families) == 1:
        return families[0]
    return increasing(map(chain.from_iterable, product(*families)))


def smallest_holding(families: Sequence[List[Tuple[int, ...]]]) -> Dict[int, int]:
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
    families: Sequence[List[Tuple[int, ...]]],
) -> List[List[Tuple[int, ...]]]:
    """Each family cut to its sets of minimum size. A union of one set per
    family is as small as it can be exactly when each part is, since its
    size is the sum of theirs, so `ordered_product` of these is the
    minimum-size minimal transversals."""
    return [[h for h in family if len(h) == len(family[0])] for family in families]


@dataclass(frozen=True, slots=True)
class RepairRecord:
    """A subset repair, held as the increasing tuple of the tids it deletes
    from `source`; `removed` gives them as a frozenset, built on each read."""

    source: Instance = field(compare=False, repr=False)
    removed_tids: Tuple[int, ...]

    @property
    def removed(self) -> FrozenSet[int]:
        """The removed tids as a frozenset."""
        return frozenset(self.removed_tids)

    @property
    def repair(self) -> Instance:
        """The repaired instance D ∖ removed, built on each read."""
        return self.source.delete_tuples(self.removed_tids)


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
    return [r.removed for r in records if tid in r.removed_tids]


def subset_minimal(sets: Set[FrozenSet[int]]) -> Set[FrozenSet[int]]:
    """The members of `sets` with no proper subset in `sets`."""
    return {s for s in sets if not any(other < s for other in sets)}


def ids_closure(
    witnesses: Dict[int, List[FrozenSet[int]]], removed: Iterable[int]
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
    candidates = {ids_closure(witnesses, r.removed_tids) for r in s_repairs(instance, dcs)}
    return [RepairRecord(instance, r) for r in increasing(subset_minimal(candidates))]
