"""Tuple-deletion repairs for denial constraints.

Subset-maximal consistent subinstances are the complements of the minimal
hitting sets (transversals) of the conflict hypergraph, whose hyperedges are
the tid-sets of constraint violations. `minimal_hitting_sets` enumerates
them with Berge's edge-by-edge algorithm, which the null-update repairs
share. Cardinality-minimal repairs are the hitting sets of minimum size.
Hard inclusion dependencies close a removed set under the deletions of the
premise tuples it leaves unwitnessed, on tid sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    TypeVar,
)

from .lang import (
    DenialConstraint,
    InclusionDependency,
    LangError,
    id_witnesses,
    violations,
)
from .model import Instance

T = TypeVar("T")


@dataclass(frozen=True)
class ConflictHypergraph:
    vertices: FrozenSet[int]
    edges: FrozenSet[FrozenSet[int]]


def conflict_hypergraph(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> ConflictHypergraph:
    edges = frozenset(frozenset(tids) for _, tids in violations(instance, dcs))
    vertices = frozenset(t for e in edges for t in e)
    return ConflictHypergraph(vertices, edges)


def minimal_hitting_sets(
    edges: Iterable[FrozenSet[int]],
    allowed: Optional[Set[int]] = None,
) -> List[FrozenSet[int]]:
    """All subset-minimal sets intersecting every edge, ordered by
    (size, sorted members).

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
    allowed vertex makes the result empty too.
    """
    edge_list = sorted(set(edges), key=lambda e: (len(e), sorted(e)))
    if allowed is not None:
        edge_list = [e.intersection(allowed) for e in edge_list]
        if any(not e for e in edge_list):
            return []

    hits: List[FrozenSet[int]] = [frozenset()]
    for edge in edge_list:
        kept = [h for h in hits if h & edge]
        extended = [h | {v} for h in hits if not h & edge for v in edge]
        hits = kept + [x for x in extended if not any(k <= x for k in kept)]
    return sorted(hits, key=lambda h: (len(h), sorted(h)))


def minimal_subsets(
    universe: Sequence[T], holds: Callable[[FrozenSet[T]], bool]
) -> Iterator[FrozenSet[T]]:
    """Yield the subset-minimal subsets of `universe` on which `holds` is
    true, smallest first and in `itertools.combinations` order within a
    size. Supersets of a yielded set are skipped without calling `holds`.

    Exhaustive and exponential: this is the brute-force search behind the
    counterfactual oracles.
    """
    found: List[FrozenSet[T]] = []
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            subset = frozenset(combo)
            if any(known <= subset for known in found):
                continue
            if holds(subset):
                found.append(subset)
                yield subset


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
    graph = conflict_hypergraph(instance, dcs)
    return [RepairRecord(instance, h) for h in minimal_hitting_sets(graph.edges)]


def c_repairs(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[RepairRecord]:
    """The S-repairs of minimum size; `s_repairs` lists the smallest first."""
    subs = s_repairs(instance, dcs)
    return [r for r in subs if len(r.removed) == len(subs[0].removed)]


def diff_sets(
    instance: Instance,
    dcs: Sequence[DenialConstraint],
    tid: int,
    mode: str = "subset",
) -> List[FrozenSet[int]]:
    """Removed-sets of the repairs (subset- or cardinality-minimal ones,
    by `mode`) that delete the given tuple."""
    if mode == "subset":
        records = s_repairs(instance, dcs)
    elif mode == "cardinality":
        records = c_repairs(instance, dcs)
    else:
        raise LangError(f"unknown diff mode {mode!r}")
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
    removed_sets = sorted(subset_minimal(candidates), key=lambda r: (len(r), sorted(r)))
    return [RepairRecord(instance, r) for r in removed_sets]
