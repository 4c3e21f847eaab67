"""Berge's algorithm on a whole hypergraph, with no split into connected
components: the reference the per-component transversals are checked
against. Test-only; the package runs the same step on each component.
"""
from typing import FrozenSet, Iterable, List, Optional, Set


def whole_graph_berge(
    edges: Iterable[FrozenSet[int]], allowed: Optional[Set[int]] = None
) -> List[FrozenSet[int]]:
    """All subset-minimal sets intersecting every edge, using only `allowed`
    vertices when it is given, ordered by (size, sorted members)."""
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
