"""Every hypergraph on four labelled vertices, against the definition.

The vertices are 0–3 and an edge is any of their 16 subsets, the empty one
included, so there are 2^16 - 1 non-empty edge families. Every other family
also gets one seeded `allowed` cut. For each family the reference is the
definition itself: every subset of the (allowed) vertices that meets every
edge, kept when no other such subset lies inside it, in (size, members)
order. Sets are 4-bit masks here, so the reference costs a few mask tests
per family.
"""
import random

from repcause.tuple_repairs import (
    component_transversals,
    minimal_hitting_sets,
    minimum_families,
    ordered_product,
    smallest_holding,
)

VERTICES = range(4)
SUBSETS = range(16)
MEMBERS = [tuple(v for v in VERTICES if mask >> v & 1) for mask in SUBSETS]
EDGES = [frozenset(members) for members in MEMBERS]
# bit e of MEETS[s] is set when subset s meets subset e
MEETS = [sum(1 << e for e in SUBSETS if s & e) for s in SUBSETS]
ORDER = sorted(SUBSETS, key=lambda s: (len(MEMBERS[s]), MEMBERS[s]))


def minimal_transversals(family, allowed):
    """The minimal transversals of the edges in `family`, a 16-bit mask
    over the subsets, cut to the vertex mask `allowed`: the subsets of
    `allowed` that meet every edge, less those with another one inside,
    as member tuples in (size, members) order."""
    hitting = [s for s in ORDER if s & allowed == s and MEETS[s] & family == family]
    return [
        MEMBERS[s]
        for s in hitting
        if not any(t != s and t & s == t for t in hitting)
    ]


def smallest_through(transversals):
    smallest = {}
    for h in transversals:  # smallest first
        for v in h:
            smallest.setdefault(v, len(h))
    return smallest


def test_every_family_on_four_vertices_matches_the_definition():
    rng = random.Random(2019)
    for family in range(1, 1 << 16):
        edges = [EDGES[e] for e in SUBSETS if family >> e & 1]
        whole = minimal_transversals(family, 15)
        assert minimal_hitting_sets(edges) == whole
        if family % 2:
            allowed = rng.randrange(16)
            expected = minimal_transversals(family, allowed)
            families = component_transversals(edges, set(MEMBERS[allowed]))
        else:
            expected = whole
            families = component_transversals(edges)
        assert ordered_product(families) == expected
        assert smallest_holding(families) == smallest_through(expected)
        least = [h for h in expected if len(h) == len(expected[0])]
        assert ordered_product(minimum_families(families)) == least
