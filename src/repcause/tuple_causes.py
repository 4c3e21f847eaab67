"""Tuple-level causes, contingency sets and responsibilities for query
answers.

A tuple τ is an actual cause for a Boolean query Q when some contingency
set Γ of deletions makes it counterfactual: Q holds on D∖Γ and fails on
D∖(Γ∪{τ}). Responsibility is 1/(1 + size of the smallest contingency set).
Under hard inclusion dependencies (INDs) both D∖Γ and D∖(Γ∪{τ}) must also
satisfy them. Both cases are read off the minimal transversals M of the
query's match hypergraph, i.e. the removed sets of the S-repairs of ¬Q,
restricted to endogenous tuples.

Everything below is on tid sets. For each premise tuple p and each IND on
its relation, let W be the tids of p's witnessing conclusion tuples in D
(`lang.id_witnesses`); p is unwitnessed in D∖X when p ∉ X and some W ⊆ X.
Write cl(X) for the least superset of X with no unwitnessed premise, i.e.
X plus the premises that cascading them out of D∖X deletes
(`tuple_repairs.ids_closure`), so D∖cl(X) satisfies the INDs; X is closed
when cl(X) = X, i.e. when D∖X satisfies them. cl is monotone, and closed
sets are closed under intersection, because a union of subinstances that
satisfy an IND satisfies it too.

Lemma: every ⊆-minimal contingency set Γ of τ equals cl(M)∖{τ} for some
minimal transversal M ∋ τ. Proof: S = Γ∪{τ} is closed, because D∖S satisfies
the INDs, and it hits every match, because Q fails on D∖S; so S contains a
minimal transversal M. Q holds on D∖Γ, so some match meets S in τ alone; M
hits it, so τ ∈ M. Then cl(M) ⊆ cl(S) = S, and Γ' = cl(M)∖{τ} = cl(M) ∩ Γ
is closed, as an intersection of closed sets. Q holds on D∖Γ' ⊇ D∖Γ, since
queries are positive, and D∖(Γ'∪{τ}) = D∖cl(M) satisfies the INDs and
fails Q, since cl(M) ⊇ M. So Γ' ⊆ Γ is a contingency set, and Γ = Γ' by
minimality. ∎

So the candidates for τ are the sets Γ = cl(M)∖{τ} with τ ∈ M and cl(M)
endogenous. Each one whose D∖Γ satisfies the INDs and Q is a contingency
set, and the ⊆-minimal ones per τ are exactly τ's minimal contingency sets.
Both tests are read off tid sets, with no instance built. Γ is closed
exactly when τ has no W ⊆ Γ: a premise outside cl(M) has no W inside the
closed cl(M) ⊇ Γ, so τ is the only premise Γ can leave unwitnessed. Q
holds on D∖Γ exactly when some match of Q in D avoids Γ, since queries are
positive.

With no INDs, cl(M) = M: each M∖{τ} misses some match, since M is minimal,
and no two are comparable, so the causes are read off the transversals in
one pass. These come in (size, sorted members) order, and for sets that
hold τ, deleting τ keeps that order. Proof: take A ≠ B of equal size, both
holding τ, and let i be the first index where sorted(A) and sorted(B)
differ. Neither holds τ at i: if sorted(A)[i] = τ < sorted(B)[i], B could
hold τ neither before i (that prefix is A's, all below τ) nor from i on
(all above τ); likewise with A and B swapped. So deleting τ keeps the
first difference and its sign. ∎ The IND route's candidates cl(M) do not
come in that order, so it sorts its ⊆-minimal ones once. The brute-force
search `oracles.causes_oracle` sorts its own sets and checks both routes.

A report stores each contingency set once, as the increasing tuple of its
tids (`TupleCauseReport.contingency_tids`). Each M comes from
`tuple_repairs` as such a tuple s, sorted once there; under INDs each kept
cl(M) is sorted once into one. For τ = s[i] its Γ is the slice
s[:i] + s[i+1:]: it stays increasing, and by the lemma above τ's slices
keep the (size, sorted members) order of its sets s. So no set of Γ
is built and none is sorted again to be printed; `contingency_sets` gives
the frozensets on read.

The transversals M are the unions of one minimal transversal per connected
component of the endogenous match hypergraph (`tuple_repairs`). Listing
them takes their product; responsibility alone, with no INDs, needs only
the smallest M ∋ τ, which `tuple_repairs.smallest_holding` reads off the
per-component families with no product built.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple
)

from .lang import (
    InclusionDependency, QuerySpec, id_witnesses, negate_query_to_dc, satisfies_ids
)
from .model import Instance
from .tuple_repairs import (
    component_transversals, conflict_hypergraph, ids_closure, increasing, ordered_product,
    smallest_holding, subset_minimal
)


@dataclass(frozen=True)
class TupleCauseReport:
    """A cause τ with its responsibility and its listed minimal contingency
    sets, in (size, sorted members) order. Each set is stored once, as the
    increasing tuple of its tids; `contingency_sets` gives them as
    frozensets, built on each read."""

    tid: int
    counterfactual: bool
    contingency_tids: Tuple[Tuple[int, ...], ...]
    responsibility: Fraction

    @property
    def contingency_sets(self) -> Tuple[FrozenSet[int], ...]:
        """The contingency sets as frozensets, in the stored order."""
        return tuple(map(frozenset, self.contingency_tids))


Removed = Tuple[int, Tuple[int, ...], int]


def _build_reports(
    removed_sets: Iterable[Removed], max_count: Optional[int], max_size: Optional[int]
) -> List[TupleCauseReport]:
    """One report per tid τ from (τ, s, i) triples with s[i] = τ, where
    Γ = s[:i] + s[i+1:] is the increasing tuple of a minimal contingency set
    of τ and each τ's sets come in (size, sorted members) order. The first s
    of τ gives its responsibility 1/|s|; each later Γ is listed only while
    the caps keep it: the first `max_count` sets of size at most `max_size`.
    A count of 0 builds no Γ at all."""
    found: Dict[int, Tuple[int, List[Tuple[int, ...]]]] = {}
    for tid, removed, i in removed_sets:
        entry = found.get(tid)
        if entry is None:
            found[tid] = entry = (len(removed), [])
        shown = entry[1]
        if (max_count is None or len(shown) < max_count) and (
            max_size is None or len(removed) <= max_size + 1
        ):
            shown.append(removed[:i] + removed[i + 1:])
    return _ranked_reports(
        (smallest, tid, tuple(shown)) for tid, (smallest, shown) in found.items()
    )


def _ranked_reports(
    found: Iterable[Tuple[int, int, Tuple[Tuple[int, ...], ...]]]
) -> List[TupleCauseReport]:
    """One report per (size, τ, sets): size is |Γ ∪ {τ}| for τ's smallest
    contingency set Γ, `sets` are its listed ones. By decreasing
    responsibility 1/size, then by tid, which is the triples' own order."""
    return [
        TupleCauseReport(tid, size == 1, sets, Fraction(1, size))
        for size, tid, sets in sorted(found)
    ]


def _match_families(
    instance: Instance, query: QuerySpec
) -> Tuple[FrozenSet[FrozenSet[int]], Set[int], List[List[Tuple[int, ...]]]]:
    """The tid sets of the query's matches, the endogenous tids, and the
    per-component minimal transversals of the matches cut to those tids."""
    endo = set(instance.endogenous_tids())
    matches = conflict_hypergraph(instance, negate_query_to_dc(query)).edges
    return matches, endo, component_transversals(matches, allowed=endo)


def _removed_sets(
    instance: Instance, query: QuerySpec, ids: Sequence[InclusionDependency]
) -> Iterator[Removed]:
    """(τ, s, i) with s the increasing tuple of Γ ∪ {τ} and s[i] = τ, for
    each ⊆-minimal contingency set Γ of each endogenous tid τ, each τ's in
    (size, sorted members) order (see the module docstring). With no
    dependencies s is a minimal transversal M ∋ τ of the query's matches,
    as `ordered_product` gives it. Under them each M gives the candidate
    cl(M), kept for τ ∈ M when cl(M) is endogenous, Γ = cl(M)∖{τ} is closed
    and some match avoids Γ."""
    matches, endo, families = _match_families(instance, query)
    transversals = ordered_product(families)
    if not ids:
        return ((tid, s, i) for s in transversals for i, tid in enumerate(s))
    witnesses = id_witnesses(instance, ids)
    candidates: Dict[int, Set[FrozenSet[int]]] = {}
    for m in transversals:
        closed = ids_closure(witnesses, m)
        if not closed <= endo:
            continue
        for tid in m:
            gamma = closed - {tid}
            # cl(M) is closed, so only τ can be a premise that Γ unwitnesses
            if not any(s <= gamma for s in witnesses.get(tid, ())) and any(
                not match & gamma for match in matches
            ):
                candidates.setdefault(tid, set()).add(closed)
    return (
        (tid, s, s.index(tid))
        for tid, sets in candidates.items()
        for s in increasing(subset_minimal(sets))
    )


def actual_causes(
    instance: Instance,
    query: QuerySpec,
    max_contingency_count: Optional[int] = None,
    max_contingency_size: Optional[int] = None,
) -> List[TupleCauseReport]:
    """Causes via repairs: tid τ is a cause iff some repair of the negated
    query removes it, and each repair removing it yields the minimal
    contingency set (removed ∖ {τ}), listed in the repairs' order.

    The caps keep the first `max_contingency_count` sets of size at most
    `max_contingency_size`; responsibility always reflects the true minimum.
    A count of 0 builds no contingency set and lists no transversal: τ's
    first set is the smallest minimal transversal that holds it, which
    `tuple_repairs.smallest_holding` reads off the per-component families.
    """
    if max_contingency_count == 0:
        _, _, families = _match_families(instance, query)
        smallest = smallest_holding(families)
        return _ranked_reports((size, tid, ()) for tid, size in smallest.items())
    return _build_reports(
        _removed_sets(instance, query, ()), max_contingency_count, max_contingency_size
    )


def actual_causes_under_ics(
    instance: Instance,
    query: QuerySpec,
    ids: Sequence[InclusionDependency],
    max_contingency_count: Optional[int] = None,
    max_contingency_size: Optional[int] = None,
) -> List[TupleCauseReport]:
    """Causes when the inclusion dependencies are hard: both the contingent
    instance D∖Γ and the counterfactual instance D∖(Γ∪{τ}) must satisfy
    them, on top of the usual two query conditions.

    Each ⊆-minimal Γ is cl(M)∖{τ} for a minimal transversal M ∋ τ of the
    query's matches, where cl(M) adds what cascading the unwitnessed
    premises out of D∖M deletes (lemma and proof in the module docstring).
    So the candidates come from the same transversals as `actual_causes`:
    one closure per M on tid sets, one closedness and one query test per
    τ ∈ M, then the ⊆-minimal candidates per τ. The caps are those of
    `actual_causes`. Raises `ValueError` when the instance itself violates
    the dependencies.
    """
    if not satisfies_ids(instance, ids):
        raise ValueError("instance violates the hard inclusion dependencies")
    return _build_reports(
        _removed_sets(instance, query, ids), max_contingency_count, max_contingency_size
    )


def most_responsible_causes(instance: Instance, query: QuerySpec) -> List[int]:
    """The tids of the causes of largest responsibility, sorted."""
    reports = actual_causes(instance, query, max_contingency_count=0)
    # the reports come by (-responsibility, tid), so the kept tids are sorted
    return [r.tid for r in reports if r.responsibility == reports[0].responsibility]
