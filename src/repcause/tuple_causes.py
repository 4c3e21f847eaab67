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
and no two of them are comparable, so the causes are read off the repairs
directly. The brute-force counterfactual search, `oracles.causes_oracle`,
is the independent check of both routes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .lang import (
    InclusionDependency,
    QuerySpec,
    id_witnesses,
    negate_query_to_dc,
    satisfies_ids,
)
from .model import Instance
from .tuple_repairs import (
    conflict_hypergraph,
    ids_closure,
    minimal_hitting_sets,
    subset_minimal,
)


@dataclass(frozen=True)
class TupleCauseReport:
    tid: int
    counterfactual: bool
    contingency_sets: Tuple[FrozenSet[int], ...]
    responsibility: Fraction


def _sorted_sets(sets: Set[FrozenSet[int]]) -> Tuple[FrozenSet[int], ...]:
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))


def _build_reports(
    minimal_gammas: dict, max_count: Optional[int], max_size: Optional[int]
) -> List[TupleCauseReport]:
    reports = []
    for tid, gammas in minimal_gammas.items():
        smallest = min(len(g) for g in gammas)
        shown = _sorted_sets(gammas)
        if max_size is not None:
            shown = tuple(g for g in shown if len(g) <= max_size)
        if max_count is not None:
            shown = shown[:max_count]
        reports.append(
            TupleCauseReport(
                tid=tid,
                counterfactual=smallest == 0,
                contingency_sets=shown,
                responsibility=Fraction(1, smallest + 1),
            )
        )
    reports.sort(key=lambda r: (-r.responsibility, r.tid))
    return reports


def _transversal_gammas(
    instance: Instance, query: QuerySpec, ids: Sequence[InclusionDependency]
) -> Dict[int, Set[FrozenSet[int]]]:
    """The ⊆-minimal contingency sets of every endogenous tid: for each
    minimal transversal M ∋ τ of the query's matches over the endogenous
    tids, the candidate Γ = cl(M)∖{τ}, kept when cl(M) is endogenous, Γ is
    closed and some match avoids Γ (see the module docstring). With no
    dependencies cl(M) = M and every candidate is minimal and kept, so the
    closure, the tests and the minimality filter are skipped."""
    endo = set(instance.endogenous_tids())
    matches = conflict_hypergraph(instance, negate_query_to_dc(query)).edges
    witnesses = id_witnesses(instance, ids)
    gammas: Dict[int, Set[FrozenSet[int]]] = {}
    for m in minimal_hitting_sets(matches, allowed=endo):
        closed = ids_closure(witnesses, m) if ids else m
        if not closed <= endo:
            continue
        for tid in m:
            gamma = closed - {tid}
            # cl(M) is closed, so only τ can be a premise that Γ unwitnesses
            if ids and (
                any(s <= gamma for s in witnesses.get(tid, ()))
                or all(match & gamma for match in matches)
            ):
                continue
            gammas.setdefault(tid, set()).add(gamma)
    if ids:
        gammas = {tid: subset_minimal(sets) for tid, sets in gammas.items()}
    return gammas


def actual_causes(
    instance: Instance,
    query: QuerySpec,
    max_contingency_count: Optional[int] = None,
    max_contingency_size: Optional[int] = None,
) -> List[TupleCauseReport]:
    """Causes via repairs: tid τ is a cause iff some repair of the negated
    query removes it, and each repair removing it yields the minimal
    contingency set (removed ∖ {τ}).

    The caps only trim the reported contingency lists; responsibility always
    reflects the true minimum.
    """
    return _build_reports(
        _transversal_gammas(instance, query, ()),
        max_contingency_count,
        max_contingency_size,
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
        _transversal_gammas(instance, query, ids),
        max_contingency_count,
        max_contingency_size,
    )


def most_responsible_causes(instance: Instance, query: QuerySpec) -> List[int]:
    """The tids of the causes of largest responsibility, sorted."""
    reports = actual_causes(instance, query)
    # the reports come by (-responsibility, tid), so the kept tids are sorted
    return [r.tid for r in reports if r.responsibility == reports[0].responsibility]
