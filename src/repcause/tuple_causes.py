"""Tuple-level causes, contingency sets and responsibilities for query
answers.

A tuple is an actual cause for a Boolean query when some contingency set of
deletions makes it counterfactual: deleting the set keeps the query true,
additionally deleting the tuple falsifies it. Responsibility is
1/(1 + size of the smallest contingency set). Causes are read off the
tuple-deletion repairs of the negated query; a brute-force counterfactual
search doubles as an independent oracle, and is also the route used when
hard inclusion dependencies restrict the admissible deletions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .lang import (
    InclusionDependency,
    QuerySpec,
    eval_bcq,
    negate_query_to_dc,
    satisfies_ids,
)
from .model import Instance
from .tuple_repairs import c_repairs, minimal_subsets, s_repairs


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
        if not gammas:
            continue
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


def actual_causes(
    instance: Instance,
    query: QuerySpec,
    max_contingency_count: Optional[int] = None,
    max_contingency_size: Optional[int] = None,
) -> List[TupleCauseReport]:
    """Causes via repairs: tid τ is a cause iff some repair removes it, and
    each repair removing it yields the minimal contingency set
    (removed ∖ {τ}).

    The caps only trim the reported contingency lists; responsibility always
    reflects the true minimum.
    """
    if not eval_bcq(instance, query):
        return []
    dcs = negate_query_to_dc(query)
    endo = set(instance.endogenous_tids())
    minimal_gammas: dict = {}
    for rec in s_repairs(instance, dcs, endogenous_only=len(endo) < len(instance)):
        for tid in rec.removed:
            if tid in endo:
                minimal_gammas.setdefault(tid, set()).add(rec.removed - {tid})
    return _build_reports(minimal_gammas, max_contingency_count, max_contingency_size)


def most_responsible_causes(instance: Instance, query: QuerySpec) -> List[int]:
    """Tids removed by some cardinality-minimal repair of the negated query."""
    if not eval_bcq(instance, query):
        return []
    dcs = negate_query_to_dc(query)
    endo = set(instance.endogenous_tids())
    out: Set[int] = set()
    for rec in c_repairs(instance, dcs, endogenous_only=len(endo) < len(instance)):
        out.update(t for t in rec.removed if t in endo)
    return sorted(out)


def _counterfactual_gammas(
    instance: Instance, query: QuerySpec, ids: Sequence[InclusionDependency]
) -> Dict[int, Set[FrozenSet[int]]]:
    """The ⊆-minimal contingency sets of every endogenous tid, straight from
    the counterfactual definition: D∖Γ satisfies the inclusion dependencies
    and the query, and D∖(Γ∪{τ}) satisfies the dependencies but not the
    query. Exponential; with no dependencies this is the plain oracle."""
    endo = instance.endogenous_tids()
    minimal_gammas: Dict[int, Set[FrozenSet[int]]] = {}
    for tid in endo:

        def is_contingency(gamma: FrozenSet[int]) -> bool:
            contingent = instance.delete_tuples(gamma)
            if not (satisfies_ids(contingent, ids) and eval_bcq(contingent, query)):
                return False
            counterfactual = contingent.delete_tuples({tid})
            return satisfies_ids(counterfactual, ids) and not eval_bcq(
                counterfactual, query
            )

        others = [t for t in endo if t != tid]
        gammas = set(minimal_subsets(others, is_contingency))
        if gammas:
            minimal_gammas[tid] = gammas
    return minimal_gammas


def causes_oracle(
    instance: Instance, query: QuerySpec
) -> List[TupleCauseReport]:
    """Brute force straight from the counterfactual definition; exponential,
    for validation and for small inputs only."""
    if not eval_bcq(instance, query):
        return []
    return _build_reports(_counterfactual_gammas(instance, query, ()), None, None)


def actual_causes_under_ics(
    instance: Instance,
    query: QuerySpec,
    ids: Sequence[InclusionDependency],
) -> List[TupleCauseReport]:
    """Causes when the inclusion dependencies are hard: both the contingent
    instance D∖Γ and the counterfactual instance D∖(Γ∪{τ}) must satisfy
    them, on top of the usual two query conditions.

    The repair shortcut does not apply here, so this is a direct search over
    ⊆-minimal admissible Γ.
    """
    if not ids:
        return actual_causes(instance, query)
    if not satisfies_ids(instance, ids):
        raise ValueError("instance violates the hard inclusion dependencies")
    if not eval_bcq(instance, query):
        return []
    return _build_reports(_counterfactual_gammas(instance, query, ids), None, None)
