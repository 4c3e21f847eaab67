"""Exhaustive searches straight from the definitions, for validation only.

The production routes read repairs and causes off the minimal hitting sets
of conflict hypergraphs. The searches here check them independently: each
tries subsets of the instance's tids or positions, smallest first, against
the counterfactual or consistency definition itself. They are exponential
and meant for small inputs. No production module imports this one; the
package re-exports its public names.
"""
from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, FrozenSet, Iterator, List, Sequence, Set, TypeVar

from .lang import (
    DenialConstraint,
    InclusionDependency,
    QuerySpec,
    eval_bcq,
    is_consistent,
    satisfies_ids,
)
from .model import Instance, PositionRef
from .null_repairs import NullRepairRecord
from .tuple_causes import TupleCauseReport, _build_reports

T = TypeVar("T")


def minimal_subsets(
    universe: Sequence[T], holds: Callable[[FrozenSet[T]], bool]
) -> Iterator[FrozenSet[T]]:
    """Yield the subset-minimal subsets of `universe` on which `holds` is
    true, smallest first and in `itertools.combinations` order within a
    size. Supersets of a yielded set are skipped without calling `holds`."""
    found: List[FrozenSet[T]] = []
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            subset = frozenset(combo)
            if any(known <= subset for known in found):
                continue
            if holds(subset):
                found.append(subset)
                yield subset


def _counterfactual_gammas(
    instance: Instance, query: QuerySpec, ids: Sequence[InclusionDependency]
) -> Dict[int, Set[FrozenSet[int]]]:
    """The ⊆-minimal contingency sets of every endogenous tid, straight from
    the counterfactual definition: D∖Γ satisfies the inclusion dependencies
    and the query, and D∖(Γ∪{τ}) satisfies the dependencies but not the
    query. With no dependencies this is the plain oracle."""
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
    instance: Instance,
    query: QuerySpec,
    ids: Sequence[InclusionDependency] = (),
) -> List[TupleCauseReport]:
    """Tuple causes by brute force from the counterfactual definition,
    optionally under hard inclusion dependencies; the check of
    `actual_causes` and `actual_causes_under_ics`."""
    if not eval_bcq(instance, query):
        return []
    return _build_reports(_counterfactual_gammas(instance, query, ids), None, None)


def null_repairs_oracle(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[NullRepairRecord]:
    """Null repairs by a check of every subset of non-null positions; the
    check of `null_repairs`. The positions come in sort-key order, so the
    search yields the change sets in the order `null_repairs` gives them."""
    deltas = minimal_subsets(
        instance.non_null_positions(),
        lambda delta: is_consistent(instance.apply_update(delta), dcs),
    )
    return [NullRepairRecord(instance, d) for d in deltas]


def is_actual_attr_cause(
    instance: Instance, query: QuerySpec, position: PositionRef
) -> bool:
    """Some update U avoiding the position leaves the query true while the
    position has become counterfactual in the updated instance; the check
    of `attr_causes`."""
    if not eval_bcq(instance, query):
        return False
    if instance.value_at(position).is_null():
        return False
    others = [p for p in instance.non_null_positions() if p != position]

    def leaves_position_counterfactual(update: FrozenSet[PositionRef]) -> bool:
        updated = instance.apply_update(update)
        return eval_bcq(updated, query) and not eval_bcq(
            updated.apply_update([position]), query
        )

    # the empty update is a valid (falsy) witness, so compare against None
    witnesses = minimal_subsets(others, leaves_position_counterfactual)
    return next(witnesses, None) is not None
