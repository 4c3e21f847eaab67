"""Relational data model: tid-keyed tuples, a SQL-style null, deletions and
value-to-null updates.

All values are immutable after construction. `Instance.add_fact` is the one
mutating entry point, meant for building an instance; every other operation
returns a fresh instance and never touches its input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)


class ModelError(ValueError):
    """Violation of a structural constraint of the data model."""


@dataclass(frozen=True)
class Constant:
    """A database constant: a symbol, an integer, or the null value."""

    kind: str  # "symbol" | "integer" | "null"
    payload: object = ""

    def is_null(self) -> bool:
        return self.kind == "null"

    def render(self) -> str:
        if self.kind == "null":
            return "null"
        return str(self.payload)

    def sort_key(self) -> Tuple[str, object]:
        return (self.kind, self.payload)

    def __repr__(self) -> str:  # keeps test diffs readable
        return f"Constant({self.render()})"


NULL = Constant("null")


def sym(text: str) -> Constant:
    if text == "null":
        return NULL
    return Constant("symbol", text)


def num(value: int) -> Constant:
    return Constant("integer", int(value))


@dataclass(frozen=True)
class DbTuple:
    """A ground tuple with a globally unique tid (occupying position 0)."""

    relation: str
    tid: int
    values: Tuple[Constant, ...]
    endogenous: bool = True

    def render(self) -> str:
        vals = ",".join(v.render() for v in self.values)
        return f"{self.relation}({self.tid};{vals})"

    def with_nulls(self, positions: Iterable[int]) -> "DbTuple":
        """This tuple with each listed 1-based position replaced by null."""
        values = list(self.values)
        for j in positions:
            values[j - 1] = NULL
        return DbTuple(self.relation, self.tid, tuple(values), self.endogenous)


class PositionRef(NamedTuple):
    """A positioned value R[i;j]: attribute j of the tuple with tid i.

    A tuple, so hashing and equality run in C; its hash is
    `hash((relation, tid, position))`, which sets the order in which a set
    of refs iterates."""

    relation: str
    tid: int
    position: int  # 1-based; the tid itself (position 0) is never referenced

    def render(self) -> str:
        return f"{self.relation}[{self.tid};{self.position}]"

    def sort_key(self) -> Tuple[str, int, int]:
        return (self.relation, self.tid, self.position)


class Instance:
    """A schema plus a set of tid-keyed tuples.

    Tuples are kept in a tid-keyed map; iteration order is always canonical:
    (relation name, tid).
    """

    def __init__(self) -> None:
        self._schema: Dict[str, int] = {}
        self._tuples: Dict[int, DbTuple] = {}
        # tids are never freed within an instance, so the smallest free tid
        # never decreases and the auto-tid search can start from here
        self._next_tid = 1
        # relation -> its tuples in tid order; built on first use, dropped
        # by `add_fact`
        self._by_relation: Optional[Dict[str, Tuple[DbTuple, ...]]] = None

    # -- construction -----------------------------------------------------

    def declare(self, relation: str, arity: int) -> None:
        known = self._schema.get(relation)
        if known is not None and known != arity:
            raise ModelError(
                f"arity conflict for {relation}: declared {known}, got {arity}"
            )
        self._schema[relation] = arity

    def add_fact(
        self,
        relation: str,
        values: Sequence[Constant],
        tid: Optional[int] = None,
        endogenous: bool = True,
    ) -> int:
        """Insert a tuple, auto-assigning the smallest free tid if none given."""
        values = tuple(values)
        self.declare(relation, len(values))
        if tid is None:
            while self._next_tid in self._tuples:
                self._next_tid += 1
            tid = self._next_tid
        elif tid in self._tuples:
            raise ModelError(f"duplicate tid {tid}")
        elif tid < 1:
            raise ModelError(f"tid must be positive, got {tid}")
        self._tuples[tid] = DbTuple(relation, tid, values, endogenous)
        self._by_relation = None
        return tid

    # -- access -----------------------------------------------------------

    @property
    def schema(self) -> Dict[str, int]:
        return dict(self._schema)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, tid: int) -> bool:
        return tid in self._tuples

    def get(self, tid: int) -> DbTuple:
        if tid not in self._tuples:
            raise ModelError(f"unknown tid {tid}")
        return self._tuples[tid]

    def tids(self) -> List[int]:
        return sorted(self._tuples)

    def endogenous_tids(self) -> List[int]:
        return sorted(t for t, tup in self._tuples.items() if tup.endogenous)

    def tuples(self) -> List[DbTuple]:
        """All tuples in canonical (relation, tid) order."""
        return sorted(self._tuples.values(), key=lambda t: (t.relation, t.tid))

    def tuples_of(self, relation: str) -> Tuple[DbTuple, ...]:
        """The tuples of one relation in tid order."""
        if self._by_relation is None:
            grouped: Dict[str, List[DbTuple]] = {}
            for tid in sorted(self._tuples):
                tup = self._tuples[tid]
                grouped.setdefault(tup.relation, []).append(tup)
            self._by_relation = {rel: tuple(ts) for rel, ts in grouped.items()}
        return self._by_relation.get(relation, ())

    def value_at(self, ref: PositionRef) -> Constant:
        tup = self.get(ref.tid)
        if tup.relation != ref.relation:
            raise ModelError(f"tid {ref.tid} belongs to {tup.relation}, not {ref.relation}")
        if not 1 <= ref.position <= len(tup.values):
            raise ModelError(f"position {ref.position} out of range for {ref.render()}")
        return tup.values[ref.position - 1]

    def non_null_positions(self) -> List[PositionRef]:
        refs = []
        for tup in self.tuples():
            for j, v in enumerate(tup.values, start=1):
                if not v.is_null():
                    refs.append(PositionRef(tup.relation, tup.tid, j))
        return refs

    # -- pure operations ---------------------------------------------------

    def _clone_schema(self) -> "Instance":
        out = Instance()
        out._schema = dict(self._schema)
        return out

    def delete_tuples(self, tids: Iterable[int]) -> "Instance":
        """Return D minus the given tuples; the input instance is unchanged."""
        tids = set(tids)
        for tid in tids:
            if tid not in self._tuples:
                raise ModelError(f"unknown tid {tid}")
        out = self._clone_schema()
        out._tuples = {t: tup for t, tup in self._tuples.items() if t not in tids}
        return out

    def apply_update(self, changes: Iterable[PositionRef]) -> "Instance":
        """Return the instance with every referenced position replaced by null.

        Tids are preserved: updates never create or destroy tuples.
        """
        out = self._clone_schema()
        out._tuples = dict(self._tuples)
        for tup in self.nulled_tuples(changes):
            out._tuples[tup.tid] = tup
        return out

    def nulled_tuples(self, changes: Iterable[PositionRef]) -> List[DbTuple]:
        """The tuples that `changes` touches, each with its referenced
        positions replaced by null."""
        by_tid: Dict[int, List[int]] = {}
        for ref in changes:
            self.value_at(ref)  # validates tid, relation and position
            by_tid.setdefault(ref.tid, []).append(ref.position)
        return [self._tuples[tid].with_nulls(ps) for tid, ps in by_tid.items()]

    # -- equality ----------------------------------------------------------

    def _key(self) -> FrozenSet[Tuple[int, str, Tuple[Constant, ...], bool]]:
        return frozenset(
            (t, tup.relation, tup.values, tup.endogenous)
            for t, tup in self._tuples.items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def render(self) -> str:
        return "{" + ", ".join(t.render() for t in self.tuples()) + "}"
