"""Input language: facts, denial constraints, conjunctive queries and
inclusion dependencies, plus their evaluation under null semantics.

The text is read one statement at a time, by one of two routes. A
statement that one regex match reads whole is a ground fact, and goes
straight to `Instance.add_fact`. Every other statement is tokenized on its
own, from its start through its first '.' or '?', and parsed by recursive
descent: every rule, and every fact the regex leaves out (a comment inside
it, a variable, a long integer, a missing '.'). That route reports every
parse error but those of `add_fact`, which both routes report at the
statement's name. Errors come in the order that tokenizing the whole text
before parsing would give: a character that starts no token is reported
first, wherever it stands, so one scan of the whole text looks for it before
either route runs; then the faults of the statements in their order; then
the checks of the parsed rules against the schema.

The null semantics is enforced in one place: a repeated variable or an
embedded constant is an equality, with the variable's first occurrence or
with the constant, and every equality or built-in with a null operand is
false. A variable occurring in a single atom position may still bind null;
the atom matches and the position is simply irrelevant to the query.

A body is matched by an indexed join planned once per body object: an
equality whose other operand is a constant or a slot of an earlier atom is
a hash-index key, so a join probes the tuples it needs rather than scanning
every pair; the other equalities and the built-ins are checks. The plan
keeps the order and the exceptions of a nested loop over tuples in tid
order.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .model import NULL, Constant, Instance, ModelError, num, sym


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class LangError(ValueError):
    """Semantic error: unsafe rule, arity conflict, bad query use."""


class CrossTypeComparisonError(LangError):
    """Order comparison between a symbol and an integer."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    name: str

    def render(self) -> str:
        return self.name


Term = Union[Var, Constant]

BUILTIN_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class BodyAtom:
    relation: str
    terms: Tuple[Term, ...]

    def render(self) -> str:
        return f"{self.relation}({', '.join(t.render() for t in self.terms)})"

    def variables(self) -> List[Var]:
        return [t for t in self.terms if isinstance(t, Var)]


@dataclass(frozen=True)
class BuiltinAtom:
    op: str
    left: Term
    right: Term

    def render(self) -> str:
        return f"{self.left.render()} {self.op} {self.right.render()}"

    def variables(self) -> List[Var]:
        return [t for t in (self.left, self.right) if isinstance(t, Var)]


@dataclass(frozen=True)
class ConjunctiveBody:
    atoms: Tuple[BodyAtom, ...]
    builtins: Tuple[BuiltinAtom, ...] = ()

    def render(self) -> str:
        parts = [a.render() for a in self.atoms] + [b.render() for b in self.builtins]
        return ", ".join(parts)

    @cached_property
    def _plan(self) -> "_Plan":
        """The matching plan of `_match_body`, built once per body."""
        return _build_plan(self)


@dataclass(frozen=True)
class DenialConstraint:
    body: ConjunctiveBody

    def render(self) -> str:
        return f":- {self.body.render()}."


@dataclass(frozen=True)
class QuerySpec:
    """A UCQ; a single disjunct with no head variables is a BCQ."""

    name: str
    head_vars: Tuple[Var, ...]
    disjuncts: Tuple[ConjunctiveBody, ...]

    def is_boolean(self) -> bool:
        return not self.head_vars

    def render(self) -> str:
        head = self.name
        if self.head_vars:
            head += "(" + ", ".join(v.name for v in self.head_vars) + ")"
        return "\n".join(f"{head} :- {d.render()}?" for d in self.disjuncts)


@dataclass(frozen=True)
class InclusionDependency:
    premise: BodyAtom
    conclusion: BodyAtom

    def shared_vars(self) -> Set[Var]:
        return set(self.premise.variables()) & set(self.conclusion.variables())

    def render(self) -> str:
        return f"{self.premise.render()} -> {self.conclusion.render()}."


@dataclass
class Problem:
    instance: Instance
    dcs: List[DenialConstraint]
    queries: List[QuerySpec]
    ids: List[InclusionDependency]

    def query(self, name: Optional[str] = None) -> QuerySpec:
        if name is None:
            if len(self.queries) != 1:
                raise LangError(
                    f"expected exactly one query, found {len(self.queries)}; name one"
                )
            return self.queries[0]
        for q in self.queries:
            if q.name == name:
                return q
        raise LangError(f"unknown query {name!r}")


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<arrow>->)
    | (?P<implies>:-)
    | (?P<op><=|>=|!=|=|<|>)
    | (?P<int>-?\d+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[();,.?])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# The same alternatives, read as a check on the characters alone. Outside a
# comment, a character of the class is valid wherever it stands: it starts
# or continues a token of `_TOKEN_RE`. The other characters are valid only
# at the start of a comment, "->", ":-", "!=" or a negative integer. So the
# match ends at the first character that `_TOKEN_RE` reads as `bad`. A run
# of the class is one repetition, so the match keeps a few repetitions on
# the regex engine's stack, not one per token.
_CHARACTERS_RE = re.compile(r"(?:[\s\dA-Za-z_();,.?<>=]+|%[^\n]*|->|:-|!=|-\d)*")

# A whole ground fact, with the blank lines and comments before it. A
# comment must run to its newline here, or backtracking could cut it short
# and read its tail as a fact. An integer has at most 640 digits, the
# smallest limit the interpreter may put on integer-string conversion, so
# `int` never fails on a match. A longer literal fails this match, and the
# token parser reads it, or reports it when `int` cannot convert it.
_INT = r"-?\d{1,640}"
_CONSTANT = rf"(?:{_INT}|[a-z_][A-Za-z0-9_]*)"
_FACT_RE = re.compile(
    rf"""
    \s* (?: %[^\n]*\n \s* )*
    (?P<name>[A-Za-z_][A-Za-z0-9_]*) \s* \( \s*
    (?: (?P<tid>{_INT}) \s* ; \s* )?
    (?P<values>{_CONSTANT} (?: \s* , \s* {_CONSTANT} )* )
    \s* \) \s* \.
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int  # into the parsed text


def _parse_error(text: str, message: str, offset: int) -> ParseError:
    """A `ParseError` at `offset`, with its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _statement_tokens(text: str, start: int) -> List[_Token]:
    """The tokens from `start` through the first '.' or '?', or through the
    end of the text, which an "eof" token closes.

    The parser reads a '.' or '?' only as a statement's terminator, or
    fails there, so the statement starting at `start` ends at this list's
    last token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text, start):
        kind = m.lastgroup
        if kind == "bad":
            raise _parse_error(text, f"unexpected character {m.group()!r}", m.start())
        if kind != "ws" and kind != "comment":
            tok = _Token(kind, m.group(), m.start())
            tokens.append(tok)
            if tok.text == "." or tok.text == "?":
                return tokens
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _fact_value(text: str) -> Constant:
    """The constant of a value `_FACT_RE` matched."""
    if text[0] == "_" or text[0].isalpha():
        return sym(text)
    return num(int(text))


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: List[_Token] = []  # the current statement's
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token) -> ParseError:
        return _parse_error(self.text, message, tok.offset)

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def fail(self, message: str) -> None:
        raise self.error(message, self.peek())

    # -- statements --------------------------------------------------------

    def parse_problem(self) -> Problem:
        text = self.text
        end = _CHARACTERS_RE.match(text).end()
        if end < len(text):
            _statement_tokens(text, end)  # raises: no token starts at `end`
        instance = Instance()
        dcs: List[DenialConstraint] = []
        ids: List[InclusionDependency] = []
        query_parts: Dict[str, Tuple[Tuple[Var, ...], List[ConjunctiveBody]]] = {}
        # a fact value's text -> its constant, built once per parse; a
        # constant is a non-empty tuple, so `or` falls through on a miss only
        constants: Dict[str, Constant] = {}

        offset = 0
        while True:
            fact = _FACT_RE.match(text, offset)
            if fact is not None:
                values = [
                    constants.get(v) or constants.setdefault(v, _fact_value(v))
                    for v in map(str.strip, fact["values"].split(","))
                ]
                tid = fact["tid"]
                self._add_fact(
                    instance,
                    fact["name"],
                    fact.start("name"),
                    values,
                    None if tid is None else int(tid),
                )
                offset = fact.end()
                continue
            self.tokens = _statement_tokens(text, offset)
            self.pos = 0
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.text == ":-":
                dcs.append(self._parse_dc())
            elif tok.kind == "name":
                self._parse_named_statement(instance, ids, query_parts)
            else:
                self.fail(f"unexpected token {tok.text!r}")
            offset = self.tokens[-1].offset + 1  # past the terminator

        queries = [
            QuerySpec(name, head_vars, tuple(bodies))
            for name, (head_vars, bodies) in query_parts.items()
        ]
        for q in queries:
            _check_query(q, instance)
        for dc in dcs:
            _check_body(dc.body, instance)
        for dep in ids:
            _check_id(dep, instance)
        return Problem(instance, dcs, queries, ids)

    def _parse_dc(self) -> DenialConstraint:
        self.expect(":-")
        body = self._parse_body()
        self.expect(".")
        return DenialConstraint(body)

    def _parse_named_statement(self, instance, ids, query_parts) -> None:
        name_tok = self.next()
        name = name_tok.text
        if self.peek().text == ":-":  # Boolean query head without parentheses
            self.next()
            body = self._parse_body()
            self.expect("?")
            self._record_query(name_tok, (), body, query_parts)
            return
        self.expect("(")
        # disambiguate: a fact holds only constants (with an optional leading
        # "tid;"); a query head holds only variables; an ID premise is a
        # general atom followed by "->"
        first = self.peek()
        if first.kind == "int" and self.peek(1).text == ";":
            tid = self._integer(self.next())
            self.expect(";")
            values = self._parse_constant_list()
            self.expect(")")
            self.expect(".")
            self._add_fact(instance, name, name_tok.offset, values, tid)
            return
        terms = self._parse_term_list()
        self.expect(")")
        closer = self.next()
        if closer.text == ".":
            values = [t for t in terms if isinstance(t, Constant)]
            if len(values) != len(terms):
                raise self.error("facts must be ground", closer)
            self._add_fact(instance, name, name_tok.offset, values, None)
        elif closer.text == ":-":
            head_vars = tuple(t for t in terms if isinstance(t, Var))
            if len(head_vars) != len(terms):
                raise self.error("query head must hold variables only", closer)
            body = self._parse_body()
            self.expect("?")
            self._record_query(name_tok, head_vars, body, query_parts)
        elif closer.text == "->":
            conclusion = self._parse_atom()
            self.expect(".")
            ids.append(InclusionDependency(BodyAtom(name, tuple(terms)), conclusion))
        else:
            raise self.error(
                f"expected '.', ':-' or '->', found {closer.text!r}", closer
            )

    # an error about a whole statement points at the statement's name token

    def _record_query(self, name_tok, head_vars, body, query_parts):
        name = name_tok.text
        if name in query_parts:
            known_head, bodies = query_parts[name]
            if known_head != tuple(head_vars):
                message = f"query {name} redeclared with different head"
                raise self.error(message, name_tok)
            bodies.append(body)
        else:
            query_parts[name] = (tuple(head_vars), [body])

    def _add_fact(self, instance: Instance, name, offset, values, tid) -> None:
        try:
            instance.add_fact(name, values, tid=tid)
        except ModelError as exc:
            raise _parse_error(self.text, str(exc), offset)

    # -- pieces ------------------------------------------------------------

    def _parse_body(self) -> ConjunctiveBody:
        atoms: List[BodyAtom] = []
        builtins: List[BuiltinAtom] = []
        while True:
            if self.peek().kind == "name" and self.peek(1).text == "(":
                name = self.next().text
                self.expect("(")
                terms = self._parse_term_list()
                self.expect(")")
                atoms.append(BodyAtom(name, tuple(terms)))
            else:
                left = self._parse_term()
                op_tok = self.next()
                if op_tok.text not in BUILTIN_OPS:
                    raise self.error(f"unknown builtin {op_tok.text!r}", op_tok)
                right = self._parse_term()
                builtins.append(BuiltinAtom(op_tok.text, left, right))
            if self.peek().text == ",":
                self.next()
                continue
            break
        if not atoms:
            self.fail("a body needs at least one relational atom")
        return ConjunctiveBody(tuple(atoms), tuple(builtins))

    def _parse_atom(self) -> BodyAtom:
        name_tok = self.next()
        if name_tok.kind != "name":
            raise self.error("expected relation name", name_tok)
        self.expect("(")
        terms = self._parse_term_list()
        self.expect(")")
        return BodyAtom(name_tok.text, tuple(terms))

    def _parse_term_list(self) -> List[Term]:
        terms = [self._parse_term()]
        while self.peek().text == ",":
            self.next()
            terms.append(self._parse_term())
        return terms

    def _parse_constant_list(self) -> List[Constant]:
        out = []
        for t in self._parse_term_list():
            if isinstance(t, Var):
                self.fail("facts must be ground")
            out.append(t)
        return out

    def _parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "int":
            return num(self._integer(tok))
        if tok.kind == "name":
            if tok.text == "null":
                return NULL
            if tok.text[0].isupper():
                return Var(tok.text)
            return sym(tok.text)
        raise self.error(f"expected a term, found {tok.text!r}", tok)

    def _integer(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            message = f"integer literal too long ({len(tok.text.lstrip('-'))} digits)"
            raise self.error(message, tok) from None


def _check_body(body: ConjunctiveBody, instance: Instance) -> None:
    atom_vars: Set[Var] = set()
    for atom in body.atoms:
        instance.declare(atom.relation, len(atom.terms))
        atom_vars.update(atom.variables())
    for b in body.builtins:
        for v in b.variables():
            if v not in atom_vars:
                raise LangError(f"unsafe builtin: variable {v.name} occurs in no atom")


def _check_query(query: QuerySpec, instance: Instance) -> None:
    for body in query.disjuncts:
        _check_body(body, instance)
        missing = set(query.head_vars) - {v for a in body.atoms for v in a.variables()}
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise LangError(f"query {query.name}: head variable(s) {names} unsafe")


def _check_id(dep: InclusionDependency, instance: Instance) -> None:
    for atom in (dep.premise, dep.conclusion):
        names = [t.name for t in atom.variables()]
        if len(names) != len(atom.terms) or len(set(names)) != len(names):
            raise LangError(
                f"inclusion dependency {dep.premise.render()} -> "
                f"{dep.conclusion.render()}: each atom must hold distinct "
                "variables only"
            )
        instance.declare(atom.relation, len(atom.terms))


def parse_problem(text: str) -> Problem:
    return _Parser(text).parse_problem()


# ---------------------------------------------------------------------------
# Evaluation


class _Step(NamedTuple):
    """How `_match_body` extends a partial match by one atom.

    Values live in one list: every slot in atom order, then the plan's
    constants. The atom's tuple fills `start:stop`. A keyed atom reads only
    the tuples whose values at `key_positions` equal the values at
    `probe_at`; `checks` are (op, left, right) built-ins over list indices
    whose last operand this atom binds."""

    relation: str
    start: int
    stop: int
    key_positions: Tuple[int, ...]
    probe_at: Tuple[int, ...]
    checks: Tuple[Tuple[str, int, int], ...]


class _Plan(NamedTuple):
    constants: Tuple[Constant, ...]
    steps: Tuple[_Step, ...]
    # variable name -> (atom index, 0-based position) of its first occurrence
    first_at: Dict[str, Tuple[int, int]]


def _build_plan(body: ConjunctiveBody) -> _Plan:
    """Number the body's slots in atom order and place every equality and
    built-in at the first atom that binds all its operands.

    A repeated variable or a constant in a slot is an equality with the
    variable's first slot or with the constant. It becomes a key of the
    slot's atom when that operand is a constant or a slot of an earlier
    atom, and a check there otherwise. The written built-ins follow as
    checks, in their order, at the first atom binding all their operands
    (atom 0 when they have none)."""
    starts: List[int] = []
    n_slots = 0
    for atom in body.atoms:
        starts.append(n_slots)
        n_slots += len(atom.terms)
    first_at: Dict[str, Tuple[int, int]] = {}
    constants: List[Constant] = []

    def constant_at(c: Constant) -> int:
        constants.append(c)
        return n_slots + len(constants) - 1

    def slot_of(name: str) -> int:
        i, j = first_at[name]
        return starts[i] + j

    def operand(term: Term) -> Tuple[int, int]:
        """(atom that binds a built-in operand, its value index)"""
        if isinstance(term, Var):
            return first_at[term.name][0], slot_of(term.name)
        return 0, constant_at(term)

    keys: List[List[Tuple[int, int]]] = [[] for _ in body.atoms]
    checks: List[List[Tuple[str, int, int]]] = [[] for _ in body.atoms]
    for i, atom in enumerate(body.atoms):
        for j, term in enumerate(atom.terms):
            if not isinstance(term, Var):
                keys[i].append((j, constant_at(term)))
            elif term.name not in first_at:
                first_at[term.name] = (i, j)
            elif first_at[term.name][0] < i:
                keys[i].append((j, slot_of(term.name)))
            else:
                checks[i].append(("=", slot_of(term.name), starts[i] + j))
    for b in body.builtins:
        (i, left), (k, right) = operand(b.left), operand(b.right)
        checks[max(i, k)].append((b.op, left, right))
    steps = tuple(
        _Step(
            atom.relation,
            start,
            start + len(atom.terms),
            tuple(p for p, _ in atom_keys),
            tuple(q for _, q in atom_keys),
            tuple(atom_checks),
        )
        for atom, start, atom_keys, atom_checks in zip(body.atoms, starts, keys, checks)
    )
    return _Plan(tuple(constants), steps, first_at)


def eval_builtin(op: str, left: Constant, right: Constant) -> bool:
    """Built-in comparison under null semantics: any null operand makes the
    comparison false, whatever the operator."""
    if left.is_null() or right.is_null():
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if left.kind != right.kind:
        raise CrossTypeComparisonError(
            f"cannot order-compare {left.render()} ({left.kind}) "
            f"with {right.render()} ({right.kind})"
        )
    a, b = left.payload, right.payload
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise LangError(f"unknown builtin {op}")


def _match_body(instance: Instance, plan: _Plan) -> Iterator[Tuple[int, ...]]:
    """All satisfying assignments, yielded as their tids, one per atom, in
    lexicographic order.

    An indexed join, walked with a stack of iterators rather than by
    recursion, so a body of any length can be matched. Each atom's tuples
    are read in tid order; a keyed atom reads them from a hash index on its
    key positions, built per call, which leaves out tuples holding null
    there: an equality with a null operand is false, so a probe holding null
    matches nothing.

    Only the equalities of joins and constants become keys; the written
    built-ins stay checks. That keeps the exceptions of a plain nested loop
    that tests, once their operands are bound, the join and constant
    equalities first and then the built-ins in written order: an equality
    never raises, so a tuple a key rules out fails before an order
    comparison could raise `CrossTypeComparisonError`.
    """
    steps = plan.steps
    # per atom: its tuples, or for a keyed atom a dict from key to tuples
    sources: List = []
    for step in steps:
        tuples = instance.tuples_of(step.relation)
        if tuples and len(tuples[0].values) != step.stop - step.start:
            raise LangError(f"arity mismatch for {step.relation} in a body")
        if not step.key_positions:
            sources.append(tuples)
            continue
        key_of = itemgetter(*step.key_positions)
        by_key: Dict[object, List] = {}
        for tup in tuples:
            if not any(tup.values[j].is_null() for j in step.key_positions):
                by_key.setdefault(key_of(tup.values), []).append(tup)
        sources.append(by_key)
    probes = [itemgetter(*s.probe_at) if s.probe_at else None for s in steps]
    values: List[Optional[Constant]] = [None] * steps[-1].stop + list(plan.constants)

    def candidates(i: int) -> Iterator:
        probe = probes[i]
        return iter(sources[i].get(probe(values), ()) if probe else sources[i])

    tids = [0] * len(steps)
    last = len(steps) - 1
    stack = [candidates(0)]
    while stack:
        i = len(stack) - 1
        step = steps[i]
        for tup in stack[i]:
            values[step.start : step.stop] = tup.values
            for op, left, right in step.checks:
                if not eval_builtin(op, values[left], values[right]):
                    break
            else:
                tids[i] = tup.tid
                if i == last:
                    yield tuple(tids)
                    continue
                stack.append(candidates(i + 1))
                break
        else:
            stack.pop()


def eval_bcq(instance: Instance, query: QuerySpec) -> bool:
    if not query.is_boolean():
        raise LangError(f"query {query.name} is open; eval_bcq needs a Boolean query")
    for body in query.disjuncts:
        for _ in _match_body(instance, body._plan):
            return True
    return False


def eval_open(instance: Instance, query: QuerySpec) -> Set[Tuple[Constant, ...]]:
    """Answers to an open UCQ; nulls can reach an answer only through
    single-occurrence variables."""
    answers: Set[Tuple[Constant, ...]] = set()
    for body in query.disjuncts:
        plan = body._plan
        heads = [plan.first_at[v.name] for v in query.head_vars]
        for tids in _match_body(instance, plan):
            answers.add(tuple(instance.get(tids[i]).values[j] for i, j in heads))
    return answers


def substitute_answer(query: QuerySpec, answer: Sequence[Constant]) -> QuerySpec:
    """Ground the head variables of an open query, yielding a BCQ."""
    if len(answer) != len(query.head_vars):
        raise LangError(
            f"query {query.name} expects {len(query.head_vars)} answer value(s)"
        )
    mapping = {v.name: c for v, c in zip(query.head_vars, answer)}

    def subst_term(t: Term) -> Term:
        if isinstance(t, Var) and t.name in mapping:
            return mapping[t.name]
        return t

    disjuncts = []
    for body in query.disjuncts:
        atoms = tuple(
            BodyAtom(a.relation, tuple(subst_term(t) for t in a.terms))
            for a in body.atoms
        )
        builtins = tuple(
            BuiltinAtom(b.op, subst_term(b.left), subst_term(b.right))
            for b in body.builtins
        )
        disjuncts.append(ConjunctiveBody(atoms, builtins))
    return QuerySpec(query.name, (), tuple(disjuncts))


def negate_query_to_dc(query: QuerySpec) -> List[DenialConstraint]:
    """The denial constraints equivalent to the negation of a Boolean UCQ:
    one DC per disjunct, body copied verbatim."""
    if not query.is_boolean():
        raise LangError(f"query {query.name} is open; negate a Boolean query")
    return [DenialConstraint(body) for body in query.disjuncts]


def candidate_slots(body: ConjunctiveBody) -> List[Tuple[int, int]]:
    """(atom index, 1-based position) pairs whose nulling can falsify the
    body: slots of a variable read at least twice or by a built-in, and
    slots holding a non-null constant. In a satisfying assignment every
    such slot holds a non-null value, since each of them is an operand of a
    join or constant equality or of a built-in."""
    counts: Dict[str, int] = {}
    for atom in body.atoms:
        for t in atom.variables():
            counts[t.name] = counts.get(t.name, 0) + 1
    builtin_vars = {v.name for b in body.builtins for v in b.variables()}
    out = []
    for i, atom in enumerate(body.atoms):
        for j, t in enumerate(atom.terms, start=1):
            if isinstance(t, Var):
                if counts[t.name] >= 2 or t.name in builtin_vars:
                    out.append((i, j))
            elif not t.is_null():
                out.append((i, j))
    return out


def violations(
    instance: Instance, dcs: Sequence[DenialConstraint]
) -> List[Tuple[DenialConstraint, Tuple[int, ...]]]:
    """All satisfying assignments of each DC body, as (dc, tids) pairs with
    one tid per body atom, DC by DC in the order given."""
    return [(dc, tids) for dc in dcs for tids in _match_body(instance, dc.body._plan)]


def is_consistent(instance: Instance, dcs: Sequence[DenialConstraint]) -> bool:
    for dc in dcs:
        for _ in _match_body(instance, dc.body._plan):
            return False
    return True


def id_witnesses(
    instance: Instance, ids: Sequence[InclusionDependency]
) -> Dict[int, List[FrozenSet[int]]]:
    """For each premise tuple, one set per dependency on its relation, in
    the order given: the tids of the conclusion tuples that witness it. The
    tuple is unwitnessed in D ∖ X exactly when one of its sets lies in X.

    Each dependency is a semijoin: a premise tuple's values at the shared
    variables are looked up among the conclusion values there. Both atoms
    hold distinct variables only; the parser rejects other shapes.

    A shared variable must match through equal non-null values: null never
    witnesses a join, so a premise holding null at a shared position has no
    witness.
    """
    witnesses: Dict[int, List[FrozenSet[int]]] = {}
    for dep in ids:
        for atom in (dep.premise, dep.conclusion):
            tuples = instance.tuples_of(atom.relation)
            if tuples and len(tuples[0].values) != len(atom.terms):
                raise LangError(
                    f"arity mismatch for {atom.relation} in inclusion dependency"
                )
        shared = sorted(dep.shared_vars(), key=lambda v: v.name)
        prem_at = [dep.premise.terms.index(v) for v in shared]
        concl_at = [dep.conclusion.terms.index(v) for v in shared]
        # a conclusion key holding null is left out, so a premise key
        # holding null finds no witness
        by_key: Dict[Tuple[Constant, ...], List[int]] = {}
        for t in instance.tuples_of(dep.conclusion.relation):
            key = tuple(t.values[j] for j in concl_at)
            if not any(v.is_null() for v in key):
                by_key.setdefault(key, []).append(t.tid)
        found = {key: frozenset(tids) for key, tids in by_key.items()}
        for tup in instance.tuples_of(dep.premise.relation):
            key = tuple(tup.values[j] for j in prem_at)
            witnesses.setdefault(tup.tid, []).append(found.get(key, frozenset()))
    return witnesses


def unsupported_premises(
    instance: Instance, ids: Sequence[InclusionDependency]
) -> Set[int]:
    """Tids of premise tuples with no witnessing conclusion tuple for some
    dependency."""
    return {tid for tid, sets in id_witnesses(instance, ids).items() if not all(sets)}


def satisfies_ids(instance: Instance, ids: Sequence[InclusionDependency]) -> bool:
    return not unsupported_premises(instance, ids)
