"""Generation of answer-set repair programs in DLV / DLV-Complex surface
syntax, plus verification of solver output against this engine.

Two program families are produced: tuple-deletion programs (predicates get a
primed copy `P_a` whose last argument carries the annotation `d`/`s` for
deleted/stays, optionally extended with cause, contingency-set,
responsibility and weak-constraint blocks) and null-update programs (with
annotations `u`/`fu`/`t`/`s` tracking the update fixpoint). The engine never
runs a solver; `verify_model_correspondence` checks externally produced
stable models against the engine's repairs.

Program equality for golden tests goes through `canonical_program`, which is
insensitive to whitespace, statement order, body-literal and head-disjunct
order, and variable naming. It is exact, and it raises `CanonicalFormError`
when ordering a statement's look-alike literals passes a fixed budget.
"""
from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .lang import BodyAtom, DenialConstraint, Var, candidate_slots
from .model import Constant, Instance, NULL, num, sym
from .null_repairs import null_repairs
from .tuple_repairs import s_repairs


class EmitError(ValueError):
    """Invalid emission option combination."""


VALID_INCLUDES = {"causes", "cau_cont", "contingency_sets", "pre_rho", "weak_constraints"}


@dataclass(frozen=True)
class EmitOptions:
    flavor: str = "non-disjunctive"  # or "disjunctive"
    include: FrozenSet[str] = frozenset()
    maxint: int = 100

    def validate(self, instance: Instance) -> None:
        if self.flavor not in ("disjunctive", "non-disjunctive"):
            raise EmitError(f"unknown flavor {self.flavor!r}")
        bad = set(self.include) - VALID_INCLUDES
        if bad:
            raise EmitError(f"unknown include option(s): {', '.join(sorted(bad))}")
        if "contingency_sets" in self.include and "cau_cont" not in self.include:
            raise EmitError("contingency_sets requires cau_cont")
        if "pre_rho" in self.include:
            if "cau_cont" not in self.include:
                raise EmitError("pre_rho requires cau_cont")
            if self.maxint < len(instance) + 1:
                raise EmitError(
                    f"maxint {self.maxint} too small for {len(instance)} tuples"
                )


_VAR_LETTERS = ["X", "Y", "Z", "U", "V", "W"]


def _fresh_vars(n: int, start: int = 0) -> List[str]:
    out = []
    for i in range(start, start + n):
        out.append(_VAR_LETTERS[i] if i < len(_VAR_LETTERS) else f"X{i + 1}")
    return out


def _fact_line(instance: Instance) -> List[str]:
    return [
        "{}({},{}).".format(t.relation, t.tid, ",".join(v.render() for v in t.values))
        if t.values
        else f"{t.relation}({t.tid})."
        for t in instance.tuples()
    ]


def _atom_args(atom: BodyAtom) -> str:
    return ",".join(t.render() for t in atom.terms)


def _dc_predicates(dcs: Sequence[DenialConstraint]) -> List[Tuple[str, int]]:
    seen: Dict[str, int] = {}
    for dc in dcs:
        for atom in dc.body.atoms:
            seen.setdefault(atom.relation, len(atom.terms))
    return sorted(seen.items())


# ---------------------------------------------------------------------------
# Tuple-deletion programs


def _tid_vars(n: int, chosen: int) -> List[str]:
    """Tuple-id variables for n body atoms: `T` for the chosen atom and
    `T2`, `T3`, ... for the others, in body order."""
    return ["T" if k == chosen else f"T{k + 2 if k < chosen else k + 1}" for k in range(n)]


def _repair_rules(dc: DenialConstraint, flavor: str) -> List[str]:
    atoms = dc.body.atoms
    builtins = [b.render() for b in dc.body.builtins]
    if flavor == "disjunctive":
        tids = [f"T{i + 1}" for i in range(len(atoms))]
        head = " v ".join(
            f"{a.relation}_a({tids[i]},{_atom_args(a)},d)" for i, a in enumerate(atoms)
        )
        body = [f"{a.relation}({tids[i]},{_atom_args(a)})" for i, a in enumerate(atoms)]
        body += builtins
        return [f"{head} :- {', '.join(body)}."]
    rules = []
    for i, chosen in enumerate(atoms):
        tid_of = _tid_vars(len(atoms), i)
        body = [f"{chosen.relation}({tid_of[i]},{_atom_args(chosen)})"]
        body += [
            f"{a.relation}({tid_of[j]},{_atom_args(a)})"
            for j, a in enumerate(atoms)
            if j != i
        ]
        body += builtins
        body += [
            f"not {a.relation}_a({tid_of[j]},{_atom_args(a)},d)"
            for j, a in enumerate(atoms)
            if j != i
        ]
        rules.append(
            f"{chosen.relation}_a(T,{_atom_args(chosen)},d) :- {', '.join(body)}."
        )
    return rules


_CONTINGENCY_BLOCK = [
    "preCont(T,{TC}) :- cauCont(T,TC).",
    "preCont(T,#union(C,{TC})) :- cauCont(T,TC), preCont(T,C), not #member(TC,C).",
    "cont(T,C) :- preCont(T,C), not HoleIn(T,C).",
    "HoleIn(T,C) :- preCont(T,C), cauCont(T,TC), not #member(TC,C).",
    "tmpCont(T) :- cont(T,C), not #card(C,0).",
    "cont(T,{}) :- cause(T), not tmpCont(T).",
]


def emit_tuple_repair_program(
    instance: Instance,
    dcs: Sequence[DenialConstraint],
    options: EmitOptions = EmitOptions(),
) -> str:
    options.validate(instance)
    lines = _fact_line(instance)
    lines.append("")
    for dc in dcs:
        lines.extend(_repair_rules(dc, options.flavor))
    preds = _dc_predicates(dcs)
    for name, arity in preds:
        vs = ",".join(_fresh_vars(arity))
        lines.append(f"{name}_a(T,{vs},s) :- {name}(T,{vs}), not {name}_a(T,{vs},d).")
    if "causes" in options.include:
        lines.append("")
        for name, arity in preds:
            vs = ",".join(_fresh_vars(arity))
            lines.append(f"cause(T) :- {name}_a(T,{vs},d).")
    if "cau_cont" in options.include:
        lines.append("")
        for name, arity in preds:
            for name2, arity2 in preds:
                left = ",".join(_fresh_vars(arity))
                right = ",".join(_fresh_vars(arity2, start=arity))
                guard = ", T != TC" if name == name2 else ""
                lines.append(
                    f"cauCont(T,TC) :- {name}_a(T,{left},d), "
                    f"{name2}_a(TC,{right},d){guard}."
                )
    if "contingency_sets" in options.include:
        lines.append("")
        lines.extend(_CONTINGENCY_BLOCK)
    if "pre_rho" in options.include:
        lines.append("")
        lines.append(f"#maxint = {options.maxint}.")
        lines.append(
            "preRho(T,N + 1) :- cause(T), #int(N), #count{TC: cauCont(T,TC)} = N."
        )
    if "weak_constraints" in options.include:
        lines.append("")
        for name, arity in preds:
            vs = ",".join(_fresh_vars(arity))
            lines.append(f":~ {name}_a(T,{vs},d).")
    return "\n".join(lines).strip() + "\n"


# ---------------------------------------------------------------------------
# Null-update programs


def _nulled_args(atom: BodyAtom, position: int) -> str:
    parts = []
    for j, t in enumerate(atom.terms, start=1):
        parts.append("null" if j == position else t.render())
    return ",".join(parts)


def _null_update_rules(dc: DenialConstraint) -> List[str]:
    atoms = dc.body.atoms
    candidates = candidate_slots(dc.body)
    rules = []
    for (i, j) in candidates:
        chosen = atoms[i]
        tid_of = _tid_vars(len(atoms), i)
        body = [f"{chosen.relation}_a(T,{_atom_args(chosen)},t)"]
        body += [
            f"{a.relation}_a({tid_of[k]},{_atom_args(a)},t)"
            for k, a in enumerate(atoms)
            if k != i
        ]
        body += [b.render() for b in dc.body.builtins]
        term = chosen.terms[j - 1]
        if isinstance(term, Var):
            body.append(f"{term.name} != null")
        for (i2, j2) in candidates:
            if (i2, j2) == (i, j):
                continue
            other = atoms[i2]
            body.append(
                f"not {other.relation}_a({tid_of[i2]},{_nulled_args(other, j2)},u)"
            )
        rules.append(
            f"{chosen.relation}_a(T,{_nulled_args(chosen, j)},u) :- {', '.join(body)}."
        )
    return rules


def emit_null_repair_program(
    instance: Instance,
    dcs: Sequence[DenialConstraint],
    options: EmitOptions = EmitOptions(),
) -> str:
    options.validate(instance)
    lines = _fact_line(instance)
    lines.append("")
    preds = _dc_predicates(dcs)
    for name, arity in preds:
        vs = ",".join(_fresh_vars(arity))
        lines.append(f"{name}_a(T,{vs},t) :- {name}(T,{vs}).")
        lines.append(f"{name}_a(T,{vs},t) :- {name}_a(T,{vs},u).")
    lines.append("")
    for dc in dcs:
        lines.extend(_null_update_rules(dc))
    for name, arity in preds:
        lines.append("")
        vs = _fresh_vars(arity)
        joined = ",".join(vs)
        negs = ", ".join(f"not aux{name}{j}(T,{joined})" for j in range(1, arity + 1))
        lines.append(f"{name}_a(T,{joined},fu) :- {name}_a(T,{joined},u), {negs}.")
        for j in range(1, arity + 1):
            nulled = ",".join("null" if k == j else vs[k - 1] for k in range(1, arity + 1))
            lines.append(
                f"aux{name}{j}(T,{joined}) :- {name}(T,{joined}), "
                f"{name}_a(T,{nulled},u), {vs[j - 1]} != null."
            )
    for name, arity in preds:
        lines.append("")
        joined = ",".join(_fresh_vars(arity))
        lines.append(f"{name}_a(T,{joined},s) :- {name}_a(T,{joined},fu).")
        lines.append(f"{name}_a(T,{joined},s) :- {name}(T,{joined}), not aux{name}(T).")
        lines.append(f"aux{name}(T) :- {name}_a(T,{joined},u).")
    if "causes" in options.include:
        lines.append("")
        for name, arity in preds:
            vs = _fresh_vars(arity)
            for j in range(1, arity + 1):
                nulled = ",".join(
                    "null" if k == j else vs[k - 1] for k in range(1, arity + 1)
                )
                fresh = [
                    vs[j - 1] if k == j else f"{vs[k - 1]}2"
                    for k in range(1, arity + 1)
                ]
                lines.append(
                    f"cause(T,{j},{vs[j - 1]}) :- {name}_a(T,{nulled},s), "
                    f"{name}(T,{','.join(fresh)})."
                )
    return "\n".join(lines).strip() + "\n"


# ---------------------------------------------------------------------------
# Canonical normalization for golden comparison

_TOKEN = re.compile(
    r"#?[A-Za-z_][A-Za-z0-9_]*|\d+|:-|:~|!=|<=|>=|[(){}\[\],=<>+;:]|\S"
)


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("%", 1)[0] for line in text.splitlines())


def _split_top(tokens: List[str], sep: str) -> List[List[str]]:
    parts: List[List[str]] = [[]]
    depth = 0
    for tok in tokens:
        if tok in "({[":
            depth += 1
        elif tok in ")}]":
            depth -= 1
        if tok == sep and depth == 0:
            parts.append([])
        else:
            parts[-1].append(tok)
    return [p for p in parts if p]


# A statement part as its tokens, each flagged when it is a variable
_Part = Tuple[Tuple[str, bool], ...]

# renderings `_least_order` may spend on one statement's literal ties
_TIE_BUDGET = 100_000


class CanonicalFormError(ValueError):
    """A statement's literal ties need more than `_TIE_BUDGET` renderings
    to resolve, so its canonical form is not computed."""


def _flag_variables(tokens: List[str]) -> _Part:
    """Pair each token with whether it is a variable: a name that starts
    with an upper-case letter and is not followed by `(`."""
    nexts = tokens[1:] + [""]
    return tuple(
        (tok, "A" <= tok[0] <= "Z" and nxt != "(") for tok, nxt in zip(tokens, nexts)
    )


def _render_part(part: _Part, labels: Dict[str, str]) -> Tuple[str, Dict[str, str]]:
    """The part with each variable replaced by its label, and the labels of
    the variables `labels` lacks: `V<n>`, numbered on after those of
    `labels` in order of first appearance. The numbers have three digits
    at least, so up to `V999` the labels compare as their numbers do."""
    fresh: Dict[str, str] = {}
    out = []
    for tok, is_var in part:
        if is_var:
            tok = labels.get(tok) or fresh.setdefault(
                tok, f"V{len(labels) + len(fresh) + 1:03d}"
            )
        out.append(tok)
    return " ".join(out), fresh


def _least_order(
    parts: List[_Part], labels: Dict[str, str], budget: Optional[List[int]] = None
) -> List[str]:
    """The least list of the parts' renderings over every order of the
    parts, each part rendered under the labels the parts before it gave.

    Its first entry is the least rendering of a part, so only the parts
    that render to it, the ties, can come first. Each tie is tried in turn
    with the rest searched after it, except that two ties lead to the same
    rest, up to swapping them, when they are identical or when their fresh
    variables occur in no other part; one of those is tried. From the first
    such branch on, `budget[0]` counts down the renderings left, and
    `CanonicalFormError` is raised when it runs out.
    """
    out: List[str] = []
    while parts:
        if budget is not None:
            budget[0] -= len(parts)
            if budget[0] < 0:
                raise CanonicalFormError(
                    f"literal ties need more than {_TIE_BUDGET} renderings to order"
                )
        rendered = [_render_part(p, labels) for p in parts]
        least = min(text for text, _ in rendered)
        out.append(least)
        occurs = Counter(v for p in parts for v in {t for t, is_var in p if is_var})
        ties: Dict[Optional[_Part], int] = {}
        for i, (text, fresh) in enumerate(rendered):
            if text == least:
                private = all(occurs[v] == 1 for v in fresh)
                ties.setdefault(None if private else parts[i], i)
        branches = [
            (parts[:i] + parts[i + 1 :], {**labels, **rendered[i][1]})
            for i in ties.values()
        ]
        if len(branches) > 1:
            budget = [_TIE_BUDGET] if budget is None else budget
            return out + min(_least_order(p, l, budget) for p, l in branches)
        parts, labels = branches[0]
    return out


def _canonical_statement(tokens: List[str]) -> str:
    """The statement's parts in the order `_least_order` picks, with its
    variables renamed `V001`, `V002`, ... in order of first appearance. The
    parts of a rule are its head disjuncts and its body literals, each
    literal led by the `:-` or `:~` token; any other statement is one part.
    Two statements get the same form exactly when they are equal up to the
    order of those parts and a renaming of their variables."""
    parts = [tokens]
    depth = 0
    for idx, tok in enumerate(tokens):
        if tok in "({[":
            depth += 1
        elif tok in ")}]":
            depth -= 1
        elif tok in (":-", ":~") and depth == 0:
            body = _split_top(tokens[idx + 1 :], ",")
            parts = _split_top(tokens[:idx], "v") + [[tok] + p for p in body]
            break
    flagged = [_flag_variables(p) for p in parts]
    return " , ".join(_least_order(flagged, {}))


def canonical_program(text: str) -> str:
    """A normal form for a program: statement order, literal order, variable
    names and whitespace are all abstracted away."""
    statements = [_TOKEN.findall(raw) for raw in _strip_comments(text).split(".")]
    return "\n".join(sorted(_canonical_statement(s) for s in statements if s))


def programs_equivalent(a: str, b: str) -> bool:
    """Whether the two programs have the same `canonical_program`. Exact:
    raises `CanonicalFormError` when a statement's literal ties exceed the
    search budget, and never guesses."""
    return canonical_program(a) == canonical_program(b)


# ---------------------------------------------------------------------------
# Solver-output parsing and model/repair correspondence


@dataclass(frozen=True)
class ModelAtom:
    predicate: str
    args: Tuple[str, ...]


_BRACE = re.compile(r"[{}]")
_BRACKET = re.compile(r"[(){}\[\]]")


def parse_models(text: str) -> List[List[ModelAtom]]:
    """Models in the solver's brace-list output format; `Best model:`
    prefixes and `Cost ...` trailers are ignored. Steps from brace to
    brace, not over every character."""
    models: List[List[ModelAtom]] = []
    depth = 0
    start = 0
    for m in _BRACE.finditer(text):
        if m.group() == "{":
            if depth == 0:
                start = m.end()
            depth += 1
        else:
            depth -= 1
            if depth < 0:
                raise EmitError("unbalanced braces in model text")
            if depth == 0:
                models.append(_parse_model_body(text[start : m.start()]))
    if depth != 0:
        raise EmitError("unbalanced braces in model text")
    return models


_MODEL_ATOM = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$", re.S)
_INTEGER = re.compile(r"-?\d+")


def _parse_model_body(body: str) -> List[ModelAtom]:
    atoms = []
    for chunk in _split_chunks(body):
        m = _MODEL_ATOM.match(chunk)
        if not m:
            if chunk.strip():
                raise EmitError(f"cannot parse model atom {chunk.strip()!r}")
            continue
        args = tuple(map(str.strip, _split_chunks(m.group(2))))
        atoms.append(ModelAtom(m.group(1), args))
    return atoms


def _split_chunks(text: str) -> List[str]:
    """The non-blank pieces of `text` between its depth-0 commas. Steps from
    bracket to bracket: a stretch at depth 0 is cut at its commas by
    `str.split`, a stretch at any other depth is kept whole."""
    parts = [""]
    depth = start = 0
    for m in _BRACKET.finditer(text):
        if depth == 0:  # text[start:m.start()] lies at depth 0
            head, *rest = text[start : m.start()].split(",")
            parts[-1] += head
            parts += rest
            start = m.start()
        depth += 1 if m.group() in "({[" else -1
        if depth == 0:
            parts[-1] += text[start : m.end()]
            start = m.end()
    if depth == 0:
        head, *rest = text[start:].split(",")
        parts[-1] += head
        parts += rest
    else:
        parts[-1] += text[start:]
    return list(filter(str.strip, parts))


def _const_of(text: str) -> Constant:
    if _INTEGER.fullmatch(text):
        return num(int(text))
    if text == "null":
        return NULL
    return sym(text)


def _model_repair_key(atoms: Sequence[ModelAtom]) -> FrozenSet:
    """The repair encoded by a model: the s-annotated primed atoms, as
    (relation, tid, values) triples."""
    out = set()
    for atom in atoms:
        if not atom.predicate.endswith("_a") or not atom.args:
            continue
        if atom.args[-1] != "s":
            continue
        relation = atom.predicate[:-2]
        tid = int(atom.args[0])
        values = tuple(_const_of(a) for a in atom.args[1:-1])
        out.add((relation, tid, values))
    return frozenset(out)


@dataclass
class CorrespondenceReport:
    matches: List[Tuple[int, int]] = field(default_factory=list)
    unmatched_models: List[int] = field(default_factory=list)
    unmatched_repairs: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unmatched_models and not self.unmatched_repairs

    def render(self) -> str:
        lines = [
            f"model {m} <-> repair {r}" for m, r in self.matches
        ]
        lines += [f"model {m} matches no repair" for m in self.unmatched_models]
        lines += [f"repair {r} matches no model" for r in self.unmatched_repairs]
        lines.append("correspondence: " + ("bijective" if self.ok else "MISMATCH"))
        return "\n".join(lines)


def verify_model_correspondence(
    instance: Instance,
    dcs: Sequence[DenialConstraint],
    models_text: str,
    semantics: str = "tuple",
) -> CorrespondenceReport:
    """Check that the solver's stable models encode exactly this engine's
    repairs, one for one."""
    # key each repair from the source rows: drop the removed rows, or swap
    # in the nulled variants of the rows its changes touch
    rows = {t.tid: (t.relation, t.tid, t.values) for t in instance.tuples()}
    source = frozenset(rows.values())
    if semantics == "tuple":
        repair_keys = [
            source.difference([rows[tid] for tid in r.removed_tids])
            for r in s_repairs(instance, dcs)
        ]
    elif semantics == "null":
        repair_keys = []
        for r in null_repairs(instance, dcs):
            nulled = instance.nulled_tuples(r.changes)
            repair_keys.append(
                source.difference([rows[t.tid] for t in nulled]).union(
                    (t.relation, t.tid, t.values) for t in nulled
                )
            )
    else:
        raise EmitError(f"unknown semantics {semantics!r}")
    # each key's repairs in index order, so a model takes the first unused one
    unused: Dict[FrozenSet, Deque[int]] = {}
    for ri, rk in enumerate(repair_keys):
        unused.setdefault(rk, deque()).append(ri)

    report = CorrespondenceReport()
    for mi, atoms in enumerate(parse_models(models_text)):
        free = unused.get(_model_repair_key(atoms))
        if free:
            report.matches.append((mi, free.popleft()))
        else:
            report.unmatched_models.append(mi)
    report.unmatched_repairs = sorted(ri for free in unused.values() for ri in free)
    return report
