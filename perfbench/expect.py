"""Independent expected outputs for the benchmark's canonical job specs.

Nothing here calls the engine. Repairs are the minimal transversals of the
violation hypergraph the generator recorded, found with Berge's algorithm per
connected component; causes and responsibilities are read off those
transversals, or, under hard inclusion dependencies, found by a brute-force
search over contingency sets. The results are rendered in the CLI's
documented output format, so a job's canonical stdout can be compared with
them byte for byte. `emit-asp` output is checked on its fact block only.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from workloads import MARK, Case, Pos, Spec

Edge = FrozenSet


def _components(edges: List[Edge]) -> List[List[Edge]]:
    parent: Dict[object, object] = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        first, *rest = e
        for v in rest:
            parent[find(v)] = find(first)
    groups: Dict[object, List[Edge]] = {}
    for e in edges:
        groups.setdefault(find(next(iter(e))), []).append(e)
    return list(groups.values())


def _berge(edges: List[Edge]) -> List[Edge]:
    """Minimal transversals, adding one edge at a time; a set stays only if
    each of its vertices is the sole hit of some edge seen so far."""
    found: List[Edge] = [frozenset()]
    seen: List[Edge] = []
    for e in edges:
        seen.append(e)
        grown: Set[Edge] = set()
        for h in found:
            if h & e:
                grown.add(h)
            else:
                grown.update(h | {v} for v in e)
        found = [
            h for h in grown if all(any(h & s == {v} for s in seen) for v in h)
        ]
    return found


def transversals(edges: Iterable[Edge]) -> List[Edge]:
    """All subset-minimal sets meeting every edge."""
    unique = list(dict.fromkeys(edges))
    if not unique:
        return [frozenset()]
    per_component = [_berge(c) for c in _components(unique)]
    return [frozenset().union(*parts) for parts in product(*per_component)]


def _tid_order(h: Edge):
    return (len(h), sorted(h))


def _violations(case: Case, answer: Optional[str]):
    return [v for v in case.violations if answer is None or v.key == answer]


def tuple_removed_sets(case: Case, answer: Optional[str] = None) -> List[Edge]:
    return sorted(transversals(v.tids for v in _violations(case, answer)), key=_tid_order)


def null_deltas(case: Case, answer: Optional[str] = None) -> List[Edge]:
    return sorted(
        transversals(v.positions for v in _violations(case, answer)),
        key=lambda d: (len(d), sorted(d)),
    )


def _cascade(case: Case, removed: Edge) -> Edge:
    """Delete premise tuples left without a witness, to a fixpoint."""
    gone = set(removed)
    changed = True
    while changed:
        changed = False
        for premise, witnesses in case.support.items():
            if premise not in gone and witnesses <= gone:
                gone.add(premise)
                changed = True
    return frozenset(gone)


def ics_removed_sets(case: Case) -> List[Edge]:
    candidates = {_cascade(case, h) for h in tuple_removed_sets(case)}
    return sorted((h for h in candidates if not any(o < h for o in candidates)), key=_tid_order)


# -- rendering ---------------------------------------------------------------


def _render_tuple(relation: str, tid: int, values) -> str:
    return f"{relation}({tid};{','.join(values)})"


def _tuples(case: Case, removed: Edge = frozenset(), nulled: Edge = frozenset()) -> List[str]:
    rows = []
    for relation, tid, values in sorted(case.facts, key=lambda f: (f[0], f[1])):
        if tid in removed:
            continue
        vals = [
            "null" if (relation, tid, j) in nulled else MARK + v
            for j, v in enumerate(values, start=1)
        ]
        rows.append(_render_tuple(relation, tid, vals))
    return rows


def _pos(p: Pos) -> str:
    return f"{p[0]}[{p[1]};{p[2]}]"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _lines(lines: List[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _frac(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def _repairs(spec: Spec, fmt: str) -> str:
    case = spec.case
    cardinality = "cardinality" in spec.args
    if "null" in spec.args:
        deltas = null_deltas(case)
        if cardinality:
            deltas = [d for d in deltas if len(d) == len(deltas[0])]
        if fmt == "json":
            return _json({"repairs": [
                {"delta": [_pos(p) for p in sorted(d)], "tuples": _tuples(case, nulled=d)}
                for d in deltas
            ]})
        lines = []
        for i, d in enumerate(deltas, start=1):
            lines.append(f"repair {i}: delta {{{', '.join(_pos(p) for p in sorted(d))}}}")
            lines.append("  {" + ", ".join(_tuples(case, nulled=d)) + "}")
        return _lines(lines)
    removed = ics_removed_sets(case) if "--ics" in spec.args else tuple_removed_sets(case)
    if cardinality:
        removed = [h for h in removed if len(h) == len(removed[0])]
    if fmt == "json":
        return _json({"repairs": [
            {"removed": sorted(h), "tuples": _tuples(case, removed=h)} for h in removed
        ]})
    lines = []
    for i, h in enumerate(removed, start=1):
        lines.append(f"repair {i}: removed {{{', '.join(str(t) for t in sorted(h))}}}")
        lines.append("  {" + ", ".join(_tuples(case, removed=h)) + "}")
    return _lines(lines)


def _minimal_gammas(case: Case, answer: Optional[str]) -> Dict[int, Set[Edge]]:
    """Contingency sets per cause: each repair removing τ gives removed ∖ {τ}."""
    gammas: Dict[int, Set[Edge]] = {}
    for h in tuple_removed_sets(case, answer):
        for tid in h:
            gammas.setdefault(tid, set()).add(h - {tid})
    return gammas


def _ics_gammas(case: Case, answer: Optional[str]) -> Dict[int, Set[Edge]]:
    """Brute force over contingency sets Γ: D∖Γ keeps the query true, D∖(Γ∪{τ})
    makes it false, and both satisfy the hard IND."""
    tids = [f[1] for f in case.facts]
    bit = {t: 1 << i for i, t in enumerate(tids)}
    full = (1 << len(tids)) - 1

    def mask(ts) -> int:
        m = 0
        for t in ts:
            m |= bit[t]
        return m

    matches = [mask(v.tids) for v in _violations(case, answer)]
    support = [(bit[p], mask(w)) for p, w in case.support.items()]

    def holds(alive: int) -> bool:
        return any(m & alive == m for m in matches)

    def ids_ok(alive: int) -> bool:
        return all(not (p & alive) or (w & alive) for p, w in support)

    out: Dict[int, Set[Edge]] = {}
    for tau in tids:
        others = [t for t in tids if t != tau]
        found: List[int] = []
        for size in range(len(others) + 1):
            for combo in combinations(others, size):
                g = mask(combo)
                if any(k & g == k for k in found):
                    continue
                alive = full & ~g
                if not (ids_ok(alive) and holds(alive)):
                    continue
                after = alive & ~bit[tau]
                if ids_ok(after) and not holds(after):
                    found.append(g)
        if found:
            out[tau] = {frozenset(t for t in tids if bit[t] & g) for g in found}
    return out


def _tuple_causes(spec: Spec, fmt: str) -> str:
    with_sets = spec.command == "causes"
    if "--ics" in spec.args:
        gammas = _ics_gammas(spec.case, spec.answer)
    else:
        gammas = _minimal_gammas(spec.case, spec.answer)
    reports = sorted(
        ((Fraction(1, 1 + min(len(g) for g in gs)), tid, sorted(gs, key=_tid_order))
         for tid, gs in gammas.items()),
        key=lambda r: (-r[0], r[1]),
    )
    if fmt == "json":
        causes = []
        for resp, tid, gs in reports:
            entry = {"id": tid, "responsibility": _frac(resp), "counterfactual": resp == 1}
            if with_sets:
                entry["contingency_sets"] = [sorted(g) for g in gs]
            causes.append(entry)
        return _json({"causes": causes})
    lines = []
    for resp, tid, gs in reports:
        lines.append(f"tid {tid}: responsibility {resp}" + (" (counterfactual)" if resp == 1 else ""))
        if with_sets:
            lines += [f"  contingency {{{', '.join(str(t) for t in sorted(g))}}}" for g in gs]
    return _lines(lines)


def _null_causes(spec: Spec, fmt: str) -> str:
    deltas = null_deltas(spec.case, spec.answer)
    if "tuple" in spec.args:
        best_tid: Dict[int, int] = {}
        witnesses: Dict[int, Set[Pos]] = {}
        for d in deltas:
            for p in d:
                best_tid[p[1]] = min(best_tid.get(p[1], len(d)), len(d))
                witnesses.setdefault(p[1], set()).add(p)
        rows = sorted(((Fraction(1, n), t) for t, n in best_tid.items()), key=lambda r: (-r[0], r[1]))
        if fmt == "json":
            return _json({"causes": [
                {"id": t, "responsibility": _frac(r), "positions": [_pos(p) for p in sorted(witnesses[t])]}
                for r, t in rows
            ]})
        return _lines([f"tid {t}: responsibility {r}" for r, t in rows])
    best: Dict[Pos, int] = {}
    for d in deltas:
        for p in d:
            best[p] = min(best.get(p, len(d)), len(d))
    rows = sorted(((Fraction(1, n), p) for p, n in best.items()), key=lambda r: (-r[0], r[1]))
    if fmt == "json":
        return _json({"causes": [
            {"position": _pos(p), "responsibility": _frac(r), "counterfactual": r == 1}
            for r, p in rows
        ]})
    values = {(rel, tid, j): v for rel, tid, vals in spec.case.facts for j, v in enumerate(vals, 1)}
    return _lines([
        f"{_pos(p)} = {MARK}{values[p]}: responsibility {r}" + (" (counterfactual)" if r == 1 else "")
        for r, p in rows
    ])


def _eval_open(spec: Spec, fmt: str) -> str:
    heads = {vals[1] for rel, _, vals in spec.case.facts if rel == "Dep"}
    teachers = {vals[1] for rel, _, vals in spec.case.facts if rel == "Course"}
    answers = sorted(MARK + p for p in heads & teachers)
    if fmt == "json":
        return _json({"query": "Q1", "answers": [[a] for a in answers]})
    return _lines(answers)


def _check(spec: Spec) -> str:
    null = "null" in spec.args
    repairs = null_deltas(spec.case) if null else tuple_removed_sets(spec.case)
    n = len(repairs)  # models were written in reverse engine order
    return _lines([f"model {m} <-> repair {n - 1 - m}" for m in range(n)] + ["correspondence: bijective"])


def _emitted_facts(case: Case) -> str:
    """The fact block `emit-asp` opens with."""
    rows = sorted(case.facts, key=lambda f: (f[0], f[1]))
    return _lines([f"{r}({t},{','.join(MARK + v for v in vals)})." for r, t, vals in rows]) + "\n"


def expected_stdout(spec: Spec) -> Tuple[str, bool]:
    """(text, exact): the canonical stdout, or for `emit-asp` its prefix."""
    fmt = "json" if "json" in spec.args else "text"
    if spec.command == "repairs":
        return _repairs(spec, fmt), True
    if spec.command in ("causes", "responsibility"):
        if "null" in spec.args:
            return _null_causes(spec, fmt), True
        return _tuple_causes(spec, fmt), True
    if spec.command == "eval":
        return _eval_open(spec, fmt), True
    if spec.command == "check":
        return _check(spec), True
    if spec.command == "emit-asp":
        return _emitted_facts(spec.case), False
    raise ValueError(f"no expectation for command {spec.command!r}")
