"""Seeded inputs for the benchmark's workloads.

A workload is a fixed list of canonical job *specs*: a problem text, the CLI
arguments, and the structure the generator knows about the instance (which
tuples and positions each violation reads, which tuples witness each
inclusion-dependency premise). Every round of a run executes each spec
`copies` times (once, but for the specs that carry a percentile rank), in an
order drawn from the seed, under a constant prefix drawn from the seed:
constants are written ``k_<name>`` in a spec and ``k<8 hex digits>_<name>``
in a job. So no two jobs of one run share an instance, while every round does
the same work. Putting ``k_`` back in place of a job's prefix turns its
output into the spec's canonical output, which `expect.py` predicts and
`digests.json` pins.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

MARK = "k_"

Pos = Tuple[str, int, int]  # (relation, tid, 1-based attribute)

PATH_DC = ":- A(X, Y), A(Y, Z)."
KEY_DC = ":- R(X, Y), R(X, Z), Y != Z."
DEP_KEY_DC = ":- Dep(X, Y), Dep(X, Z), Y != Z."
DEP_IND = "Dep(X, Y) -> Course(U, Y)."
R_IND = "R(X, Y) -> S(X)."
PAPER_Q = "q :- S(X), R(X, Y), S(Y)?"
OPEN_Q = "Q(X) :- S(X), R(X, Y), S(Y)?"
REGISTRAR_UCQ = "Q(X) :- Dep(Y, X), Course(Z, X)?\nQ(X) :- Dep(Y, X), Lab(W, X)?"


@dataclass(frozen=True)
class Violation:
    tids: FrozenSet[int]
    positions: FrozenSet[Pos]
    key: str  # the constant an open query's head variable binds to


class Case:
    """A generated instance with its known violation structure."""

    def __init__(self, explicit_tids: bool = True) -> None:
        self.explicit_tids = explicit_tids
        self.facts: List[Tuple[str, int, Tuple[str, ...]]] = []
        self.rules: List[str] = []
        self.violations: List[Violation] = []
        # premise tid -> tids of the tuples that witness it
        self.support: Dict[int, FrozenSet[int]] = {}

    def add(self, relation: str, *values: str) -> int:
        tid = len(self.facts) + 1  # explicit or auto-assigned, tids run 1..n
        self.facts.append((relation, tid, values))
        return tid

    def relation(self, tid: int) -> str:
        return self.facts[tid - 1][0]

    def violate(self, *parts: Tuple[int, Sequence[int]], key: str = "") -> None:
        """Record one violating assignment: (tid, attributes it reads) parts."""
        self.violations.append(
            Violation(
                frozenset(t for t, _ in parts),
                frozenset((self.relation(t), t, j) for t, attrs in parts for j in attrs),
                key,
            )
        )

    def text(self) -> str:
        lines = []
        for relation, tid, values in self.facts:
            args = ", ".join(MARK + v for v in values)
            lines.append(
                f"{relation}({tid}; {args})." if self.explicit_tids else f"{relation}({args})."
            )
        return "\n".join(lines + self.rules) + "\n"


@dataclass(frozen=True)
class Spec:
    """One canonical job. `args` holds the CLI arguments after the command's
    input file; `answer` names the constant an open query is grounded with."""

    name: str
    case: Case = field(compare=False)
    command: str
    args: Tuple[str, ...] = ()
    answer: Optional[str] = None
    with_models: bool = False  # `check` job: a models file is written too
    copies: int = 1  # jobs of this spec in every round


    def argv(self, problem: str, models: str, prefix: str) -> List[str]:
        argv = [self.command, problem, *self.args]
        if self.answer is not None:
            argv += ["--answer", prefix + self.answer]
        if self.with_models:
            argv += ["--models", models]
        return argv


# -- instance families -------------------------------------------------------


def chain(case: Case, n: int, closed: bool, tag: str = "c") -> None:
    """A(c0,c1), A(c1,c2), ...: the path DC links consecutive tuples, so the
    conflict graph is a path (or, closed, a cycle) on n vertices."""
    tids = [
        case.add("A", f"{tag}{i}", f"{tag}{(i + 1) % n if closed else i + 1}")
        for i in range(n)
    ]
    pairs = list(zip(tids, tids[1:]))
    if closed:
        pairs.append((tids[-1], tids[0]))
    for a, b in pairs:
        case.violate((a, (2,)), (b, (1,)))


def key_groups(case: Case, sizes: Sequence[int], tag: str = "g") -> None:
    """R tuples sharing a key conflict pairwise: one clique per group."""
    for g, size in enumerate(sizes):
        tids = [case.add("R", f"{tag}{g}", f"v{g}x{i}") for i in range(size)]
        for a, b in combinations(tids, 2):
            case.violate((a, (1, 2)), (b, (1, 2)))


def dense_case(path: int = 0, cycle: int = 0, keys: Sequence[int] = ()) -> Case:
    case = Case()
    if path:
        chain(case, path, closed=False)
    if cycle:
        chain(case, cycle, closed=True, tag="o")
    key_groups(case, keys)
    case.rules = [PATH_DC, KEY_DC]
    return case


def wide_keys(n: int, dup_groups: int, explicit_tids: bool) -> Case:
    """n R tuples under the key DC; `dup_groups` keys, spread evenly, carry a
    second value, so there are 2**dup_groups repairs."""
    case = Case(explicit_tids)
    step = n // (dup_groups + 1)
    i = 0
    while len(case.facts) < n:
        tid = case.add("R", f"r{i}", f"w{i}")
        if i % step == step - 1 and len(case.violations) < dup_groups:
            other = case.add("R", f"r{i}", f"w{i}z")
            case.violate((tid, (1, 2)), (other, (1, 2)))
        i += 1
    case.rules = [KEY_DC]
    return case


def registrar(departments: int, dup_heads: int, explicit_tids: bool = True) -> Case:
    """The registrar example scaled up: each department has a head who
    teaches two courses; `dup_heads` departments list a second head, which
    the department-key DC forbids. Every head teaches, so the IND holds."""
    case = Case(explicit_tids)
    step = departments // (dup_heads + 1)
    teaches: Dict[str, List[int]] = {}
    heads: List[Tuple[int, str]] = []
    for i in range(departments):
        heads.append((case.add("Dep", f"d{i}", f"p{i}"), f"p{i}"))
        if i % step == step - 1 and len(case.violations) < dup_heads:
            second = f"p{(i + 1) % departments}"
            heads.append((case.add("Dep", f"d{i}", second), second))
            case.violate((heads[-2][0], (1, 2)), (heads[-1][0], (1, 2)))
    for i in range(departments):
        for suffix in ("a", "b"):
            teaches.setdefault(f"p{i}", []).append(
                case.add("Course", f"c{i}{suffix}", f"p{i}")
            )
    for tid, prof in heads:
        case.support[tid] = frozenset(teaches[prof])
    case.rules = [DEP_KEY_DC, "Q1(X) :- Dep(Y, X), Course(Z, X)?", DEP_IND]
    return case


def single_atom(n: int) -> Case:
    """n copies of S(a) without tids, each violating `:- S(a).` alone."""
    case = Case(explicit_tids=False)
    for _ in range(n):
        case.violate((case.add("S", "a"), (1,)))
    case.rules = [f":- S({MARK}a)."]
    return case


def paper_case(
    triples: int, fans: int, loops: int, noise: int, ind: bool = False
) -> Case:
    """The paper's S/R instance scaled up, for q :- S(X), R(X,Y), S(Y).

    Components: a triple S(a), R(a,b), S(b) (one violation); a fan S(a) with
    R(a,b), R(a,c), S(b), S(c) (two violations sharing S(a)); a loop S(a),
    R(a,a) (one violation). Noise pairs S(m), R(m,n) join nothing. Every R
    tuple's source has an S tuple, so R(X,Y) -> S(X) holds.
    """
    case = Case()
    sources: Dict[int, int] = {}  # R tid -> S tid of its source

    def edge(s1: int, r: int, s2: int, key: str) -> None:
        sources[r] = s1
        case.violate((s1, (1,)), (r, (1, 2)), (s2, (1,)), key=key)

    for i in range(triples):
        a = case.add("S", f"t{i}a")
        r = case.add("R", f"t{i}a", f"t{i}b")
        b = case.add("S", f"t{i}b")
        edge(a, r, b, f"t{i}a")
    for i in range(fans):
        a = case.add("S", f"f{i}a")
        r1 = case.add("R", f"f{i}a", f"f{i}b")
        r2 = case.add("R", f"f{i}a", f"f{i}c")
        b = case.add("S", f"f{i}b")
        c = case.add("S", f"f{i}c")
        edge(a, r1, b, f"f{i}a")
        edge(a, r2, c, f"f{i}a")
    for i in range(loops):
        a = case.add("S", f"l{i}")
        r = case.add("R", f"l{i}", f"l{i}")
        edge(a, r, a, f"l{i}")
    for i in range(noise):
        m = case.add("S", f"m{i}")
        sources[case.add("R", f"m{i}", f"n{i}")] = m
    case.rules = [PAPER_Q, OPEN_Q]
    if ind:
        case.rules.append(R_IND)
        case.support = {r: frozenset({s}) for r, s in sources.items()}
    return case


def registrar_ucq(
    target_deps: int, courses: int, labs: int, others: int, ind: bool = False
) -> Case:
    """The registrar UCQ Q(X) :- Dep(Y,X), Course(Z,X) | Dep(Y,X), Lab(W,X),
    grounded at professor `pt`, who heads `target_deps` departments; `others`
    professors with one department, course and lab each add matches for
    other answers."""
    case = Case()
    teaches: Dict[str, List[int]] = {}
    plan = [("pt", target_deps, courses, labs)] + [(f"o{i}", 1, 1, 1) for i in range(others)]
    for prof, n_dep, n_course, n_lab in plan:
        deps = [case.add("Dep", f"{prof}d{j}", prof) for j in range(n_dep)]
        cs = [case.add("Course", f"{prof}c{j}", prof) for j in range(n_course)]
        ls = [case.add("Lab", f"{prof}l{j}", prof) for j in range(n_lab)]
        teaches[prof] = cs
        for d in deps:
            for other in cs + ls:
                case.violate((d, (2,)), (other, (2,)), key=prof)
            if ind:
                case.support[d] = frozenset(cs)
    case.rules = [REGISTRAR_UCQ] + ([DEP_IND] if ind else [])
    return case


# -- workloads ---------------------------------------------------------------


def _dense() -> List[Spec]:
    sub, card = ("--minimality", "subset"), ("--minimality", "cardinality")
    null = ("--semantics", "null")
    js = ("--format", "json")
    return [
        Spec("path14-s", dense_case(path=14), "repairs", sub),
        Spec("path16-s", dense_case(path=16), "repairs", sub),
        Spec("path18-s", dense_case(path=18), "repairs", sub),
        Spec("cycle13-s", dense_case(cycle=13), "repairs", sub),
        Spec("cycle16-s", dense_case(cycle=16), "repairs", sub),
        Spec("cycle17-s-json", dense_case(cycle=17), "repairs", sub + js),
        Spec("keys3344-s", dense_case(keys=(3, 3, 4, 4)), "repairs", sub),
        Spec("path6keys34-s", dense_case(path=6, keys=(3, 4)), "repairs", sub),
        Spec("path16-c", dense_case(path=16), "repairs", card),
        Spec("path16-c-json", dense_case(path=16), "repairs", card + js),
        Spec("path18-c", dense_case(path=18), "repairs", card),
        Spec("cycle16-c-json", dense_case(cycle=16), "repairs", card + js),
        Spec("keys3344-c", dense_case(keys=(3, 3, 4, 4)), "repairs", card),
        Spec("null-path8-s", dense_case(path=8), "repairs", null + sub),
        Spec("null-path10-s", dense_case(path=10), "repairs", null + sub),
        Spec("null-cycle9-s-json", dense_case(cycle=9), "repairs", null + sub + js),
        Spec("null-keys223-s", dense_case(keys=(2, 2, 3)), "repairs", null + sub),
        Spec("null-path10-c", dense_case(path=10), "repairs", null + card),
        Spec("path15-s", dense_case(path=15), "repairs", sub),
        Spec("cycle16-c", dense_case(cycle=16), "repairs", card),
        Spec("asp-path12", dense_case(path=12), "emit-asp"),
        Spec("asp-keys334-disj", dense_case(keys=(3, 3, 4)), "emit-asp",
             ("--flavor", "disjunctive")),
        Spec("asp-null-cycle10", dense_case(cycle=10), "emit-asp", null),
        Spec("check-path12", dense_case(path=12), "check", with_models=True),
        Spec("check-null-path6", dense_case(path=6), "check", null, with_models=True),
    ]


def _wide() -> List[Spec]:
    js = ("--format", "json")
    card = ("--minimality", "cardinality")
    null = ("--semantics", "null")
    ics = ("--ics",)
    q1 = ("--query", "Q1")
    return [
        Spec("keys1000-tids", wide_keys(1000, 4, True), "repairs"),
        Spec("keys600-tids-c", wide_keys(600, 4, True), "repairs", card),
        Spec("keys500-auto", wide_keys(500, 3, False), "repairs", copies=2),
        Spec("keys400-auto", wide_keys(400, 2, False), "repairs"),
        Spec("keys350-tids-c", wide_keys(350, 3, True), "repairs", card),
        Spec("keys300-auto-json", wide_keys(300, 3, False), "repairs", js),
        Spec("keys120-tids", wide_keys(120, 4, True), "repairs", copies=2),
        Spec("keys150-auto-c", wide_keys(150, 2, False), "repairs", card),
        Spec("keys100-tids-json", wide_keys(100, 3, True), "repairs", js),
        Spec("keys200-tids", wide_keys(200, 4, True), "repairs", copies=4),
        Spec("null-keys100-tids", wide_keys(100, 2, True), "repairs", null),
        Spec("registrar450-ics", registrar(150, 3), "repairs", ics),
        Spec("registrar300-ics", registrar(100, 3), "repairs", ics),
        Spec("registrar150-ics", registrar(50, 2), "repairs", ics),
        Spec("registrar150-ics-json", registrar(50, 2, False), "repairs", ics + js),
        Spec("registrar90-ics", registrar(30, 3), "repairs", ics),
        Spec("registrar300", registrar(100, 3), "repairs"),
        Spec("registrar300-c", registrar(100, 2, False), "repairs", card),
        Spec("null-registrar150", registrar(50, 2), "repairs", null),
        Spec("registrar750-eval", registrar(250, 1), "eval", q1),
        Spec("registrar600-eval-json", registrar(200, 1, False), "eval", q1 + js),
        Spec("registrar600-eval-auto", registrar(200, 2, False), "eval", q1),
        Spec("registrar300-eval", registrar(100, 3), "eval", q1),
        Spec("registrar150-eval", registrar(50, 1), "eval", q1),
        Spec("sa1200", single_atom(1200), "repairs"),
    ]


def _causes() -> List[Spec]:
    js = ("--format", "json")
    q, qo = ("--query", "q"), ("--query", "Q")
    ics = ("--ics",)
    null_attr = ("--semantics", "null", "--level", "attribute")
    null_tuple = ("--semantics", "null", "--level", "tuple")
    return [
        Spec("paper-causes", paper_case(3, 1, 1, 10), "causes", q, copies=4),
        Spec("paper-causes-810", paper_case(4, 1, 1, 20), "causes", q),
        Spec("paper-causes-json", paper_case(2, 2, 1, 6), "causes", q + js),
        Spec("paper-resp", paper_case(2, 1, 1, 10), "responsibility", q, copies=2),
        Spec("paper-resp-fans", paper_case(1, 3, 0, 10), "responsibility", q),
        Spec("paper-resp-json", paper_case(2, 1, 1, 10), "responsibility", q + js),
        Spec("paper-open-causes", paper_case(3, 1, 1, 10), "causes", qo, answer="f0a"),
        Spec("paper-open-causes-big", paper_case(4, 1, 1, 20), "causes", qo, answer="t2a"),
        Spec("paper-open-resp", paper_case(3, 2, 1, 10), "responsibility", qo, answer="t1a"),
        Spec("paper-open-null-attr", paper_case(2, 2, 1, 6), "causes", qo + null_attr,
             answer="f1a"),
        Spec("paper-null-attr", paper_case(1, 1, 1, 4), "causes", q + null_attr),
        Spec("paper-null-attr-loops", paper_case(0, 1, 4, 6), "causes", q + null_attr),
        Spec("paper-null-attr-json", paper_case(3, 1, 0, 4), "causes", q + null_attr + js),
        Spec("paper-null-tuple", paper_case(4, 0, 1, 4), "causes", q + null_tuple),
        Spec("paper-null-tuple-fans", paper_case(1, 2, 1, 6), "causes", q + null_tuple),
        Spec("paper-null-tuple-json", paper_case(2, 0, 2, 4), "causes", q + null_tuple + js),
        Spec("registrar-causes", registrar_ucq(2, 3, 2, 8), "causes", qo, answer="pt"),
        Spec("registrar-causes-big", registrar_ucq(3, 4, 2, 20), "causes", qo, answer="pt"),
        Spec("registrar-resp", registrar_ucq(3, 3, 1, 8), "responsibility", qo, answer="pt"),
        Spec("registrar-resp-other", registrar_ucq(2, 2, 2, 8), "responsibility", qo,
             answer="o1"),
        Spec("paper-ics10", paper_case(1, 1, 1, 0, ind=True), "causes", q + ics),
        Spec("paper-ics12", paper_case(1, 1, 1, 1, ind=True), "causes", q + ics),
        Spec("registrar-ics10", registrar_ucq(2, 1, 1, 2, ind=True), "causes", qo + ics,
             answer="pt"),
        Spec("registrar-ics11", registrar_ucq(2, 2, 1, 2, ind=True), "causes", qo + ics,
             answer="pt", copies=2),
        Spec("registrar-ics12", registrar_ucq(2, 2, 2, 2, ind=True), "causes", qo + ics,
             answer="pt"),
    ]


WORKLOADS = {"dense-conflict": _dense, "wide-join": _wide, "causes": _causes}


def specs(workload: str) -> List[Spec]:
    return WORKLOADS[workload]()


@dataclass
class Job:
    spec: Spec
    prefix: str  # replaces MARK in the spec's texts
    argv: List[str]
    models: Optional[Path] = None  # a `check` job's models file, see `write_models`


def rounds(workload: str, seed: int, workdir: Path) -> Iterator[List[Job]]:
    """Rounds of jobs, `copies` per spec each, with their input files written.

    The seed fixes each round's job order and constant prefixes; a prefix is
    never reused within a run, so no (instance, query) pair repeats.
    """
    catalog = specs(workload)
    texts = {s.name: s.case.text() for s in catalog}
    used = set()
    index = 0
    while True:
        rng = random.Random(f"{workload}/{seed}/{index}")
        order = [spec for spec in catalog for _ in range(spec.copies)]
        rng.shuffle(order)
        jobs = []
        for position, spec in enumerate(order):
            prefix = f"k{rng.getrandbits(32):08x}_"
            while prefix in used:
                prefix = f"k{rng.getrandbits(32):08x}_"
            used.add(prefix)
            problem = workdir / f"r{index}-{position:02d}-{spec.name}.cdl"
            problem.write_text(texts[spec.name].replace(MARK, prefix))
            model_file = workdir / f"r{index}-{position:02d}-{spec.name}.models"
            argv = spec.argv(str(problem), str(model_file), prefix)
            jobs.append(Job(spec, prefix, argv, model_file if spec.with_models else None))
        yield jobs
        index += 1


def write_models(jobs: List[Job]) -> None:
    """Write the models file of each `check` job in a round. Apart from
    `rounds`, because the models are derived from the expectations: harness
    work that set-up time does not count."""
    for job in jobs:
        if job.models is not None:
            job.models.write_text(models_text(job.spec).replace(MARK, job.prefix))


@cache
def models_text(spec: Spec) -> str:
    """Solver-style models, one per expected repair, for a `check` job."""
    from expect import null_deltas, tuple_removed_sets

    case = spec.case
    null = "null" in spec.args
    blocks = []
    repairs = null_deltas(case) if null else tuple_removed_sets(case)
    for repair in reversed(repairs):  # not the engine's order, so matching does work
        atoms = []
        for relation, tid, values in case.facts:
            if null:
                vals = [
                    "null" if (relation, tid, j) in repair else MARK + v
                    for j, v in enumerate(values, start=1)
                ]
                flag = "s"
            else:
                vals = [MARK + v for v in values]
                flag = "d" if tid in repair else "s"
            atoms.append(f"{relation}_a({tid},{','.join(vals)},{flag})")
        blocks.append("{" + ", ".join(atoms) + "}")
    return "\n\n".join(blocks) + "\n"
