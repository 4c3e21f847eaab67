"""Command-line front-end.

Commands: repairs, causes, responsibility, emit-asp, check, eval. Input
files hold facts, denial constraints, queries and inclusion dependencies in
the textual format of the parser; results are printed as deterministic text
or JSON. The flags --format, --query, --answer, --semantics, --minimality,
--ics, --flavor, --include and --maxint can also be set through an
environment variable named REPCAUSE_<FLAG>; explicit flags win. An invalid
value is a usage error, like the same value given as a flag.

Exit codes: 0 success, 1 usage error (including a failed model check) or
an input too large for the engine, 2 parse error.

The parser is built once, at import, and the REPCAUSE_ variables are read
on each `main` call, so a long-lived caller sees a changed variable. This
last paragraph is left out of --help.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, \
    Tuple

from .asp import EmitOptions, emit_null_repair_program, emit_tuple_repair_program, \
    verify_model_correspondence
from .lang import LangError, ParseError, Problem, QuerySpec, eval_bcq, eval_open, \
    negate_query_to_dc, parse_problem, substitute_answer
from .model import Constant, DbTuple, ModelError, num, sym
from .null_causes import attr_causes, tuple_null_causes
from .null_repairs import NullRepairRecord, cardinality_null_repairs, null_repairs
from .tuple_causes import actual_causes, actual_causes_under_ics
from .tuple_repairs import RepairRecord, c_repairs, s_repairs, s_repairs_under_hard_ics


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems, not 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_CHOICES = {  # of each choice flag, checked for the flag and for its REPCAUSE_ value
    "format": ["text", "json"], "semantics": ["tuple", "null"],
    "minimality": ["subset", "cardinality"], "flavor": ["disjunctive", "non-disjunctive"],
}


def _env(name: str, default=None, choices=None, type=str):
    """REPCAUSE_<NAME>, checked like the flag it sets, or `default`."""
    choices = _CHOICES.get(name, choices)
    text = os.environ.get(f"REPCAUSE_{name.upper()}")
    if text is None:
        return default
    try:
        value = type(text)
        if choices is None or value in choices:
            return value
    except ValueError:
        pass
    raise UsageError(f"invalid value for REPCAUSE_{name.upper()}: {text!r}")


def _env_flags() -> Dict[str, object]:
    """Each env-settable flag's REPCAUSE_ value or default, read now; the
    first bad value raises, in the order ICS, FORMAT, ..., MAXINT."""
    return dict(
        ics=_env("ics", "0", ["0", "1"]) == "1", format=_env("format", "text"),
        query=_env("query"), answer=_env("answer"), semantics=_env("semantics", "tuple"),
        minimality=_env("minimality", "subset"), flavor=_env("flavor", "non-disjunctive"),
        include=_env("include", ""), maxint=_env("maxint", 100, type=int),
    )


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repcause", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def choice(p: argparse.ArgumentParser, name: str) -> None:
        p.add_argument(f"--{name}", choices=_CHOICES[name])

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="problem file")
        choice(p, "format")
        p.add_argument("--query")
        p.add_argument(
            "--answer",
            help="comma-separated constants grounding an open query's head",
        )
        choice(p, "semantics")

    p = sub.add_parser("repairs", help="enumerate repairs")
    common(p)
    choice(p, "minimality")
    p.add_argument("--ics", action="store_true", default=None)

    p = sub.add_parser("causes", help="causes with contingency sets")
    common(p)
    p.add_argument("--ics", action="store_true", default=None)
    p.add_argument("--level", choices=["attribute", "tuple"], default="attribute")
    p.add_argument("--max-contingency-count", type=_non_negative_int, default=None)
    p.add_argument("--max-contingency-size", type=_non_negative_int, default=None)

    p = sub.add_parser("responsibility", help="responsibilities only")
    common(p)
    p.add_argument("--ics", action="store_true", default=None)
    p.add_argument("--level", choices=["attribute", "tuple"], default="attribute")

    p = sub.add_parser("emit-asp", help="print a repair program")
    common(p)
    choice(p, "flavor")
    p.add_argument(
        "--include",
        help="comma list of causes,cau_cont,contingency_sets,pre_rho,weak_constraints",
    )
    p.add_argument("--maxint", type=int)

    p = sub.add_parser("check", help="verify solver models against the engine")
    common(p)
    p.add_argument("--models", required=True, help="solver output file")

    p = sub.add_parser("eval", help="evaluate a query")
    common(p)
    return parser


# built once; an env-settable flag defaults to None, "not given", for `main` to fill
_PARSER = build_parser()


# the constants an input can hold: an integer, or a name that is not a variable
_ANSWER_RE = re.compile(r"(-?[0-9]+)|[a-z_][A-Za-z0-9_]*")


def _parse_answer(text: str) -> List[Constant]:
    """The constants of a comma-separated --answer; `null` is the null. A
    value no input constant can equal is a usage error, not an answer with
    no causes."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError("empty value in --answer")
        match = _ANSWER_RE.fullmatch(chunk)
        try:
            if match is None:
                raise ValueError(chunk)
            out.append(num(int(chunk)) if match[1] else sym(chunk))
        except ValueError:  # no constant, or more digits than int() converts
            shown = chunk if len(chunk) <= 20 else f"{chunk[:20]}... ({len(chunk)} chars)"
            raise UsageError(f"invalid value in --answer: {shown}") from None
    return out


def _select_query(problem: Problem, args: argparse.Namespace) -> QuerySpec:
    query = problem.query(args.query)
    if query.head_vars:
        if not args.answer:
            raise UsageError(
                f"query {query.name} is open; ground it with --answer"
            )
        query = substitute_answer(query, _parse_answer(args.answer))
    elif args.answer:
        raise UsageError(f"query {query.name} is Boolean; --answer does not apply")
    return query


def _select_dcs(problem: Problem, args: argparse.Namespace):
    if problem.dcs:
        return problem.dcs
    if problem.queries:
        return negate_query_to_dc(_select_query(problem, args))
    raise UsageError("input has neither constraints nor a query")


def _frac(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


class _Encoded(list):
    """A list whose items are already JSON text, each indented for its place
    as an item of the list: `_json_text(_Encoded(_json_text(v, indent + "  ")
    for v in items), indent)` equals `_json_text(items, indent)`."""


def _json_list(items: Iterable[str], indent: str) -> str:
    """The JSON list at `indent` of the given item texts, each already
    indented for its place, with one join."""
    inner = indent + "  "
    body = (",\n" + inner).join(items)
    return f"[\n{inner}{body}\n{indent}]" if body else "[]"


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for the dicts, lists,
    tuples, strings, ints, bools and None a payload holds, and for `_Encoded`
    lists, whose items are joined as they are. `json.dumps` falls back to
    its pure-Python encoder when given `indent`; this renders each scalar
    directly and a list of ints or of strings with one join."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = (",\n" + inner).join(
            f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}"
            for k in sorted(value)
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    if type(value) is _Encoded:
        return _json_list(value, indent)
    types = set(map(type, value))
    if types == {int}:
        return _json_list(map(int.__repr__, value), indent)
    if types == {str}:
        return _json_list(map(encode_basestring_ascii, value), indent)
    return _json_list([_json_text(v, inner) for v in value], indent)


def _print_json(payload: dict) -> None:
    print(_json_text(payload))


class _Cells(dict):
    """Text cells keyed by what they render, each made by `render` on first
    use and read by a plain dict lookup after that."""

    def __init__(self, render: Callable[[object], str]) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, key: object) -> str:
        text = self[key] = self.render(key)
        return text


def _tuple_repair_cells(
    records: List[RepairRecord], rows: List[str], slot: Dict[int, int]
) -> Iterator[Tuple[Iterable[str], List[str]]]:
    """Each repair's diff cells, its removed tids in order, and the cells of
    the source rows it keeps: a copy of `rows` with the ones it removes
    dropped, in O(removed)."""
    tid_text = _Cells(str)
    for r in records:
        kept = rows.copy()
        for i in sorted(map(slot.__getitem__, r.removed_tids), reverse=True):
            del kept[i]
        yield map(tid_text.__getitem__, r.removed_tids), kept


def _nulled_cell(row: DbTuple, cell: Callable[[str], str], mask: int) -> str:
    """The cell of `row` with each position j whose bit j - 1 is set in
    `mask` nulled."""
    nulled = [j for j in range(1, len(row.values) + 1) if mask >> (j - 1) & 1]
    return cell(row.with_nulls(nulled).render())


def _null_repair_cells(
    records: List[NullRepairRecord],
    source: List[DbTuple],
    rows: List[str],
    slot: Dict[int, int],
    cell: Callable[[str], str],
) -> Iterator[Tuple[Iterable[str], Iterable[str]]]:
    """Each repair's diff cells, its changed positions in order, and its row
    cells: a copy of `rows` where each row the changes touch takes its cell
    under the mask of the positions nulled in it, in O(changes)."""
    changed = {ref for r in records for ref in r.changes}
    ref_cells = {ref: cell(ref.render()) for ref in changed}
    bits = {ref: (slot[ref.tid], 1 << (ref.position - 1)) for ref in changed}
    variants = {
        i: _Cells(functools.partial(_nulled_cell, source[i], cell)) for i, _ in bits.values()
    }
    for r in records:
        masks: Dict[int, int] = {}
        for i, bit in map(bits.__getitem__, r.changes):
            masks[i] = masks.get(i, 0) | bit
        nulled = rows.copy()
        for i, mask in masks.items():
            nulled[i] = variants[i][mask]
        yield map(ref_cells.__getitem__, r.changes), nulled


def _cmd_repairs(problem: Problem, args: argparse.Namespace) -> int:
    dcs = _select_dcs(problem, args)
    # each cell, a source row, a nulled variant, a tid or a position, is
    # rendered once per command, and JSON-encoded once under --format json;
    # a repair's text is joins of its cells, and under --format json it is
    # one pre-encoded item of the "repairs" list. A repair keeps the source
    # rows in their canonical order: it drops the ones it removes, or takes
    # the nulled variant of the ones its delta touches. The text format
    # writes each repair as it is built.
    as_json = args.format == "json"
    cell = encode_basestring_ascii if as_json else str
    source = problem.instance.tuples()
    rows = list(map(cell, map(DbTuple.render, source)))
    slot = {t.tid: i for i, t in enumerate(source)}
    if args.semantics == "tuple":
        if args.ics:
            if args.minimality == "cardinality":
                raise UsageError(
                    "cardinality minimality is not defined under hard "
                    "inclusion dependencies"
                )
            records = s_repairs_under_hard_ics(problem.instance, dcs, problem.ids)
        elif args.minimality == "cardinality":
            records = c_repairs(problem.instance, dcs)
        else:
            records = s_repairs(problem.instance, dcs)
        key = "removed"
        cells = _tuple_repair_cells(records, rows, slot)
    else:
        if args.ics:
            raise UsageError("--ics applies to tuple semantics only")
        fn = cardinality_null_repairs if args.minimality == "cardinality" else null_repairs
        key = "delta"
        cells = _null_repair_cells(fn(problem.instance, dcs), source, rows, slot, cell)
    if as_json:
        # a repair is an item of the "repairs" list, so its keys sit three
        # levels in and the items of its lists four
        _print_json({"repairs": _Encoded(
            f'{{\n      "{key}": {_json_list(diff, "      ")},\n'
            f'      "tuples": {_json_list(kept, "      ")}\n    }}'
            for diff, kept in cells
        )})
        return 0
    write = sys.stdout.write
    for n, (diff, kept) in enumerate(cells, start=1):
        write(f"repair {n}: {key} {{{', '.join(diff)}}}\n  {{{', '.join(kept)}}}\n")
    return 0


def _joined_sets(
    sets: Iterable[Tuple[int, ...]], tid_text: Callable[[int], str], sep: str
) -> Iterator[str]:
    """Each set's tids, already increasing, rendered by `tid_text` and
    joined by `sep`, with no Python call per set."""
    return map(sep.join, map(functools.partial(map, tid_text), sets))


def _cmd_causes(problem: Problem, args: argparse.Namespace, with_sets: bool) -> int:
    query = _select_query(problem, args)
    as_json = args.format == "json"
    causes = []
    if args.semantics == "tuple":
        # responsibility prints no sets, so a count cap of 0 builds none
        caps = (
            (args.max_contingency_count, args.max_contingency_size) if with_sets else (0, None)
        )
        if args.ics:
            reports = actual_causes_under_ics(problem.instance, query, problem.ids, *caps)
        else:
            reports = actual_causes(problem.instance, query, *caps)
        # each tid is turned into text once per command, not once per set
        tid_text = _Cells(str).__getitem__
        for r in reports:
            sets = r.contingency_tids
            if as_json:
                entry = {
                    "id": r.tid,
                    "responsibility": _frac(r.responsibility),
                    "counterfactual": r.counterfactual,
                }
                if with_sets:
                    # a set is an item of a cause's "contingency_sets", four
                    # levels in, and its tids five. A cause has the empty
                    # set exactly when it is counterfactual, and then no other.
                    entry["contingency_sets"] = _Encoded(
                        ["[]"] * len(sets) if r.counterfactual else map(
                            "[\n          {}\n        ]".format,
                            _joined_sets(sets, tid_text, ",\n          "),
                        )
                    )
                causes.append(entry)
            else:  # one write per report: a report can hold many thousands of sets
                line = f"tid {r.tid}: responsibility {r.responsibility}"
                line += " (counterfactual)\n" if r.counterfactual else "\n"
                if sets:
                    body = "}\n  contingency {".join(_joined_sets(sets, tid_text, ", "))
                    line += f"  contingency {{{body}}}\n"
                sys.stdout.write(line)
    else:
        if args.ics:
            raise UsageError("--ics applies to tuple semantics only")
        if args.level == "tuple":
            for r in tuple_null_causes(problem.instance, query):
                if as_json:
                    causes.append(
                        {
                            "id": r.tid,
                            "responsibility": _frac(r.responsibility),
                            "positions": [p.render() for p in sorted(r.witness_positions)],
                        }
                    )
                else:
                    print(f"tid {r.tid}: responsibility {r.responsibility}")
        else:
            for r in attr_causes(problem.instance, query):
                if as_json:
                    causes.append(
                        {
                            "position": r.position.render(),
                            "responsibility": _frac(r.responsibility),
                            "counterfactual": r.counterfactual,
                        }
                    )
                else:
                    line = (
                        f"{r.position.render()} = {r.original_value.render()}: "
                        f"responsibility {r.responsibility}"
                    )
                    print(line + " (counterfactual)" if r.counterfactual else line)
    if as_json:
        _print_json({"causes": causes})
    return 0


def _cmd_emit_asp(problem: Problem, args: argparse.Namespace) -> int:
    dcs = _select_dcs(problem, args)
    include = frozenset(p for p in args.include.split(",") if p)
    options = EmitOptions(flavor=args.flavor, include=include, maxint=args.maxint)
    emit = emit_null_repair_program if args.semantics == "null" else emit_tuple_repair_program
    print(emit(problem.instance, dcs, options), end="")
    return 0


def _cmd_check(problem: Problem, args: argparse.Namespace) -> int:
    dcs = _select_dcs(problem, args)
    try:
        with open(args.models, "r", encoding="utf-8") as fh:
            models_text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.models}: {exc}") from exc
    report = verify_model_correspondence(
        problem.instance, dcs, models_text, semantics=args.semantics
    )
    if args.format == "json":
        _print_json(
            {
                "matches": report.matches,
                "unmatched_models": report.unmatched_models,
                "unmatched_repairs": report.unmatched_repairs,
                "ok": report.ok,
            }
        )
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_eval(problem: Problem, args: argparse.Namespace) -> int:
    query = problem.query(args.query)
    if query.head_vars and not args.answer:
        rows = [[c.render() for c in row] for row in sorted(eval_open(problem.instance, query))]
        if args.format == "json":
            _print_json({"query": query.name, "answers": rows})
        else:
            for row in rows:
                print(", ".join(row))
    else:
        value = eval_bcq(problem.instance, _select_query(problem, args))
        if args.format == "json":
            _print_json({"query": query.name, "value": value})
        else:
            print("true" if value else "false")
    return 0


_COMMANDS: Dict[str, Callable[[Problem, argparse.Namespace], int]] = {
    "repairs": _cmd_repairs,
    "causes": functools.partial(_cmd_causes, with_sets=True),
    "responsibility": functools.partial(_cmd_causes, with_sets=False),
    "emit-asp": _cmd_emit_asp,
    "check": _cmd_check,
    "eval": _cmd_eval,
}


def _stdout_to_devnull() -> None:
    """Point the file descriptor under stdout at the null device, so that
    the interpreter's last flush of what stdout still buffers writes
    nowhere and fails no more. An in-process stream with no descriptor,
    such as a `StringIO`, is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        env = _env_flags()
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"repcause: {exc}", file=sys.stderr)
        return 1
    # each flag the command has and the call did not give takes its REPCAUSE_ value
    vars(args).update((k, v) for k, v in env.items() if getattr(args, k, 0) is None)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"repcause: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    try:
        problem = parse_problem(text)
    except (ParseError, LangError, ModelError) as exc:
        print(f"repcause: parse error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](problem, args)
    except (UsageError, LangError, ValueError) as exc:
        print(f"repcause: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        print(f"repcause: input too large: {type(exc).__name__}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        _stdout_to_devnull()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
