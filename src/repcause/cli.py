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
import sys
from fractions import Fraction
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .asp import EmitOptions, emit_null_repair_program, emit_tuple_repair_program, \
    verify_model_correspondence
from .lang import LangError, ParseError, Problem, QuerySpec, eval_bcq, eval_open, \
    negate_query_to_dc, parse_problem, substitute_answer
from .model import Constant, ModelError, NULL, PositionRef, num, sym
from .null_causes import attr_causes, tuple_null_causes
from .null_repairs import cardinality_null_repairs, null_repairs
from .tuple_causes import actual_causes, actual_causes_under_ics
from .tuple_repairs import c_repairs, s_repairs, s_repairs_under_hard_ics


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


def _parse_answer(text: str) -> List[Constant]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError("empty value in --answer")
        if chunk.lstrip("-").isdigit():
            try:
                out.append(num(int(chunk)))
            except ValueError:  # a digit int() rejects, or more than it converts
                shown = chunk if len(chunk) <= 20 else f"{chunk[:20]}... ({len(chunk)} chars)"
                raise UsageError(f"invalid value in --answer: {shown}") from None
        elif chunk == "null":
            out.append(NULL)
        else:
            out.append(sym(chunk))
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


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for the dicts, lists,
    tuples, strings, ints, bools and None a payload holds. `json.dumps`
    falls back to its pure-Python encoder when given `indent`; this renders
    each scalar directly and a list of ints with one join."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join(
            f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}"
            for k in sorted(value)
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    if not value:
        return "[]"
    if all(type(v) is int for v in value):
        body = sep.join(map(int.__repr__, value))
    else:
        body = sep.join(_json_text(v, inner) for v in value)
    return f"[\n{inner}{body}\n{indent}]"


def _print_json(payload: dict) -> None:
    print(_json_text(payload))


def _cmd_repairs(problem: Problem, args: argparse.Namespace) -> int:
    dcs = _select_dcs(problem, args)
    # a repair keeps the source tuples in the same canonical order: it drops
    # the ones it removes, or swaps in a nulled variant of the ones its delta
    # touches, on a copy of the rendered rows. Each source tuple, each variant
    # and each position is rendered once per command.
    source = problem.instance.tuples()
    texts = [t.render() for t in source]
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
        entries = []
        for r in records:
            rows = texts.copy()
            for i in sorted(map(slot.__getitem__, r.removed), reverse=True):
                del rows[i]
            entries.append((sorted(r.removed), rows))
    else:
        if args.ics:
            raise UsageError("--ics applies to tuple semantics only")
        fn = cardinality_null_repairs if args.minimality == "cardinality" else null_repairs
        key = "delta"
        # a position's cell: its row's slot, its column and its text, so
        # that sorting cells puts a delta in (relation, tid, position) order
        cells: Dict[PositionRef, Tuple[int, int, str]] = {}
        variants: Dict[Tuple[Tuple[int, int, str], ...], str] = {}
        entries = []
        for r in fn(problem.instance, dcs):
            delta = []
            for ref in r.delta:
                cell = cells.get(ref)
                if cell is None:
                    cell = cells[ref] = (slot[ref.tid], ref.position, ref.render())
                delta.append(cell)
            delta.sort()
            rows = texts.copy()
            for i, row_cells in groupby(delta, key=itemgetter(0)):
                row_cells = tuple(row_cells)
                if row_cells not in variants:
                    nulled = source[i].with_nulls(c[1] for c in row_cells)
                    variants[row_cells] = nulled.render()
                rows[i] = variants[row_cells]
            entries.append(([c[2] for c in delta], rows))
    if args.format == "json":
        _print_json(
            {"repairs": [{key: diff, "tuples": tuples} for diff, tuples in entries]}
        )
        return 0
    for i, (diff, tuples) in enumerate(entries, start=1):
        sys.stdout.write(
            f"repair {i}: {key} {{{', '.join(str(d) for d in diff)}}}\n"
            f"  {{{', '.join(tuples)}}}\n"
        )
    return 0


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
        tid_text = functools.cache(str)
        for r in reports:
            if as_json:
                entry = {
                    "id": r.tid,
                    "responsibility": _frac(r.responsibility),
                    "counterfactual": r.counterfactual,
                }
                if with_sets:
                    entry["contingency_sets"] = [sorted(g) for g in r.contingency_sets]
                causes.append(entry)
            else:  # one write per report: a report can hold many thousands of sets
                line = f"tid {r.tid}: responsibility {r.responsibility}"
                lines = [line + " (counterfactual)" if r.counterfactual else line]
                for g in r.contingency_sets:
                    lines.append(f"  contingency {{{', '.join(map(tid_text, sorted(g)))}}}")
                lines.append("")
                sys.stdout.write("\n".join(lines))
    else:
        if args.ics:
            raise UsageError("--ics applies to tuple semantics only")
        if args.level == "tuple":
            for r in tuple_null_causes(problem.instance, query):
                if as_json:
                    positions = sorted(r.witness_positions, key=lambda p: p.sort_key())
                    causes.append(
                        {
                            "id": r.tid,
                            "responsibility": _frac(r.responsibility),
                            "positions": [p.render() for p in positions],
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
    print(emit(problem.instance, dcs, options).text, end="")
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
        answers = sorted(
            eval_open(problem.instance, query),
            key=lambda row: [c.sort_key() for c in row],
        )
        rows = [[c.render() for c in row] for row in answers]
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
        if args.command == "repairs":
            return _cmd_repairs(problem, args)
        if args.command == "causes":
            return _cmd_causes(problem, args, with_sets=True)
        if args.command == "responsibility":
            return _cmd_causes(problem, args, with_sets=False)
        if args.command == "emit-asp":
            return _cmd_emit_asp(problem, args)
        if args.command == "check":
            return _cmd_check(problem, args)
        if args.command == "eval":
            return _cmd_eval(problem, args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, LangError, ValueError) as exc:
        print(f"repcause: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        print(f"repcause: input too large: {type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
