"""Command-line front-end.

Commands: repairs, causes, responsibility, emit-asp, check, eval. Input
files hold facts, denial constraints, queries and inclusion dependencies in
the textual format of the parser; results are printed as deterministic text
or JSON. Every flag can also be set through an environment variable named
REPCAUSE_<FLAG>; explicit flags win.

Exit codes: 0 success, 1 usage error (including a failed model check) or
an input too large for the engine, 2 parse error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .asp import EmitOptions, emit_null_repair_program, emit_tuple_repair_program, \
    verify_model_correspondence
from .lang import LangError, ParseError, Problem, QuerySpec, eval_bcq, eval_open, \
    negate_query_to_dc, parse_problem, substitute_answer
from .model import Constant, ModelError, NULL, num, sym
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


def _env(name: str, default: Optional[str] = None) -> Optional[str]:
    return os.environ.get(f"REPCAUSE_{name}", default)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repcause", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="problem file")
        p.add_argument(
            "--format",
            choices=["text", "json"],
            default=_env("FORMAT", "text"),
        )
        p.add_argument("--query", default=_env("QUERY"))
        p.add_argument(
            "--answer",
            default=_env("ANSWER"),
            help="comma-separated constants grounding an open query's head",
        )
        p.add_argument(
            "--semantics",
            choices=["tuple", "null"],
            default=_env("SEMANTICS", "tuple"),
        )

    p = sub.add_parser("repairs", help="enumerate repairs")
    common(p)
    p.add_argument(
        "--minimality",
        choices=["subset", "cardinality"],
        default=_env("MINIMALITY", "subset"),
    )
    p.add_argument("--ics", action="store_true", default=_env("ICS") == "1")

    p = sub.add_parser("causes", help="causes with contingency sets")
    common(p)
    p.add_argument("--ics", action="store_true", default=_env("ICS") == "1")
    p.add_argument("--level", choices=["attribute", "tuple"], default="attribute")
    p.add_argument("--max-contingency-count", type=_non_negative_int, default=None)
    p.add_argument("--max-contingency-size", type=_non_negative_int, default=None)

    p = sub.add_parser("responsibility", help="responsibilities only")
    common(p)
    p.add_argument("--ics", action="store_true", default=_env("ICS") == "1")
    p.add_argument("--level", choices=["attribute", "tuple"], default="attribute")

    p = sub.add_parser("emit-asp", help="print a repair program")
    common(p)
    p.add_argument(
        "--flavor",
        choices=["disjunctive", "non-disjunctive"],
        default=_env("FLAVOR", "non-disjunctive"),
    )
    p.add_argument(
        "--include",
        default=_env("INCLUDE", ""),
        help="comma list of causes,cau_cont,contingency_sets,pre_rho,weak_constraints",
    )
    p.add_argument("--maxint", type=int, default=int(_env("MAXINT", "100")))

    p = sub.add_parser("check", help="verify solver models against the engine")
    common(p)
    p.add_argument("--models", required=True, help="solver output file")

    p = sub.add_parser("eval", help="evaluate a query")
    common(p)
    return parser


def _parse_answer(text: str) -> List[Constant]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError("empty value in --answer")
        if chunk.lstrip("-").isdigit():
            out.append(num(int(chunk)))
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


def _emit(payload: dict, text_lines: List[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_repairs(problem: Problem, args: argparse.Namespace) -> int:
    dcs = _select_dcs(problem, args)
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
        payload = {
            "repairs": [
                {
                    "removed": sorted(r.removed),
                    "tuples": [t.render() for t in r.repair.tuples()],
                }
                for r in records
            ]
        }
        lines = []
        for i, r in enumerate(records, start=1):
            removed = ", ".join(str(t) for t in sorted(r.removed))
            lines.append(f"repair {i}: removed {{{removed}}}")
            lines.append("  " + r.repair.render())
    else:
        if args.ics:
            raise UsageError("--ics applies to tuple semantics only")
        fn = cardinality_null_repairs if args.minimality == "cardinality" else null_repairs
        records = fn(problem.instance, dcs)
        payload = {
            "repairs": [
                {
                    "delta": [p.render() for p in sorted(r.delta, key=lambda p: p.sort_key())],
                    "tuples": [t.render() for t in r.repair.tuples()],
                }
                for r in records
            ]
        }
        lines = []
        for i, r in enumerate(records, start=1):
            delta = ", ".join(
                p.render() for p in sorted(r.delta, key=lambda p: p.sort_key())
            )
            lines.append(f"repair {i}: delta {{{delta}}}")
            lines.append("  " + r.repair.render())
    _emit(payload, lines, args.format)
    return 0


def _tuple_cause_payload(reports, with_contingencies: bool):
    causes = []
    for r in reports:
        entry = {
            "id": r.tid,
            "responsibility": _frac(r.responsibility),
            "counterfactual": r.counterfactual,
        }
        if with_contingencies:
            entry["contingency_sets"] = [sorted(g) for g in r.contingency_sets]
        causes.append(entry)
    return {"causes": causes}


def _cmd_causes(problem: Problem, args: argparse.Namespace, with_sets: bool) -> int:
    query = _select_query(problem, args)
    if args.semantics == "tuple":
        if args.ics:
            reports = actual_causes_under_ics(problem.instance, query, problem.ids)
        else:
            caps = {}
            if with_sets:
                caps = {
                    "max_contingency_count": getattr(args, "max_contingency_count", None),
                    "max_contingency_size": getattr(args, "max_contingency_size", None),
                }
            reports = actual_causes(problem.instance, query, **caps)
        payload = _tuple_cause_payload(reports, with_sets)
        lines = []
        for r in reports:
            line = f"tid {r.tid}: responsibility {r.responsibility}"
            if r.counterfactual:
                line += " (counterfactual)"
            lines.append(line)
            if with_sets:
                for g in r.contingency_sets:
                    inner = ", ".join(str(t) for t in sorted(g))
                    lines.append(f"  contingency {{{inner}}}")
    else:
        if args.ics:
            raise UsageError("--ics applies to tuple semantics only")
        if args.level == "tuple":
            reports = tuple_null_causes(problem.instance, query)
            payload = {
                "causes": [
                    {
                        "id": r.tid,
                        "responsibility": _frac(r.responsibility),
                        "positions": [
                            p.render()
                            for p in sorted(
                                r.witness_positions, key=lambda p: p.sort_key()
                            )
                        ],
                    }
                    for r in reports
                ]
            }
            lines = [
                f"tid {r.tid}: responsibility {r.responsibility}" for r in reports
            ]
        else:
            reports = attr_causes(problem.instance, query)
            payload = {
                "causes": [
                    {
                        "position": r.position.render(),
                        "responsibility": _frac(r.responsibility),
                        "counterfactual": r.counterfactual,
                    }
                    for r in reports
                ]
            }
            lines = []
            for r in reports:
                line = (
                    f"{r.position.render()} = {r.original_value.render()}: "
                    f"responsibility {r.responsibility}"
                )
                if r.counterfactual:
                    line += " (counterfactual)"
                lines.append(line)
    _emit(payload, lines, args.format)
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
    except OSError as exc:
        raise UsageError(f"cannot read {args.models}: {exc}") from exc
    report = verify_model_correspondence(
        problem.instance, dcs, models_text, semantics=args.semantics
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "matches": report.matches,
                    "unmatched_models": report.unmatched_models,
                    "unmatched_repairs": report.unmatched_repairs,
                    "ok": report.ok,
                },
                indent=2,
                sort_keys=True,
            )
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
        payload = {
            "query": query.name,
            "answers": [[c.render() for c in row] for row in answers],
        }
        lines = [", ".join(c.render() for c in row) for row in answers]
    else:
        bcq = _select_query(problem, args)
        value = eval_bcq(problem.instance, bcq)
        payload = {"query": query.name, "value": value}
        lines = ["true" if value else "false"]
    _emit(payload, lines, args.format)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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
