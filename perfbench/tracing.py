"""Per-layer spans for the traced run, recorded from outside the engine.

`Tracer.install` replaces each public function listed in `TARGETS` with a
wrapper in every `repcause` namespace that binds it (so `cli.s_repairs`,
`tuple_repairs.violations` and `null_repairs.minimal_hitting_sets` are all
caught), and the listed `Instance` methods on the class; `uninstall`
restores the originals. Each call is a span (name, binding namespace, start,
end, parent span, job id). Self time is a span's duration minus the time its
child spans cover, counted from the child wrapper's entry to its exit, so
the tracer's own bookkeeping lands in no span's self time. Calls, self time
and output counts are summed as the spans close; the spans themselves are
kept in memory up to `SPAN_LOG_LIMIT` and written out at the end. The `--ics` jobs make hundreds of thousands of
`Instance` calls each, too many to keep.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

TARGETS: Dict[str, List[str]] = {
    "model": ["Instance.add_fact", "Instance.tuples", "Instance.delete_tuples",
              "Instance.apply_update"],
    "lang": ["parse_problem", "violations", "is_consistent", "eval_bcq", "eval_open",
             "unsupported_premises", "satisfies_ids"],
    "tuple_repairs": ["conflict_hypergraph", "minimal_hitting_sets", "s_repairs", "c_repairs",
                      "s_repairs_under_hard_ics"],
    "tuple_causes": ["actual_causes", "actual_causes_under_ics"],
    "null_repairs": ["null_repairs", "cardinality_null_repairs"],
    "null_causes": ["attr_causes", "tuple_null_causes"],
    "asp": ["emit_tuple_repair_program", "emit_null_repair_program",
            "verify_model_correspondence"],
    "cli": ["main"],
}

# (metric, unit, better): the traced run's output, per traced job unless the
# unit says otherwise
PER_LAYER = [
    ("tuple_repairs.minimal_hitting_sets.calls", "count/job", "lower"),
    ("tuple_repairs.minimal_hitting_sets.self_s", "s/job", "lower"),
    ("tuple_repairs.minimal_hitting_sets.outputs", "count/job", "lower"),
    ("tuple_repairs.minimal_hitting_sets.us_per_output", "us", "lower"),
    ("tuple_repairs.conflict_hypergraph.edges", "count/job", "lower"),
    ("tuple_repairs.conflict_hypergraph.max_edge", "count", "lower"),
    ("tuple_repairs.s_repairs.self_s", "s/job", "lower"),
    ("tuple_repairs.c_repairs.self_s", "s/job", "lower"),
    ("tuple_repairs.s_repairs_under_hard_ics.self_s", "s/job", "lower"),
    ("lang.violations.calls", "count/job", "lower"),
    ("lang.violations.self_s", "s/job", "lower"),
    ("lang.violations.outputs", "count/job", "lower"),
    ("lang.eval_open.self_s", "s/job", "lower"),
    ("lang.parse_problem.self_s", "s/job", "lower"),
    ("lang.unsupported_premises.calls", "count/job", "lower"),
    ("lang.unsupported_premises.self_s", "s/job", "lower"),
    ("lang.eval_bcq.calls", "count/job", "lower"),
    ("lang.eval_bcq.self_s", "s/job", "lower"),
    ("model.Instance.add_fact.self_s", "s/job", "lower"),
    ("model.Instance.tuples.calls", "count/job", "lower"),
    ("model.Instance.tuples.self_s", "s/job", "lower"),
    ("model.Instance.delete_tuples.calls", "count/job", "lower"),
    ("model.Instance.delete_tuples.self_s", "s/job", "lower"),
    ("model.Instance.apply_update.calls", "count/job", "lower"),
    ("model.Instance.apply_update.self_s", "s/job", "lower"),
    ("tuple_causes.actual_causes.self_s", "s/job", "lower"),
    ("tuple_causes.actual_causes.outputs", "count/job", "lower"),
    ("tuple_causes.actual_causes_under_ics.self_s", "s/job", "lower"),
    ("tuple_causes.actual_causes_under_ics.outputs", "count/job", "lower"),
    ("null_repairs.null_repairs.self_s", "s/job", "lower"),
    ("null_repairs.null_repairs.outputs", "count/job", "lower"),
    ("null_repairs.cardinality_null_repairs.self_s", "s/job", "lower"),
    ("null_repairs.cardinality_null_repairs.outputs", "count/job", "lower"),
    ("null_causes.attr_causes.self_s", "s/job", "lower"),
    ("null_causes.tuple_null_causes.self_s", "s/job", "lower"),
    ("null_causes.null_repairs.calls", "count/job", "lower"),
    ("asp.emit_tuple_repair_program.self_s", "s/job", "lower"),
    ("asp.emit_null_repair_program.self_s", "s/job", "lower"),
    ("asp.verify_model_correspondence.self_s", "s/job", "lower"),
    ("cli.main.self_s", "s/job", "lower"),
    ("cli.stdout_bytes", "B/job", "lower"),
] + [(f"{module}.self_s", "s/job", "lower") for module in TARGETS] + [
    ("trace.overhead_ratio", "ratio", "higher"),
]


SPAN_LOG_LIMIT = 100_000
HYPERGRAPH = "tuple_repairs.conflict_hypergraph"
MHS = "tuple_repairs.minimal_hitting_sets"


class Tracer:
    def __init__(self) -> None:
        self.job = -1
        self.spans: List[tuple] = []  # the first SPAN_LOG_LIMIT spans
        self.span_count = 0
        self.calls: Dict[tuple, int] = defaultdict(int)  # (name, via) -> calls
        self.self_s: Dict[str, float] = defaultdict(float)
        self.outputs: Dict[str, int] = defaultdict(int)
        self.edges = 0
        self.max_edge = 0
        self._stack: List[list] = []  # [span id, seconds covered by children]
        self._undo: List[tuple] = []

    def _close(self, name, via, start, end, span, parent, child_s, result) -> None:
        self.calls[(name, via)] += 1
        self.self_s[name] += end - start - child_s
        if name == HYPERGRAPH and result is not None:
            self.edges += len(result.edges)
            self.max_edge = max([self.max_edge] + [len(e) for e in result.edges])
        elif isinstance(result, (list, set, tuple, frozenset)):
            self.outputs[name] += len(result)
        if span < SPAN_LOG_LIMIT:
            self.spans.append((span, name, via, start, end, parent, self.job))

    def _wrap(self, fn, name: str, via: str):
        stack = self._stack

        def traced(*args, **kwargs):
            entered = perf_counter()
            frame = [self.span_count, 0.0]
            self.span_count += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, via, start, end, frame[0], parent, frame[1], result)
                if stack:  # the whole wrapper, so its cost is no one's self time
                    stack[-1][1] += perf_counter() - entered

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from repcause.model import Instance

        namespaces = {
            key.split(".")[-1]: mod
            for key, mod in list(sys.modules.items())
            if key == "repcause" or key.startswith("repcause.")
        }
        for module, names in TARGETS.items():
            for attr in names:
                if attr.startswith("Instance."):
                    method = attr.split(".", 1)[1]
                    original = getattr(Instance, method)
                    self._undo.append((Instance, method, original))
                    setattr(Instance, method, self._wrap(original, f"model.{attr}", "model"))
                    continue
                original = getattr(namespaces[module], attr)
                for via, ns in namespaces.items():
                    for bound, value in list(vars(ns).items()):
                        if value is original:
                            self._undo.append((ns, bound, original))
                            setattr(ns, bound, self._wrap(original, f"{module}.{attr}", via))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines: id, name, binding namespace,
        start, end, parent id, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, jobs: int, stdout_bytes: int, overhead_ratio: float) -> dict:
        calls: Dict[str, int] = defaultdict(int)
        for (name, _), n in self.calls.items():
            calls[name] += n
        values = {
            f"{MHS}.us_per_output": (
                self.self_s[MHS] / self.outputs[MHS] * 1e6 if self.outputs[MHS] else 0.0
            ),
            f"{HYPERGRAPH}.edges": self.edges / jobs,
            f"{HYPERGRAPH}.max_edge": self.max_edge,
            "null_causes.null_repairs.calls": (
                self.calls[("null_repairs.null_repairs", "null_causes")] / jobs
            ),
            "cli.stdout_bytes": stdout_bytes / jobs,
            "trace.overhead_ratio": overhead_ratio,
        }
        for module in TARGETS:
            values[f"{module}.self_s"] = sum(
                t for name, t in self.self_s.items() if name.split(".")[0] == module
            ) / jobs
        per_name = {"calls": calls, "self_s": self.self_s, "outputs": self.outputs}
        out = {}
        for metric, unit, _ in PER_LAYER:
            if metric not in values:
                name, kind = metric.rsplit(".", 1)
                values[metric] = per_name[kind][name] / jobs
            out[metric] = {"value": values[metric], "unit": unit}
        return out
