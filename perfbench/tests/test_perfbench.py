"""Self-tests of the benchmark: deterministic inputs, no repeated
(instance, query) pair within a run, and independent expectations that
agree with the engine's oracles on the smallest instance of each family."""
import json
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import expect  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from repcause import (  # noqa: E402
    PositionRef,
    causes_oracle,
    is_consistent,
    negate_query_to_dc,
    null_repairs_oracle,
    parse_problem,
    substitute_answer,
    sym,
)
from repcause.tuple_causes import actual_causes_under_ics  # noqa: E402


def _round_files(workload, seed, tmp_path, n_rounds=2):
    tmp_path.mkdir(exist_ok=True)
    stream = wl.rounds(workload, seed, tmp_path)
    jobs = []
    for _ in range(n_rounds):
        round_jobs = next(stream)
        wl.write_models(round_jobs)
        jobs += round_jobs
    return jobs, {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_generators_are_byte_deterministic(workload, tmp_path):
    a_jobs, a_files = _round_files(workload, 7, tmp_path / "a")
    b_jobs, b_files = _round_files(workload, 7, tmp_path / "b")
    _, c_files = _round_files(workload, 8, tmp_path / "c")
    assert a_files == b_files
    assert [j.prefix for j in a_jobs] == [j.prefix for j in b_jobs]
    assert a_files != c_files


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_no_instance_query_pair_repeats_in_a_run(workload, tmp_path):
    jobs, files = _round_files(workload, 3, tmp_path, n_rounds=4)
    problems = [Path(j.argv[1]).name for j in jobs]
    pairs = {(files[p], tuple(j.argv[2:])) for p, j in zip(problems, jobs)}
    assert len(pairs) == len(jobs)
    # the texts alone already differ, which is what the engine's caches key on
    assert len({files[p] for p in problems}) == len(jobs)


def _brute_transversals(edges):
    vertices = sorted(set().union(*edges))
    hitting = [
        frozenset(c)
        for k in range(len(vertices) + 1)
        for c in combinations(vertices, k)
        if all(set(c) & e for e in edges)
    ]
    return {h for h in hitting if not any(o < h for o in hitting)}


def _problem(case):
    return parse_problem(case.text())


def _dcs(problem):
    return problem.dcs or negate_query_to_dc(problem.query("q"))


SMALLEST = {
    "path": wl.dense_case(path=4),
    "cycle": wl.dense_case(cycle=4),
    "key-groups": wl.dense_case(keys=(2, 3)),
    "path+keys": wl.dense_case(path=3, keys=(2,)),
    "wide-keys": wl.wide_keys(8, 2, False),
    "registrar": wl.registrar(4, 1),
    "single-atom": wl.single_atom(3),
    "paper": wl.paper_case(1, 1, 1, 1),
}


@pytest.mark.parametrize("family", sorted(SMALLEST))
def test_tuple_repairs_are_minimal_and_complete(family):
    case = SMALLEST[family]
    problem = _problem(case)
    dcs = _dcs(problem)
    removed = expect.tuple_removed_sets(case)
    assert set(removed) == _brute_transversals([v.tids for v in case.violations])
    for h in removed:
        assert is_consistent(problem.instance.delete_tuples(h), dcs)
        for tid in h:  # re-adding any removed tuple brings a violation back
            assert not is_consistent(problem.instance.delete_tuples(h - {tid}), dcs)


NULL_SMALLEST = {
    "path": wl.dense_case(path=4),
    "cycle": wl.dense_case(cycle=4),
    "key-groups": wl.dense_case(keys=(2, 3)),
    "wide-keys": wl.wide_keys(5, 1, True),
    "registrar": wl.registrar(2, 1),
    "paper": wl.paper_case(1, 0, 1, 0),
}


@pytest.mark.parametrize("family", sorted(NULL_SMALLEST))
def test_null_deltas_match_the_oracle(family):
    case = NULL_SMALLEST[family]
    problem = _problem(case)
    oracle = {r.delta for r in null_repairs_oracle(problem.instance, _dcs(problem))}
    ours = {
        frozenset(PositionRef(*p) for p in delta) for delta in expect.null_deltas(case)
    }
    assert ours == oracle


@pytest.mark.parametrize(
    "case,answer",
    [
        (wl.paper_case(1, 1, 1, 1), None),
        (wl.paper_case(1, 1, 0, 0), "f0a"),
        (wl.registrar_ucq(1, 2, 1, 1), "pt"),
    ],
)
def test_tuple_causes_match_the_oracle(case, answer):
    problem = _problem(case)
    query = problem.query("Q" if answer else "q")
    if answer:
        query = substitute_answer(query, [sym(wl.MARK + answer)])
    oracle = {
        r.tid: (r.responsibility, set(r.contingency_sets))
        for r in causes_oracle(problem.instance, query)
    }
    ours = {
        tid: (Fraction(1, 1 + min(len(g) for g in gs)), gs)
        for tid, gs in expect._minimal_gammas(case, answer).items()
    }
    assert ours == oracle


@pytest.mark.parametrize(
    "case,answer",
    [(wl.paper_case(1, 1, 0, 0, ind=True), None), (wl.registrar_ucq(1, 1, 1, 1, ind=True), "pt")],
)
def test_ics_causes_match_the_engine(case, answer):
    problem = _problem(case)
    query = problem.query("Q" if answer else "q")
    if answer:
        query = substitute_answer(query, [sym(wl.MARK + answer)])
    engine = {
        r.tid: set(r.contingency_sets)
        for r in actual_causes_under_ics(problem.instance, query, problem.ids)
    }
    assert expect._ics_gammas(case, answer) == engine


def test_path_and_cycle_counts_follow_padovan_and_perrin():
    path = {n: len(expect.tuple_removed_sets(wl.dense_case(path=n))) for n in range(1, 15)}
    cycle = {n: len(expect.tuple_removed_sets(wl.dense_case(cycle=n))) for n in range(3, 15)}
    assert [path[n] for n in (1, 2, 3)] == [1, 2, 2]
    assert all(path[n] == path[n - 2] + path[n - 3] for n in range(4, 15))
    assert [cycle[n] for n in (3, 4, 5)] == [3, 2, 5]
    assert all(cycle[n] == cycle[n - 2] + cycle[n - 3] for n in range(6, 15))
    assert len(expect.tuple_removed_sets(wl.dense_case(keys=(2, 3, 4)))) == 24
    assert len(expect.null_deltas(wl.dense_case(path=6))) == 2 ** 5
    assert expect.tuple_removed_sets(wl.single_atom(5)) == [frozenset(range(1, 6))]


def test_every_spec_is_pinned_and_benchmark_json_matches():
    digests = json.loads((BENCH / "digests.json").read_text())
    for workload in wl.WORKLOADS:
        assert sorted(digests[workload]) == sorted(s.name for s in wl.specs(workload))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    assert [m["name"] for m in config["end_to_end"]] == [
        "throughput_jobs_per_s", "job_ms_p50", "job_ms_p90", "ok_ratio", "peak_rss_mb",
        "setup_s",
    ]


def test_scaling_cancels_a_uniform_slowdown():
    ref = speed.REF_PASS_S
    assert speed.scale(0.03, [ref] * 3, [ref], [ref] * 3) == pytest.approx(0.03)
    # twice as slow: the job and every pass take twice as long
    assert speed.scale(0.06, [2 * ref] * 3, [2 * ref], [2 * ref] * 3) == pytest.approx(0.03)
    # each edge counts once, as its median; passes inside count one each
    assert speed.scale(0.04, [ref, ref, 9 * ref], [3 * ref, 3 * ref], [ref] * 3) == (
        pytest.approx(0.04 / 2)
    )


def test_sampler_takes_passes_inside_a_job_only():
    sampler = speed.Sampler()
    sampler.start()
    deadline = speed.perf_counter() + 5 * speed.INTERVAL_S
    while speed.perf_counter() < deadline:
        pass
    taken = len(sampler.stop())
    assert taken >= 2
    assert all(0 < p < 1 for p in sampler.passes)
    deadline = speed.perf_counter() + 3 * speed.INTERVAL_S
    while speed.perf_counter() < deadline:
        pass
    assert len(sampler.passes) == taken
