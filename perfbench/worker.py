"""One benchmark run in a fresh process: a closed loop with one client.

Set-up imports `repcause` from the checkout's `src/`, builds the workload's
specs and writes the first round's problem files, then prints ``ready``.
Harness work comes after that: importing the checker and the tracer, and
writing the `check` jobs' models files, which are derived from the
expectations. The timed loop calls `repcause.cli.main(argv)` in process, one
job after another, with stdout and stderr captured; only those calls are
timed. Between rounds, outside the timed region, every job's exit code and
output are checked against the independent expectation (`expect.py`) and the
pinned digest (`digests.json`), and the next round's files are written. A
first warm-up round is checked and counted in `attempted` and `failed` but
not timed, so one-off costs (lazy imports, heap growth) stay out of the
latencies. Rounds run whole until `--seconds` of job time and at least
`MIN_JOBS` timed jobs are done. `peak_rss_mb` is `ru_maxrss` read at the end
of the round that reaches `MIN_JOBS` timed jobs, so every run has done the
same work by then, however fast the machine was.

Untraced, the worker also measures `setup_s`. After each round, outside the
timed region, it starts a set-up-only copy of itself and times it from spawn
to ``ready``: once per `SETUP_GAP_S` of run time, so the samples spread over
the whole run and meet the machine in the same states as the timed jobs.

Every time is reported at a reference host speed (see `speed.py`): a fixed
calibration pass runs before each job, after each round and, every 20 ms,
inside each untraced job, and each job's own time is scaled by the passes
around and inside it. A set-up sample is scaled by the passes the measuring
worker takes just before the spawn and the ones the set-up worker takes just
after its ``ready``. The raw wall-time figures go into the run record.
Throughput is the median over timed rounds of the round's correct jobs
divided by its scaled job time, and `job_ms_p50` and `job_ms_p90` are the
medians over timed rounds of the round's nearest-rank p50 and p90, so a
spell the calibration misses that covers less than half the rounds moves
none of them. Every round runs the same jobs, so the ranks fall on the same
specs in every round. Once set-up is done, its objects are frozen
out of the cyclic garbage collector (`gc.freeze`), so collections in the
timed loop scan what the engine allocates, as they would in a CLI process.
Before each job, untimed, a full collection resets the collector's counts,
so where a job's own collections fall does not depend on the jobs before
it. Without it, the p90 of ten `wide-join` runs fell in two clusters about
12% apart; with it, five seeds spread 0.057 of the median, against 0.074
without it on the same seeds.

With `--trace 1`, rounds alternate untraced and traced (see `tracing.py`);
the traced ones give the per-layer metrics, both give `trace.overhead_ratio`.
No pass runs inside a job then, so spans hold only the engine's time, and
both kinds of round are scaled by the passes around their jobs alone.

The last stdout line is a JSON object with the run's figures.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_JOBS = 100
WALL_LIMIT_S = 120.0  # stop even mid-round, so the run ends in time
SETUP_GAP_S = 3.0


def import_engine():
    sys.path.insert(0, str(ROOT / "src"))
    import repcause.cli

    if not Path(repcause.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"repcause imported from {repcause.cli.__file__}, not {ROOT / 'src'}")
    return repcause.cli


class Checker:
    """Compares canonical outputs with both references; caches expectations."""

    def __init__(self, workload: str) -> None:
        from expect import expected_stdout

        self.expected_stdout = expected_stdout
        self.digests = json.loads((HERE / "digests.json").read_text())[workload]
        self._expected = {}

    def verdict(self, job, code, stdout: str, error) -> str:
        if error is not None:
            return "raised"
        canonical = stdout.replace(job.prefix, workloads.MARK)
        name = job.spec.name
        if name not in self._expected:
            self._expected[name] = self.expected_stdout(job.spec)
        want, exact = self._expected[name]
        if code != 0 or not (canonical == want if exact else canonical.startswith(want)):
            return "wrong"
        pinned = self.digests.get(name, {})
        if "sha256" in pinned and (
            code != pinned["exit"]
            or hashlib.sha256(canonical.encode()).hexdigest() != pinned["sha256"]
        ):
            return "wrong"
        return "ok"


@dataclass
class Timed:
    """One job's timing."""

    seconds: float  # wall time, less the calibration passes taken inside it
    before: int  # index of the calibration pass taken just before it
    inside: list  # the calibration passes taken inside it

    def scaled(self, passes) -> float:
        """Its seconds at the reference speed (see `speed.py`)."""
        edge = self.before + 1
        return speed.scale(self.seconds, passes[max(0, edge - speed.WINDOW):edge],
                           self.inside, passes[edge:edge + speed.WINDOW])


@dataclass
class Arm:
    """Timed rounds of one kind: untraced, or traced."""

    seconds: float = 0.0
    jobs: int = 0
    stdout_bytes: int = 0
    rounds: list = field(default_factory=list)  # per round: (correct jobs, [Timed])

    def _times(self, timed, passes):
        return [t.seconds if passes is None else t.scaled(passes) for t in timed]

    def throughput(self, passes=None) -> float:
        """Median round throughput; at the reference speed when given the passes."""
        rates = [ok / sum(self._times(timed, passes)) for ok, timed in self.rounds]
        return statistics.median(rates) if rates else 0.0

    def latency(self, q: float, passes=None) -> float:
        """Median over rounds of the round's nearest-rank `q` quantile of job
        time; at the reference speed when given the passes."""
        ranked = []
        for _, timed in self.rounds:
            times = sorted(self._times(timed, passes))
            ranked.append(times[math.ceil(q * len(times)) - 1])
        return statistics.median(ranked)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_setup(argv):
    """Seconds from spawning a set-up-only worker to its ``ready``: raw and
    at the reference speed. The passes before are taken here, the ones after
    by the set-up worker once it is ready."""
    before = [speed.calibrate() for _ in range(speed.WINDOW)]
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, *argv, "--setup-only"], stdout=subprocess.PIPE, text=True
    )
    ready = proc.stdout.readline().strip() == "ready"
    seconds = time.perf_counter() - started
    rest, _ = proc.communicate()
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"set-up worker failed with exit code {proc.returncode}")
    return seconds, speed.scale(seconds, before, [], json.loads(rest))


def run_job(cli, job, sampler):
    """Runs one job; returns its wall time less the passes the sampler took
    inside it, those passes, its exit code, stdout and exception name."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    inside = []
    if sampler:
        sampler.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except Exception as exc:  # a crashing job is counted as failed; the run goes on
        error = type(exc).__name__
    finally:
        if sampler:
            inside = sampler.stop()
    seconds = time.perf_counter() - start - sum(inside)
    return seconds, inside, code, out.getvalue(), error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file the traced run's spans are written to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    wall_start = time.perf_counter()

    cli = import_engine()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    stream = workloads.rounds(args.workload, args.seed, workdir)
    jobs = next(stream)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps([speed.calibrate() for _ in range(speed.WINDOW)]))
        return 0
    from tracing import Tracer

    checker = Checker(args.workload)
    tracer = Tracer() if args.trace else None
    sampler = None if tracer else speed.Sampler()  # passes would land in traced spans
    workloads.write_models(jobs)
    gc.collect()
    gc.freeze()

    setup_argv = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--workdir", str(workdir / "setup"),
    ]
    setups, last_setup = [], time.perf_counter() - SETUP_GAP_S  # one after the warm-up
    passes = []  # calibration passes, one before each job and one after each round
    latencies = []  # Timed, per timed job
    timed_specs = []  # spec name, per timed job
    verdicts = {"ok": 0, "raised": 0, "wrong": 0}
    errors = {}
    untraced, traced_arm = Arm(), Arm()
    rss_mb = None  # read once MIN_JOBS jobs are timed: the same work in every run
    round_index = -1  # the warm-up round
    while True:
        traced = bool(tracer) and round_index >= 0 and round_index % 2 == 1
        if traced:
            tracer.install()
        results = []
        for job in jobs:
            if tracer:
                tracer.job = len(latencies) + len(results)
            gc.collect()
            passes.append(speed.calibrate())
            seconds, inside, *outcome = run_job(cli, job, sampler)
            results.append((job, Timed(seconds, len(passes) - 1, inside), *outcome))
            if time.perf_counter() - wall_start > WALL_LIMIT_S:
                break
        passes.append(speed.calibrate())
        if traced:
            tracer.uninstall()
        arm = traced_arm if traced else untraced
        timed, round_ok = [], 0
        for job, timing, code, stdout, error in results:
            verdict = checker.verdict(job, code, stdout, error)
            verdicts[verdict] += 1
            if error is not None:
                errors[job.spec.name] = error
            timed.append(timing)
            round_ok += verdict == "ok"
            if round_index >= 0:
                arm.stdout_bytes += len(stdout.encode())
        if round_index >= 0:
            latencies += timed
            timed_specs += [job.spec.name for job, *_ in results]
            arm.seconds += sum(t.seconds for t in timed)
            arm.jobs += len(results)
            arm.rounds.append((round_ok, timed))
        round_index += 1
        while not tracer and time.perf_counter() - last_setup >= SETUP_GAP_S:
            setups.append(time_setup(setup_argv))
            last_setup += SETUP_GAP_S
        if rss_mb is None and len(latencies) >= MIN_JOBS:
            rss_mb = _max_rss_mb()
        timed = untraced.seconds + traced_arm.seconds
        done = len(latencies) >= MIN_JOBS and timed >= args.seconds
        if tracer:
            done = done and round_index % 2 == 0
        if done or time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
        jobs = next(stream)
        workloads.write_models(jobs)

    attempted = sum(verdicts.values())
    record = {
        "attempted": attempted,
        "failed": verdicts["raised"] + verdicts["wrong"],
        "wrong": verdicts["wrong"],
        "errors": errors,
        "rounds": round_index,
        "latency_samples": len(latencies),
        "recursion_limit": sys.getrecursionlimit(),
    }
    if tracer:
        ratio = traced_arm.throughput(passes) / untraced.throughput(passes)
        record["traced_jobs"] = traced_arm.jobs
        record["spans"] = tracer.span_count
        record["spans_written"] = len(tracer.spans)
        record["metrics"] = tracer.layer_metrics(
            traced_arm.jobs, traced_arm.stdout_bytes, ratio
        )
        if args.spans:
            tracer.dump(args.spans)
    else:
        scaled = [t.scaled(passes) for t in latencies]
        p90 = untraced.latency(0.9, passes)
        record["metrics"] = {
            "throughput_jobs_per_s": {"value": untraced.throughput(passes), "unit": "1/s"},
            "job_ms_p50": {"value": untraced.latency(0.5, passes) * 1e3, "unit": "ms"},
            "job_ms_p90": {"value": p90 * 1e3, "unit": "ms"},
            "ok_ratio": {"value": verdicts["ok"] / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": rss_mb or _max_rss_mb(), "unit": "MB"},
            "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
        }
        record["samples_beyond_p90"] = sum(1 for t in scaled if t > p90)
        by_spec = {}
        for name, t in zip(timed_specs, scaled):
            by_spec.setdefault(name, []).append(t * 1e3)
        record["spec_ms_p50"] = dict(sorted(
            ((name, statistics.median(ms)) for name, ms in by_spec.items()), key=lambda kv: kv[1]
        ))
        record["setup_samples_s"] = [s for _, s in setups]
        record["raw"] = {
            "throughput_jobs_per_s": untraced.throughput(),
            "job_ms_p50": untraced.latency(0.5) * 1e3,
            "job_ms_p90": untraced.latency(0.9) * 1e3,
            "setup_s": statistics.median(r for r, _ in setups),
            "setup_samples_s": [r for r, _ in setups],
        }
        inside = [p for t in latencies for p in t.inside]
        record["calibration_pass_ms"] = {
            "median_between_jobs": statistics.median(passes) * 1e3,
            "median_inside_jobs": statistics.median(inside) * 1e3 if inside else None,
            "inside_jobs": len(inside),
            "reference": speed.REF_PASS_S * 1e3,
        }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
