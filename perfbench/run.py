"""Seeded benchmark of the repcause CLI.

    python3 perfbench/run.py --workload dense-conflict --seed 1 --seconds 15 --trace 0

Runs one workload (`dense-conflict`, `wide-join` or `causes`, see
`workloads.py`) in a fresh worker process (`worker.py`) and prints, as its
last stdout line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
the traced run with `--trace 1`. The line before it is the run record: Python
version, CPU model, nproc, seed, recursion limit and sample counts.

`setup_s` is the median of the set-up samples the worker takes while it runs
(see `worker.py`): interpreter start, `import repcause`, input generation and
writing the first round's problem files. The measuring worker's own start-up
is in the run record too.

Every worker gets `PYTHONHASHSEED` from `--seed`, so the seed fixes the
engine's set and dict iteration order too, and with it the work each job does.

`correct` is false when any job printed a wrong output or exit code; a job
that raised counts in `failed` without making the run incorrect.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense-conflict", "wide-join", "causes")
RUN_TIMEOUT_S = 170.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _start(cmd, env):
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)


def _await_ready(proc, started: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError("worker failed during set-up")
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_TIMEOUT_S

    if not (ROOT / "src" / "repcause" / "cli.py").is_file():
        print(f"run.py: no repcause sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.trace:
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    hash_seed = str(args.seed % 2**32)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = None
    try:
        started = time.perf_counter()
        proc = _start(cmd, env)
        worker_setup = _await_ready(proc, started)
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        result = json.loads(rest.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "recursion_limit": result["recursion_limit"],
        "pythonhashseed": hash_seed,
        "timed_rounds": result["rounds"],
        "latency_samples": result["latency_samples"],
        "fail_ratio": result["failed"] / result["attempted"],
        "errors": result["errors"],
        "worker_setup_s": worker_setup,
    }
    for key in ("setup_samples_s", "samples_beyond_p90", "raw", "calibration_pass_ms", "spec_ms_p50",
                "traced_jobs", "spans", "spans_written"):
        if key in result:
            record[key] = result[key]
    print("run record: " + json.dumps(record))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
