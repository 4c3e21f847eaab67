"""Pin the engine's current output for every canonical job spec.

    python3 perfbench/record_digests.py

Runs each spec of each workload once, with its canonical constants, and
writes `digests.json`: per spec, the exit code and the sha256 of stdout, or,
for a job that raises, the exception's name and no digest. The benchmark
then checks every job's canonical output against these. Re-record only on
purpose, when the output format is meant to change.
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from worker import HERE, import_engine, run_job
from workloads import MARK, WORKLOADS, Job, models_text, specs


def main() -> int:
    cli = import_engine()
    pinned = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in WORKLOADS:
            pinned[workload] = {}
            for spec in specs(workload):
                problem = Path(tmp) / f"{spec.name}.cdl"
                problem.write_text(spec.case.text())
                models = Path(tmp) / f"{spec.name}.models"
                if spec.with_models:
                    models.write_text(models_text(spec))
                job = Job(spec, MARK, spec.argv(str(problem), str(models), MARK))
                _, code, stdout, error = run_job(cli, job)
                pinned[workload][spec.name] = (
                    {"error": error} if error is not None
                    else {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
                )
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
