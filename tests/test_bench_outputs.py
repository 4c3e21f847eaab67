"""Every canonical job spec of the benchmark in `perfbench/`, run once
through `cli.main` on its canonical `k_` text, against both of the
benchmark's references: the independent expectation of `expect.py` and the
exit code and stdout sha256 pinned in `digests.json`. A spec pinned with an
exception and no digest is checked against the expectation alone. The
inputs go to a temporary directory, never under `perfbench/`.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repcause.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import expect  # noqa: E402
import workloads  # noqa: E402

DIGESTS = json.loads((BENCH / "digests.json").read_text())
SPECS = [(name, spec) for name in workloads.WORKLOADS for spec in workloads.specs(name)]


@pytest.mark.parametrize(
    "workload, spec", SPECS, ids=[f"{name}/{spec.name}" for name, spec in SPECS]
)
def test_canonical_output(workload, spec, tmp_path, capsys):
    problem, models = tmp_path / "problem.cdl", tmp_path / "problem.models"
    problem.write_text(spec.case.text())
    if spec.with_models:
        models.write_text(workloads.models_text(spec))
    code = main(spec.argv(str(problem), str(models), workloads.MARK))
    out = capsys.readouterr().out
    want, exact = expect.expected_stdout(spec)
    assert code == 0
    assert out == want if exact else out.startswith(want)
    pinned = DIGESTS[workload][spec.name]
    if "sha256" in pinned:
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
            pinned["exit"], pinned["sha256"]
        )
