"""The default report: its bytes, record count and statuses, and the
benchmark worker that runs it, checked end to end."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from liegen.suites import SuiteConfig, emit_json, run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")


def fingerprint(reports):
    return hashlib.sha256(emit_json(reports).encode()).hexdigest()[:16]


def test_default_report_fingerprint():
    reports = run_suite("all", SuiteConfig())
    assert fingerprint(reports) == "b8de8657389d8445"
    # each block alone, so a change to one shows which block moved
    assert {r.suite: fingerprint([r]) for r in reports} == {
        "groups": "0c2fd2c50fa20aec",
        "hermite": "703848add5aae041",
        "bessel": "c6aad6ff674141e8",
        "contraction": "ed6010d810e71413",
        "diagnostics": "71b3aceb03755686",
    }
    assert [r.suite for r in reports] == [
        "groups", "hermite", "bessel", "contraction", "diagnostics"]
    statuses = Counter(rec.status for r in reports for rec in r.records)
    assert statuses == {"pass": 66, "diagnostic": 9}


@pytest.mark.parametrize("workload", ["report", "bessel-points",
                                      "exact-multivar"])
def test_benchmark_worker_tiny_traced_run(workload):
    # the traced run wraps liegen's public names, so a renamed or deleted
    # one fails here; bessel-points checks its values against mpmath
    if workload == "bessel-points":
        pytest.importorskip("mpmath")
    done = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed", "1",
         "--scale", "tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] > 0
    assert result["layers"]
