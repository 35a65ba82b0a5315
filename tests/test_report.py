"""The default report: its bytes, record count and statuses, and the
benchmark worker that runs it, checked end to end."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from liegen.suites import (
    SuiteConfig,
    emit_csv,
    emit_json,
    emit_text,
    run_suite,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
BLOCKS = ["groups", "hermite", "bessel", "contraction", "diagnostics"]
#: the gated (float) records of the default report, by block
GATED = {
    "bessel": {"ode_A6", "recursion_A7", "diffrel_A8", "diffrel_A9",
               "diffrel_A10", "ode_A6_small_r", "j0_root_bisection"},
    "contraction": {"polar_ladder_rate", "polar_ladder_monotone",
                    "legendre_closed_forms", "legendre_ode_rate_m0",
                    "legendre_ode_monotone", "mehler_heine_margin"},
}


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def default_reports():
    return run_suite("all", SuiteConfig())


def test_default_report_fingerprint(default_reports):
    reports = default_reports
    assert sha(emit_json(reports)) == "7c7f83924bda63f8"
    assert sha(emit_csv(reports)) == "20aef9d926e37321"
    assert sha(emit_text(reports)) == "c7a46c069476ec46"
    # each block object alone, so a change to one shows which block moved
    assert {r.suite: sha(json.dumps(r.to_dict(), sort_keys=True, indent=2)
                         + "\n") for r in reports} == {
        "groups": "d56e6891577b4e10",
        "hermite": "3a3d318b099974fc",
        "bessel": "b8137adcad9ee212",
        "contraction": "5f9c5fe77e2a7768",
        "diagnostics": "0606c8848c883931",
    }
    # each block's checks alone: every block echoes the whole config, so a
    # config change moves every block object, but only the checks it feeds
    assert {r.suite: sha(json.dumps(r.to_dict()["checks"], sort_keys=True,
                                    indent=2) + "\n") for r in reports} == {
        "groups": "ef239cf66b7c53b6",
        "hermite": "753e61659e70f710",
        "bessel": "c7e67e703c64f850",
        "contraction": "42a4886535fc5f58",
        "diagnostics": "ca5ee91742b022fc",
    }
    assert [r.suite for r in reports] == BLOCKS
    statuses = Counter(rec.status for r in reports for rec in r.records)
    assert statuses == {"pass": 66, "diagnostic": 9}
    # the groups block is exact throughout, and these are the only gated
    # float records: a record made exact must not turn back into a gate
    assert all(rec.exact for rec in reports[0].records)
    assert {(r.suite, rec.check_id) for r in reports for rec in r.records
            if rec.tolerance is not None} == {
        (suite, check) for suite, checks in GATED.items() for check in checks}


@pytest.mark.parametrize("name", BLOCKS)
def test_one_block_alone_is_its_entry_in_the_full_report(default_reports,
                                                         name):
    (alone,) = run_suite(name, SuiteConfig())
    entry = default_reports[BLOCKS.index(name)]
    assert alone.to_dict() == entry.to_dict()
    # one document shape: a single block is a list of one
    assert json.loads(emit_json([alone])) == {"suites": [entry.to_dict()]}
    # the CSV header, then exactly this block's rows of the full report
    header, *rows = emit_csv([alone]).splitlines()
    full_header, *full_rows = emit_csv(default_reports).splitlines()
    assert header == full_header
    assert rows == [row for row in full_rows if row.startswith(f"{name},")]
    # its text section, from the header line through the counts line
    assert emit_text([alone]) in emit_text(default_reports)


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
    if workload == "report":
        # the tracer patches BesselEval.derivatives on the class: a method
        # bound at import would bypass it and read 0 here
        assert result["layers"]["euclidean.derivatives_calls"] > 0
        # one series_exp in hermite_genfunc_check and two in
        # disentangle_check: a changed signature, or an import under
        # another name, would make the layer read 0
        assert result["layers"]["numeric.series_exp_calls"] == 3
    if workload == "exact-multivar":
        # 3 tiny Jacobi triples of 6 brackets each, and the residual
        # numerators are applied, not multiplied out
        assert result["layers"]["contraction.vf_commutator_calls"] == 18
        assert result["layers"]["numeric.poly_mul_calls"] == 0
