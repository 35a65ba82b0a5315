"""Self-test of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

Checks that
  * run.py prints every metric of BENCHMARK.json, with its unit, for every
    workload, untraced and traced, and counts no failed operation;
  * a wrong value injected into each workload's outputs is counted as a
    failed operation;
  * a traced run's spans nest, and their self times are >= 0 and add up to
    the root span, so they sum to no more than the span times;
  * layer_map.json names every per-layer metric once, and only metrics and
    workloads of BENCHMARK.json;
  * run.py exits nonzero without a result where liegen's sources are absent.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import run
import tracing
import worker

FAILURES: list[str] = []


def expect(condition: bool, message: str):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def check_run_output(spec: dict):
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, run.__file__, "--workload", w["name"],
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--scale", "tiny"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=170)
            label = f"{w['name']} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit {proc.returncode} {proc.stderr}")
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: {result}")
            expect([m["name"] for m in wanted] == list(result["metrics"]),
                   f"{label}: metric names {list(result['metrics'])}")
            for m in wanted:
                got = result["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float))
                       and math.isfinite(got["value"]),
                       f"{label}: {m['name']} printed as {got}")
            print(f"ok: {label} ({result['attempted']} operations)")


def _corrupt_report(outputs):
    reports, _ = outputs
    exact = next(r for rep in reports for r in rep.records if r.exact)
    exact.residual = math.ulp(0.0)        # a nonzero exact residual marked pass
    gated = next(r for rep in reports for r in rep.records
                 if not r.exact and r.status == "pass")
    gated.status = "fail"
    return 2


def _corrupt_bessel(outputs):
    j, jp, jpp = outputs[0]
    outputs[0] = (j * (1 + 1e-11) + 1e-11, jp, jpp)
    outputs[1] = ArithmeticError("injected")
    return 2


def _corrupt_multivar(outputs):
    from liegen.contraction import VectorFieldOp
    from liegen.numeric import Polynomial

    jacobi = next(i for i, v in enumerate(outputs) if isinstance(v, VectorFieldOp))
    outputs[jacobi] = VectorFieldOp(c_z=Polynomial.constant(Fraction(1, 10**40)))
    residual = next(i for i, v in enumerate(outputs) if isinstance(v, dict))
    R = next(iter(outputs[residual]))
    outputs[residual] = dict(outputs[residual])
    outputs[residual][R] += Fraction(1, 10**40)
    return 2


CORRUPT = {"report": _corrupt_report, "bessel-points": _corrupt_bessel,
           "exact-multivar": _corrupt_multivar}


def check_injected_failures():
    for name, (make_inputs, body, check) in worker.WORKLOADS.items():
        inputs = make_inputs(5, "tiny")
        outputs, _ = body(inputs, worker.SpeedProbe())
        attempted, failed, errors, _ = check(inputs, outputs)
        expect(failed == 0 and attempted >= 1, f"{name}: clean outputs failed {errors}")
        injected = CORRUPT[name](outputs)
        attempted, failed, errors, _ = check(inputs, outputs)
        expect(failed == injected, f"{name}: {injected} injected, {failed} caught")
        print(f"ok: {name} injected wrong values give failed_frac "
              f"{failed}/{attempted}")


def check_spans():
    for name, (make_inputs, body, _) in worker.WORKLOADS.items():
        inputs = make_inputs(5, "tiny")
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            tracer.span("bench.body", body)(inputs, worker.SpeedProbe())
        finally:
            tracer.uninstall()
        spans = tracer.spans
        roots = [i for i, s in enumerate(spans) if s[3] < 0]
        expect(roots == [0] and spans[0][0] == "bench.body",
               f"{name}: roots {roots}")
        for i, (span_name, start, end, parent) in enumerate(spans):
            if parent < 0:
                continue
            _, p_start, p_end, _ = spans[parent]
            if not (parent < i and p_start <= start <= end <= p_end):
                expect(False, f"{name}: span {i} {span_name} outside its parent")
                break
        own = tracer.self_ns()
        total = sum(end - start for _, start, end, _ in spans)
        expect(min(own) >= 0, f"{name}: negative self time {min(own)}")
        expect(sum(own) == spans[0][2] - spans[0][1] <= total,
               f"{name}: self times sum {sum(own)}, root {spans[0][2] - spans[0][1]}")
        print(f"ok: {name} {len(spans)} spans nest, self times sum to the root")


def check_layer_map(spec: dict):
    with open(os.path.join(run.HERE, "layer_map.json")) as fh:
        groups = json.load(fh)["groups"]
    listed = [m for g in groups for m in g["metrics"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    expect(sorted(listed) == sorted(per_layer),
           f"layer_map.json lists {sorted(set(listed) ^ set(per_layer))} "
           "differently from BENCHMARK.json")
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for g in groups:
        expect(set(g["moves"]) | set(g["no_change"]) <= workloads,
               f"layer_map.json: unknown workload in {g['layer']}")
        expect(all(set(v) <= e2e for v in g["moves"].values()),
               f"layer_map.json: unknown metric in {g['layer']}")
    print("ok: layer_map.json covers every per-layer metric")


def check_without_sources(spec: dict):
    scratch = os.path.join(run.ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(bare, "perfbench", "run.py"),
             "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok: without sources run.py exits {proc.returncode}")


def main() -> int:
    spec = run.load_spec()
    worker.import_liegen()
    check_layer_map(spec)
    check_injected_failures()
    check_spans()
    check_without_sources(spec)
    check_run_output(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
