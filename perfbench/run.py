"""liegen benchmark: runs the repetitions of one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Repetitions run one at a time, each in a
fresh ``worker.py`` process, until the next one would end after ``S``
seconds (at least three, or two pairs when tracing).  With ``--trace 0``
the end-to-end metrics of BENCHMARK.json are printed; with ``--trace 1``
untraced and traced repetitions alternate and the per-layer metrics are
printed, ``trace.overhead_frac`` being the traced median run time over the
untraced one, minus 1.  Every repetition's outputs are checked; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

One operation, for ``op_p50_ms`` and ``op_p90_ms``, is one
``derivatives`` call on bessel-points, one Jacobi triple or one
``contraction_residual`` on exact-multivar, and one whole report on report
(one a repetition, so there the p50 is ``run_s`` and the p90 the upper end
of the repetitions).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import REPORT_BLOCKS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

MIN_REPETITIONS = 3
MIN_TRACED_PAIRS = 2
#: Every time is reported in seconds of a machine on which worker.py's
#: reference_work() takes REFERENCE_S: a repetition's times are multiplied by
#: REFERENCE_S / (mean time of reference_work() sampled through that
#: repetition's body by worker.SpeedProbe).  On a shared host the machine's
#: speed flips by up to 1.5x within seconds; the reference slows with it, so
#: the scaled times keep what the code under test changes.  The unscaled
#: times are printed too.  REFERENCE_S is about the reference's time on a
#: 2.1 GHz Xeon virtual machine.
REFERENCE_S = 0.002
TIME_UNITS = {"s", "ms", "ns"}
#: a repetition that takes longer than this is treated as hung
REPETITION_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_repetition(workload: str, seed: int, scale: str, trace: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--scale", scale, "--trace", str(int(trace))]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {REPETITION_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_repetitions(workload: str, seed: int, seconds: int, scale: str,
                    trace: bool) -> list[dict]:
    """Untraced repetitions (alternating with traced ones when ``trace``)
    until the next one is expected to end after ``seconds``."""
    kinds = (False, True) if trace else (False,)
    deadline = time.monotonic() + seconds
    last_duration = {}
    results = []
    while True:
        kind = kinds[len(results) % len(kinds)]
        started = time.monotonic()
        results.append(run_repetition(workload, seed, scale, kind))
        last_duration[kind] = time.monotonic() - started
        upcoming = kinds[len(results) % len(kinds)]
        enough = MIN_TRACED_PAIRS * 2 if trace else MIN_REPETITIONS
        if (len(results) >= enough
                and time.monotonic() + last_duration[upcoming] > deadline):
            return results


def speed(result: dict) -> float:
    return REFERENCE_S / result["reference_s"]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(untraced: list[dict]) -> tuple[dict, dict]:
    """Metric values and their sample counts."""
    ops = [ms * speed(r) for r in untraced for ms in r["op_ms"]]
    runs = len(untraced)
    values = {
        "setup_s": statistics.median(r["setup_s"] * speed(r) for r in untraced),
        "run_s": statistics.median(r["run_s"] * speed(r) for r in untraced),
        "op_p50_ms": percentile(ops, 50),
        "op_p90_ms": percentile(ops, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    samples = {"setup_s": runs, "run_s": runs, "op_p50_ms": len(ops),
               "op_p90_ms": len(ops), "peak_rss_mb": runs}
    return values, samples


def per_layer(untraced: list[dict], traced: list[dict],
              units: dict) -> tuple[dict, dict]:
    values = {}
    for name in traced[0]["layers"]:
        if units[name] in TIME_UNITS:
            values[name] = statistics.median(
                r["layers"][name] * speed(r) for r in traced)
        else:  # counts repeat exactly from one repetition to the next
            values[name] = statistics.median_low(r["layers"][name] for r in traced)
    # the suite blocks time themselves (SuiteReport.wall_time_s), so their
    # figures come from the untraced repetitions
    for block in REPORT_BLOCKS:
        values[f"suites.{block}_s"] = statistics.median(
            r["info"].get("blocks", {}).get(block, 0.0) * speed(r)
            for r in untraced)
    values["trace.overhead_frac"] = (
        statistics.median(r["run_s"] * speed(r) for r in traced)
        / statistics.median(r["run_s"] * speed(r) for r in untraced) - 1)
    samples = {name: len(traced) for name in values}
    return values, samples


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="input size; tiny is for selftest.py")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "liegen", "__init__.py")):
        print(f"error: no liegen sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        results = run_repetitions(args.workload, args.seed, args.seconds,
                                  args.scale, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in results if not r["traced"]]
    if args.trace:
        wanted = spec["per_layer"]
        values, samples = per_layer(untraced, [r for r in results if r["traced"]],
                                    {m["name"]: m["unit"] for m in wanted})
    else:
        values, samples = end_to_end(untraced)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"# workload={args.workload} seed={args.seed} "
          f"repetitions={len(untraced)} untraced, "
          f"{len(results) - len(untraced)} traced")
    for r in results:
        for error in r["errors"]:
            print(f"# FAILED: {error}")
    sha = {r["info"].get("sha256_prefix") for r in untraced} - {None}
    if sha:
        print(f"# report json sha256 prefix: {', '.join(sorted(sha))}")
    print(f"# failed_frac = {failed / attempted} ({failed} of {attempted} operations)")
    print("# unscaled run_s: " + " ".join(f"{r['run_s']:.4f}" for r in untraced)
          + "; reference_work() s: "
          + " ".join(f"{r['reference_s']:.5f}" for r in results))
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value} {m['unit']} (n={samples[m['name']]})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
