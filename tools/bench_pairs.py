"""Paired benchmark runs of two checkouts, written to a bench file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds 2-11,12 --seconds 30 --out BENCH_N.json

For every seed, each checkout's own ``perfbench/run.py --trace 0`` runs once
in a subprocess, from the root of that checkout; which side runs first
alternates from one seed to the next, so a drift in machine speed does not
favour one side.  The end-to-end metrics of the last stdout line of every
run are gathered into pairs.  Per metric the bench file holds every pair,
each side's median and quartiles, and how many pairs the change wins (ties
count for neither side), with the direction ("better": lower or higher)
taken from the change's ``BENCHMARK.json``.  ``gain_rule_met`` applies the
rule for claiming a gain: the change wins at least nine tenths of the pairs,
and its median is better than the parent's by more than the distance
between the parent's quartiles.  ``within_bound`` applies the rule for a
change that claims no gain: its median is worse than the parent's by at
most the metric's ``bound`` in ``BENCHMARK.json``, a fraction of the parent
median, in the metric's direction.  ``source_sha256`` names the trees that
were measured: per side, a sha256 over the sorted relative paths and the
bytes of that checkout's ``src/liegen/*.py``.

The workload's entry replaces any entry for the same workload in ``--out``;
entries for other workloads are kept, so one file can cover several
workloads.

    python3 tools/bench_pairs.py --aa --parent DIR --workload W \
        --seeds 2-9 --seconds 10 --out BENCH_N.json

runs an A/A comparison instead: the parent against a temporary copy of
itself (without ``.git``) in which every ``src/liegen/*.py`` gains one
comment line and nothing else changes.  Neither side runs different code,
so the entry, written under ``"aa"`` in ``--out``, measures how far the
metrics drift on an edit of the source bytes alone, under the same rules as
a real pair.  The copy is deleted afterwards.

The exit status is 1 when any run reports failed operations or does not
finish, 0 otherwise.  Nothing is imported from either checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

#: a run that takes this many times its --seconds (plus a minute) is hung
TIMEOUT_FACTOR = 4
#: the line an A/A copy appends to each of its src/liegen/*.py
AA_COMMENT = "# A/A copy: this line is the only change\n"


class RunError(RuntimeError):
    pass


def parse_seeds(text: str) -> list[int]:
    """``"2-11,12"`` -> [2, 3, ..., 11, 12].  ``ValueError`` for a range
    that runs backwards, which would drop its seeds, and for a seed named
    twice, which would count its pair twice."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.strip().partition("-")
        first, last = int(first), int(last or first)
        if last < first:
            raise ValueError(f"seed range {part.strip()!r} runs backwards")
        seeds.extend(range(first, last + 1))
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"a seed repeats in {text!r}")
    return seeds


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        (v,) = values
        return {"q1": v, "median": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: str) -> dict:
    """Summary of one metric.  ``pairs`` holds ``{"seed", "parent",
    "change"}`` dicts; ``better`` is ``"lower"`` or ``"higher"``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1 if better == "lower" else -1
    parent = quartiles([p["parent"] for p in pairs])
    change = quartiles([p["change"] for p in pairs])
    wins = sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs)
    losses = sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs)
    gain = sign * (parent["median"] - change["median"])
    return {
        "better": better,
        "pairs": pairs,
        "parent": parent,
        "change": change,
        "change_wins": wins,
        "change_losses": losses,
        "median_ratio": (change["median"] / parent["median"]
                         if parent["median"] else None),
        "parent_iqr": parent["q3"] - parent["q1"],
        "gain_rule_met": (wins >= 0.9 * len(pairs)
                          and gain > parent["q3"] - parent["q1"]),
    }


def within_bound(summary: dict, bound: float) -> bool:
    """Whether the change's median in ``summary`` is worse than the
    parent's by at most ``bound`` times the parent median."""
    sign = 1 if summary["better"] == "lower" else -1
    worse_by = sign * (summary["change"]["median"] - summary["parent"]["median"])
    return worse_by <= bound * abs(summary["parent"]["median"])


def run_side(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run of the checkout at ``root``:
    its result line (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(command, cwd=root, capture_output=True, text=True,
                              timeout=TIMEOUT_FACTOR * seconds + 60)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{root}: seed {seed} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{root}: seed {seed} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest(root: str) -> str:
    """sha256 over the sorted relative paths and bytes of ``src/liegen/*.py``
    under ``root``; each path and its length go in before its bytes."""
    digest = hashlib.sha256()
    for path in sorted(pathlib.Path(root, "src", "liegen").glob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(root).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def end_to_end(root: str) -> dict:
    """The end-to-end metrics of ``BENCHMARK.json`` under ``root``, by name."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def aa_copy(parent: str) -> str:
    """A copy of the checkout at ``parent``, without ``.git``, in a new
    temporary directory, with :data:`AA_COMMENT` appended to each
    ``src/liegen/*.py``; its root is returned."""
    scratch = tempfile.mkdtemp(prefix="bench-aa-")
    root = os.path.join(scratch, "checkout")
    try:
        shutil.copytree(parent, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        for path in pathlib.Path(root, "src", "liegen").glob("*.py"):
            with open(path, "a") as fh:
                fh.write(AA_COMMENT)
    except BaseException:
        shutil.rmtree(scratch)
        raise
    return root


def run_pairs(parent: str, change: str, workload: str, seeds: list[int],
              seconds: int, run=run_side) -> tuple[dict, list[str]]:
    """The workload's bench entry, and a message per failed run."""
    results = {"parent": [], "change": []}
    problems = []
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            root = parent if side == "parent" else change
            try:
                result = run(root, workload, seed, seconds)
            except RunError as exc:
                problems.append(f"{side}: {exc}")
                result = None
            else:
                if result["failed"]:
                    problems.append(f"{side}: seed {seed}: {result['failed']} "
                                    f"of {result['attempted']} operations failed")
            results[side].append(
                {"seed": seed, "first": side == order[0], "result": result})
    done = [i for i, seed in enumerate(seeds)
            if results["parent"][i]["result"] and results["change"][i]["result"]]
    spec = end_to_end(change)
    metrics = {}
    for name in spec:
        pairs = [{"seed": seeds[i],
                  "parent": results["parent"][i]["result"]["metrics"][name]["value"],
                  "change": results["change"][i]["result"]["metrics"][name]["value"],
                  "first": "parent" if results["parent"][i]["first"] else "change"}
                 for i in done]
        if pairs:
            summary = metrics[name] = summarize(pairs, spec[name]["better"])
            summary["unit"] = (
                results["change"][done[0]]["result"]["metrics"][name]["unit"])
            summary["bound"] = spec[name]["bound"]
            summary["within_bound"] = within_bound(summary, summary["bound"])
    failed = {side: sum(r["result"]["failed"] for r in runs if r["result"])
              for side, runs in results.items()}
    attempted = {side: sum(r["result"]["attempted"] for r in runs if r["result"])
                 for side, runs in results.items()}
    entry = {"seeds": seeds, "source_sha256": {"parent": source_digest(parent),
                                               "change": source_digest(change)},
             "seconds": seconds, "pairs_run": len(done),
             "failed": failed, "attempted": attempted, "metrics": metrics}
    return entry, problems


def main(argv=None, run=run_side) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout root")
    sides = parser.add_mutually_exclusive_group(required=True)
    sides.add_argument("--change", help="changed checkout root")
    sides.add_argument("--aa", action="store_true",
                       help="compare the parent with a comment-only copy")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seed ranges, e.g. 2-11,12")
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    change = aa_copy(args.parent) if args.aa else args.change
    try:
        entry, problems = run_pairs(args.parent, change, args.workload,
                                    args.seeds, args.seconds, run)
    finally:
        if args.aa:
            shutil.rmtree(os.path.dirname(change))
    bench = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["host"] = {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version()}
    bench.setdefault("aa" if args.aa else "workloads", {})[args.workload] = entry
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    label = f"{args.workload} (A/A)" if args.aa else args.workload
    for name, m in entry["metrics"].items():
        print(f"{label} {name}: parent {m['parent']['median']:.6g} "
              f"change {m['change']['median']:.6g} {m['unit']}, change wins "
              f"{m['change_wins']}/{len(m['pairs'])}, "
              f"gain rule {'met' if m['gain_rule_met'] else 'not met'}, "
              f"within_bound {m['within_bound']} (bound {m['bound']:g})")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
