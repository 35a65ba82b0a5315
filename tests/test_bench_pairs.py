"""The paired-bench tool's summary and bookkeeping, on synthetic runs."""

import hashlib
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def pairs_of(parent, change):
    return [{"seed": i, "parent": p, "change": c}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("2-11,12") == list(range(2, 13))
    assert bench_pairs.parse_seeds("5") == [5]
    assert bench_pairs.parse_seeds("3-4, 9") == [3, 4, 9]
    assert bench_pairs.parse_seeds("7-7") == [7]
    # a backward range would drop its seeds, a repeated seed count twice
    for text in ("2-4,9-2", "4-2", "2-4,3", "5,5", ""):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(text)


def test_summary_medians_quartiles_and_wins():
    parent = [2.0, 2.4, 2.2, 2.6, 2.8]
    change = [1.0, 1.4, 2.2, 1.2, 3.0]   # a tie (2.2) and a loss (3.0)
    s = bench_pairs.summarize(pairs_of(parent, change), "lower")
    assert s["parent"] == {"q1": 2.2, "median": 2.4, "q3": 2.6}
    assert s["change"] == {"q1": 1.2, "median": 1.4, "q3": 2.2}
    assert s["change_wins"] == 3 and s["change_losses"] == 1
    assert s["median_ratio"] == pytest.approx(1.4 / 2.4)
    assert s["parent_iqr"] == pytest.approx(0.4)
    assert not s["gain_rule_met"]            # 3 of 5 wins is below 9/10
    assert s["pairs"] == pairs_of(parent, change)


def test_gain_rule_needs_nine_tenths_and_a_gap_wider_than_the_iqr():
    parent = [2.0 + 0.01 * i for i in range(10)]
    s = bench_pairs.summarize(pairs_of(parent, [p - 1 for p in parent]), "lower")
    assert s["change_wins"] == 10 and s["gain_rule_met"]
    # every pair won, but by less than the parent's own spread
    s = bench_pairs.summarize(pairs_of(parent, [p - 0.01 for p in parent]),
                              "lower")
    assert s["change_wins"] == 10 and not s["gain_rule_met"]
    # nine of ten is enough, eight is not
    nine = [p - 1 for p in parent[:9]] + [parent[9] + 1]
    assert bench_pairs.summarize(pairs_of(parent, nine), "lower")["gain_rule_met"]
    eight = [p - 1 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    assert not bench_pairs.summarize(pairs_of(parent, eight),
                                     "lower")["gain_rule_met"]


def test_higher_is_better_counts_the_other_way():
    s = bench_pairs.summarize(pairs_of([1.0, 1.0], [2.0, 0.5]), "higher")
    assert s["change_wins"] == 1 and s["change_losses"] == 1
    s = bench_pairs.summarize(pairs_of([1.0], [2.0]), "higher")
    assert s["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert s["change_wins"] == 1 and s["gain_rule_met"]
    with pytest.raises(ValueError):
        bench_pairs.summarize(pairs_of([1.0], [2.0]), "sideways")


def fake_run(values, failed=()):
    """A stand-in for run_side: run_s from ``values[root][seed]``, and
    failed operations for the (root, seed) pairs listed in ``failed``."""
    calls = []

    def run(root, workload, seed, seconds):
        calls.append((root, seed))
        metrics = {name: {"value": 1.0, "unit": "s"}
                   for name in ("setup_s", "op_p50_ms", "op_p90_ms",
                                "peak_rss_mb")}
        metrics["run_s"] = {"value": values[root][seed], "unit": "s"}
        bad = int((root, seed) in failed)
        return {"correct": not bad, "attempted": 10, "failed": bad,
                "metrics": metrics}

    return run, calls


def write_spec(root):
    root.mkdir()
    spec = {"end_to_end": [{"name": n, "better": "lower", "bound": 0.2}
                           for n in ("run_s", "op_p50_ms", "op_p90_ms",
                                     "peak_rss_mb", "setup_s")]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return str(root)


def test_main_alternates_order_and_merges_workloads(tmp_path):
    parent, change = write_spec(tmp_path / "p"), write_spec(tmp_path / "c")
    run, calls = fake_run({parent: {2: 2.0, 3: 2.2, 4: 2.1},
                           change: {2: 1.0, 3: 1.1, 4: 1.2}})
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"report": {"kept": True}}}))
    argv = ["--parent", parent, "--change", change, "--workload",
            "exact-multivar", "--seeds", "2-4", "--seconds", "1",
            "--out", str(out)]
    assert bench_pairs.main(argv, run=run) == 0
    assert calls == [(parent, 2), (change, 2), (change, 3), (parent, 3),
                     (parent, 4), (change, 4)]
    bench = json.loads(out.read_text())
    assert bench["workloads"]["report"] == {"kept": True}
    entry = bench["workloads"]["exact-multivar"]
    assert entry["pairs_run"] == 3 and entry["failed"] == {"parent": 0,
                                                           "change": 0}
    run_s = entry["metrics"]["run_s"]
    assert [p["first"] for p in run_s["pairs"]] == ["parent", "change", "parent"]
    assert run_s["change"]["median"] == 1.1 and run_s["change_wins"] == 3
    assert run_s["unit"] == "s"


def test_main_exits_nonzero_on_failed_operations(tmp_path):
    parent, change = write_spec(tmp_path / "p"), write_spec(tmp_path / "c")
    run, _ = fake_run({parent: {1: 2.0}, change: {1: 1.0}},
                      failed={(change, 1)})
    argv = ["--parent", parent, "--change", change, "--workload", "report",
            "--seeds", "1", "--seconds", "1", "--out", str(tmp_path / "b.json")]
    assert bench_pairs.main(argv, run=run) == 1
    entry = json.loads((tmp_path / "b.json").read_text())["workloads"]["report"]
    assert entry["failed"] == {"parent": 0, "change": 1}


def test_entry_names_the_source_tree_of_each_side(tmp_path):
    parent, change = write_spec(tmp_path / "p"), write_spec(tmp_path / "c")
    for root, body in ((parent, b"x = 1\n"), (change, b"x = 2\n")):
        package = pathlib.Path(root, "src", "liegen")
        package.mkdir(parents=True)
        (package / "b.py").write_bytes(body)
        (package / "a.py").write_bytes(b"")
        (package / "notes.txt").write_bytes(body)   # not a .py: not hashed
    run, _ = fake_run({parent: {1: 2.0}, change: {1: 1.0}})
    out = tmp_path / "b.json"
    argv = ["--parent", parent, "--change", change, "--workload", "report",
            "--seeds", "1", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv, run=run) == 0
    entry = json.loads(out.read_text())["workloads"]["report"]
    expected = hashlib.sha256(b"src/liegen/a.py\x000\x00"
                              b"src/liegen/b.py\x006\x00x = 2\n").hexdigest()
    assert entry["source_sha256"]["change"] == expected
    assert entry["source_sha256"]["parent"] != expected
    # the bytes of the .py files name the tree, not the other files in it
    (pathlib.Path(change, "src", "liegen", "notes.txt")).write_bytes(b"")
    assert bench_pairs.source_digest(change) == expected
    (pathlib.Path(change, "src", "liegen", "a.py")).write_bytes(b"\n")
    assert bench_pairs.source_digest(change) != expected


def test_within_bound_takes_the_bound_as_a_share_of_the_parent_median():
    lower = bench_pairs.summarize(pairs_of([2.0, 2.0, 2.0], [2.4, 2.4, 2.5]),
                                  "lower")
    assert bench_pairs.within_bound(lower, 0.2)          # 20% worse: at the bound
    assert not bench_pairs.within_bound(lower, 0.19)
    higher = bench_pairs.summarize(pairs_of([10.0], [9.0]), "higher")
    assert bench_pairs.within_bound(higher, 0.1)         # 10% lower is worse
    assert not bench_pairs.within_bound(higher, 0.05)
    better = bench_pairs.summarize(pairs_of([10.0], [11.0]), "higher")
    assert bench_pairs.within_bound(better, 0.0)


def test_main_writes_and_prints_within_bound(tmp_path, capsys):
    # run_s is 15% worse on the median, inside the bound 0.2; op_p50_ms
    # reads 1.0 on both sides; peak_rss_mb is 30% worse, outside it
    parent, change = write_spec(tmp_path / "p"), write_spec(tmp_path / "c")
    run, _ = fake_run({parent: {1: 2.0, 2: 2.0, 3: 2.0},
                       change: {1: 2.3, 2: 2.3, 3: 2.2}})

    def worse_rss(root, workload, seed, seconds):
        result = run(root, workload, seed, seconds)
        if root == change:
            result["metrics"]["peak_rss_mb"]["value"] = 1.3
        return result

    out = tmp_path / "b.json"
    argv = ["--parent", parent, "--change", change, "--workload", "report",
            "--seeds", "1-3", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv, run=worse_rss) == 0
    metrics = json.loads(out.read_text())["workloads"]["report"]["metrics"]
    assert {name: m["within_bound"] for name, m in metrics.items()} == {
        "run_s": True, "op_p50_ms": True, "op_p90_ms": True,
        "peak_rss_mb": False, "setup_s": True}
    assert metrics["run_s"]["bound"] == 0.2
    printed = capsys.readouterr().out
    assert "report run_s:" in printed and "within_bound True" in printed
    assert "report peak_rss_mb:" in printed and "within_bound False" in printed


def test_aa_runs_the_parent_against_a_comment_only_copy(tmp_path):
    parent = write_spec(tmp_path / "p")
    package = pathlib.Path(parent, "src", "liegen")
    package.mkdir(parents=True)
    sources = {"a.py": b"x = 1\n", "b.py": b"def f():\n    return 2\n"}
    for name, body in sources.items():
        (package / name).write_bytes(body)
    (package / "notes.txt").write_bytes(b"kept as it is\n")
    pathlib.Path(parent, ".git").mkdir()
    (pathlib.Path(parent, ".git") / "HEAD").write_text("ref: main\n")
    seen = {}

    def run(root, workload, seed, seconds):
        if root != parent:
            # the copy, while it runs: no .git, each .py one comment longer
            copy = pathlib.Path(root, "src", "liegen")
            assert not pathlib.Path(root, ".git").exists()
            assert (copy / "notes.txt").read_bytes() == b"kept as it is\n"
            for name, body in sources.items():
                assert (copy / name).read_bytes() == (
                    body + bench_pairs.AA_COMMENT.encode())
            assert pathlib.Path(root, "BENCHMARK.json").exists()
            seen.setdefault("copies", set()).add(root)
        value = {parent: 2.0}.get(root, 2.1)
        return fake_run({root: {seed: value}})[0](root, workload, seed, seconds)

    out = tmp_path / "b.json"
    out.write_text(json.dumps({"workloads": {"report": {"kept": True}}}))
    argv = ["--aa", "--parent", parent, "--workload", "report",
            "--seeds", "1-2", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv, run=run) == 0
    (copy,) = seen["copies"]
    assert not pathlib.Path(copy).exists()           # deleted afterwards
    assert not pathlib.Path(copy).parent.exists()
    bench = json.loads(out.read_text())
    assert bench["workloads"] == {"report": {"kept": True}}
    entry = bench["aa"]["report"]
    assert entry["pairs_run"] == 2
    assert entry["metrics"]["run_s"]["change"]["median"] == 2.1
    assert entry["source_sha256"]["parent"] == bench_pairs.source_digest(parent)
    assert entry["source_sha256"]["change"] != entry["source_sha256"]["parent"]


def test_aa_deletes_its_copy_when_a_run_raises(tmp_path):
    parent = write_spec(tmp_path / "p")
    roots = []

    def run(root, workload, seed, seconds):
        roots.append(root)
        if root == parent:
            return fake_run({root: {seed: 2.0}})[0](root, workload, seed,
                                                    seconds)
        raise KeyError("a broken run")

    argv = ["--aa", "--parent", parent, "--workload", "report",
            "--seeds", "1", "--seconds", "1", "--out", str(tmp_path / "b.json")]
    with pytest.raises(KeyError):
        bench_pairs.main(argv, run=run)
    parent_run, copy = roots
    assert parent_run == parent and not pathlib.Path(copy).parent.exists()


def test_aa_and_change_exclude_each_other(tmp_path):
    parent = write_spec(tmp_path / "p")
    base = ["--parent", parent, "--workload", "report", "--seeds", "1",
            "--seconds", "1", "--out", str(tmp_path / "b.json")]
    for extra in ([], ["--aa", "--change", parent]):
        with pytest.raises(SystemExit):
            bench_pairs.main(base + extra)
