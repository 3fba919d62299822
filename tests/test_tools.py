"""tools/tree_drift.py: the output-tree comparison between two source roots."""

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
from geomind.config import load_config  # noqa: E402
import tree_drift  # noqa: E402
import workloads  # noqa: E402


def test_tree_drift_finds_a_root_identical_to_itself():
    out = io.StringIO()
    assert tree_drift.compare(ROOT, ROOT, names=("survey",), seeds=(1,), out=out) == 0
    *lines, summary = out.getvalue().splitlines()
    assert summary == ("summary: 8 files compared, 8 identical, 0 with moved floats "
                       "(max drift 0), 0 with other differences")
    files = {line.split(":")[0] for line in lines}
    assert files == {f"survey/seed1/{fmt}/{name}" for fmt, names in (
        ("json", ("field_report.json", "geodesic_path.json", "geodesic_summary.json",
                  "pca_projection.json")),
        ("csv", ("field_report.json", "geodesic_path.csv", "geodesic_summary.json",
                 "pca_projection.csv"))) for name in names}
    assert all(line.endswith(": identical") for line in lines)


def test_tree_drift_summary_counts_moved_and_other_files(monkeypatch):
    trees = {"parent": {"a.json": {"x": 1.0}, "b.json": {"n": 1}, "c.json": [2.0],
                        "only.json": {}},
             "change": {"a.json": {"x": 1.5}, "b.json": {"n": 2}, "c.json": [2.0]}}

    def fake_run(root, jobs):
        for _, out, _ in jobs:
            Path(out).mkdir(parents=True)
            for name, value in trees[root].items():
                (Path(out) / name).write_text(json.dumps(value))

    monkeypatch.setattr(tree_drift, "_run_root", fake_run)
    out = io.StringIO()
    assert tree_drift.compare("parent", "change", names=("survey",), seeds=(1,),
                              formats=("json",), out=out) == 1
    assert out.getvalue().splitlines()[-1] == (
        "summary: 3 files compared, 1 identical, 1 with moved floats (max drift 0.5), "
        "2 with other differences")


def test_walk_measures_float_drift_and_reports_other_differences():
    drift, problems = [], []
    tree_drift._walk({"a": [1.0, 2.0], "n": 3}, {"a": [1.0, 2.5], "n": 3}, "f", drift, problems)
    assert (drift, problems) == ([0.5], [])
    drift, problems = [], []
    tree_drift._walk({"a": [-0.0]}, {"a": [0.0]}, "f", drift, problems)
    assert (drift, problems) == ([0.0], [])
    for old, new in (({"n": 3}, {"n": 4}), ({"n": 3}, {"n": 3.0}), ([1.0], [1.0, 2.0]),
                     ({"a": 1}, {"b": 1}), ({"s": "x"}, {"s": None})):
        drift, problems = [], []
        tree_drift._walk(old, new, "f", drift, problems)
        assert problems, (old, new)


def test_long_learn_tree_is_the_seed_one_learn_config_at_25_cycles():
    assert tree_drift.specs(("learn_churn",), (1, 2), ("json",)) == [
        ("learn_churn/seed1/json", "learn_churn", 1, ("output", {"format": "json"})),
        ("learn_churn/seed2/json", "learn_churn", 2, ("output", {"format": "json"})),
        ("learn_churn/seed1/long", "learn_churn", 1, ("learning", {"cycles": 25})),
        ("learn_churn/seed1/full", "learn_churn", 1, ("field", tree_drift.full_covariances))]
    assert [tree for tree, *_ in tree_drift.specs(("survey",), (1,), ("json",))] == [
        "survey/seed1/json"]
    assert [tree for tree, *_ in tree_drift.specs(("learn_churn",), (2,), ("json",))] == [
        "learn_churn/seed2/json"]


def test_tree_drift_runs_the_long_learn_tree():
    out = io.StringIO()
    assert tree_drift.compare(ROOT, ROOT, names=("learn_churn",), seeds=(1,), formats=(),
                              out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines == [f"learn_churn/seed1/{tree}/{name}: identical"
                     for tree, cycles in (("long", 25), ("full", 3)) for name in sorted(
                         ["error_curve.json"] + [f"field_cycle{k:04d}.json"
                                                 for k in range(cycles + 1)])] + [
        "summary: 32 files compared, 32 identical, 0 with moved floats (max drift 0), "
        "0 with other differences"]


def test_full_covariance_tree_has_no_diagonal_covariance(tmp_path):
    config = workloads.generate("learn_churn", 1, tmp_path)
    field = json.loads((tmp_path / "field.json").read_text())
    tree_drift.full_covariances(field)
    (tmp_path / "field.json").write_text(json.dumps(field))
    covariances = load_config(config).field.covariances
    n, d = covariances.shape[:2]
    off = covariances.reshape(n, d * d)[:, ~np.eye(d, dtype=bool).ravel()]
    assert np.all(off[1:] != 0.0)
    # the first token's off-diagonals are zero, (0, 1) and (1, 0) -0.0
    signs = np.zeros((d, d), dtype=bool)
    signs[0, 1] = signs[1, 0] = True
    assert not off[0].any() and np.array_equal(np.signbit(covariances[0]), signs)


def test_cognition_tree_is_the_seed_one_flow_config_with_a_non_identity_pipeline():
    assert tree_drift.specs(("flow_sparse",), (1, 2), ("csv",)) == [
        ("flow_sparse/seed1/csv", "flow_sparse", 1, ("output", {"format": "csv"})),
        ("flow_sparse/seed2/csv", "flow_sparse", 2, ("output", {"format": "csv"})),
        ("flow_sparse/seed1/cognition", "flow_sparse", 1, ("cognition", tree_drift.COGNITION))]
    assert [tree for tree, *_ in tree_drift.specs(("flow_sparse",), (2,), ())] == []
    pipeline = tree_drift.COGNITION
    for name in ("value_matrix", "predictor_matrix"):
        assert not np.array_equal(pipeline[name], np.eye(2)), name
    assert np.any(pipeline["bias"])
    assert (pipeline["activation"], pipeline["context_capacity"]) == ("tanh", 4)


def test_tree_drift_runs_the_cognition_tree(tmp_path):
    out = io.StringIO()
    assert tree_drift.compare(ROOT, ROOT, names=("flow_sparse",), seeds=(1,), formats=(),
                              out=out) == 0
    lines = out.getvalue().splitlines()
    seeds = json.loads(workloads.generate("flow_sparse", 1, tmp_path).read_text())[
        "simulation"]["seeds"]
    assert lines == [f"flow_sparse/seed1/cognition/{name}: identical" for name in sorted(
        ["selection.json"] + [f"trajectory_seed{seed}.json" for seed in seeds])] + [
        f"summary: {len(seeds) + 1} files compared, {len(seeds) + 1} identical, 0 with moved "
        "floats (max drift 0), 0 with other differences"]


def _final_line(job_s, rss, failed=0):
    return {"correct": failed == 0, "attempted": 20, "failed": failed,
            "metrics": {"job_s": {"value": job_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_bench_pairs_alternates_the_sides_and_summarises_the_final_lines():
    calls = []

    def fake_run(root, workload, seed):
        calls.append((root, seed))
        parent = root == "P"
        job_s = {1: (10.0, 6.0), 2: (9.0, 9.0), 3: (11.0, 5.0), 4: (8.0, 8.5)}[seed][
            0 if parent else 1]
        line = _final_line(job_s, 76.0 if parent else 76.5, failed=int(seed == 3 and parent))
        return {"workload": workload, "side": root}, line

    result = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "flow_dense",
                                   bench_pairs.parse_seeds("1-4"), run=fake_run)
    assert calls == [("P", 1), ("C", 1), ("C", 2), ("P", 2), ("P", 3), ("C", 3),
                     ("C", 4), ("P", 4)]
    assert result["info"] == {"parent": {"workload": "flow_dense", "side": "P"},
                              "change": {"workload": "flow_dense", "side": "C"}}
    metrics = [{"name": "job_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]
    summary = bench_pairs.summarise(result["runs"], metrics)
    # job_s: the change wins seeds 1 and 3, ties seed 2 and loses seed 4
    assert summary["job_s"] == {
        "pairs": 4, "change_won": 2, "parent_won": 1,
        "parent": {"q1": 8.75, "median": 9.5, "q3": 10.25},
        "change": {"q1": 5.75, "median": 7.25, "q3": 8.625}}
    assert (summary["peak_rss_mb"]["change_won"], summary["peak_rss_mb"]["parent_won"]) == (0, 4)
    assert summary["parent"] == {"attempted": 80, "failed": 1, "correct": False}
    assert summary["change"] == {"attempted": 80, "failed": 0, "correct": True}
    higher = bench_pairs.summarise(result["runs"], [{"name": "job_s", "better": "higher"}])
    assert (higher["job_s"]["change_won"], higher["job_s"]["parent_won"]) == (1, 2)
    out = io.StringIO()
    bench_pairs.report(summary, metrics, out=out)
    assert out.getvalue().splitlines()[1].split() == [
        "job_s", "parent", "8.75", "9.5", "10.25", "1"]


def test_bench_pairs_reads_seed_lists_and_ranges():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("1,3,11-12") == [1, 3, 11, 12]
    assert bench_pairs.parse_seeds("7") == [7]
    for bad in ("1-3,2", "", "a"):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(bad)
