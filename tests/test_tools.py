"""tools/tree_drift.py: the output-tree comparison between two source roots."""

import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import tree_drift  # noqa: E402
import workloads  # noqa: E402


def test_tree_drift_finds_a_root_identical_to_itself():
    out = io.StringIO()
    assert tree_drift.compare(ROOT, ROOT, names=("survey",), seeds=(1,), out=out) == 0
    lines = out.getvalue().splitlines()
    files = {line.split(":")[0] for line in lines}
    assert files == {f"survey/seed1/{fmt}/{name}" for fmt, names in (
        ("json", ("field_report.json", "geodesic_path.json", "geodesic_summary.json",
                  "pca_projection.json")),
        ("csv", ("field_report.json", "geodesic_path.csv", "geodesic_summary.json",
                 "pca_projection.csv"))) for name in names}
    assert all(line.endswith(": identical") for line in lines)


def test_walk_measures_float_drift_and_reports_other_differences():
    drift, problems = [], []
    tree_drift._walk({"a": [1.0, 2.0], "n": 3}, {"a": [1.0, 2.5], "n": 3}, "f", drift, problems)
    assert (drift, problems) == ([0.5], [])
    for old, new in (({"n": 3}, {"n": 4}), ({"n": 3}, {"n": 3.0}), ([1.0], [1.0, 2.0]),
                     ({"a": 1}, {"b": 1}), ({"s": "x"}, {"s": None})):
        drift, problems = [], []
        tree_drift._walk(old, new, "f", drift, problems)
        assert problems, (old, new)


def test_long_learn_tree_is_the_seed_one_learn_config_at_25_cycles():
    assert tree_drift.specs(("learn_churn",), (1, 2), ("json",)) == [
        ("learn_churn/seed1/json", "learn_churn", 1, ("output", {"format": "json"})),
        ("learn_churn/seed2/json", "learn_churn", 2, ("output", {"format": "json"})),
        ("learn_churn/seed1/long", "learn_churn", 1, ("learning", {"cycles": 25}))]
    assert [tree for tree, *_ in tree_drift.specs(("survey",), (1,), ("json",))] == [
        "survey/seed1/json"]
    assert [tree for tree, *_ in tree_drift.specs(("learn_churn",), (2,), ("json",))] == [
        "learn_churn/seed2/json"]


def test_tree_drift_runs_the_long_learn_tree():
    out = io.StringIO()
    assert tree_drift.compare(ROOT, ROOT, names=("learn_churn",), seeds=(1,), formats=(),
                              out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines == [f"learn_churn/seed1/long/{name}: identical" for name in sorted(
        ["error_curve.json"] + [f"field_cycle{k:04d}.json" for k in range(26)])]


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
        ["selection.json"] + [f"trajectory_seed{seed}.json" for seed in seeds])]
