"""tools/tree_drift.py: the output-tree comparison between two source roots."""

import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import tree_drift  # noqa: E402


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
