"""The tools under tools/ (tree_drift, bench_pairs, check_run, mutants), and
the tracer targets behind the benchmark's declared metrics."""

import io
import json
import py_compile
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bench_pairs  # noqa: E402
import check_run  # noqa: E402
import mutants  # noqa: E402
import geomind.cli  # noqa: E402,F401 - the tracer finds its targets in loaded modules
from geomind.config import load_config  # noqa: E402
import tracer  # noqa: E402
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


def test_tree_drift_fails_a_file_whose_bytes_differ_while_its_values_do_not(monkeypatch):
    # whitespace in JSON, and a float spelt otherwise in CSV: no value moves,
    # but the bytes do, so the file counts under other differences
    trees = {"parent": {"a.json": '{"x": [1.0, 2]}\n', "b.csv": "t,x\n0.5,1\n", "c.json": "[]"},
             "change": {"a.json": '{"x": [1.0,  2]}\n', "b.csv": "t,x\n0.50,1\n", "c.json": "[]"}}

    def fake_run(root, jobs):
        for _, out, _ in jobs:
            Path(out).mkdir(parents=True)
            for name, text in trees[root].items():
                (Path(out) / name).write_text(text)

    monkeypatch.setattr(tree_drift, "_run_root", fake_run)
    out = io.StringIO()
    assert tree_drift.compare("parent", "change", names=("survey",), seeds=(1,),
                              formats=("json",), out=out) == 1
    lines = out.getvalue().splitlines()
    for name in ("a.json", "b.csv"):
        assert (f"survey/seed1/json/{name}: max drift 0, 0 floats moved; other differences: "
                "the bytes differ, but no value does") in lines
    assert lines[-1] == ("summary: 3 files compared, 1 identical, 0 with moved floats "
                         "(max drift 0), 2 with other differences")


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
    learn = ("learn",)
    assert tree_drift.specs(("learn_churn",), (1, 2), ("json",)) == [
        ("learn_churn/seed1/json", "learn_churn", 1, learn, {"output": {"format": "json"}}),
        ("learn_churn/seed2/json", "learn_churn", 2, learn, {"output": {"format": "json"}}),
        ("learn_churn/seed1/long", "learn_churn", 1, learn, {"learning": {"cycles": 25}}),
        ("learn_churn/seed1/full", "learn_churn", 1, learn,
         {"field": tree_drift.full_covariances}),
        ("learn_churn/seed1/diagonal", "learn_churn", 1, learn,
         {"field": tree_drift.diagonal_lists})]
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
                     for tree, cycles in (("long", 25), ("full", 3), ("diagonal", 3))
                     for name in sorted(["error_curve.json"] + [f"field_cycle{k:04d}.json"
                                                                for k in range(cycles + 1)])] + [
        "summary: 37 files compared, 37 identical, 0 with moved floats (max drift 0), "
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


def test_diagonal_list_tree_loads_the_learn_field_as_diagonals(tmp_path):
    config = workloads.generate("learn_churn", 1, tmp_path)
    matrices = load_config(config).field.covariances
    field = json.loads((tmp_path / "field.json").read_text())
    tree_drift.diagonal_lists(field)
    (tmp_path / "field.json").write_text(json.dumps(field))
    diagonals = load_config(config).field.covariances
    n, d = diagonals.shape
    assert matrices.shape == (n, d, d) and d == 8
    assert np.array_equal(diagonals, np.diagonal(matrices, axis1=1, axis2=2))


def test_cognition_tree_is_the_seed_one_flow_config_with_a_non_identity_pipeline():
    compete = ("compete",)
    assert tree_drift.specs(("flow_sparse",), (1, 2), ("csv",)) == [
        ("flow_sparse/seed1/csv", "flow_sparse", 1, compete, {"output": {"format": "csv"}}),
        ("flow_sparse/seed2/csv", "flow_sparse", 2, compete, {"output": {"format": "csv"}}),
        ("flow_sparse/seed1/cognition", "flow_sparse", 1, compete,
         {"cognition": tree_drift.COGNITION}),
        ("flow_sparse/seed1/sphere/csv", "flow_sparse", 1, ("compete", "analyze", "geodesic"),
         {**tree_drift.SPHERE, "output": {"format": "csv"}}),
        ("flow_sparse/seed1/empty/csv", "flow_sparse", 1, compete,
         {"field": tree_drift.no_tokens, "output": {"format": "csv"}})]
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


def test_sphere_tree_runs_compete_analyze_and_geodesic_through_chart_exits(monkeypatch, tmp_path):
    # one tree: the flow_sparse json and cognition trees are dropped from the specs
    specs = tree_drift.specs
    monkeypatch.setattr(tree_drift, "specs", lambda *args: [
        spec for spec in specs(*args) if "/sphere/" in spec[0]])
    out = io.StringIO()
    assert tree_drift.compare(ROOT, ROOT, names=("flow_sparse",), seeds=(1,),
                              formats=("json",), out=out) == 0
    *lines, summary = out.getvalue().splitlines()
    seeds = json.loads(workloads.generate("flow_sparse", 1, tmp_path).read_text())[
        "simulation"]["seeds"]
    names = ["failure.json", "field_report.json", "geodesic_path.json",
             "geodesic_summary.json", "pca_projection.json", "selection.json"]
    assert lines == [f"flow_sparse/seed1/sphere/json/{name}: identical" for name in sorted(
        names + [f"trajectory_seed{seed}.json" for seed in seeds])]
    assert summary.startswith("summary: 22 files compared, 22 identical")


def test_empty_field_tree_runs_compete_on_flows_that_activate_nothing(monkeypatch, tmp_path):
    specs = tree_drift.specs
    monkeypatch.setattr(tree_drift, "specs", lambda *args: [
        spec for spec in specs(*args) if "/empty/" in spec[0]])
    out = io.StringIO()
    assert tree_drift.compare(ROOT, ROOT, names=("flow_sparse",), seeds=(1,),
                              formats=("json", "csv"), out=out) == 0
    *lines, summary = out.getvalue().splitlines()
    config = workloads.generate("flow_sparse", 1, tmp_path)
    seeds = json.loads(config.read_text())["simulation"]["seeds"]
    assert lines == [f"flow_sparse/seed1/empty/{fmt}/{name}: identical" for fmt in ("json", "csv")
                     for name in sorted(["selection.json"] + [f"trajectory_seed{seed}.{fmt}"
                                                               for seed in seeds])]
    assert summary.startswith(f"summary: {2 * len(seeds) + 2} files compared")
    # the tree's field has no token, so no sample of its flows has an id
    field = json.loads((tmp_path / "field.json").read_text())
    tree_drift.no_tokens(field)
    (tmp_path / "field.json").write_text(json.dumps(field))
    assert geomind.cli.main(["compete", "--config", str(config),
                             "--out", str(tmp_path / "out")]) == 0
    samples = json.loads((tmp_path / "out" / f"trajectory_seed{seeds[0]}.json").read_text())[
        "samples"]
    assert samples and not any("token_id" in sample for sample in samples)


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
        return {"workload": workload, "side": root,
                "machine": {"src_lines": 2554 if parent else 2529}}, line

    result = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "flow_dense",
                                   bench_pairs.parse_seeds("1-4"), run=fake_run)
    assert calls == [("P", 1), ("C", 1), ("C", 2), ("P", 2), ("P", 3), ("C", 3),
                     ("C", 4), ("P", 4)]
    assert result["info"] == {
        "parent": {"workload": "flow_dense", "side": "P", "machine": {"src_lines": 2554}},
        "change": {"workload": "flow_dense", "side": "C", "machine": {"src_lines": 2529}}}
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
    bench_pairs.report(summary, metrics, result["info"], out=out)
    lines = out.getvalue().splitlines()
    assert lines[1].split() == ["job_s", "parent", "8.75", "9.5", "10.25", "1"]
    # each side's source length sits next to its pairs
    assert lines[-2:] == ["parent: 1/80 failed, correct False, src_lines 2554",
                          "change: 0/80 failed, correct True, src_lines 2529"]


def test_bench_pairs_reads_seed_lists_and_ranges():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("1,3,11-12") == [1, 3, 11, 12]
    assert bench_pairs.parse_seeds("7") == [7]
    for bad in ("1-3,2", "", "a"):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(bad)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_bench_pairs_refuses_a_final_line_that_is_not_strict_json(monkeypatch, constant):
    # the benchmark refuses such a line, so a pair must not be summarised from it
    final = json.dumps(_final_line(0.05, 72.0)).replace("0.05", constant)

    def fake_subprocess_run(args, cwd, **kwargs):
        return subprocess.CompletedProcess(args, 0, stdout='{"workload": "learn_churn"}\n'
                                           + final + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    with pytest.raises(RuntimeError, match="fake_root: perfbench exited with status 0"):
        bench_pairs.run_once(Path("fake_root"), "learn_churn", 1)


def test_bench_pairs_refuses_roots_that_differ_in_current_bytecode(tmp_path, monkeypatch,
                                                                   capsys):
    # a root whose modules load from bytecode starts its jobs faster, so
    # such a pair is refused before any run
    roots = {side: tmp_path / side for side in bench_pairs.SIDES}
    for root in roots.values():
        (root / "src" / "geomind").mkdir(parents=True)
        for name in ("__init__", "manifold", "io"):
            (root / "src" / "geomind" / f"{name}.py").write_text(f"NAME = {name!r}\n")
    for name in ("__init__", "manifold"):
        py_compile.compile(str(roots["parent"] / "src" / "geomind" / f"{name}.py"), doraise=True,
                           invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
    assert bench_pairs.current_pycs(roots["parent"]) == 2
    assert bench_pairs.current_pycs(roots["change"]) == 0
    # bytecode of a source that changed since is not current
    (roots["parent"] / "src" / "geomind" / "manifold.py").write_text("NAME = 'changed'\n")
    assert bench_pairs.current_pycs(roots["parent"]) == 1

    def no_run(*args):
        raise AssertionError("bench_pairs ran a pair of unfair roots")

    monkeypatch.setattr(bench_pairs, "run_pairs", no_run)
    assert bench_pairs.main([str(roots["parent"]), str(roots["change"]),
                             "--workload", "survey", "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{roots['parent']} holds 1 and {roots['change']} 0 modules" in err


def _run_output(traced: bool, names=None, **final) -> str:
    """A perfbench stdout: its first line, a table line, and a result line
    carrying a metric of value 1.5 per name, by default every name the
    benchmark declares for the trace mode."""
    if names is None:
        names = [m["name"] for m in bench_pairs.BENCHMARK["per_layer" if traced else "end_to_end"]]
    line = {"correct": True, "attempted": 12, "failed": 0,
            "metrics": {name: {"value": 1.5, "unit": "s"} for name in names}, **final}
    return "\n".join([json.dumps({"workload": "survey", "trace": int(traced)}),
                      "fail_ratio 0/12 = 0.0000", json.dumps(line)]) + "\n"


@pytest.mark.parametrize("traced", [False, True])
def test_check_run_accepts_a_strict_result_with_the_declared_metrics(traced):
    assert check_run.faults(_run_output(traced)) == []


def test_check_run_names_every_fault_of_a_result_line():
    names = [m["name"] for m in bench_pairs.BENCHMARK["per_layer"]]
    # a metric lost and one added, a run not correct, and values that are not finite numbers
    text = _run_output(True, names[1:] + ["extra.calls"], correct=False)
    for name, value in ((names[1], "1e999"), (names[2], "null"), (names[3], "true"),
                        (names[4], '"1.5"')):
        text = text.replace(f'"{name}": {{"value": 1.5', f'"{name}": {{"value": {value}')
    assert check_run.faults(text) == [
        "correct is False, not true",
        f"metric names differ from BENCHMARK.json: missing ['{names[0]}'], extra ['extra.calls']",
        f"{names[1]}: value inf is not a finite number",
        f"{names[2]}: value None is not a finite number",
        f"{names[3]}: value True is not a finite number",
        f"{names[4]}: value '1.5' is not a finite number"]
    # an untraced run is held to the end-to-end names
    assert check_run.faults(_run_output(False, names))[0].startswith(
        "metric names differ from BENCHMARK.json: missing ['job_s', 'peak_rss_mb', 'setup_s']")


@pytest.mark.parametrize("text", [
    _run_output(True).replace('"value": 1.5', '"value": NaN', 1),
    _run_output(True).replace('"value": 1.5', '"value": -Infinity', 1),
    _run_output(True) + "traceback\n",
    _run_output(True).split("\n", 1)[1],
    ""], ids=["nan", "-infinity", "output-after-the-line", "no-first-line", "empty"])
def test_check_run_refuses_output_without_a_strict_result_line(text):
    faults = check_run.faults(text)
    assert len(faults) == 1 and faults[0].startswith(
        "no first line with a trace flag and a strict JSON last line")


def test_tracer_installs_every_span_behind_a_declared_metric():
    # the tracer skips a target that no longer resolves, such as a renamed
    # function, and a traced run then lacks its metrics and is refused
    spans = {"geodesic.shot"}  # behind geodesic.shots
    for metric in bench_pairs.BENCHMARK["per_layer"]:
        span, _, kind = metric["name"].rpartition(".")
        if kind in ("calls", "self_s", "calls_per_rk4_step"):
            spans.add(span)
    trace = tracer.Tracer()
    trace.install()
    try:
        installed = set(trace.installed)
    finally:
        trace.uninstall()
    assert sorted(spans - installed) == []


def test_mutant_table_matches_the_source():
    # each old text occurs once, so every mutant of the gate still applies
    table = mutants.load_table(mutants.TABLE)
    for row in table:
        assert (ROOT / row["file"]).read_text().count(row["old"]) == 1, row["name"]
        assert row["new"] != row["old"], row["name"]


def _mutant(name):
    return next(row for row in mutants.load_table(mutants.TABLE) if row["name"] == name)


def test_mutants_kills_a_fast_mutant_and_names_a_comment_only_survivor(tmp_path, monkeypatch):
    fast = _mutant("acceleration-scaled")
    comment = dict(fast, name="comment-only", old="# f - e is f + (-e)", new="# f - e is f + -e")
    (tmp_path / "table.json").write_text(json.dumps([fast, comment]))
    before = (ROOT / fast["file"]).read_bytes()
    out = io.StringIO()
    assert mutants.run(mutants.load_table(tmp_path / "table.json"), out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("killed   acceleration-scaled (")
    assert lines[1].startswith("SURVIVED comment-only (")
    assert lines[2] == "1 of 2 mutants killed; survivors: comment-only"
    # a mutant that makes its test hang is stopped and counts as killed
    monkeypatch.setattr(mutants, "TIMEOUT_FACTOR", 2)
    hang = dict(fast, name="hang", new="while True:\n        pass")
    out = io.StringIO()
    assert mutants.run([hang], out) == 0
    assert out.getvalue().splitlines()[0].startswith("timeout  hang (")
    assert out.getvalue().splitlines()[1] == "1 of 1 mutants killed"
    # the tool mutates a copy, never the repository
    assert (ROOT / fast["file"]).read_bytes() == before


def test_mutants_refuses_a_stale_table(tmp_path, monkeypatch, capsys):
    (tmp_path / "table.json").write_text(json.dumps([dict(_mutant("acceleration-scaled"),
                                                          old="no such text")]))
    monkeypatch.setattr(mutants, "TABLE", tmp_path / "table.json")
    assert mutants.main() == 2
    assert "acceleration-scaled: the old text occurs 0 times" in capsys.readouterr().err
