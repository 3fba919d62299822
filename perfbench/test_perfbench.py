"""Tests of the benchmark itself: generator, checker, tracer and job judging.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import geomind  # noqa: E402
import geomind.cli  # noqa: E402
import geomind.config  # noqa: E402

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = _files(workloads.generate(name, 7, tmp_path / "a").parent)
    b = _files(workloads.generate(name, 7, tmp_path / "b").parent)
    c = _files(workloads.generate(name, 8, tmp_path / "c").parent)
    assert a == b
    assert a["field.json"] != c["field.json"]
    assert a.keys() == c.keys()


@pytest.fixture
def demo_job(tmp_path):
    """A small compete job on the demo field, run through the CLI entry point."""
    field = {"dimension": 2, "bandwidth": 1.0, "epsilon": 0.5, "tokens": [
        {"id": 1, "mean": [0.0, 0.0]}, {"id": 2, "mean": [2.0, 0.0]},
        {"id": 3, "mean": [1.0, 1.5]}]}
    config = {"field": "field.json",
              "cognition": {"kappa": 0.5, "beta": 0.3, "feedback_gain": 0.2},
              "simulation": {"steps": 5, "dt": 0.01, "seeds": [1, 2],
                             "start": [0.0, 0.0], "velocity": [0.3, 0.2]},
              "competition": {"threshold": -1.0}}
    (tmp_path / "field.json").write_text(json.dumps(field))
    (tmp_path / "config.json").write_text(json.dumps(config))
    cfg = geomind.config.load_config(tmp_path / "config.json", out_override=tmp_path / "out")
    return cfg, config


def test_checker_accepts_a_correct_job(demo_job):
    cfg, config = demo_job
    assert geomind.cli.run("compete", cfg) == 0
    assert checker.check_job(cfg.out_dir, {"compete": 0}, config) == []


def test_checker_rejects_nan_missing_file_and_bad_status(demo_job):
    cfg, config = demo_job
    geomind.cli.run("compete", cfg)
    selection = cfg.out_dir / "selection.json"
    selection.write_text(selection.read_text().replace('"threshold": -1.0', '"threshold": NaN'))
    (cfg.out_dir / "trajectory_seed2.json").unlink()
    problems = checker.check_job(cfg.out_dir, {"compete": 1}, config)
    assert any("NaN" in p for p in problems)
    assert "missing trajectory_seed2.json" in problems
    assert "compete: exit status 1" in problems


def test_checker_rejects_truncated_trajectory(demo_job):
    cfg, config = demo_job
    geomind.cli.run("compete", cfg)
    path = cfg.out_dir / "trajectory_seed1.json"
    path.write_text(path.read_text().replace('"truncated": false', '"truncated": true'))
    assert checker.check_job(cfg.out_dir, {"compete": 0}, config) == [
        "trajectory_seed1.json: trajectory is truncated"]


def _rep(digest):
    return {"seconds": {"compete": 1.0}, "statuses": {"compete": 0}, "errors": {},
            "digest": digest, "bytes": 10}


def test_judge_rejects_a_mismatched_hash():
    results = [{"traced": False, "problems": [], "reps": [_rep("a"), _rep("a")]},
               {"traced": True, "problems": [], "reps": [_rep("a"), _rep("b")]}]
    attempted, failed, notes = run.judge(results)
    assert (attempted, failed) == (4, 1)
    assert notes == ["worker 1 repeat 1: outputs differ from the first repeat (traced)"]


def test_digest_changes_with_one_byte(demo_job):
    cfg, _ = demo_job
    geomind.cli.run("compete", cfg)
    before = checker.tree_digest(cfg.out_dir)
    path = cfg.out_dir / "selection.json"
    path.write_bytes(path.read_bytes() + b" ")
    after = checker.tree_digest(cfg.out_dir)
    assert before[0] != after[0] and after[1] == before[1] + 1


def test_traced_flow_counts_every_binding_site(demo_job):
    cfg, config = demo_job
    seeds, steps = len(config["simulation"]["seeds"]), config["simulation"]["steps"]
    original = geomind.cognition.geodesic_step
    trace = tracer.Tracer()
    trace.install()
    try:
        assert geomind.cognition.geodesic_step is not original
        assert geomind.geodesic.geodesic_step is geomind.cognition.geodesic_step
        trace.job = 1
        geomind.cli.run("compete", cfg)
    finally:
        trace.uninstall()
    assert geomind.cognition.geodesic_step is original
    stats = tracer.summarize(trace.spans)[1]
    assert stats["geodesic.rk4_step"][0] == seeds * steps
    assert stats["manifold.christoffel"][0] == 4 * seeds * steps
    assert stats["manifold.density"][0] == 12 * seeds * steps
    assert stats["density_in_rk4"] == 12 * seeds * steps
    assert stats["cognition.cycle"][0] == seeds * steps
    assert stats["mind.flow"][0] == seeds
    assert stats["cli"][0] == 1
    assert stats["manifold.nearest"][0] == seeds * (steps + 1)


def test_traced_outputs_are_byte_identical(demo_job, tmp_path):
    cfg, _ = demo_job
    geomind.cli.run("compete", cfg)
    trace = tracer.Tracer()
    trace.install()
    try:
        geomind.cli.run("compete", dataclasses.replace(cfg, out_dir=tmp_path / "traced"))
    finally:
        trace.uninstall()
    assert checker.tree_digest(cfg.out_dir) == checker.tree_digest(tmp_path / "traced")


def test_missing_target_is_skipped():
    trace = tracer.Tracer()
    trace.install(targets=(("gone", "geomind.manifold", "no_such_function"),
                           ("gone.method", "geomind.manifold", "TokenField.no_such_method"),
                           ("gone.module", "geomind.no_such_module", "f")))
    trace.uninstall()
    assert trace.installed == set()


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    spans = [["outer", -1, 1, 0.0, 10.0],
             ["a", 0, 1, 1.0, 4.0],
             ["c", 1, 1, 2.0, 3.0],
             ["b", 0, 1, 5.0, 9.0]]
    stats = tracer.summarize(spans)[1]
    assert stats["outer"] == [1, 3.0]
    assert stats["a"] == [1, 2.0]
    assert stats["c"] == [1, 1.0]
    assert stats["b"] == [1, 4.0]


def test_wrapped_calls_nest_under_a_fake_clock():
    ticks = iter(range(100))
    trace = tracer.Tracer(clock=lambda: float(next(ticks)))

    inner = trace.wrap("inner", lambda: None)
    outer = trace.wrap("outer", lambda: (inner(), inner()))
    trace.job = 3
    outer()
    # outer starts at 0, inners span [1, 2] and [3, 4], outer ends at 5
    assert trace.spans == [["outer", -1, 3, 0.0, 5.0], ["inner", 0, 3, 1.0, 2.0],
                           ["inner", 0, 3, 3.0, 4.0]]
    stats = tracer.summarize(trace.spans)[3]
    assert stats["outer"] == [1, 3.0]
    assert stats["inner"] == [2, 2.0]
