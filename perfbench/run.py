"""geomind benchmark: one workload, one seed, one timed run.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The run generates the workload's inputs from the seed, then starts fresh
worker processes one after another (a closed loop with one client). Each
worker imports geomind from ./src, loads the config and repeats the
workload's CLI commands until its share of --seconds is spent. Every
repeat is checked for correctness.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced workers and reports the per-layer metrics, the tracing overhead
and whether traced outputs are byte-identical to untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit status is 0 only when
every job passed the checker.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKERS = 6
MIN_REPS = 2
BLAS_THREADS = "1"
# Nominal time of worker.reference_kernel on an idle 2-CPU Xeon (Sapphire
# Rapids, KVM guest); end-to-end times are reported at this speed.
REFERENCE_S = 0.0025

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Spans reported as <span>.calls and <span>.self_s; set-up spans are timed
# in the worker's set-up, the others per repeat.
CALLS = ("manifold.density", "manifold.christoffel", "manifold.nearest",
         "manifold.curvature", "geodesic.rk4_step", "geodesic.solve",
         "cognition.cycle", "cognition.attention", "cognition.sample",
         "mind.flow", "mind.learn_update", "io.export")
SELF = CALLS + ("mind.analyze", "geodesic.path_energy", "cli",
                "config.load", "io.load_field")
SETUP_SPANS = ("config.load", "io.load_field")


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor(),
            "caches": {}, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": BLAS_THREADS}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    head = ROOT / ".git"
    info["git_commit"] = "unknown"
    if head.exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            info["git_commit"] = proc.stdout.strip()
    info["src_lines"] = sum(len(p.read_text().splitlines())
                            for p in sorted((SRC / "geomind").glob("*.py")))
    return info


def run_worker(index: int, traced: bool, budget: float, config_path: Path,
               commands, work: Path) -> dict:
    wdir = work / f"worker{index}"
    wdir.mkdir()
    spec = {"src": str(SRC), "config": str(config_path), "commands": list(commands),
            "out_root": str(wdir), "budget_s": budget, "min_reps": MIN_REPS,
            "trace": traced}
    (wdir / "spec.json").write_text(json.dumps(spec) + "\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    with open(wdir / "stderr.txt", "wb") as err:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(wdir / "spec.json")],
                              cwd=ROOT, env=env, stdout=err, stderr=err,
                              timeout=budget + 90)
    if proc.returncode != 0 or not (wdir / "result.json").exists():
        sys.stderr.write((wdir / "stderr.txt").read_text(errors="replace")[-4000:])
        raise RuntimeError(f"worker {index} exited with status {proc.returncode}")
    result = json.loads((wdir / "result.json").read_text())
    result["traced"] = traced
    result["problems"] = checker.check_job(wdir / "rep0", result["reps"][0]["statuses"],
                                           json.loads(config_path.read_text()))
    if "field_report.json" in {p.name for p in (wdir / "rep0").iterdir()}:
        report = checker.strict_load(wdir / "rep0" / "field_report.json")
        result["grid_points"] = len(report["curvature_samples"])
    shutil.rmtree(wdir / "rep0")
    return result


def judge(results) -> tuple[int, int, list[str]]:
    """Count jobs and failed jobs. A job fails on a non-zero exit, a checker
    problem in its worker's first repeat, or a digest that differs from the
    run's first untraced repeat; traced repeats are held to the same digest,
    so tracing must leave the outputs byte-identical."""
    reference = results[0]["reps"][0]["digest"]
    attempted = failed = 0
    notes = []
    for i, res in enumerate(results):
        for k, rep in enumerate(res["reps"]):
            attempted += 1
            why = [f"{cmd}: {err.strip().splitlines()[-1]}" for cmd, err in rep["errors"].items()]
            why += [f"{cmd}: exit {st}" for cmd, st in rep["statuses"].items() if st != 0]
            if rep["digest"] != reference:
                why.append("outputs differ from the first repeat"
                           + (" (traced)" if res["traced"] else ""))
            if res["problems"]:
                why += res["problems"]
            if why:
                failed += 1
                notes.append(f"worker {i} repeat {k}: " + "; ".join(dict.fromkeys(why)))
    return attempted, failed, notes


def _scales(result) -> list[float]:
    """Per repeat, REFERENCE_S over the mean reference-kernel time measured
    just before and just after it in the same worker."""
    ref = result["reference_s"]
    return [REFERENCE_S / (0.5 * (ref[k] + ref[k + 1])) for k in range(len(result["reps"]))]


def _job_seconds(results) -> list[float]:
    return [sum(rep["seconds"].values()) * scale
            for r in results for rep, scale in zip(r["reps"], _scales(r))]


def end_to_end(results) -> dict[str, list[float]]:
    """Samples of every end-to-end metric, then, for the printed table only,
    each command's time and the raw wall times.

    Times are rescaled to the reference speed: each is divided by the mean
    time of the reference kernel measured just before and just after it in
    the same worker and multiplied by REFERENCE_S. Other tenants of a shared machine slow the
    job and the kernel alike, so the quotient stays put while a change to
    geomind moves it.
    """
    untraced = [r for r in results if not r["traced"]]
    samples = {
        "job_s": _job_seconds(untraced),
        "setup_s": [(r["import_s"] + r["load_s"]) * REFERENCE_S
                    / (0.5 * (r["setup_reference_s"] + r["reference_s"][0])) for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    for command in untraced[0]["reps"][0]["seconds"]:
        samples[f"{command}_s"] = [rep["seconds"][command] * scale for r in untraced
                                   for rep, scale in zip(r["reps"], _scales(r))]
    samples["job_wall_s"] = [sum(rep["seconds"].values()) for r in untraced for rep in r["reps"]]
    samples["setup_wall_s"] = [r["import_s"] + r["load_s"] for r in untraced]
    samples["reference_wall_s"] = [t for r in untraced for t in r["reference_s"]]
    return samples


def per_layer(results, notes) -> dict[str, tuple[float, str]]:
    traced = [r for r in results if r["traced"]]
    installed = set(traced[0]["installed"])
    setups = [r["layers"].get("0", {}) for r in traced]
    jobs = [stats for r in traced for job, stats in r["layers"].items() if job != "0"]
    counts = [{name: v[0] if isinstance(v, list) else v for name, v in stats.items()}
              for stats in jobs]
    if any(c != counts[0] for c in counts):
        notes.append("span counts differ between repeats of the same job")
    first = counts[0]

    def self_s(name, source):
        return statistics.median(s.get(name, [0, 0.0])[1] for s in source)

    metrics = {}
    for name in CALLS:
        if name in installed:
            metrics[f"{name}.calls"] = (first.get(name, 0), "count")
    for name in SELF:
        if name in installed:
            source = setups if name in SETUP_SPANS else jobs
            metrics[f"{name}.self_s"] = (self_s(name, source), "s")
    if {"manifold.density", "geodesic.rk4_step"} <= installed:
        steps = first.get("geodesic.rk4_step", 0)
        metrics["manifold.density.calls_per_rk4_step"] = (
            first["density_in_rk4"] / steps if steps else 0.0, "1")
    if "geodesic.shot" in installed:
        shots = first.get("geodesic.shot", 0)
        solves = first.get("geodesic.solve", 0)
        metrics["geodesic.shots"] = (shots, "count")
        metrics["geodesic.shots_per_solve"] = (shots / solves if solves else 0.0, "1")
    metrics["mind.analyze.grid_points"] = (traced[0].get("grid_points", 0), "count")
    metrics["io.bytes_written"] = (traced[0]["reps"][0]["bytes"], "B")
    untraced_job = statistics.median(_job_seconds(r for r in results if not r["traced"]))
    metrics["trace.overhead_ratio"] = (statistics.median(_job_seconds(traced)) / untraced_job, "1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geomind" / "__init__.py").is_file():
        print(f"perfbench: no geomind package under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    config_path = workloads.generate(workload.name, args.seed, work / "inputs")

    plan = [False, True] * (WORKERS // 2) if args.trace else [False] * WORKERS
    results = []
    deadline = time.perf_counter() + args.seconds
    for i, traced in enumerate(plan):
        budget = max(0.0, deadline - time.perf_counter()) / (len(plan) - i)
        try:
            results.append(run_worker(i, traced, budget, config_path, workload.commands, work))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    attempted, failed, notes = judge(results)
    if args.trace:
        metrics = per_layer(results, notes)
    else:
        samples = end_to_end(results)
        metrics = {name: (statistics.median(samples[name]), unit)
                   for name, unit in END_TO_END.items()}

    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "sizes": workload.sizes, "isolates": workload.isolates, "machine": machine()}
    print(json.dumps(info))
    if not args.trace:
        print(f"{'metric':<16}{'unit':>6}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
        for name, values in samples.items():
            unit = END_TO_END.get(name, "s")
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            print(f"{name:<16}{unit:>6}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(values):>5}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"{name:<40}{unit:>6}{value:>14.6g}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for note in notes:
        print(f"FAIL {note}")
    correct = failed == 0 and not notes
    (work / "summary.json").write_text(json.dumps({**info, "notes": notes}, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
