"""Benchmark worker: one fresh process that sets geomind up and runs a
workload's commands repeatedly until its time budget is spent.

Usage: python3 perfbench/worker.py <spec.json>

The spec names the geomind source tree, the generated config, the commands,
the output root, the time budget and whether to trace. The worker writes
result.json (and spans.json when traced) next to the spec. Each repeat
writes into its own directory; the first is kept for the full output check
and later ones are hashed and removed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checker
import tracer


def reference_kernel() -> float:
    """Fixed work that never touches geomind: small-vector numpy calls in a
    Python loop, then passes over a 2,500 x 16 array, the two kinds of work
    the workloads do. Timed between jobs, it measures how fast the machine
    runs right now."""
    import numpy as np  # already loaded by geomind; importing it here keeps it in setup_s

    small = np.arange(3.0)
    acc = 0.0
    for _ in range(400):
        acc += float((np.exp(-small * 0.5) + small) @ small)
    big = np.linspace(0.0, 1.0, 40_000).reshape(2_500, 16)
    for i in range(16):
        diff = big - big[i]
        acc += float(np.exp(-np.einsum("nd,nd->n", diff, diff)).sum())
    return acc


def reference_seconds(repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(spec_path: str) -> int:
    started = time.perf_counter()
    spec_file = Path(spec_path)
    spec = json.loads(spec_file.read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import geomind
    import geomind.cli
    import geomind.config
    import_s = time.perf_counter() - t0
    if Path(geomind.__file__).resolve().parent != src / "geomind":
        print(f"worker: imported geomind from {geomind.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    setup_reference_s = reference_seconds()

    trace = None
    if spec["trace"]:
        trace = tracer.Tracer()
        trace.install()

    out_root = Path(spec["out_root"])
    t0 = time.perf_counter()
    config = geomind.config.load_config(spec["config"], out_override=out_root / "rep0")
    load_s = time.perf_counter() - t0
    references = [reference_seconds()]

    reps = []
    while True:
        k = len(reps)
        cfg = dataclasses.replace(config, out_dir=out_root / f"rep{k}")
        if trace is not None:
            trace.job = k + 1
        seconds, statuses, errors = {}, {}, {}
        for command in spec["commands"]:
            t0 = time.perf_counter()
            try:
                statuses[command] = geomind.cli.run(command, cfg)
            except Exception:
                # the CLI would exit non-zero here; record it as a failed job
                statuses[command] = 1
                errors[command] = traceback.format_exc()
            seconds[command] = time.perf_counter() - t0
        references.append(reference_seconds())
        digest, size = checker.tree_digest(cfg.out_dir)
        if k > 0:
            shutil.rmtree(cfg.out_dir, ignore_errors=True)
        reps.append({"seconds": seconds, "statuses": statuses, "errors": errors,
                     "digest": digest, "bytes": size})
        typical = statistics.median(sum(r["seconds"].values()) for r in reps)
        if (len(reps) >= spec["min_reps"]
                and time.perf_counter() - started + typical > spec["budget_s"]):
            break

    result = {
        "import_s": import_s,
        "load_s": load_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "reps": reps,
        "setup_reference_s": setup_reference_s,
        "reference_s": references,
    }
    if trace is not None:
        trace.uninstall()
        result["installed"] = sorted(trace.installed)
        result["layers"] = tracer.summarize(trace.spans)
        trace.write(spec_file.with_name("spans.json"))
    spec_file.with_name("result.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
